package exp

import (
	"encoding/json"
	"net/http"
	"testing"

	"sara/internal/analysis"
	"sara/internal/config"
	"sara/internal/memctrl"
)

// TestRunCellsAnalyzesAndMonitors drives the supervised sweep path with
// both observability options on: every completed cell must carry a
// windowed analysis report, and the monitor must have tracked the cells
// through to "done" with their final snapshots still served.
func TestRunCellsAnalyzesAndMonitors(t *testing.T) {
	mon := analysis.NewMonitor()
	if err := mon.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	opt := Options{ScaleDiv: 512, Analyze: true, AnalysisWindow: 2048, Monitor: mon}.apply()
	cells := []Cell{
		{Case: config.CaseA, Policy: memctrl.FCFS},
		{Case: config.CaseA, Policy: memctrl.QoS},
	}
	runs, err := RunCells(cells, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Err != nil {
			t.Fatalf("cell %v failed: %v", r.Policy, r.Err)
		}
		if r.Analysis == nil {
			t.Fatalf("cell %v has no analysis report", r.Policy)
		}
		if r.Analysis.Samples == 0 || !r.Analysis.Edges {
			t.Fatalf("cell %v report: samples %d edges %v, want sampled edge-layer report",
				r.Policy, r.Analysis.Samples, r.Analysis.Edges)
		}
		if r.Analysis.System.WorstNPI.Len() != r.Analysis.Samples {
			t.Fatalf("cell %v: system series %d points, want %d",
				r.Policy, r.Analysis.System.WorstNPI.Len(), r.Analysis.Samples)
		}
	}

	resp, err := http.Get("http://" + mon.Addr() + "/api/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Planned int `json:"planned"`
		Running int `json:"running"`
		Done    int `json:"done"`
		Failed  int `json:"failed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Planned != 2 || st.Done != 2 || st.Running != 0 || st.Failed != 0 {
		t.Fatalf("final status %+v, want planned 2 done 2", st)
	}

	resp2, err := http.Get("http://" + mon.Addr() + "/api/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var entries []analysis.RunStatus
	if err := json.NewDecoder(resp2.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d monitored runs, want 2", len(entries))
	}
	for _, e := range entries {
		if e.State != "done" {
			t.Fatalf("run %q state %q, want done", e.Label, e.State)
		}
		if e.Snapshot == nil || len(e.Snapshot.NPI) == 0 {
			t.Fatalf("run %q kept no final snapshot", e.Label)
		}
	}
}

// TestPolicyRunAnalysisRoundTripsJSON pins the export contract: an
// analyzed PolicyRun survives a JSON round trip with its report intact
// (the journal and the CLI -analysis-out path both rely on this).
func TestPolicyRunAnalysisRoundTripsJSON(t *testing.T) {
	opt := Options{ScaleDiv: 512, Analyze: true, AnalysisWindow: 4096}.apply()
	run := RunPolicy(config.CaseA, memctrl.QoS, opt)
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	if run.Analysis == nil {
		t.Fatal("analyzed run has no report")
	}
	blob, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	var back PolicyRun
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Analysis == nil {
		t.Fatal("report lost in JSON round trip")
	}
	if back.Analysis.Samples != run.Analysis.Samples ||
		back.Analysis.Window != run.Analysis.Window {
		t.Fatalf("report shape changed in round trip: %d/%d samples, %d/%d window",
			back.Analysis.Samples, run.Analysis.Samples, back.Analysis.Window, run.Analysis.Window)
	}
	if back.Analysis.System.WorstNPI.Len() != run.Analysis.System.WorstNPI.Len() {
		t.Fatal("system series lost in JSON round trip")
	}
}
