package analysis_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"sara/internal/analysis"
	"sara/internal/core"
)

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestMonitorServesLiveRun probes the HTTP monitor over real TCP while a
// simulation is mid-flight: the run is advanced a few analyzer windows
// and paused (not finished), and the endpoints must already serve its
// live NPI/backpressure snapshot with state "running". Deterministic —
// the simulation runs on the test goroutine, so there is no race between
// progress and the probe.
func TestMonitorServesLiveRun(t *testing.T) {
	mon := analysis.NewMonitor()
	if err := mon.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	base := "http://" + mon.Addr()

	mon.AddPlanned(1)
	h := mon.StartRun("case A / policy qos")
	sys := core.Build(fastCfg())
	analysis.Attach(sys, analysis.Options{Window: 1024, Publish: h.Publish})
	sys.Run(8 * 1024) // several windows in; the run is still in flight

	var st struct {
		Planned int `json:"planned"`
		Running int `json:"running"`
		Done    int `json:"done"`
	}
	getJSON(t, base+"/api/status", &st)
	if st.Planned != 1 || st.Running != 1 || st.Done != 0 {
		t.Fatalf("mid-run status %+v, want planned 1 running 1 done 0", st)
	}

	var runs []analysis.RunStatus
	getJSON(t, base+"/api/runs", &runs)
	if len(runs) != 1 || runs[0].State != "running" {
		t.Fatalf("mid-run /api/runs = %+v, want one running entry", runs)
	}
	snap := runs[0].Snapshot
	if snap == nil {
		t.Fatal("running entry has no live snapshot after 8 windows")
	}
	if snap.Cycle == 0 || snap.Samples == 0 {
		t.Fatalf("snapshot not live: cycle %d, samples %d", snap.Cycle, snap.Samples)
	}
	if len(snap.NPI) == 0 {
		t.Fatal("live snapshot has no per-core NPI map")
	}
	if len(snap.RouterStall) == 0 {
		t.Fatal("live snapshot has no per-router stall map")
	}
	if snap.Backpressure < 0 {
		t.Fatalf("negative backpressure %v", snap.Backpressure)
	}

	var one analysis.RunStatus
	getJSON(t, base+"/api/run?label=case+A+%2F+policy+qos", &one)
	if one.State != "running" || one.Snapshot == nil {
		t.Fatalf("/api/run = %+v, want the running entry with its snapshot", one)
	}

	resp, err := http.Get(base + "/api/run?label=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown label: status %d, want 404", resp.StatusCode)
	}

	// Finish the run and let more windows pass: status flips to done and
	// the last snapshot stays served.
	sys.Run(2 * 1024)
	h.Finish(true)
	getJSON(t, base+"/api/status", &st)
	if st.Running != 0 || st.Done != 1 {
		t.Fatalf("post-run status %+v, want running 0 done 1", st)
	}

	resp, err = http.Get(base + "/")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if !strings.Contains(string(body[:n]), "sara sweep monitor") {
		t.Fatalf("index page unrecognizable:\n%s", body[:n])
	}
}

// TestNilMonitorIsInert pins the nil-object contract the exp harness and
// CLIs rely on: with monitoring disabled every call must be a no-op, so
// no caller ever branches.
func TestNilMonitorIsInert(t *testing.T) {
	var mon *analysis.Monitor
	mon.AddPlanned(3)
	if got := mon.Addr(); got != "" {
		t.Fatalf("nil monitor has address %q", got)
	}
	if err := mon.Close(); err != nil {
		t.Fatalf("nil monitor close: %v", err)
	}
	h := mon.StartRun("x")
	if h != nil {
		t.Fatal("nil monitor returned a run handle")
	}
	h.Publish(analysis.Snapshot{})
	h.Finish(true)
}
