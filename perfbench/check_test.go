package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"sara/internal/core"
	"sara/internal/exp"
)

// fakeJob returns a fixed digest, except that operation corruptAt
// returns it with one character flipped.
type fakeJob struct {
	n, corruptAt *int
	digest       string
}

func (j fakeJob) timed(func()) error { return nil }

func (j fakeJob) result() (outcome, error) {
	*j.n++
	d := j.digest
	if *j.n == *j.corruptAt {
		d = "f" + d[1:]
	}
	return outcome{cycles: 1000, layers: map[string]float64{}, digest: d}, nil
}

// runFake runs the benchmark command on a workload whose every operation
// returns the same digest except operation corruptAt (0 = none).
func runFake(t *testing.T, corruptAt int) report {
	t.Helper()
	n := 0
	workloads["fake"] = workload{
		setup: func(uint64) (job, error) {
			return fakeJob{n: &n, corruptAt: &corruptAt, digest: "0123abcd"}, nil
		},
		prefix: func(uint64) []core.Config { return nil },
	}
	defer delete(workloads, "fake")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "fake", "-seconds", "0.2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if n < 3 {
		t.Fatalf("only %d operations ran", n)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCorruptedDigestFailsTheCheck(t *testing.T) {
	if rep := runFake(t, 0); !rep.Correct || rep.Failed != 0 {
		t.Fatalf("identical digests: correct=%v failed=%d, want a correct run", rep.Correct, rep.Failed)
	}
	rep := runFake(t, 2)
	if rep.Correct || rep.Failed != 1 {
		t.Errorf("one corrupted digest: correct=%v failed=%d, want an incorrect run with 1 failure", rep.Correct, rep.Failed)
	}
	for _, m := range []string{"cpu_s", "sim_mcycles_per_cpu_s", "setup_s", "max_rss_mb", "alloc_mb"} {
		if _, ok := rep.Metrics[m]; !ok {
			t.Errorf("metric %s missing", m)
		}
	}
}

func TestPrefixCheckPassesOnEveryWorkload(t *testing.T) {
	for name, w := range workloads {
		for _, cfg := range w.prefix(3) {
			if err := prefixCheck(cfg, 5000); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

func TestSegmentsDoNotChangeResults(t *testing.T) {
	for name, cfg := range map[string]core.Config{"cell_full": cellFullConfig(3), "loaded_4x": loadedConfig(3)} {
		digest := func(segments int) string {
			j := &coreJob{sys: core.Build(cfg), cycles: 60_000, segments: segments}
			laps := 0
			if err := j.timed(func() { laps++ }); err != nil {
				t.Fatal(err)
			}
			if laps != segments-1 {
				t.Fatalf("%s: %d laps for %d segments", name, laps, segments)
			}
			out, err := j.result()
			if err != nil {
				t.Fatal(err)
			}
			return out.digest
		}
		if whole, split := digest(1), digest(7); whole != split {
			t.Errorf("%s: 7 segments give digest %s, one gives %s", name, split, whole)
		}
	}
}

func TestOpTimeSumsSegmentMedians(t *testing.T) {
	laps := func(ds ...time.Duration) []time.Duration { return ds }
	r := result{ops: []op{
		{laps: laps(1*time.Second, 9*time.Second)},
		{laps: laps(5*time.Second, 2*time.Second)},
		{laps: laps(2*time.Second, 3*time.Second)},
		{laps: laps(7*time.Second, 7*time.Second), traced: true},
	}}
	if got := r.opTime(false); got != 5 {
		t.Errorf("untraced op time %v s, want 2 + 3", got)
	}
	if got := r.opTime(true); got != 14 {
		t.Errorf("traced op time %v s, want 14", got)
	}
}

func TestCheckGridRejectsFailedCells(t *testing.T) {
	cells := gridCells(1)[:1]
	runs, err := exp.RunCells(cells, exp.Options{Analyze: true, MaxCycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGrid(cells, runs); err == nil {
		t.Error("a cell stopped by its cycle budget passed the check")
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	out := func(cpu, digest string) string {
		return `context: {"workload":"cell_full","seed":1,"trace":0,"cpu":"` + cpu + `","nproc":2,"gomaxprocs":2,"go":"go1.24.0"}
digest: ` + digest + `
{"correct":true,"attempted":3,"failed":0,"metrics":{"cpu_s":{"value":2,"unit":"s"}}}
`
	}
	var w bytes.Buffer
	if err := compare(strings.NewReader(out("A", "d1")), strings.NewReader(out("A", "d1")), &w); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w.String(), "bit-identical") {
		t.Errorf("same digests not reported as bit-identical:\n%s", w.String())
	}
	w.Reset()
	if err := compare(strings.NewReader(out("A", "d1")), strings.NewReader(out("A", "d2")), &w); err != nil || !strings.Contains(w.String(), "DIFFERENT") {
		t.Errorf("different digests: err %v, output:\n%s", err, w.String())
	}
	if err := compare(strings.NewReader(out("A", "d1")), strings.NewReader(out("B", "d1")), &w); err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Errorf("results from two CPU models compared: err %v", err)
	}
}
