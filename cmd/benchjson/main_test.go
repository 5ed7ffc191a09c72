package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: sara
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulatorThroughput            	    2000	    258009 ns/op	        48.20 %skipped	      1000 cycles/op	     503 B/op	       0 allocs/op
BenchmarkLoadedPhaseThroughputScaled/4x 	    2000	   2201684 ns/op	         8.000 channels	      1000 cycles/op	    1694 B/op	       0 allocs/op
PASS
ok  	sara	33.601s
`

func TestParseBenchOutput(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	if rep.Context["cpu"] != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu context %q", rep.Context["cpu"])
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkSimulatorThroughput" || b.Iterations != 2000 || b.NsPerOp != 258009 {
		t.Fatalf("first benchmark %+v", b)
	}
	if b.NsPerCycle == nil || *b.NsPerCycle != 258.009 {
		t.Fatalf("ns/cycle %v, want 258.009", b.NsPerCycle)
	}
	if b.AllocsPerOp == nil || *b.AllocsPerOp != 0 {
		t.Fatalf("allocs/op %v, want 0", b.AllocsPerOp)
	}
	if b.Metrics["%skipped"] != 48.20 {
		t.Fatalf("%%skipped metric %v", b.Metrics["%skipped"])
	}
	s := rep.Benchmarks[1]
	if s.NsPerCyclePerChannel == nil || *s.NsPerCyclePerChannel != 2201.684/8 {
		t.Fatalf("per-channel cost %v", s.NsPerCyclePerChannel)
	}

	// The document round-trips with the conventional keys present.
	enc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"ns_per_op"`, `"ns_per_cycle"`, `"allocs_per_op"`, `"ns_per_cycle_per_channel"`} {
		if !strings.Contains(string(enc), key) {
			t.Fatalf("encoded report lacks %s:\n%s", key, enc)
		}
	}
}

func TestParseRejectsGarbageQuietly(t *testing.T) {
	rep, err := parse(strings.NewReader("hello\nBenchmarkBad x y\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from garbage", len(rep.Benchmarks))
	}
}

func TestRunStdinToStdout(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader(sample), &out, &errb); code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, errb.String())
	}
	var rep Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("stdout is not valid JSON: %v", err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("document holds %d benchmarks, want 2", len(rep.Benchmarks))
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader("no benches here\n"), &out, &errb); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "no benchmark lines") {
		t.Errorf("stderr lacks the empty-input diagnosis:\n%s", errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("bad input still wrote a document: %q", out.String())
	}
}

func TestRunRejectsMissingFile(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"/no/such/bench.out"}, strings.NewReader(""), &out, &errb); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-no-such-flag"}, strings.NewReader(""), &out, &errb); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// baseNs is a baseline host's ns/op for every benchmark the ratio gate
// reads (1000 cycles/op each); channels are the configs' channel counts.
var (
	baseNs = map[string]float64{
		"BenchmarkSimulatorThroughput":            204028,
		"BenchmarkSimulatorThroughputReference":   273479,
		"BenchmarkSimulatorThroughputRefresh":     233643,
		"BenchmarkLoadedPhaseThroughput":          409757,
		"BenchmarkLoadedPhaseThroughputReference": 451245,
		"BenchmarkLoadedPhaseThroughputScaled/4x": 1735793,
	}
	channels = map[string]int{
		"BenchmarkLoadedPhaseThroughput":          2,
		"BenchmarkLoadedPhaseThroughputScaled/4x": 8,
	}
)

// benchOutput renders go test -bench lines for baseNs, each ns/op
// multiplied by scale (default 1) and each name followed by suffix.
func benchOutput(scale map[string]float64, suffix string) string {
	var sb strings.Builder
	sb.WriteString("goos: linux\npkg: sara\n")
	for name, ns := range baseNs {
		if f, ok := scale[name]; ok {
			ns *= f
		}
		fmt.Fprintf(&sb, "%s%s\t2000\t%.0f ns/op", name, suffix, ns)
		if ch, ok := channels[name]; ok {
			fmt.Fprintf(&sb, "\t%d channels", ch)
		}
		sb.WriteString("\t1000 cycles/op\t0 B/op\t0 allocs/op\n")
	}
	return sb.String()
}

// writeBaseline records benchOutput(scale, "") as a baseline report and
// returns its path.
func writeBaseline(t *testing.T, scale map[string]float64) string {
	t.Helper()
	rep, err := parse(strings.NewReader(benchOutput(scale, "")))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// gate runs benchjson -baseline over input and returns the exit code
// and stderr.
func gate(t *testing.T, input, baseline string, extra ...string) (int, string) {
	t.Helper()
	var out, errb strings.Builder
	code := run(append([]string{"-baseline", baseline}, extra...), strings.NewReader(input), &out, &errb)
	return code, errb.String()
}

func TestBaselineWithinTolerancePasses(t *testing.T) {
	// A 10% slower skipping run raises the case-A ratio by 10%, inside
	// the default 25% tolerance.
	path := writeBaseline(t, nil)
	in := benchOutput(map[string]float64{"BenchmarkSimulatorThroughput": 1.1}, "")
	code, stderr := gate(t, in, path)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "ok case-A skipping vs stepped") {
		t.Errorf("stderr lacks the per-ratio comparison:\n%s", stderr)
	}
}

func TestBaselineRegressionFails(t *testing.T) {
	// A 40% slower skipping run on case A trips the case-A ratio.
	path := writeBaseline(t, nil)
	in := benchOutput(map[string]float64{"BenchmarkSimulatorThroughput": 1.4}, "")
	code, stderr := gate(t, in, path)
	if code != 3 {
		t.Fatalf("exit code %d, want 3; stderr:\n%s", code, stderr)
	}
	if strings.Count(stderr, "REGRESSION") != 1 || !strings.Contains(stderr, "REGRESSION case-A skipping vs stepped") {
		t.Errorf("want exactly the case-A ratio flagged; stderr:\n%s", stderr)
	}
}

func TestBaselineToleranceFlag(t *testing.T) {
	// The same 40% regression passes once the tolerance is raised to 50%.
	path := writeBaseline(t, nil)
	in := benchOutput(map[string]float64{"BenchmarkSimulatorThroughput": 1.4}, "")
	if code, stderr := gate(t, in, path, "-tolerance", "0.5"); code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, stderr)
	}
}

func TestBaselineSuffixedNamesMatch(t *testing.T) {
	// go test appends -GOMAXPROCS on multi-core hosts; the names must
	// still meet the unsuffixed baseline's.
	path := writeBaseline(t, nil)
	code, stderr := gate(t, benchOutput(nil, "-2"), path)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, stderr)
	}
	if n := strings.Count(stderr, "benchjson: ok "); n != len(gatedRatios) {
		t.Fatalf("%d ratios compared, want %d; stderr:\n%s", n, len(gatedRatios), stderr)
	}
	rep, err := parse(strings.NewReader(benchOutput(nil, "-16")))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range rep.Benchmarks {
		if _, ok := baseNs[b.Name]; !ok {
			t.Errorf("parsed name %q keeps its GOMAXPROCS suffix", b.Name)
		}
	}
}

func TestBaselineUniformSlowdownPasses(t *testing.T) {
	// A host twice as slow on every benchmark moves no ratio: absolute
	// ns from another host must not read as a regression.
	path := writeBaseline(t, nil)
	slow := map[string]float64{}
	for name := range baseNs {
		slow[name] = 2
	}
	code, stderr := gate(t, benchOutput(slow, "-2"), path)
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, stderr)
	}
	if strings.Contains(stderr, "REGRESSION") {
		t.Fatalf("uniform slowdown flagged:\n%s", stderr)
	}
}

func TestBaselineDisjointNamesFail(t *testing.T) {
	// A baseline sharing no gated benchmark must fail loudly, not pass
	// vacuously.
	mk := Bench{Name: "BenchmarkRenamedAway", NsPerCycle: new(float64)}
	*mk.NsPerCycle = 100
	enc, err := json.Marshal(Report{Benchmarks: []Bench{mk}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stderr := gate(t, benchOutput(nil, ""), path)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "shares no ns/cycle benchmarks") {
		t.Errorf("stderr lacks the disjoint-names diagnosis:\n%s", stderr)
	}
}

func TestBaselineMedianIgnoresOutlier(t *testing.T) {
	// Five -count samples per name, one of them a 2x outlier on the
	// skipping run: the median still reads the quiet samples, so the
	// case-A ratio equals the single-sample one and the gate passes.
	in := benchOutput(nil, "-2")
	for i := 0; i < 3; i++ {
		in += benchOutput(nil, "-2")
	}
	in += benchOutput(map[string]float64{"BenchmarkSimulatorThroughput": 2}, "-2")
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	single, err := parse(strings.NewReader(benchOutput(nil, "")))
	if err != nil {
		t.Fatal(err)
	}
	r := gatedRatios[0]
	got, ok := r.value(rep)
	want, okWant := r.value(single)
	if !ok || !okWant || got != want {
		t.Fatalf("%s over five samples = %v (ok %v), want the single-sample %v", r.label, got, ok, want)
	}
	if code, stderr := gate(t, in, writeBaseline(t, nil)); code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, stderr)
	}
	// The median is still a real gate: three slow samples of five move it.
	slow := benchOutput(nil, "-2") + benchOutput(nil, "-2")
	for i := 0; i < 3; i++ {
		slow += benchOutput(map[string]float64{"BenchmarkSimulatorThroughput": 1.4}, "-2")
	}
	if code, stderr := gate(t, slow, writeBaseline(t, nil)); code != 3 {
		t.Fatalf("exit code %d, want 3; stderr:\n%s", code, stderr)
	}
}

func TestBaselineMissingFileFails(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-baseline", "/no/such/baseline.json"},
		strings.NewReader(sample), &out, &errb); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}

func TestRunRejectsUnwritableOutput(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-o", "/no/such/dir/bench.json"}, strings.NewReader(sample), &out, &errb)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}
