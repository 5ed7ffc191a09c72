// Command benchjson converts `go test -bench` output into a small JSON
// document so CI can archive the performance trajectory machine-readably
// across PRs (BENCH_loaded.json: loaded-phase and case-A ns/cycle,
// allocs/op, and the 1x/2x/4x scaled-SoC points).
//
//	go test -run=NONE -bench=... -benchmem . | benchjson -o BENCH_loaded.json
//	benchjson -o BENCH_loaded.json bench.out
//
// With -baseline it additionally gates on cost ratios measured within
// one run (see gatedRatios) and exits 3 when any ratio grew by more than
// -tolerance (fraction, default 0.25) over the same ratio computed from
// a previously-emitted report. Each term of a ratio is the median
// ns/cycle over every line of its benchmark name, so a `go test -count=N`
// run gates on all N samples rather than the first. Absolute ns are
// recorded, never compared: they move with the host, while a ratio of
// two benchmarks from the same run does not.
//
//	benchjson -baseline bench_baseline.json bench.out >/dev/null
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// ratio is one gated cost ratio: the numerator benchmark's cost over the
// denominator's, both taken from the same report. perChannel selects
// ns/cycle/channel instead of ns/cycle for both terms.
type ratio struct {
	label      string
	num, den   string
	perChannel bool
}

// gatedRatios is the regression gate. Each ratio isolates one property
// of the kernel that a hot-path slip would move while a uniformly
// faster or slower host would not.
var gatedRatios = []ratio{
	{"case-A skipping vs stepped", "BenchmarkSimulatorThroughput", "BenchmarkSimulatorThroughputReference", false},
	{"loaded skipping vs stepped", "BenchmarkLoadedPhaseThroughput", "BenchmarkLoadedPhaseThroughputReference", false},
	{"4x vs 1x per channel", "BenchmarkLoadedPhaseThroughputScaled/4x", "BenchmarkLoadedPhaseThroughput", true},
	{"refresh vs no refresh", "BenchmarkSimulatorThroughputRefresh", "BenchmarkSimulatorThroughput", false},
}

// value computes r over rep, or ok=false when either term is missing.
// Each term is the median cost over every line of its name (go test
// -count repeats a benchmark as several lines), so one noisy sample
// cannot decide the gate; a line without a usable cost voids the term.
func (r ratio) value(rep Report) (float64, bool) {
	cost := func(name string) (float64, bool) {
		var vs []float64
		for _, b := range rep.Benchmarks {
			if b.Name != name {
				continue
			}
			v := b.NsPerCycle
			if r.perChannel {
				v = b.NsPerCyclePerChannel
			}
			if v == nil || *v <= 0 {
				return 0, false
			}
			vs = append(vs, *v)
		}
		if len(vs) == 0 {
			return 0, false
		}
		return median(vs), true
	}
	n, ok := cost(r.num)
	if !ok {
		return 0, false
	}
	d, ok := cost(r.den)
	if !ok {
		return 0, false
	}
	return n / d, true
}

// median returns the middle value of vs (the mean of the middle two for
// an even count), reordering vs in place.
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// Bench is one parsed benchmark result line.
type Bench struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Metrics holds the b.ReportMetric pairs (cycles/op, %skipped,
	// channels, worst-min-NPI, GB/s, ...), keyed by unit.
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	// NsPerCycle is derived from ns/op and the cycles/op metric, the
	// number the README perf tables track.
	NsPerCycle *float64 `json:"ns_per_cycle,omitempty"`
	// NsPerCyclePerChannel divides further by the channels metric on the
	// scaled-SoC benchmarks, the flatness curve the scaling work tracks.
	NsPerCyclePerChannel *float64 `json:"ns_per_cycle_per_channel,omitempty"`
}

// Report is the document benchjson emits.
type Report struct {
	// Context carries the go test header lines (goos, goarch, pkg, cpu).
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []Bench           `json:"benchmarks"`
}

// parse consumes go test -bench output.
func parse(r io.Reader) (Report, error) {
	rep := Report{Context: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if b, ok := parseBenchLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
			continue
		}
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			prefix := key + ": "
			if len(line) > len(prefix) && line[:len(prefix)] == prefix {
				rep.Context[key] = line[len(prefix):]
			}
		}
	}
	return rep, sc.Err()
}

// parseBenchLine parses one "BenchmarkName  N  v unit  v unit ..." line.
func parseBenchLine(line string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields[0]) < len("Benchmark") || fields[0][:len("Benchmark")] != "Benchmark" {
		return Bench{}, false
	}
	b := Bench{Name: stripProcs(fields[0]), Metrics: map[string]float64{}}
	if _, err := fmt.Sscan(fields[1], &b.Iterations); err != nil {
		return Bench{}, false
	}
	for i := 2; i+1 < len(fields); i += 2 {
		var v float64
		if _, err := fmt.Sscan(fields[i], &v); err != nil {
			return Bench{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			val := v
			b.BytesPerOp = &val
		case "allocs/op":
			val := v
			b.AllocsPerOp = &val
		default:
			b.Metrics[unit] = v
		}
	}
	if cycles, ok := b.Metrics["cycles/op"]; ok && cycles > 0 && b.NsPerOp > 0 {
		nsc := b.NsPerOp / cycles
		b.NsPerCycle = &nsc
		if ch, ok := b.Metrics["channels"]; ok && ch > 0 {
			per := nsc / ch
			b.NsPerCyclePerChannel = &per
		}
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, true
}

// stripProcs drops the "-N" GOMAXPROCS suffix go test appends to
// benchmark names on multi-core hosts, so reports from hosts with
// different core counts share names.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main without the process plumbing, so tests can drive the CLI
// and assert output and exit codes. 0 = success, 1 = bad input or write
// failure, 2 = usage error, 3 = ratio regression beyond tolerance.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (default stdout)")
	baseline := fs.String("baseline", "", "baseline report JSON to compare the gated ns/cycle ratios against")
	tolerance := fs.Float64("tolerance", 0.25, "allowed fractional growth of a gated ratio vs the baseline")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	rep, err := parse(in)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines in input")
		return 1
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	enc = append(enc, '\n')
	if *out == "" {
		stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	if *baseline != "" {
		return compareBaseline(rep, *baseline, *tolerance, stderr)
	}
	return 0
}

// compareBaseline computes every gated ratio on the fresh report and on
// the baseline report and reports ratios that grew beyond tolerance. A
// ratio missing on either side is skipped with a note; if none can be
// compared the gate fails, so a renamed benchmark cannot silently turn
// it into a no-op.
func compareBaseline(rep Report, path string, tolerance float64, stderr io.Writer) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: baseline: %v\n", err)
		return 1
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(stderr, "benchjson: baseline %s: %v\n", path, err)
		return 1
	}
	compared, regressed := 0, 0
	for _, r := range gatedRatios {
		was, okBase := r.value(base)
		cur, okCur := r.value(rep)
		if !okBase || !okCur {
			fmt.Fprintf(stderr, "benchjson: skip %s (%s / %s): missing from the input or the baseline\n",
				r.label, r.num, r.den)
			continue
		}
		compared++
		growth := cur / was
		if growth > 1+tolerance {
			regressed++
			fmt.Fprintf(stderr, "benchjson: REGRESSION %s (%s / %s): %.3f vs baseline %.3f (%+.0f%% > %.0f%% tolerance)\n",
				r.label, r.num, r.den, cur, was, (growth-1)*100, tolerance*100)
			continue
		}
		fmt.Fprintf(stderr, "benchjson: ok %s (%s / %s): %.3f vs baseline %.3f (%+.0f%%)\n",
			r.label, r.num, r.den, cur, was, (growth-1)*100)
	}
	if compared == 0 {
		fmt.Fprintf(stderr, "benchjson: baseline %s shares no ns/cycle benchmarks with the input for any gated ratio\n", path)
		return 1
	}
	if regressed > 0 {
		return 3
	}
	return 0
}
