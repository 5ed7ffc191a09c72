// Command perfbench is the SARA reproduction's benchmark. It runs one
// named workload of the simulator for a host-time budget, checks the
// simulated outputs, and prints every metric with its unit; the last
// line of its output is one JSON object. perfbench/run.py builds and
// runs it from the repository root:
//
//	python3 perfbench/run.py --workload cell_full --seed 1 --seconds 30 --trace 0
//	python3 perfbench/run.py compare before.txt after.txt
//
// README.md in this directory lists the workloads, metrics and seeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process plumbing: 0 means a result was
// printed (correct or not), 1 a run that could not report, 2 a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: perfbench compare <before> <after>")
			return 2
		}
		if err := compareFiles(args[1], args[2], stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "host seconds one run measures")
	trace := fs.Int("trace", 0, "1 = traced run: report per-layer metrics from CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	r := measure(*name, w, *seed, budget, *trace == 1)

	for _, err := range r.failures {
		fmt.Fprintln(stderr, "perfbench: FAILED:", err)
	}
	if len(r.ops) == 0 {
		fmt.Fprintln(stderr, "perfbench: no operation completed")
		return 1
	}
	metrics := r.endToEnd()
	if *trace == 1 {
		var err error
		if metrics, err = r.perLayer(); err != nil {
			fmt.Fprintln(stderr, "perfbench: FAILED:", err)
			r.attempts++
			r.failures = append(r.failures, err)
			metrics = map[string]metric{}
		}
	}
	ctx := hostContext(*name, *seed, *trace)
	line, err := json.Marshal(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "context: %s\n", line)
	fmt.Fprintf(stdout, "digest: %s\n", r.digest)
	fmt.Fprintf(stdout, "ops: %s\n", describeOps(r.ops))
	fmt.Fprintf(stdout, "set-ups: %s\n", describeDurations(r.setups))
	out := report{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempts,
		Failed:    len(r.failures),
		Metrics:   metrics,
	}
	line, err = json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// report is the last line of a run's output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// describeOps lists each operation's wall and CPU time, traced ones
// marked.
func describeOps(ops []op) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		var cpu time.Duration
		for _, l := range o.laps {
			cpu += l
		}
		parts[i] = fmt.Sprintf("%.4fs (cpu %.4fs)", o.wall.Seconds(), cpu.Seconds())
		if o.traced {
			parts[i] += "(traced)"
		}
	}
	return strings.Join(parts, " ")
}

func describeDurations(ds []time.Duration) string {
	if len(ds) == 0 {
		return "0"
	}
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	sort.Float64s(s)
	return fmt.Sprintf("%d, min %.6fs median %.6fs max %.6fs", len(s), s[0], median(s), s[len(s)-1])
}
