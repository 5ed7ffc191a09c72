package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A run does at least minOps operations, even when the last of them
// overruns the budget, so that a traced run has an untraced and a traced
// one.
const minOps = 2

// A run sets the workload up at least minSetups times, and keeps adding
// set-ups it does not use until those have taken setupFloor, so that
// setup_s is a median even when few operations fit in the run. A cheap
// set-up (well under a millisecond) speeds up over its first tens of
// repetitions; the floor lets the median settle past them.
const (
	minSetups  = 5
	setupFloor = 200 * time.Millisecond
)

// op is one measured operation.
type op struct {
	setup   time.Duration   // CPU time of the set-up
	laps    []time.Duration // CPU time of each segment of the timed phase, in order
	wall    time.Duration   // wall time of the timed phase
	alloc   uint64          // heap bytes allocated in the timed phase
	traced  bool
	profile []byte // CPU profile of a traced operation
	out     outcome
}

// result is what one benchmark run measured.
type result struct {
	ops      []op
	setups   []time.Duration
	attempts int
	failures []error
	digest   string
	// model holds the counters the workload gathers after the
	// operations, when it has to; they add to the operations' own.
	model map[string]float64
}

// measure runs operations, each on a fresh set-up, until the next one
// would overrun budget and at least minOps have run; then it adds unused
// set-ups (see setupFloor), runs the prefix output check and, in a
// traced run, gathers the model counters the workload collects apart.
// With traced set, every other operation runs under the CPU profiler,
// starting with an untraced one, so both kinds run at least once.
func measure(name string, w workload, seed uint64, budget time.Duration, traced bool) result {
	var r result
	fail := func(err error) { r.failures = append(r.failures, err) }
	start := time.Now()
	for i := 0; ; i++ {
		r.attempts++
		o, err := runOp(w, seed, traced && i%2 == 1)
		if o.setup > 0 {
			r.setups = append(r.setups, o.setup)
		}
		switch {
		case err != nil:
			fail(fmt.Errorf("%s operation %d: %w", name, i, err))
		case r.digest == "":
			r.digest = o.out.digest
			r.ops = append(r.ops, o)
		default:
			if err := sameDigest(r.digest, o.out.digest); err != nil {
				fail(fmt.Errorf("%s operation %d: same seed, different results: %w", name, i, err))
				break
			}
			r.ops = append(r.ops, o)
		}
		if err != nil && len(r.ops) == 0 {
			break // nothing to measure: the workload fails outright
		}
		last := time.Since(start) / time.Duration(i+1)
		if i+1 >= minOps && time.Since(start)+last > budget {
			break
		}
	}
	extra := time.Now()
	for len(r.failures) == 0 && (len(r.setups) < minSetups || time.Since(extra) < setupFloor) {
		runtime.GC()
		c := cpuTime()
		if err := contain(func() error { _, err := w.setup(seed); return err }); err != nil {
			r.attempts++
			fail(fmt.Errorf("%s set-up: %w", name, err))
			break
		}
		r.setups = append(r.setups, cpuTime()-c)
	}
	for _, cfg := range w.prefix(seed) {
		r.attempts++
		if err := contain(func() error { return prefixCheck(cfg, w.prefixCycles) }); err != nil {
			fail(fmt.Errorf("%s skip-vs-step check: %w", name, err))
		}
	}
	if traced && w.counters != nil {
		r.attempts++
		err := contain(func() (err error) {
			r.model, err = w.counters(seed)
			return err
		})
		if err != nil {
			fail(fmt.Errorf("%s model counters: %w", name, err))
		}
	}
	return r
}

// runOp sets up and runs one operation.
func runOp(w workload, seed uint64, traced bool) (o op, err error) {
	err = contain(func() error {
		// Each operation starts on a collected heap, so it pays for
		// its own garbage and not for its predecessor's.
		runtime.GC()
		c := cpuTime()
		j, err := w.setup(seed)
		o.setup = cpuTime() - c
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		var prof bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return fmt.Errorf("start CPU profile: %w", err)
			}
			// Stops the profiler if the operation panics; after the
			// stop below it does nothing.
			defer pprof.StopCPUProfile()
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		t := time.Now()
		c = cpuTime()
		lap := func() {
			now := cpuTime()
			o.laps = append(o.laps, now-c)
			c = now
		}
		err = j.timed(lap)
		lap()
		o.wall = time.Since(t)
		runtime.ReadMemStats(&ms)
		o.alloc = ms.TotalAlloc - before
		if traced {
			pprof.StopCPUProfile()
			o.traced, o.profile = true, prof.Bytes()
		}
		if err != nil {
			return err
		}
		o.out, err = j.result()
		return err
	})
	return o, err
}

// cpuTime is the CPU time the process has used so far, user and system,
// on all its threads. Unlike wall time it leaves out the time a shared
// host's hypervisor gives this machine's CPUs to other guests (steal
// time), which on a busy host is a third of the wall time or more, and
// swings from minute to minute.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// contain runs f, reporting a panic as an error.
func contain(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opTime is the CPU time of one operation in seconds, from the ops that
// traced selects: the sum over the operation's segments of each
// segment's median time. With one segment it is the median operation
// time; with several, a slow spell of the host that spans a few
// segments of one operation does not count, where it would tip a
// median over the two or three operations a long workload fits in a
// run.
func (r result) opTime(traced bool) float64 {
	var total float64
	for k := 0; ; k++ {
		var seg []float64
		for _, o := range r.ops {
			if o.traced == traced && k < len(o.laps) {
				seg = append(seg, o.laps[k].Seconds())
			}
		}
		if len(seg) == 0 {
			return total
		}
		total += median(seg)
	}
}

// endToEnd reports the user-visible metrics from the untraced operations.
func (r result) endToEnd() map[string]metric {
	var alloc []float64
	for _, o := range r.ops {
		if !o.traced {
			alloc = append(alloc, float64(o.alloc)/1e6)
		}
	}
	cpu := r.opTime(false)
	return map[string]metric{
		"cpu_s":                 {cpu, "s"},
		"sim_mcycles_per_cpu_s": {ratio(float64(r.ops[0].out.cycles), cpu) * 1e-6, "Mcycles/s"},
		"setup_s":               {medianDuration(r.setups), "s"},
		"max_rss_mb":            {peakRSSMB(), "MB"},
		"alloc_mb":              {median(alloc), "MB"},
	}
}

// perLayer reports host self time per layer from the traced operations'
// profiles, the model counters of the last operation together with
// r.model, and the tracing overhead: traced minus untraced median wall
// time.
func (r result) perLayer() (map[string]metric, error) {
	out := map[string]metric{}
	self := map[string]int64{}
	var total int64
	var plain []float64
	var traced int
	for _, o := range r.ops {
		if !o.traced {
			plain = append(plain, o.wall.Seconds())
			continue
		}
		traced++
		folded, err := foldProfile(o.profile)
		if err != nil {
			return nil, err
		}
		for l, ns := range folded {
			self[l] += ns
			total += ns
		}
	}
	if traced == 0 || len(plain) == 0 {
		return nil, fmt.Errorf("a traced run needs traced and untraced operations, got %d and %d", traced, len(plain))
	}
	for _, l := range layers {
		out[l+".self_s"] = metric{float64(self[l]) / 1e9 / float64(traced), "s"}
		out[l+".self_frac"] = metric{ratio(float64(self[l]), float64(total)), "fraction"}
	}
	out["trace_overhead_s"] = metric{r.opTime(true) - r.opTime(false), "s"}
	out["host.wall_s"] = metric{median(plain), "s"}

	c := r.ops[len(r.ops)-1].out.layers
	for k, v := range r.model {
		c[k] = v
	}
	executed := c["sim.cycles"] - c["sim.skipped_cycles"]
	for name, m := range map[string]metric{
		"sim.executed_cycles":       {executed, "cycles"},
		"sim.skipped_cycles":        {c["sim.skipped_cycles"], "cycles"},
		"sim.skip_frac":             {ratio(c["sim.skipped_cycles"], c["sim.cycles"]), "fraction"},
		"sim.ns_per_executed_cycle": {ratio(r.opTime(false)*1e9, executed), "ns/cycle"},
		"memctrl.served":            {c["memctrl.served"], "count"},
		"memctrl.row_hit_frac":      {ratio(c["memctrl.row_hits"], c["memctrl.served"]), "fraction"},
		"memctrl.aged_serves":       {c["memctrl.aged_serves"], "count"},
		"memctrl.refreshes":         {c["memctrl.refreshes"], "count"},
		"memctrl.forced_refreshes":  {c["memctrl.forced_refreshes"], "count"},
		"noc.forwarded":             {c["noc.forwarded"], "count"},
		"noc.stall_cycles":          {c["noc.stall_cycles"], "cycles"},
		"dram.activates":            {c["dram.activates"], "count"},
		"dram.read_bursts":          {c["dram.read_bursts"], "count"},
		"dram.write_bursts":         {c["dram.write_bursts"], "count"},
		"dram.refreshes":            {c["dram.refreshes"], "count"},
		"dram.bandwidth_gbps":       {ratio(c["dram.bytes"], c["sim.seconds"]) / 1e9, "GB/s"},
		"dma.injected":              {c["dma.injected"], "count"},
		"dma.completed":             {c["dma.completed"], "count"},
		"dma.inject_stalls":         {c["dma.inject_stalls"], "cycles"},
		"dma.avg_latency_cycles":    {ratio(c["dma.latency_cycles"], c["dma.completed"]), "cycles"},
		"exp.cells":                 {c["exp.cells"], "count"},
		"exp.critical_pass_frac":    {c["exp.critical_pass_frac"], "fraction"},
		"exp.worst_min_npi":         {c["exp.worst_min_npi"], "NPI"},
	} {
		out[name] = m
	}
	return out, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB,
// or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
