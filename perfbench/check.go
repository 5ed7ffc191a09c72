package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"sort"

	"sara/internal/core"
	"sara/internal/sim"
)

// counters reads the model counters of sys through its public stat
// accessors, keyed by the per-layer metric they feed. Ratios are derived
// from these sums when the report is built, so counters of several
// systems or a before/after pair can be added or subtracted.
func counters(sys *core.System) map[string]float64 {
	m := map[string]float64{
		"sim.cycles":         float64(sys.Now()),
		"sim.skipped_cycles": float64(sys.SkippedCycles()),
		"sim.seconds":        float64(sys.Now()) / sys.Config().DRAM.ClockHz(),
	}
	for _, c := range sys.Controllers() {
		st := c.Stats()
		m["memctrl.served"] += float64(st.Served)
		m["memctrl.row_hits"] += float64(st.RowHits)
		m["memctrl.aged_serves"] += float64(st.AgedServes)
		m["memctrl.refreshes"] += float64(st.Refreshes)
		m["memctrl.forced_refreshes"] += float64(st.ForcedRefreshes)
	}
	for _, r := range sys.Routers() {
		m["noc.forwarded"] += float64(r.Forwarded())
		m["noc.stall_cycles"] += float64(r.Stalls())
	}
	d := sys.DRAMStats().Totals()
	m["dram.activates"] = float64(d.Activates)
	m["dram.read_bursts"] = float64(d.ReadBursts)
	m["dram.write_bursts"] = float64(d.WriteBursts)
	m["dram.refreshes"] = float64(d.Refreshes)
	m["dram.bytes"] = float64(d.BytesMoved)
	for _, u := range sys.Units() {
		st := u.Engine.Stats()
		m["dma.injected"] += float64(st.Injected)
		m["dma.completed"] += float64(st.Completed)
		m["dma.inject_stalls"] += float64(st.InjectStalls)
		m["dma.latency_cycles"] += float64(st.TotalLatency)
	}
	return m
}

// checkSystem verifies the invariants that must hold between the public
// counters of a system at any cycle.
func checkSystem(sys *core.System) error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if sys.SkippedCycles() > uint64(sys.Now()) {
		fail("skipped %d cycles of %d", sys.SkippedCycles(), sys.Now())
	}
	var served, completed, injected, mcRefreshes uint64
	for i, c := range sys.Controllers() {
		st := c.Stats()
		if st.RowHits+st.RowMisses+st.RowConflicts != st.Served {
			fail("controller %d: %d hits + %d misses + %d conflicts != %d served",
				i, st.RowHits, st.RowMisses, st.RowConflicts, st.Served)
		}
		served += st.Served
		mcRefreshes += st.Refreshes
	}
	for _, u := range sys.Units() {
		st := u.Engine.Stats()
		if st.Completed > st.Injected || st.Injected > st.Generated {
			fail("DMA %s: generated %d, injected %d, completed %d", u.Label(), st.Generated, st.Injected, st.Completed)
		}
		completed += st.Completed
		injected += st.Injected
	}
	if completed > served || served > injected {
		fail("injected %d, served %d, completed %d", injected, served, completed)
	}
	if d := sys.DRAMStats().Totals().Refreshes; d != mcRefreshes {
		fail("DRAM counted %d refreshes, controllers issued %d", d, mcRefreshes)
	}
	return errors.Join(errs...)
}

// digestSystem hashes every simulated result of sys: the clock, each
// controller's, router's, DRAM channel's and DMA's counters, and every
// NPI sample. The executed/skipped split is left out on purpose: it is
// the one statistic a change that only speeds the simulator up may move.
func digestSystem(sys *core.System) string {
	h := sha256.New()
	fmt.Fprintf(h, "now %d\n", sys.Now())
	for i, c := range sys.Controllers() {
		fmt.Fprintf(h, "memctrl %d %+v\n", i, c.Stats())
	}
	for _, r := range sys.Routers() {
		fmt.Fprintf(h, "noc %s %d %d\n", r.Name(), r.Forwarded(), r.Stalls())
	}
	fmt.Fprintf(h, "dram %+v\n", sys.DRAMStats())
	for _, u := range sys.Units() {
		fmt.Fprintf(h, "dma %s %+v\n", u.Label(), u.Engine.Stats())
		if u.Series != nil {
			hashSeries(h, u.Series.Cycles, u.Series.Values)
		}
	}
	npi := sys.MinNPIByCore(0)
	cores := make([]string, 0, len(npi))
	for c := range npi {
		cores = append(cores, c)
	}
	sort.Strings(cores)
	for _, c := range cores {
		fmt.Fprintf(h, "npi %s %x\n", c, math.Float64bits(npi[c]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashSeries(h hash.Hash, cycles []sim.Cycle, values []float64) {
	buf := make([]byte, 0, 16*len(values))
	for i, v := range values {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(cycles[i]))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	h.Write(buf)
}

// prefixCheck runs the first cycles of cfg twice, with idle skipping on
// and with the kernel stepping every cycle, and fails unless both give
// the same digest and the skipping run's executed and skipped cycles add
// up to the clock.
func prefixCheck(cfg core.Config, cycles sim.Cycle) error {
	skip := core.Build(cfg)
	// An empty watchdog sets no budget; it makes the kernel count the
	// cycles it executes.
	skip.SetWatchdog(&sim.Watchdog{})
	step := core.Build(cfg)
	step.Kernel().SetIdleSkip(false)
	for _, sys := range []*core.System{skip, step} {
		if err := sys.RunChecked(cycles); err != nil {
			return fmt.Errorf("prefix run: %w", err)
		}
		if err := checkSystem(sys); err != nil {
			return fmt.Errorf("prefix run: %w", err)
		}
	}
	if ex, sk := skip.Kernel().ExecutedCycles(), skip.SkippedCycles(); ex+sk != uint64(skip.Now()) {
		return fmt.Errorf("prefix run: %d executed + %d skipped cycles != clock %d", ex, sk, skip.Now())
	}
	return sameDigest(digestSystem(skip), digestSystem(step))
}

// sameDigest fails unless two digests of what must be the same results
// agree.
func sameDigest(want, got string) error {
	if want != got {
		return fmt.Errorf("result digest %s differs from %s", got, want)
	}
	return nil
}
