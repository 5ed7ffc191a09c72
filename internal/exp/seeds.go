package exp

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sara/internal/config"
	"sara/internal/memctrl"
	"sara/internal/stats"
)

// RunSeeds measures (tc, policy) once per seed through the supervised
// cell runner, fanning the independent runs across the worker pool. Each
// run owns its own kernel and forked RNG streams, so the result slice —
// and every statistic derived from it — is identical regardless of worker
// count; the seed fan-out tests assert it. With Options.Journal set the
// fan-out checkpoints per seed, like any other cell grid.
func RunSeeds(tc config.Case, policy memctrl.PolicyKind, seeds []uint64, opt Options) []PolicyRun {
	opt = opt.apply()
	cells := make([]Cell, len(seeds))
	for i, s := range seeds {
		cells[i] = Cell{Case: tc, Policy: policy, Seed: s}
	}
	out, _ := RunCells(cells, opt)
	return out
}

// WorstNPISummary aggregates the per-seed worst min-NPI (the scalar the
// figure pass/fail calls key on) into mean / std / 95% CI. Runs whose
// MinNPI map is empty — no metered core produced a sample, e.g. a
// CPU-only roster or a horizon shorter than the sampling period — carry
// no worst NPI and are skipped, rather than poisoning the summary with a
// sentinel; the Summary's N reports how many runs actually contributed.
func WorstNPISummary(runs []PolicyRun) stats.Summary {
	xs := make([]float64, 0, len(runs))
	for _, r := range runs {
		if len(r.MinNPI) == 0 {
			continue
		}
		worst := math.Inf(1)
		for _, v := range r.MinNPI { //sara:maprange-ok min-reduction is order-insensitive
			if v < worst {
				worst = v
			}
		}
		xs = append(xs, worst)
	}
	return stats.Summarize(xs)
}

// BandwidthSummary aggregates the per-seed measured DRAM bandwidth.
func BandwidthSummary(runs []PolicyRun) stats.Summary {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.BandwidthGBps
	}
	return stats.Summarize(xs)
}

// PerCoreNPISummaries aggregates, core by core, the across-seed
// distribution of each core's minimum NPI — the error bars behind the
// Fig. 5/6/9-style per-core tables. Cores are returned in sorted order
// for stable output; a core absent from some runs (its meter produced no
// sample there) contributes only the runs that measured it, which the
// per-core Summary.N reports.
func PerCoreNPISummaries(runs []PolicyRun) ([]string, map[string]stats.Summary) {
	cores, vals := perCoreNPI(runs)
	out := make(map[string]stats.Summary, len(cores))
	for _, core := range cores {
		out[core] = stats.Summarize(vals[core])
	}
	return cores, out
}

// perCoreNPI gathers each core's per-seed minimum NPI samples, in run
// order, and the cores in sorted order.
func perCoreNPI(runs []PolicyRun) ([]string, map[string][]float64) {
	vals := map[string][]float64{}
	for _, r := range runs {
		for core, v := range r.MinNPI { //sara:maprange-ok each core's slice gets one sample per run, so per-slice order is run order
			vals[core] = append(vals[core], v)
		}
	}
	cores := make([]string, 0, len(vals))
	for core := range vals {
		cores = append(cores, core)
	}
	sort.Strings(cores)
	return cores, vals
}

// FormatSeedSummary renders a seed fan-out as one line per metric.
func FormatSeedSummary(runs []PolicyRun) string {
	if len(runs) == 0 {
		return ""
	}
	var b strings.Builder
	npi, bw := WorstNPISummary(runs), BandwidthSummary(runs)
	fmt.Fprintf(&b, "case %s / policy %-9s  %d seeds\n", runs[0].Case, runs[0].Policy, len(runs))
	switch {
	case npi.N == 0:
		// No run produced an NPI sample (no metered core reached the
		// sampling period); zero-value statistics would read as
		// catastrophic starvation, so say "no data" instead.
		fmt.Fprintf(&b, "  worst min NPI  no NPI samples in %d runs\n", len(runs))
	case npi.N < len(runs):
		// Some runs produced no NPI samples; the NPI line covers only
		// the contributors.
		fmt.Fprintf(&b, "  worst min NPI  %6.3f +/- %.3f (std %.3f, %d/%d seeds)\n",
			npi.Mean, npi.CI95, npi.Std, npi.N, len(runs))
	default:
		fmt.Fprintf(&b, "  worst min NPI  %6.3f +/- %.3f (std %.3f)\n", npi.Mean, npi.CI95, npi.Std)
	}
	fmt.Fprintf(&b, "  bandwidth GB/s %6.2f +/- %.2f (std %.2f)\n", bw.Mean, bw.CI95, bw.Std)
	// The per-core table the figures plot, with across-seed error bars:
	// each row is one core's min-NPI mean +/- 95% CI over the seed pool.
	// The verdict comes from the core's worst seed, against the same
	// pass/fail thresholds as a single run, so one failing seed cannot
	// hide behind a healthy mean.
	cores, vals := perCoreNPI(runs)
	for _, core := range cores {
		xs := vals[core]
		s := stats.Summarize(xs)
		worst, below := math.Inf(1), 0
		for _, v := range xs {
			worst = math.Min(worst, v)
			if v < PassNPI {
				below++
			}
		}
		status := "PASS"
		switch {
		case worst < FailNPI:
			status = "FAIL"
		case worst < PassNPI:
			status = "WARN"
		}
		fmt.Fprintf(&b, "    %-14s min NPI %6.3f +/- %.3f (std %.3f)  worst %6.3f, %d/%d seeds below target  %s\n",
			core, s.Mean, s.CI95, s.Std, worst, below, s.N, status)
	}
	return b.String()
}
