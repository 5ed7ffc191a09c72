package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"sara/internal/config"
	"sara/internal/core"
	"sara/internal/exp"
	"sara/internal/memctrl"
	"sara/internal/sim"
)

// A workload is one named set of inputs. setup builds everything one
// operation needs from the seed; it is timed as set-up. prefix returns
// the configurations the skip-vs-step output check replays for
// prefixCycles cycles. counters, when set, gathers after the operations
// the model counters they do not expose.
type workload struct {
	setup        func(seed uint64) (job, error)
	prefix       func(seed uint64) []core.Config
	prefixCycles sim.Cycle
	counters     func(seed uint64) (map[string]float64, error)
}

// A job is one set-up operation. timed does the work the operation
// measures, calling lap between the fixed segments it splits that work
// into, if it does; result inspects it afterwards, untimed, and reports
// the outcome or why the outputs are wrong.
type job interface {
	timed(lap func()) error
	result() (outcome, error)
}

// outcome is what one finished operation produced.
type outcome struct {
	// cycles counts the simulated cycles the timed phase covered,
	// skipped ones included.
	cycles uint64
	// layers holds the model counters of the timed phase, keyed by
	// metric name (see counters).
	layers map[string]float64
	// digest identifies the simulated results bit for bit.
	digest string
}

// loadedStretch is the timed stretch of loaded_4x, in cycles: about four
// frames of the saturated phase at the default time scale.
const loadedStretch = 500_000

// The timed phase of a coreJob runs in this many equal segments, each
// timed on its own (see result.opTime): a cell_full frame in segments of
// about 1.8 M cycles, the loaded_4x stretch in 100 000-cycle ones.
const (
	cellFullSegments = 16
	loadedSegments   = 5
)

// gridOpt runs every seed_grid cell with the analysis layer attached.
var gridOpt = exp.Options{Analyze: true}

// gridSeeds is how many model seeds one seed_grid operation covers. Each
// seed contributes the eight Fig. 5/6 cells (two cases, four policies).
const gridSeeds = 8

var workloads = map[string]workload{
	// The paper's real 33 ms frame from a cold start; about half its
	// cycles are idle, so fast-forward and the wake heap carry the cost.
	"cell_full": {
		setup: func(seed uint64) (job, error) {
			cfg := cellFullConfig(seed)
			return &coreJob{sys: core.Build(cfg), cycles: cfg.FramePeriod(), segments: cellFullSegments}, nil
		},
		prefix:       func(seed uint64) []core.Config { return []core.Config{cellFullConfig(seed)} },
		prefixCycles: 200_000,
	},
	// The saturated phase of the 4x SoC with refresh on: under 5% of
	// cycles skip, so the active list, controllers, routers and DRAM
	// refresh carry the cost.
	"loaded_4x": {
		setup: func(seed uint64) (job, error) {
			sys := core.Build(loadedConfig(seed))
			if err := sys.RunFramesChecked(1); err != nil {
				return nil, fmt.Errorf("warm-up frame: %w", err)
			}
			return &coreJob{sys: sys, cycles: loadedStretch, segments: loadedSegments, before: counters(sys)}, nil
		},
		prefix:       func(seed uint64) []core.Config { return []core.Config{loadedConfig(seed)} },
		prefixCycles: 50_000,
	},
	// Many short cells with analysis on: Build, the supervisor,
	// allocation and the analysis layer weigh most.
	"seed_grid": {
		setup: func(seed uint64) (job, error) {
			g := &gridJob{cells: gridCells(seed)}
			for _, c := range g.cells {
				g.cycles += uint64(c.Config(gridOpt).FramePeriod())
			}
			return g, nil
		},
		prefix: func(seed uint64) []core.Config {
			cells := gridCells(seed)
			// The first cell of each case: the two rosters differ.
			return []core.Config{cells[0].Config(gridOpt), cells[len(exp.Fig5Policies())].Config(gridOpt)}
		},
		prefixCycles: 100_000,
		counters:     gridModelCounters,
	},
}

func cellFullConfig(seed uint64) core.Config {
	return config.Camcorder(config.CaseB,
		config.WithPolicy(memctrl.QoS), config.WithScaleDiv(1), config.WithSeed(seed))
}

func loadedConfig(seed uint64) core.Config {
	// Refresh last: its cycle conversion must see the final data rate.
	return config.ScaledSaturated(4,
		config.WithPolicy(memctrl.QoSRB), config.WithSeed(seed), config.WithRefresh(true))
}

// gridCells lists the seed_grid cells. Benchmark seed n selects model
// seeds n*gridSeeds+1 .. (n+1)*gridSeeds, so pools of different
// benchmark seeds never overlap and never contain the model seed 0,
// which exp reads as "use the default seed".
func gridCells(seed uint64) []exp.Cell {
	var cells []exp.Cell
	for i := uint64(1); i <= gridSeeds; i++ {
		for _, tc := range []config.Case{config.CaseA, config.CaseB} {
			for _, p := range exp.Fig5Policies() {
				cells = append(cells, exp.Cell{Case: tc, Policy: p, Seed: seed*gridSeeds + i})
			}
		}
	}
	return cells
}

// coreJob drives one System directly: cycles cycles from its current
// cycle, in segments equal pieces (the last takes the remainder). before
// is the counter snapshot the timed phase starts from.
type coreJob struct {
	sys      *core.System
	cycles   sim.Cycle
	segments int
	before   map[string]float64
	from     sim.Cycle
}

func (j *coreJob) timed(lap func()) error {
	j.from = j.sys.Now()
	n := sim.Cycle(max(j.segments, 1))
	for i := sim.Cycle(0); i < n; i++ {
		if i > 0 {
			lap()
		}
		end := j.cycles * (i + 1) / n
		if err := j.sys.RunChecked(j.from + end - j.sys.Now()); err != nil {
			return err
		}
	}
	return nil
}

func (j *coreJob) result() (outcome, error) {
	if err := checkSystem(j.sys); err != nil {
		return outcome{}, err
	}
	layers := counters(j.sys)
	for k, v := range j.before {
		layers[k] -= v
	}
	return outcome{
		cycles: uint64(j.sys.Now() - j.from),
		layers: layers,
		digest: digestSystem(j.sys),
	}, nil
}

// gridJob is one exp.RunCells call over the seed_grid cells.
type gridJob struct {
	cells  []exp.Cell
	cycles uint64
	runs   []exp.PolicyRun
}

func (g *gridJob) timed(func()) error {
	runs, err := exp.RunCells(g.cells, gridOpt)
	g.runs = runs
	return err
}

func (g *gridJob) result() (outcome, error) {
	if err := checkGrid(g.cells, g.runs); err != nil {
		return outcome{}, err
	}
	b, err := json.Marshal(g.runs)
	if err != nil {
		return outcome{}, fmt.Errorf("encode runs for the digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return outcome{cycles: g.cycles, layers: gridLayers(g.runs), digest: hex.EncodeToString(sum[:])}, nil
}

// checkGrid verifies every cell ran and produced a complete result.
func checkGrid(cells []exp.Cell, runs []exp.PolicyRun) error {
	if len(runs) != len(cells) {
		return fmt.Errorf("%d runs for %d cells", len(runs), len(cells))
	}
	var errs []error
	for _, re := range exp.Failed(runs) {
		errs = append(errs, re)
	}
	for i, r := range runs {
		if r.Err != nil {
			continue
		}
		switch {
		case len(r.CriticalCores) == 0:
			errs = append(errs, fmt.Errorf("cell %s: no critical cores", cells[i]))
		case r.Analysis == nil:
			errs = append(errs, fmt.Errorf("cell %s: no analysis report", cells[i]))
		case !(r.BandwidthGBps > 0) || r.RowHitRate < 0 || r.RowHitRate > 1:
			errs = append(errs, fmt.Errorf("cell %s: bandwidth %v GB/s, row-hit rate %v", cells[i], r.BandwidthGBps, r.RowHitRate))
		}
		for _, c := range r.CriticalCores {
			if npi, ok := r.MinNPI[c]; !ok || !(npi > 0) {
				errs = append(errs, fmt.Errorf("cell %s: critical core %s has min NPI %v", cells[i], c, npi))
			}
		}
	}
	return errors.Join(errs...)
}

// gridLayers holds the exp-layer records of a grid: cells run, the
// fraction of (cell, critical core) pairs that met the target, and the
// worst critical-core min NPI.
func gridLayers(runs []exp.PolicyRun) map[string]float64 {
	var pairs, passed int
	worst := math.Inf(1)
	for _, r := range runs {
		for _, c := range r.CriticalCores {
			pairs++
			if r.Passed(c) {
				passed++
			}
			worst = math.Min(worst, r.MinNPI[c])
		}
	}
	return map[string]float64{
		"exp.cells":              float64(len(runs)),
		"exp.critical_pass_frac": float64(passed) / float64(pairs),
		"exp.worst_min_npi":      worst,
	}
}

// gridModelCounters re-runs every seed_grid cell directly on core.Build,
// outside any timed phase, and sums the model counters exp.RunCells does
// not expose.
func gridModelCounters(seed uint64) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, c := range gridCells(seed) {
		sys := core.Build(c.Config(gridOpt))
		if err := sys.RunFramesChecked(1); err != nil {
			return nil, fmt.Errorf("cell %s: %w", c, err)
		}
		if err := checkSystem(sys); err != nil {
			return nil, fmt.Errorf("cell %s: %w", c, err)
		}
		for k, v := range counters(sys) {
			sum[k] += v
		}
	}
	return sum, nil
}
