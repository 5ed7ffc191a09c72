// Package config encodes the paper's evaluation setup: the Table 1
// simulation settings (LPDDR4 organization and timings, memory-controller
// queues, the two test cases) and the Table 2 roster of heterogeneous
// cores with their QoS types, parameterized from the 30 fps camcorder
// dataflow of Fig. 2 (e.g. the rotator reads and writes 1080p YUV420
// frames at 30 fps: 89 MB/s per DMA).
package config

import (
	"sara/internal/core"
	"sara/internal/dram"
	"sara/internal/memctrl"
	"sara/internal/noc"
	"sara/internal/sim"
	"sara/internal/txn"
)

const (
	// MB and GB are decimal byte-rate units (bytes/second scale factors).
	MB = 1e6
	GB = 1e9
)

// Case identifies one of Table 1's test cases.
type Case int

const (
	// CaseA runs all cores with DRAM at 1866 MT/s.
	CaseA Case = iota
	// CaseB disables GPS, camera, rotator and JPEG and runs DRAM at
	// 1700 MT/s.
	CaseB
)

// String names the test case.
func (c Case) String() string {
	if c == CaseA {
		return "A"
	}
	return "B"
}

// Option adjusts a generated configuration.
type Option func(*core.Config)

// WithPolicy selects the arbitration policy (default: QoS, Policy 1).
func WithPolicy(p memctrl.PolicyKind) Option {
	return func(c *core.Config) { c.Policy = p }
}

// WithSeed sets the random seed.
func WithSeed(seed uint64) Option {
	return func(c *core.Config) { c.Seed = seed }
}

// WithScaleDiv sets the time-scaling factor (default 256, the calibrated
// evaluation scale; smaller is longer/finer and proportionally slower).
func WithScaleDiv(div int) Option {
	return func(c *core.Config) { c.ScaleDiv = div }
}

// WithDataRate overrides the DRAM data rate in MT/s (the Fig. 7 sweep).
func WithDataRate(mtps int) Option {
	return func(c *core.Config) { c.DRAM.DataRateMTps = mtps }
}

// WithRefresh enables (or disables) LPDDR4 per-rank all-bank refresh with
// the JEDEC defaults for the configuration's data rate (tREFI = 3.904 us,
// tRFCab = 280 ns, 8-deep postponement window). Apply it after
// WithDataRate so the cycle conversion uses the final clock. Refresh is
// off by default: the paper's evaluation does not state a refresh policy,
// and the refresh-free model remains the bit-identical baseline.
func WithRefresh(on bool) Option {
	return func(c *core.Config) {
		if on {
			c.DRAM.Refresh = c.DRAM.DefaultRefresh()
		} else {
			c.DRAM.Refresh = dram.RefreshConfig{}
		}
	}
}

// WithDelta overrides Policy 2's row-buffer threshold.
func WithDelta(delta txn.Priority) Option {
	return func(c *core.Config) { c.Delta = delta }
}

// WithPriorityBits overrides the priority quantization k.
func WithPriorityBits(bits int) Option {
	return func(c *core.Config) { c.PriorityBits = bits }
}

// WithAgingT overrides the starvation limit (0 disables aging).
func WithAgingT(t sim.Cycle) Option {
	return func(c *core.Config) { c.AgingT = t }
}

// WithAdaptInterval overrides the adaptation period.
func WithAdaptInterval(iv sim.Cycle) Option {
	return func(c *core.Config) { c.AdaptInterval = iv }
}

// Camcorder returns the full system configuration for the given test
// case, with any options applied.
func Camcorder(tc Case, opts ...Option) core.Config {
	mtps := 1866
	if tc == CaseB {
		mtps = 1700
	}
	cfg := core.Config{
		Seed:             1,
		DRAM:             dram.PaperConfig(mtps),
		Policy:           memctrl.QoS,
		Delta:            6,
		AgingT:           10000,
		QueueCaps:        memctrl.DefaultQueueCaps(),
		NoC:              noc.DefaultParams(),
		PriorityBits:     3,
		AdaptInterval:    1024,
		RealFrameSeconds: 1.0 / 30.0,
		ScaleDiv:         256,
		SampleEvery:      2048,
		DMAs:             coreRoster(tc),
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// coreRoster builds the Table 2 core list. Rates are derived from the
// camcorder dataflow at 30 fps on a next-generation (4K-class) MPSoC;
// the rotator's 89 MB/s per DMA is the paper's own number.
func coreRoster(tc Case) []core.DMASpec {
	var specs []core.DMASpec
	add := func(s core.DMASpec) { specs = append(specs, s) }

	// Case B drops the preview/snapshot cores (GPS, camera, rotator, JPEG)
	// but records at the full 4K pipeline rate while DRAM runs at only
	// 1700 MT/s, so the remaining cores press the memory system harder —
	// this is what exposes the latency-sensitive DSP under FCFS (Fig. 6).
	boost := 1.0
	if tc == CaseB {
		boost = 1.15
	}

	// --- Media cores (shared "media" transaction queue) ---

	// Image processor: reads raw sensor data, writes processed YUV.
	// Bursty per frame; QoS type: frame rate.
	add(core.DMASpec{
		Core: "Image Proc.", DMA: "rd", Class: txn.ClassMedia, Critical: true,
		Window: 48,
		Source: core.SourceSpec{Kind: core.SrcFrame, RateBps: 0.7 * boost * GB, ReadFrac: 1, RefFactor: 1},
	})
	add(core.DMASpec{
		Core: "Image Proc.", DMA: "wr", Class: txn.ClassMedia, Critical: true,
		Window: 48,
		Source: core.SourceSpec{Kind: core.SrcFrame, RateBps: 0.7 * boost * GB, ReadFrac: 0, RefFactor: 1},
	})

	// Video codec: reads reference frames, writes the encoded stream and
	// reconstructed references. QoS type: frame rate.
	add(core.DMASpec{
		Core: "Video Codec", DMA: "rd", Class: txn.ClassMedia, Critical: true,
		Window: 48,
		Source: core.SourceSpec{Kind: core.SrcFrame, RateBps: 0.6 * boost * GB, ReadFrac: 1, RefFactor: 1},
	})
	add(core.DMASpec{
		Core: "Video Codec", DMA: "wr", Class: txn.ClassMedia, Critical: true,
		Window: 48,
		Source: core.SourceSpec{Kind: core.SrcFrame, RateBps: 0.5 * boost * GB, ReadFrac: 0, RefFactor: 1},
	})

	// Display: constant-rate read-buffer refill. QoS: buffer occupancy.
	// Its LUT escalates earlier than the default (Fig. 4(c)): a draining
	// real-time buffer leaves no slack for a late rescue.
	add(core.DMASpec{
		Core: "Display", Class: txn.ClassMedia, Critical: true,
		LUTBounds: []float64{1.5, 1.3, 1.2, 1.1, 1.05, 1.02, 0.95, 0},
		Source:    core.SourceSpec{Kind: core.SrcDisplay, RateBps: 1.8 * GB, ReadFrac: 1},
	})

	if tc == CaseA {
		// Frame rotator: 1080p YUV420 at 30 fps = 89 MB/s per DMA.
		add(core.DMASpec{
			Core: "Rotator", DMA: "rd", Class: txn.ClassMedia, Critical: true,
			Source: core.SourceSpec{Kind: core.SrcFrame, RateBps: 89 * MB, ReadFrac: 1, RefFactor: 1},
		})
		add(core.DMASpec{
			Core: "Rotator", DMA: "wr", Class: txn.ClassMedia, Critical: true,
			Source: core.SourceSpec{Kind: core.SrcFrame, RateBps: 89 * MB, ReadFrac: 0, RefFactor: 1},
		})
		// Camera front end: sensor fills, DMA drains. QoS: occupancy.
		add(core.DMASpec{
			Core: "Camera", Class: txn.ClassMedia, Critical: true,
			Window:    28,
			LUTBounds: []float64{1.5, 1.3, 1.2, 1.1, 1.02, 0.95, 0.85, 0},
			Source:    core.SourceSpec{Kind: core.SrcCamera, RateBps: 0.9 * GB, ReadFrac: 0},
		})
		// JPEG engine: snapshot compression bursts. QoS: frame rate.
		add(core.DMASpec{
			Core: "JPEG", Class: txn.ClassMedia,
			Source: core.SourceSpec{Kind: core.SrcFrame, RateBps: 0.3 * GB, ReadFrac: 0.5,
				RefFactor: 1, StartOffsetFrac: 0.3},
		})
	}

	// --- GPU (own queue): renders preview UI; bursty. QoS: frame rate ---
	add(core.DMASpec{
		Core: "GPU", Class: txn.ClassGPU,
		Window: 32,
		Source: core.SourceSpec{Kind: core.SrcFrame, RateBps: 1.8 * GB, ReadFrac: 0.75, RefFactor: 1},
	})

	// --- DSP (own queue): latency-bound sporadic accesses. Case B runs
	// the DSP in a tighter real-time mode (Fig. 6 tracks its NPI there) ---
	dspLimit := sim.Cycle(500)
	if tc == CaseB {
		dspLimit = 300
	}
	add(core.DMASpec{
		Core: "DSP", Class: txn.ClassDSP, Critical: true,
		LUTBounds: []float64{1.6, 1.4, 1.25, 1.12, 1.0, 0.9, 0.75, 0},
		Source: core.SourceSpec{Kind: core.SrcSporadic, RateBps: 0.25 * boost * GB, ReadFrac: 0.8,
			LatencyLimit: dspLimit},
	})

	// --- System cores (shared "system" queue) ---

	if tc == CaseA {
		// GPS: periodic correlation chunks. QoS: processing time.
		add(core.DMASpec{
			Core: "GPS", Class: txn.ClassSystem, Critical: true,
			Window: 3,
			// The GPS escalates earlier than the default table: its
			// scattered, deadline-bound chunks leave no slack to recover
			// from a late rescue.
			LUTBounds: []float64{1.5, 1.3, 1.15, 1.05, 0.95, 0.85, 0.7, 0},
			Source: core.SourceSpec{Kind: core.SrcChunk, RateBps: 0.4 * GB, ReadFrac: 0.7,
				ChunkPeriodFrac: 0.1, DeadlineFrac: 0.5, Scatter: true},
		})
	}
	// WiFi: steady stream. QoS: bandwidth.
	add(core.DMASpec{
		Core: "WiFi", Class: txn.ClassSystem, Critical: true,
		Source: core.SourceSpec{Kind: core.SrcRate, RateBps: 0.4 * GB, ReadFrac: 0.5, BurstReqs: 2},
	})
	// USB: bulk transfers. QoS: bandwidth.
	add(core.DMASpec{
		Core: "USB", Class: txn.ClassSystem, Critical: true,
		Window: 64,
		Source: core.SourceSpec{Kind: core.SrcRate, RateBps: 1.0 * boost * GB, ReadFrac: 0.5, BurstReqs: 16},
	})
	// Modem: periodic subframe processing. QoS: processing time.
	add(core.DMASpec{
		Core: "Modem", Class: txn.ClassSystem,
		Source: core.SourceSpec{Kind: core.SrcChunk, RateBps: 0.4 * GB, ReadFrac: 0.5,
			ChunkPeriodFrac: 0.25, DeadlineFrac: 0.6, StartOffsetFrac: 0.1},
	})
	// Audio: tiny sporadic accesses with a generous latency bound.
	add(core.DMASpec{
		Core: "Audio", Class: txn.ClassSystem,
		Source: core.SourceSpec{Kind: core.SrcSporadic, RateBps: 0.02 * GB, ReadFrac: 0.9,
			LatencyLimit: 2000},
	})

	// --- CPU cluster: background cache-miss traffic, no QoS target ---
	add(core.DMASpec{
		Core: "CPU", Class: txn.ClassCPU,
		Window: 16,
		Source: core.SourceSpec{Kind: core.SrcCPU, RateBps: 1.3 * boost * GB, ReadFrac: 0.7, Locality: 0.5},
	})

	return specs
}

// TotalDemandGBps sums the roster's average demand, for sanity checks and
// reports.
func TotalDemandGBps(specs []core.DMASpec) float64 {
	var sum float64
	for _, s := range specs {
		sum += s.Source.RateBps
	}
	return sum / GB
}
