package core

import (
	"fmt"
	"math"

	"sara/internal/adapt"
	"sara/internal/dma"
	"sara/internal/dram"
	"sara/internal/memctrl"
	"sara/internal/meter"
	"sara/internal/noc"
	"sara/internal/sim"
	"sara/internal/stats"
	"sara/internal/traffic"
	"sara/internal/txn"
)

// Unit is one assembled DMA: engine, traffic source, meter, adapter and
// the sampled NPI time series.
type Unit struct {
	Spec    DMASpec
	Engine  *dma.Engine
	Source  traffic.Source
	Meter   meter.Meter
	Adapter *adapt.Adapter
	Series  *stats.Series
}

// Label returns the unit's full DMA name.
func (u *Unit) Label() string { return u.Spec.Label() }

// System is a fully wired MPSoC memory subsystem: one sim.Kernel steps
// every core, router, controller and the shared DRAM device together.
type System struct {
	cfg    Config
	kernel *sim.Kernel
	dram   *dram.DRAM
	ctrls  []*memctrl.Controller
	units  []*Unit

	mediaRouter *noc.Router
	sysRouter   *noc.Router
	rootRouter  *noc.Router

	nextID  uint64
	byLabel map[string]*Unit
	pool    txn.Pool
	probes  sim.Probes
}

// mcSink adapts a memory controller into a NoC sink with credit returns:
// a CAS that frees a slot in a full class queue wakes the root router,
// which can grant into the slot from the next cycle on (the controller
// ticks after the router, so the freed slot is usable at now+1). Accept
// is also the enqueue edge of the controller's per-bank candidate
// buckets: Enqueue files the transaction into its bank bucket and resets
// the controller's dormancy window, so a packet granted mid-quiescence
// is scheduled on the very next executed cycle (see memctrl/bucket.go).
type mcSink struct {
	ctrl *memctrl.Controller
}

func (s mcSink) CanAccept(t *txn.Transaction) bool { return s.ctrl.SpaceFor(t.Class) }
func (s mcSink) Accept(t *txn.Transaction, now sim.Cycle) {
	s.ctrl.Enqueue(t, now)
}

// OnCredit implements noc.Sink. A controller has exactly one
// upstream router; wiring a second would silently steal the first one's
// credit wakes and break skip-vs-step equivalence, so it panics instead.
func (s mcSink) OnCredit(w noc.Waker) {
	if s.ctrl.OnRelease != nil {
		panic(fmt.Sprintf("core: controller %d already credit-wired", s.ctrl.Config().Channel))
	}
	name := fmt.Sprintf("mc%d", s.ctrl.Config().Channel)
	probes := s.ctrl.Config().Probes
	s.ctrl.OnRelease = func(class txn.Class, now sim.Cycle) {
		for _, f := range probes.Credit {
			f(name, now, int(class), true)
		}
		w.Wake(now + 1)
	}
}

// regionBytes is the address space carved out per DMA. 16 MiB spans many
// rows and banks, so distinct DMAs interleave realistically.
const regionBytes = 16 << 20

// Build assembles a System from cfg. It panics on malformed
// configurations (configs are code, not user input).
func Build(cfg Config) *System {
	if err := cfg.DRAM.Validate(); err != nil {
		panic(err)
	}
	if cfg.ScaleDiv <= 0 {
		panic("core: ScaleDiv must be positive")
	}
	if cfg.PriorityBits <= 0 || cfg.PriorityBits > 4 {
		panic("core: PriorityBits must be in 1..4")
	}
	if cfg.AdaptInterval == 0 || cfg.SampleEvery == 0 {
		panic("core: AdaptInterval and SampleEvery must be set")
	}

	s := &System{
		cfg:     cfg,
		kernel:  &sim.Kernel{},
		dram:    dram.New(cfg.DRAM),
		byLabel: make(map[string]*Unit),
	}
	mapper := s.dram.Mapper()
	rng := sim.NewRand(cfg.Seed)

	// Memory controllers, one per channel, completing into the response
	// delay pipe. One long-lived deliver function plus a per-event
	// transaction pointer keeps the completion path allocation-free
	// (a closure capturing t would allocate on every completion).
	deliver := func(now sim.Cycle, arg any) {
		t := arg.(*txn.Transaction)
		s.units[t.Source].Engine.Deliver(t, now)
	}
	mcSinks := make([]noc.Sink, cfg.DRAM.Geometry.Channels)
	for ch := 0; ch < cfg.DRAM.Geometry.Channels; ch++ {
		mcCfg := memctrl.Config{
			Channel:   ch,
			Policy:    cfg.Policy,
			Delta:     cfg.Delta,
			AgingT:    cfg.AgingT,
			QueueCaps: cfg.QueueCaps,
			Probes:    &s.probes,
		}
		ctrl := memctrl.New(mcCfg, s.dram)
		ctrl.OnComplete = func(t *txn.Transaction, done sim.Cycle) {
			s.kernel.AtArg(done+cfg.NoC.RespLatency, deliver, t)
		}
		s.ctrls = append(s.ctrls, ctrl)
		mcSinks[ch] = mcSink{ctrl: ctrl}
	}

	// Partition DMAs into the Fig. 1 topology: CPU/GPU/DSP direct to the
	// root router; media and system cores behind aggregation routers.
	var direct, media, system []int
	for i, spec := range cfg.DMAs {
		switch spec.Class {
		case txn.ClassMedia:
			media = append(media, i)
		case txn.ClassSystem:
			system = append(system, i)
		default:
			direct = append(direct, i)
		}
	}

	nocParams := cfg.NoC
	nocParams.Arb = cfg.NoCArb()

	rootPorts := len(direct)
	if len(media) > 0 {
		rootPorts++
	}
	if len(system) > 0 {
		rootPorts++
	}
	s.rootRouter = noc.NewRouter("root", nocParams, rootPorts, mcSinks,
		func(t *txn.Transaction) int { return mapper.Channel(t.Addr) }, &s.probes)

	portOf := make(map[int]*noc.Port, len(cfg.DMAs))
	next := 0
	for _, i := range direct {
		portOf[i] = s.rootRouter.Port(next)
		next++
	}
	if len(media) > 0 {
		sink := noc.PortSink{Port: s.rootRouter.Port(next), Hop: nocParams.HopLatency}
		next++
		s.mediaRouter = noc.NewRouter("media", nocParams, len(media), []noc.Sink{sink}, nil, &s.probes)
		for pi, i := range media {
			portOf[i] = s.mediaRouter.Port(pi)
		}
	}
	if len(system) > 0 {
		sink := noc.PortSink{Port: s.rootRouter.Port(next), Hop: nocParams.HopLatency}
		s.sysRouter = noc.NewRouter("system", nocParams, len(system), []noc.Sink{sink}, nil, &s.probes)
		for pi, i := range system {
			portOf[i] = s.sysRouter.Port(pi)
		}
	}

	// DMAs, sources, meters and adapters.
	burst := uint32(cfg.DRAM.Geometry.BurstBytes(cfg.DRAM.Timing))
	for i, spec := range cfg.DMAs {
		if _, dup := s.byLabel[spec.Label()]; dup {
			panic(fmt.Sprintf("core: duplicate DMA label %q", spec.Label()))
		}
		u := s.buildUnit(i, spec, portOf[i], rng.Fork(uint64(i)), burst)
		s.units = append(s.units, u)
		s.byLabel[u.Label()] = u
	}

	// Per-cycle pipeline order: sources generate, DMAs inject, aggregation
	// routers forward, root router delivers into the controllers, and the
	// controllers issue DRAM commands. Every component is a
	// sim.Component, so it carries its sim.Idler hint and the kernel can
	// fast-forward over system-wide quiescence.
	// Registration also binds the push-based wake wiring: engines,
	// routers and controllers receive their kernel wake handles through
	// sim.WakeBinder, and each engine additionally gets its source's
	// handle — the engine is the component that observes the two events
	// that can move a source's next activity earlier (a pending-queue pop
	// from full, a completion delivery), so it owns those re-arms.
	srcWakes := make([]sim.WakeHandle, len(s.units))
	for i, u := range s.units {
		srcWakes[i] = s.kernel.Register(u.Source)
	}
	for i, u := range s.units {
		s.kernel.Register(u.Engine)
		// Only the occupancy-tracking sources consult completion-mutated
		// state (buffer in-flight bytes) in their activity hints; the
		// rest need no per-delivery re-arm.
		kind := u.Spec.Source.Kind
		u.Engine.BindSourceWake(srcWakes[i], kind == SrcDisplay || kind == SrcCamera)
	}
	if s.mediaRouter != nil {
		s.kernel.Register(s.mediaRouter)
	}
	if s.sysRouter != nil {
		s.kernel.Register(s.sysRouter)
	}
	s.kernel.Register(s.rootRouter)
	for _, c := range s.ctrls {
		s.kernel.Register(c)
	}

	// Adaptation and NPI sampling.
	s.kernel.Every(cfg.AdaptInterval, func(now sim.Cycle) {
		for _, u := range s.units {
			if u.Adapter != nil {
				u.Adapter.Tick(now)
			}
		}
	})
	s.kernel.Every(cfg.SampleEvery, func(now sim.Cycle) {
		for _, u := range s.units {
			if u.Meter != nil && u.Series != nil {
				u.Series.Append(now, u.Meter.NPI(now))
			}
		}
	})
	return s
}

// buildUnit assembles one DMA with its source, meter and adapter. idx is
// the unit's spec index: it becomes txn.Transaction.Source and selects
// the unit's address region.
func (s *System) buildUnit(idx int, spec DMASpec, port *noc.Port, rng *sim.Rand, burst uint32) *Unit {
	cfg := s.cfg
	src := spec.Source
	if src.ReqSize == 0 {
		src.ReqSize = burst
	}
	window := spec.Window
	if window <= 0 {
		window = defaultWindow(src.Kind)
	}
	engine := dma.New(dma.Config{
		Name:   spec.Label(),
		Core:   spec.Core,
		Class:  spec.Class,
		Window: window,
		Pool:   &s.pool,
		Probes: &s.probes,
	}, idx, &s.nextID, port, cfg.NoC.HopLatency)

	region := traffic.Region{
		Base: txn.Addr(uint64(idx) * regionBytes),
		Size: regionBytes,
	}
	framePeriod := cfg.FramePeriod()
	bpc := cfg.ScaledBps(src.RateBps) // bytes per cycle at this rate
	meterWindow := 8 * cfg.AdaptInterval

	u := &Unit{Spec: spec, Engine: engine}
	switch src.Kind {
	case SrcFrame:
		bytesPerFrame := roundTo(bpc*float64(framePeriod), src.ReqSize)
		fs := traffic.NewFrameSource(spec.Label(), engine, rng, region,
			bytesPerFrame, framePeriod, src.ReqSize, src.ReadFrac, src.RefFactor)
		fs.StartOffset = sim.Cycle(src.StartOffsetFrac * float64(framePeriod))
		u.Source = fs
		u.Meter = meter.NewFrameProgressMeter(framePeriod, src.RefFactor, fs.Progress)

	case SrcDisplay:
		bufBytes := bufferBytes(cfg, src, bpc)
		ds := traffic.NewDisplaySource(spec.Label(), engine, region, bpc, bufBytes, src.ReqSize)
		u.Source = ds
		u.Meter = meter.NewOccupancyMeter(bpc, meterWindow, bufBytes, false, ds.OccupancyAt)
		// The frame-rate baseline treats a draining real-time buffer as an
		// urgent media core. The probe integrates to now+1 — the same point
		// the source's own tick would have reached had it run this cycle —
		// so the answer is identical whether or not the active-ticker list
		// skipped the source.
		engine.SetUrgentProbe(func(now sim.Cycle) bool { return ds.OccupancyAt(now+1) < 0.55 })

	case SrcCamera:
		bufBytes := bufferBytes(cfg, src, bpc)
		cs := traffic.NewCameraSource(spec.Label(), engine, region, bpc, bufBytes, src.ReqSize)
		u.Source = cs
		u.Meter = meter.NewOccupancyMeter(bpc, meterWindow, bufBytes, true, cs.OccupancyAt)
		engine.SetUrgentProbe(func(now sim.Cycle) bool { return cs.OccupancyAt(now+1) > 0.45 })

	case SrcSporadic:
		meanGap := float64(src.ReqSize) / bpc
		ss := traffic.NewSporadicSource(spec.Label(), engine, rng, region,
			meanGap, src.ReqSize, src.ReadFrac)
		u.Source = ss
		limit := src.LatencyLimit
		if limit == 0 {
			limit = 500
		}
		lm := meter.NewLatencyMeter(limit, 0.25)
		engine.OnComplete(func(t *txn.Transaction, now sim.Cycle) {
			lm.Observe(t.Latency())
		})
		u.Meter = lm

	case SrcRate:
		rs := traffic.NewRateSource(spec.Label(), engine, rng, region,
			bpc, src.ReqSize, src.BurstReqs, src.ReadFrac)
		u.Source = rs
		// Bandwidth meters average over a longer window so bulk-transfer
		// lumpiness does not read as QoS noise.
		bm := meter.NewBandwidthMeter(bpc, 2*meterWindow)
		engine.OnComplete(func(t *txn.Transaction, now sim.Cycle) {
			bm.ObserveBytes(now, int(t.Size))
		})
		u.Meter = bm

	case SrcChunk:
		periodFrac := src.ChunkPeriodFrac
		if periodFrac <= 0 {
			periodFrac = 0.25
		}
		deadlineFrac := src.DeadlineFrac
		if deadlineFrac <= 0 {
			deadlineFrac = 0.6
		}
		period := sim.Cycle(periodFrac * float64(framePeriod))
		chunkBytes := roundTo(bpc*float64(period), src.ReqSize)
		// The progress probe is wired after the source exists; the meter
		// tolerates a nil probe in the interim.
		cm := meter.NewChunkMeter(sim.Cycle(deadlineFrac*float64(period)), nil)
		csrc := traffic.NewChunkSource(spec.Label(), engine, rng, region,
			chunkBytes, period, src.ReqSize, src.ReadFrac, cm)
		csrc.Scatter = src.Scatter
		cm.SetProgress(csrc.ChunkProgress)
		csrc.StartOffset = sim.Cycle(src.StartOffsetFrac * float64(framePeriod))
		u.Source = csrc
		u.Meter = cm

	case SrcCPU:
		locality := src.Locality
		if locality == 0 {
			locality = 0.5
		}
		u.Source = traffic.NewCPUSource(spec.Label(), engine, rng, region,
			bpc, src.ReqSize, src.ReadFrac, locality)
		u.Meter = nil // the CPU has no QoS target in this use case

	default:
		panic(fmt.Sprintf("core: unknown source kind %v", src.Kind))
	}

	if u.Meter != nil {
		u.Series = &stats.Series{Name: spec.Label()}
		lut := adapt.DefaultLUT(cfg.PriorityBits)
		if len(spec.LUTBounds) > 0 {
			lut = adapt.NewLUT(spec.LUTBounds)
		}
		u.Adapter = adapt.New(spec.Label(), u.Meter, lut, engine, cfg.AdaptInterval)
		u.Adapter.SetEnabled(cfg.SARAEnabled())
	}
	return u
}

// bufferBytes sizes a display/camera buffer: either BufSeconds of traffic
// (scaled) or a default of 16 adaptation intervals.
func bufferBytes(cfg Config, src SourceSpec, bpc float64) float64 {
	var bufCycles float64
	if src.BufSeconds > 0 {
		bufCycles = float64(cfg.DRAM.CyclesFromSeconds(src.BufSeconds / float64(cfg.ScaleDiv)))
	} else {
		bufCycles = 16 * float64(cfg.AdaptInterval)
	}
	buf := bpc * bufCycles
	min := 8 * float64(src.ReqSize)
	if buf < min {
		buf = min
	}
	return buf
}

func defaultWindow(k SourceKind) int {
	switch k {
	case SrcFrame:
		return 16
	case SrcDisplay, SrcCamera:
		return 8
	case SrcSporadic:
		return 4
	case SrcRate:
		return 8
	case SrcChunk:
		return 8
	case SrcCPU:
		return 8
	}
	return 8
}

// roundTo rounds v up to a whole number of reqSize units (at least one).
func roundTo(v float64, reqSize uint32) uint64 {
	n := uint64(math.Ceil(v / float64(reqSize)))
	if n == 0 {
		n = 1
	}
	return n * uint64(reqSize)
}

// --- accessors and run control ---

// Kernel exposes the simulation kernel (tests drive it directly).
func (s *System) Kernel() *sim.Kernel { return s.kernel }

// Probes exposes this system's trace edges. Every router, DMA engine and
// memory controller of the system reports on them, and nothing outside
// it does, so observers of one system never see another's events.
// Subscribe before running.
func (s *System) Probes() *sim.Probes { return &s.probes }

// SetForceScan switches every router, DMA engine and memory controller
// of the system to its per-cycle reference scan, bypassing the dormancy
// caches (router grant windows, DMA injection wakes, controller bank
// buckets). The differential suites run it with idle skipping disabled
// as the stepped reference the event-driven run must match.
func (s *System) SetForceScan(on bool) {
	for _, r := range s.Routers() {
		r.SetForceScan(on)
	}
	for _, u := range s.units {
		u.Engine.SetForceScan(on)
	}
	for _, c := range s.ctrls {
		c.SetForceScan(on)
	}
}

// DRAM exposes the device model. Callers that only read counters should
// prefer DRAMStats, RowHitRate, RefreshDuty and BandwidthOverWindowGBps.
func (s *System) DRAM() *dram.DRAM { return s.dram }

// Controllers exposes the per-channel memory controllers in channel
// order.
func (s *System) Controllers() []*memctrl.Controller { return s.ctrls }

// Routers exposes the NoC routers in tick order (aggregation routers
// first, root last); the equivalence tests compare their statistics
// across kernel modes.
func (s *System) Routers() []*noc.Router {
	var out []*noc.Router
	if s.mediaRouter != nil {
		out = append(out, s.mediaRouter)
	}
	if s.sysRouter != nil {
		out = append(out, s.sysRouter)
	}
	return append(out, s.rootRouter)
}

// DRAMStats snapshots the per-channel DRAM counters.
func (s *System) DRAMStats() dram.Stats { return s.dram.Stats() }

// RowHitRate reports the device-wide row-buffer hit rate.
func (s *System) RowHitRate() float64 { return s.DRAMStats().RowHitRate() }

// RefreshDuty reports the fraction of rank-cycles up to now spent in a
// tRFC refresh blackout.
func (s *System) RefreshDuty(now sim.Cycle) float64 {
	return dram.RefreshDutyOf(s.cfg.DRAM, s.DRAMStats(), now)
}

// BandwidthOverWindowGBps reports bytes moved since the before snapshot
// divided by the window length, in GB/s.
func (s *System) BandwidthOverWindowGBps(before dram.Stats, from, to sim.Cycle) float64 {
	return dram.BandwidthOverWindowOf(s.cfg.DRAM, before, s.DRAMStats(), from, to)
}

// SkippedCycles reports how many cycles idle skipping fast-forwarded
// over.
func (s *System) SkippedCycles() uint64 { return s.kernel.SkippedCycles() }

// Units exposes every assembled DMA.
func (s *System) Units() []*Unit { return s.units }

// Unit looks a unit up by its full label ("Display", "Rotator/rd", ...).
func (s *System) Unit(label string) (*Unit, bool) {
	u, ok := s.byLabel[label]
	return u, ok
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Now reports the current cycle.
func (s *System) Now() sim.Cycle { return s.kernel.Now() }

// Run advances the simulation by n cycles. A trip of a watchdog installed
// with SetWatchdog panics here; RunChecked returns it as an error.
func (s *System) Run(n sim.Cycle) { s.kernel.RunFor(n) }

// RunFrames advances the simulation by k frame periods.
func (s *System) RunFrames(k int) {
	s.Run(sim.Cycle(k) * s.cfg.FramePeriod())
}

// RunChecked advances the simulation by n cycles with failures contained:
// panics raised anywhere in the system surface as a *sim.PanicError, and
// any watchdog installed with SetWatchdog bounds the run (see
// sim.Kernel.RunChecked).
func (s *System) RunChecked(n sim.Cycle) error { return s.kernel.RunChecked(s.kernel.Now() + n) }

// RunFramesChecked is RunChecked over k frame periods.
func (s *System) RunFramesChecked(k int) error {
	return s.RunChecked(sim.Cycle(k) * s.cfg.FramePeriod())
}

// SetWatchdog installs wd on the kernel, defaulting its Outstanding probe
// to the system's in-flight transaction count when unset, so callers only
// pick budgets.
func (s *System) SetWatchdog(wd *sim.Watchdog) {
	if wd != nil && wd.Outstanding == nil {
		wd.Outstanding = s.Outstanding
	}
	s.kernel.SetWatchdog(wd)
}

// Outstanding counts transactions that are in flight somewhere in the
// system — generated but not yet completed, including requests still in
// DMA pending queues. A fully parked wake set with Outstanding > 0 is
// a deadlock (a component dropped a transaction); the kernel watchdog
// uses this probe to detect it.
func (s *System) Outstanding() uint64 {
	var n uint64
	for _, u := range s.units {
		st := u.Engine.Stats()
		n += st.Generated - st.Completed
	}
	return n
}

// CompletedTransactions sums completions across every DMA.
func (s *System) CompletedTransactions() uint64 {
	var n uint64
	for _, u := range s.units {
		n += u.Engine.Stats().Completed
	}
	return n
}

// MinNPIByCore reports, for every metered core, the minimum NPI sample at
// or after cycle from, taking the worst DMA of each core. This is the
// "did the core ever fall below target" statistic behind Figs. 5, 6 and 9.
func (s *System) MinNPIByCore(from sim.Cycle) map[string]float64 {
	out := make(map[string]float64)
	for _, u := range s.units {
		if u.Series == nil {
			continue
		}
		min := math.Inf(1)
		for i, c := range u.Series.Cycles {
			if c >= from && u.Series.Values[i] < min {
				min = u.Series.Values[i]
			}
		}
		if math.IsInf(min, 1) {
			continue
		}
		if cur, ok := out[u.Spec.Core]; !ok || min < cur {
			out[u.Spec.Core] = min
		}
	}
	return out
}

// CriticalCores lists the distinct core names marked Critical, in spec
// order.
func (s *System) CriticalCores() []string {
	var names []string
	seen := make(map[string]bool)
	for _, u := range s.units {
		if u.Spec.Critical && !seen[u.Spec.Core] {
			seen[u.Spec.Core] = true
			names = append(names, u.Spec.Core)
		}
	}
	return names
}

// PriorityHistogramByCore merges the adapter time-at-level histograms of
// all DMAs belonging to core (Fig. 7).
func (s *System) PriorityHistogramByCore(core string) *stats.LevelHistogram {
	merged := stats.NewLevelHistogram(1 << s.cfg.PriorityBits)
	for _, u := range s.units {
		if u.Spec.Core != core || u.Adapter == nil {
			continue
		}
		h := u.Adapter.Histogram()
		for lvl := 0; lvl < h.Levels(); lvl++ {
			frac := h.Fraction(lvl)
			if frac > 0 {
				merged.Add(lvl, uint64(frac*1e6))
			}
		}
	}
	return merged
}
