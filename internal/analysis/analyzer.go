// Package analysis is the always-available observability layer over a
// running simulation: per-port and per-buffer occupancy/backpressure
// analyzers plus a grant/credit/REF stall-attribution aggregator, in the
// style of akita's buffer/port analyzers and monitoring service. An
// Analyzer attaches to an assembled core.System, samples it on a fixed
// window from a recurring kernel event (settling batched dormant-cycle
// accounting first, so windowed numbers are exact even for components the
// active-ticker list never ticked), and aggregates everything into
// stats.Series for JSON/CSV export and the live HTTP Monitor.
//
// Two layers feed the windows. The sampling layer reads per-system
// counters (router stall/forward totals, engine stats, DRAM channel
// stats, meter NPIs). The edge layer (Options.Edges) additionally
// subscribes to the system's trace edges (sim.Probes: noc
// grant/credit/stall, dma inject, memctrl command). Both layers are
// per-system, so analyzers on concurrently running systems never see
// each other's events, and both are strictly observational: attaching an
// analyzer must not change simulated behavior, and with no analyzer
// attached the probe lists stay empty so the simulation hot paths keep
// their zero-cost disabled-path guarantee.
package analysis

import (
	"sort"
	"strconv"

	"sara/internal/core"
	"sara/internal/dma"
	"sara/internal/dram"
	"sara/internal/meter"
	"sara/internal/noc"
	"sara/internal/sim"
	"sara/internal/stats"
)

// Options configures an Analyzer.
type Options struct {
	// Window is the aggregation period in cycles; 0 picks four NPI
	// sampling periods (4 × Config.SampleEvery).
	Window sim.Cycle
	// Edges subscribes the analyzer to the system's trace edges for
	// per-event grant/credit/backpressure/command counts.
	Edges bool
	// Publish, when non-nil, receives a live Snapshot at every window
	// boundary (the HTTP monitor's feed).
	Publish func(Snapshot)
}

// Analyzer aggregates windowed observability statistics for one System.
type Analyzer struct {
	sys     *core.System
	window  sim.Cycle
	edges   bool
	publish func(Snapshot)

	routers   []*routerProbe
	byName    map[string]*routerProbe
	engines   []*engineProbe
	channels  []*channelProbe
	mcByName  map[string]*channelProbe
	lastDRAM  dram.Stats
	lastCycle sim.Cycle
	samples   int

	// system-level windowed series (all sampled at the same cycles)
	worstNPI        *stats.Series
	bandwidth       *stats.Series
	blackout        *stats.Series
	stallFrac       *stats.Series
	backpressure    *stats.Series
	refreshShare    *stats.Series
	contentionShare *stats.Series
}

type routerProbe struct {
	r    *noc.Router
	name string

	// ec is the edge-layer window counter cell (Edges only, nil otherwise)
	ec *EdgeCounts
	// sampling-layer cursors into the router's settled totals
	lastStalls, lastForwarded uint64

	totGrants, totCredits, totFullPops uint64

	stallFrac    *stats.Series
	grantRate    *stats.Series
	backpressure *stats.Series
	occupancy    *stats.Series   // mean port occupancy
	ports        []*stats.Series // per-port (per-buffer) occupancy
}

type engineProbe struct {
	u *core.Unit

	injects uint64 // edge-layer window counter (Edges only)
	last    dma.Stats

	npi        *stats.Series
	injectRate *stats.Series
	stallFrac  *stats.Series // inject-stall cycles per window cycle
	pendingOcc *stats.Series // pending-queue occupancy
}

type channelProbe struct {
	ch int

	// edge-layer window counters (Edges only)
	act, pre, cas, ref uint64
	// mcEC counts the controller queue releases reported on the credit
	// edge under this channel's "mc<ch>" name (Edges only, nil otherwise)
	mcEC *EdgeCounts

	blackout *stats.Series
	casRate  *stats.Series
}

// Attach builds an Analyzer over sys and schedules its windowed sampler
// on the system's kernel. Attach before running; the sampler fires every
// opt.Window cycles from the current clock. The analyzer lives as long
// as sys: its edge subscriptions are on sys's probes.
func Attach(sys *core.System, opt Options) *Analyzer {
	w := opt.Window
	if w == 0 {
		w = 4 * sys.Config().SampleEvery
	}
	if w == 0 {
		w = 4096
	}
	a := &Analyzer{
		sys:     sys,
		window:  w,
		edges:   opt.Edges,
		publish: opt.Publish,
		byName:  make(map[string]*routerProbe),

		worstNPI:        &stats.Series{Name: "worst_npi"},
		bandwidth:       &stats.Series{Name: "bandwidth_gbps"},
		blackout:        &stats.Series{Name: "blackout_duty"},
		stallFrac:       &stats.Series{Name: "noc_stall_frac"},
		backpressure:    &stats.Series{Name: "backpressure"},
		refreshShare:    &stats.Series{Name: "refresh_share"},
		contentionShare: &stats.Series{Name: "contention_share"},
	}
	for _, r := range sys.Routers() {
		p := &routerProbe{
			r:    r,
			name: r.Name(),

			lastStalls:    r.Stalls(),
			lastForwarded: r.Forwarded(),
			stallFrac:     &stats.Series{Name: r.Name() + ".stall_frac"},
			grantRate:     &stats.Series{Name: r.Name() + ".grant_rate"},
			backpressure:  &stats.Series{Name: r.Name() + ".backpressure"},
			occupancy:     &stats.Series{Name: r.Name() + ".occupancy"},
		}
		for i := 0; i < r.NPorts(); i++ {
			p.ports = append(p.ports, &stats.Series{Name: r.Name() + ".port" + itoa(i) + ".occupancy"})
		}
		a.routers = append(a.routers, p)
		a.byName[p.name] = p
	}
	for _, u := range sys.Units() {
		e := &engineProbe{
			u:          u,
			last:       u.Engine.Stats(),
			injectRate: &stats.Series{Name: u.Label() + ".inject_rate"},
			stallFrac:  &stats.Series{Name: u.Label() + ".inject_stall_frac"},
			pendingOcc: &stats.Series{Name: u.Label() + ".pending_occupancy"},
		}
		// The CPU cluster has no QoS meter; its probe reports rates only.
		if u.Meter != nil {
			e.npi = &stats.Series{Name: u.Label() + ".npi"}
		}
		a.engines = append(a.engines, e)
	}
	nch := sys.Config().DRAM.Geometry.Channels
	a.mcByName = make(map[string]*channelProbe, nch)
	for ch := 0; ch < nch; ch++ {
		p := &channelProbe{
			ch:       ch,
			blackout: &stats.Series{Name: "ch" + itoa(ch) + ".blackout_duty"},
			casRate:  &stats.Series{Name: "ch" + itoa(ch) + ".cas_rate"},
		}
		a.channels = append(a.channels, p)
		a.mcByName["mc"+itoa(ch)] = p
	}
	a.lastDRAM = sys.DRAM().Stats()
	a.lastCycle = sys.Now()

	if a.edges {
		a.subscribe()
	}
	sys.Kernel().Every(a.window, a.sample)
	return a
}

// subscribe installs the edge-layer subscriptions on the system's
// probes, alongside any observer a test installed. The NoC edges go
// through an EdgeTap (one cell per router plus one per controller queue
// name); the dma and memctrl edges index probes directly.
func (a *Analyzer) subscribe() {
	mcNames := make([]string, 0, len(a.mcByName))
	for n := range a.mcByName {
		mcNames = append(mcNames, n)
	}
	sort.Strings(mcNames)
	names := make([]string, 0, len(a.routers)+len(mcNames))
	for _, p := range a.routers {
		names = append(names, p.name)
	}
	names = append(names, mcNames...)
	probes := a.sys.Probes()
	tap := TapRouters(probes, names...)
	for _, p := range a.routers {
		p.ec = tap.Counts(p.name)
	}
	for _, n := range mcNames {
		a.mcByName[n].mcEC = tap.Counts(n)
	}
	probes.Inject = append(probes.Inject, func(now sim.Cycle, source int, id uint64, addr uint64) {
		if source >= 0 && source < len(a.engines) {
			a.engines[source].injects++
		}
	})
	probes.Command = append(probes.Command, func(ch int, now sim.Cycle, id uint64, kind byte) {
		if ch < 0 || ch >= len(a.channels) {
			return
		}
		c := a.channels[ch]
		switch kind {
		case 'A':
			c.act++
		case 'P':
			c.pre++
		case 'C':
			c.cas++
		case 'R':
			c.ref++
		}
	})
}

// Window reports the aggregation period.
func (a *Analyzer) Window() sim.Cycle { return a.window }

// Samples reports how many windows have been aggregated so far.
func (a *Analyzer) Samples() int { return a.samples }

// sample closes the current window at cycle now: settle batched
// accounting, append one point to every series, reset the window
// counters, and feed the publisher. It runs as a kernel event, before any
// ticker of cycle now.
func (a *Analyzer) sample(now sim.Cycle) {
	if now == a.lastCycle {
		return
	}
	a.sys.Kernel().Settle()
	win := float64(now - a.lastCycle)

	// NoC routers: stall fraction and grant rate from settled counters,
	// backpressure from the edge layer, occupancy sampled instantaneously.
	var sumStall, sumFull float64
	for _, p := range a.routers {
		stalls := p.r.Stalls()
		fwd := p.r.Forwarded()
		sf := float64(stalls-p.lastStalls) / win
		gr := float64(fwd-p.lastForwarded) / win
		p.lastStalls, p.lastForwarded = stalls, fwd
		var bp float64
		if p.ec != nil {
			gr = float64(p.ec.Grants) / win
			bp = float64(p.ec.FullPops) / win
			p.totGrants += p.ec.Grants
			p.totCredits += p.ec.Credits
			p.totFullPops += p.ec.FullPops
			*p.ec = EdgeCounts{}
		}
		var occ float64
		for i, s := range p.ports {
			po := p.r.Port(i)
			o := float64(po.Len()) / float64(po.Depth())
			s.Append(now, o)
			occ += o
		}
		occ /= float64(len(p.ports))
		p.stallFrac.Append(now, sf)
		p.grantRate.Append(now, gr)
		p.backpressure.Append(now, bp)
		p.occupancy.Append(now, occ)
		sumStall += sf
		sumFull += bp
	}

	// DMA engines: NPI from the meters, rates from settled engine stats.
	worst, haveNPI := 0.0, false
	for _, e := range a.engines {
		st := e.u.Engine.Stats()
		if e.npi != nil {
			npi := e.u.Meter.NPI(now)
			if !haveNPI || npi < worst {
				worst, haveNPI = npi, true
			}
			e.npi.Append(now, npi)
		}
		inj := float64(st.Injected-e.last.Injected) / win
		if a.edges {
			inj = float64(e.injects) / win
		}
		e.injectRate.Append(now, inj)
		e.stallFrac.Append(now, float64(st.InjectStalls-e.last.InjectStalls)/win)
		depth := e.u.Engine.Pending() + e.u.Engine.PendingSpace()
		e.pendingOcc.Append(now, float64(e.u.Engine.Pending())/float64(depth))
		e.last = st
		e.injects = 0
	}

	// DRAM channels: command mix and refresh blackout per window.
	d := a.sys.DRAM()
	cur := d.Stats()
	geo := a.sys.Config().DRAM.Geometry
	trfc := float64(a.sys.Config().DRAM.Refresh.TRFC)
	var refTot uint64
	for ch, c := range a.channels {
		cs, last := cur.Channels[ch], a.lastDRAM.Channels[ch]
		refs := cs.Refreshes - last.Refreshes
		cas := cs.ReadBursts + cs.WriteBursts - last.ReadBursts - last.WriteBursts
		if a.edges {
			refs, cas = c.ref, c.cas
		}
		refTot += refs
		c.blackout.Append(now, float64(refs)*trfc/(win*float64(geo.Ranks)))
		c.casRate.Append(now, float64(cas)/win)
		c.act, c.pre, c.cas, c.ref = 0, 0, 0, 0
		if c.mcEC != nil {
			*c.mcEC = EdgeCounts{}
		}
	}

	// System roll-up and stall attribution.
	bw := d.BandwidthOverWindowGBps(a.lastDRAM, a.lastCycle, now)
	duty := float64(refTot) * trfc / (win * float64(geo.Channels*geo.Ranks))
	nocStall := sumStall / float64(len(a.routers))
	refresh, contention := meter.StallAttribution(worst, duty)
	a.worstNPI.Append(now, worst)
	a.bandwidth.Append(now, bw)
	a.blackout.Append(now, duty)
	a.stallFrac.Append(now, nocStall)
	a.backpressure.Append(now, sumFull)
	a.refreshShare.Append(now, refresh)
	a.contentionShare.Append(now, contention)

	a.lastDRAM = cur
	a.lastCycle = now
	a.samples++

	if a.publish != nil {
		a.publish(a.snapshot(now, worst, bw, duty, nocStall, sumFull))
	}
}

// snapshot assembles the live view the monitor serves. It allocates, so
// it only runs when a publisher is installed.
func (a *Analyzer) snapshot(now sim.Cycle, worst, bw, duty, stall, bp float64) Snapshot {
	s := Snapshot{
		Cycle:         now,
		Samples:       a.samples,
		WorstNPI:      worst,
		BandwidthGBps: bw,
		BlackoutDuty:  duty,
		NoCStallFrac:  stall,
		Backpressure:  bp,
		NPI:           make(map[string]float64, len(a.engines)),
		RouterStall:   make(map[string]float64, len(a.routers)),
	}
	for _, e := range a.engines {
		if e.npi != nil {
			s.NPI[e.u.Label()] = e.npi.Values[len(e.npi.Values)-1]
		}
	}
	for _, p := range a.routers {
		s.RouterStall[p.name] = p.stallFrac.Values[len(p.stallFrac.Values)-1]
	}
	return s
}

func itoa(n int) string { return strconv.Itoa(n) }
