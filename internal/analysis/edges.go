package analysis

import "sara/internal/sim"

// EdgeCounts accumulates one named endpoint's trace-edge events since the
// last Reset: switch-allocation grants, credit-side pops, pops that found
// the FIFO full (the backpressure releases), and stall cycles. Endpoints
// are whatever names arrive on the edges — routers, plus the "mc<ch>"
// names the SoC wiring reports controller queue releases under.
type EdgeCounts struct {
	Grants   uint64
	Credits  uint64
	FullPops uint64
	Stalls   uint64
}

// EdgeTap subscribes to one system's NoC grant/credit/stall edges and
// counts events per endpoint name. It is the edge layer the Analyzer's
// per-router backpressure numbers come from, exported so tests can drive
// it against a bare router with hand-computable traffic.
type EdgeTap struct {
	byName map[string]*EdgeCounts
}

// TapRouters subscribes a tap to p counting events for the given endpoint
// names; events for other names are ignored.
func TapRouters(p *sim.Probes, names ...string) *EdgeTap {
	t := &EdgeTap{byName: make(map[string]*EdgeCounts, len(names))}
	for _, n := range names {
		t.byName[n] = &EdgeCounts{}
	}
	p.Grant = append(p.Grant, func(name string, now sim.Cycle, port, out int, id uint64) {
		if c := t.byName[name]; c != nil {
			c.Grants++
		}
	})
	p.Credit = append(p.Credit, func(name string, now sim.Cycle, port int, wasFull bool) {
		if c := t.byName[name]; c != nil {
			c.Credits++
			if wasFull {
				c.FullPops++
			}
		}
	})
	p.Stall = append(p.Stall, func(name string, now sim.Cycle, n uint64, backfill bool) {
		if c := t.byName[name]; c != nil {
			c.Stalls += n
		}
	})
	return t
}

// Counts returns the live counter cell for name (nil when untapped). The
// cell is updated in place by the edges; read it only between kernel
// steps.
func (t *EdgeTap) Counts(name string) *EdgeCounts { return t.byName[name] }

// Reset zeroes every counter cell — the window boundary.
func (t *EdgeTap) Reset() {
	for _, c := range t.byName {
		*c = EdgeCounts{}
	}
}
