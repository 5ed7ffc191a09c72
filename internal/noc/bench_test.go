package noc

import (
	"testing"

	"sara/internal/sim"
	"sara/internal/txn"
)

// benchSink is a credited router output for the arbitration benchmark.
// Three of the eight outputs are full at any time, the set rotating every
// 16 cycles so no input stays stuck behind a full output for good; an
// accepting output hands each granted packet straight back to the input
// port it came from (its Source), so every port keeps an arbitrable head
// at constant occupancy.
type benchSink struct {
	out int
	now *sim.Cycle
	r   *Router
}

func (s *benchSink) CanAccept(*txn.Transaction) bool {
	return (s.out+int(*s.now>>4))%8 >= 3
}
func (s *benchSink) Accept(t *txn.Transaction, now sim.Cycle) {
	s.r.Port(t.Source).Push(t, now, now)
}
func (s *benchSink) OnCredit(Waker) {}

// BenchmarkRouterArbitration times one full arbitration scan of a router
// shaped like the 4x SoC's root: 26 input ports, 8 outputs routed by
// address, every head arbitrable, and three of the eight outputs full
// credited sinks (see benchSink), so heads routed there are skipped while
// the other outputs grant. Priorities are mixed so the priority arbiter
// compares for real. The router runs its reference scan every cycle
// (SetForceScan), so each op is one scan even on a cycle where every
// ready head waits on a full output; aging is off, or the heads parked
// on full outputs would cross the aging threshold part-way through the
// run and change what a scan costs with b.N. It reports ns per scan.
func BenchmarkRouterArbitration(b *testing.B) {
	const nports, nout, fill = 26, 8, 8
	params := DefaultParams()
	params.AgingT = 0
	now := sim.Cycle(1)
	sinks := make([]*benchSink, nout)
	outputs := make([]Sink, nout)
	for i := range sinks {
		sinks[i] = &benchSink{out: i, now: &now}
		outputs[i] = sinks[i]
	}
	r := NewRouter("root", params, nports, outputs,
		func(t *txn.Transaction) int { return int(t.Addr>>6) % nout }, nil)
	id := uint64(0)
	for p := 0; p < nports; p++ {
		for i := 0; i < fill; i++ {
			id++
			t := &txn.Transaction{ID: id, Addr: txn.Addr((p+3*i)%nout) << 6,
				Priority: txn.Priority((p + i) % 4), Source: p}
			r.Port(p).Push(t, 0, 0)
		}
	}
	for _, s := range sinks {
		s.r = r
	}
	r.SetForceScan(true)
	r.Tick(now) // first scan sizes the ready list
	now++
	start := r.Forwarded()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Tick(now)
		now++
	}
	b.StopTimer()
	if got := r.Forwarded() - start; got < uint64(b.N) {
		b.Fatalf("%d grants in %d scans: outputs starved", got, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/scan")
}
