package memctrl

import (
	"testing"

	"sara/internal/dram"
	"sara/internal/sim"
	"sara/internal/txn"
)

// BenchmarkControllerScan measures one controller scheduling scan with
// the paper's full 42-entry queue spread over all 16 banks (2 ranks x 8
// banks). Each op advances to the controller's next scan cycle, ticks it
// — one scan and at most one issued command — and refills the freed
// queue slot with a recycled transaction to a random bank and row, so
// the queue stays full and the scan mix (dirty, parked and issuable
// buckets, occasional aged passes) stays steady. It reports ns per scan.
func BenchmarkControllerScan(b *testing.B) {
	c, d := newTestController(QoS)
	rng := sim.NewRand(1)
	free := make([]*txn.Transaction, 0, 64)
	c.OnComplete = func(t *txn.Transaction, _ sim.Cycle) { free = append(free, t) }
	id := uint64(0)
	enqueue := func(t *txn.Transaction, now sim.Cycle) {
		id++
		loc := dram.Location{Channel: 0, Rank: rng.Intn(2), Bank: rng.Intn(8), Row: uint64(rng.Intn(4))}
		*t = txn.Transaction{ID: id, Kind: txn.Read, Addr: d.Mapper().Encode(loc), Size: 128,
			Class: t.Class, Priority: txn.Priority(rng.Intn(8))}
		c.Enqueue(t, now)
	}
	now := sim.Cycle(0)
	for class, n := range c.cfg.QueueCaps {
		for i := 0; i < n; i++ {
			enqueue(&txn.Transaction{Class: txn.Class(class)}, now)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.nextTry != neverTry && c.nextTry > now {
			now = c.nextTry
		}
		c.Tick(now)
		now++
		for len(free) > 0 {
			t := free[len(free)-1]
			free = free[:len(free)-1]
			enqueue(t, now)
		}
	}
	b.StopTimer()
	if c.Pending() != c.cfg.QueueCaps.Total() {
		b.Fatalf("queue drained to %d entries", c.Pending())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/scan")
}
