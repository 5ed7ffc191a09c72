package sim

import (
	"fmt"
	"testing"
)

// churnIdler wakes at short random intervals and now and then pulls a
// peer's wake forward, like a source enqueueing into a dormant engine:
// the kernel's per-cycle scheduling mix (ticks, re-keys, sleeps,
// promotions and re-arms) without any model work behind it. A far idler
// draws one sleep in eight from 64-4096 cycles, past the timing wheel,
// so the overflow heap and the re-arms that pull an overflow entry back
// into the wheel are timed too.
type churnIdler struct {
	next  Cycle
	rng   *Rand
	peers []*churnIdler
	wake  WakeHandle
	far   bool
}

func (c *churnIdler) BindWake(h WakeHandle) { c.wake = h }

func (c *churnIdler) Tick(now Cycle) {
	if now < c.next {
		return
	}
	c.next = now + 1 + Cycle(c.rng.Intn(16))
	if c.far && c.rng.Intn(8) == 0 {
		c.next = now + 64 + Cycle(c.rng.Intn(4033))
	}
	if c.rng.Intn(8) == 0 {
		p := c.peers[c.rng.Intn(len(c.peers))]
		if at := now + 2; at < p.next {
			p.next = at
			p.wake.Rearm(at)
		}
	}
}

func (c *churnIdler) NextActivity(now Cycle) (Cycle, bool) {
	if c.next <= now {
		return now, true
	}
	return c.next, true
}

// BenchmarkKernelWakeChurn measures the kernel's scheduling cost alone:
// 32 and 160 synthetic idlers with short random wakes (1-16 cycles) and
// occasional cross re-arms, 1000 simulated cycles per op, plus a 160-idler
// variant whose idlers also sleep far (see churnIdler). It reports ns per
// executed cycle, the number a regression in the due set, the timing
// wheel, the overflow heap or the fast-forward probe moves.
func BenchmarkKernelWakeChurn(b *testing.B) {
	for _, c := range []struct {
		n   int
		far bool
	}{{32, false}, {160, false}, {160, true}} {
		name := fmt.Sprintf("idlers=%d", c.n)
		if c.far {
			name += ",far"
		}
		n := c.n
		b.Run(name, func(b *testing.B) {
			var k Kernel
			root := NewRand(uint64(n))
			idlers := make([]*churnIdler, n)
			for i := range idlers {
				idlers[i] = &churnIdler{rng: root.Fork(uint64(i)), peers: idlers, far: c.far}
				k.Register(idlers[i])
			}
			k.RunFor(1000) // warm up past the initial all-due cycle
			startSkipped, startNow := k.SkippedCycles(), k.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.RunFor(1000)
			}
			b.StopTimer()
			executed := uint64(k.Now()-startNow) - (k.SkippedCycles() - startSkipped)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(executed), "ns/exec-cycle")
			b.ReportMetric(1000, "cycles/op")
		})
	}
}
