package traffic

import (
	"testing"

	"sara/internal/dma"
	"sara/internal/noc"
	"sara/internal/sim"
	"sara/internal/txn"
)

// newIdleEngine builds a DMA engine wired to a throwaway router, for
// sources whose integration math is under test (no traffic flows).
func newIdleEngine() *dma.Engine {
	var nextID uint64
	sink := sinkFunc(func(*txn.Transaction, sim.Cycle) {})
	r := noc.NewRouter("fp", noc.Params{PortDepth: 4, Arb: noc.ArbFCFS}, 1, []noc.Sink{sink}, nil, nil)
	return dma.New(dma.Config{Name: "fp", Core: "FP", Class: txn.ClassMedia, Window: 1}, 0, &nextID, r.Port(0), 0)
}

// TestDisplayDrainPartitionIndependent is the arithmetic core of the
// idle-skipping contract for buffered sources: integrating the panel
// drain over an arbitrary partition of cycles — including partitions that
// cross the buffer-empty boundary — must be bit-identical to single-cycle
// integration, with the same underrun accounting.
func TestDisplayDrainPartitionIndependent(t *testing.T) {
	rng := sim.NewRand(77)
	for trial := 0; trial < 200; trial++ {
		drain := 0.05 + 4*rng.Float64() // spans d<1B and d>1B per cycle
		buf := 256 + float64(rng.Intn(4096))
		const horizon = 3000

		ref := NewDisplaySource("ref", newIdleEngine(), Region{Size: 1 << 20}, drain, buf, 64)
		bat := NewDisplaySource("bat", newIdleEngine(), Region{Size: 1 << 20}, drain, buf, 64)

		// Reference: one step at a time.
		for c := sim.Cycle(1); c <= horizon; c++ {
			ref.integrateTo(c)
		}
		// Batched: random partition of the same span.
		for c := sim.Cycle(0); c < horizon; {
			step := sim.Cycle(1 + rng.Intn(97))
			if c+step > horizon {
				step = horizon - c
			}
			c += step
			bat.integrateTo(c)
		}

		if ref.occFP != bat.occFP || ref.carryFP != bat.carryFP ||
			ref.UnderrunCycles != bat.UnderrunCycles {
			t.Fatalf("trial %d (drain=%v buf=%v): stepped (occ=%d carry=%d ur=%d) vs batched (occ=%d carry=%d ur=%d)",
				trial, drain, buf,
				ref.occFP, ref.carryFP, ref.UnderrunCycles,
				bat.occFP, bat.carryFP, bat.UnderrunCycles)
		}
	}
}

// TestCameraFillPartitionIndependent checks the same property for the
// sensor-fill side, including overflow accounting across the clamp.
func TestCameraFillPartitionIndependent(t *testing.T) {
	rng := sim.NewRand(78)
	for trial := 0; trial < 200; trial++ {
		fill := 0.05 + 4*rng.Float64()
		buf := 256 + float64(rng.Intn(4096))
		const horizon = 3000

		ref := NewCameraSource("ref", newIdleEngine(), Region{Size: 1 << 20}, fill, buf, 64)
		bat := NewCameraSource("bat", newIdleEngine(), Region{Size: 1 << 20}, fill, buf, 64)

		for c := sim.Cycle(1); c <= horizon; c++ {
			ref.integrateTo(c)
		}
		for c := sim.Cycle(0); c < horizon; {
			step := sim.Cycle(1 + rng.Intn(97))
			if c+step > horizon {
				step = horizon - c
			}
			c += step
			bat.integrateTo(c)
		}

		if ref.occFP != bat.occFP || ref.overflowFP != bat.overflowFP {
			t.Fatalf("trial %d (fill=%v buf=%v): stepped (occ=%d of=%d) vs batched (occ=%d of=%d)",
				trial, fill, buf, ref.occFP, ref.overflowFP, bat.occFP, bat.overflowFP)
		}
	}
}

// TestTokenBucketPartitionIndependent checks the rate/CPU token
// accumulators.
func TestTokenBucketPartitionIndependent(t *testing.T) {
	rng := sim.NewRand(79)
	for trial := 0; trial < 100; trial++ {
		rate := 0.01 + 3*rng.Float64()
		const horizon = 2000

		ref := NewRateSource("ref", newIdleEngine(), sim.NewRand(1), Region{Size: 1 << 20}, rate, 64, 2, 0.5)
		bat := NewRateSource("bat", newIdleEngine(), sim.NewRand(1), Region{Size: 1 << 20}, rate, 64, 2, 0.5)

		for c := sim.Cycle(1); c <= horizon; c++ {
			ref.integrateTo(c)
		}
		for c := sim.Cycle(0); c < horizon; {
			step := sim.Cycle(1 + rng.Intn(211))
			if c+step > horizon {
				step = horizon - c
			}
			c += step
			bat.integrateTo(c)
		}
		if ref.tokensFP != bat.tokensFP {
			t.Fatalf("trial %d (rate=%v): tokens %d vs %d", trial, rate, ref.tokensFP, bat.tokensFP)
		}
	}
}
