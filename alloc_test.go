package sara_test

import (
	"testing"

	"sara"
)

// TestSteadyStateAllocations pins the hot path to (near) zero heap
// allocations: after warmup, simulating case A allocates nothing per
// cycle — transactions come from the pool, completion events carry a
// pointer payload through the intrusive heap, and every scratch buffer is
// reused. The budget of 2 allocs per 1000 cycles absorbs rare amortized
// slice growth (time series, queue capacity).
func TestSteadyStateAllocations(t *testing.T) {
	sys := sara.Build(sara.Camcorder(sara.CaseA, sara.WithPolicy(sara.QoS)))
	// Warm up one frame so pools, heaps and FIFOs reach steady capacity.
	sys.RunFrames(1)

	const cyclesPerRun = 1000
	allocs := testing.AllocsPerRun(50, func() {
		sys.Run(cyclesPerRun)
	})
	if allocs > 2 {
		t.Fatalf("steady state allocates %.1f times per %d cycles, want <= 2", allocs, cyclesPerRun)
	}
}

// TestSteadyStateAllocationsRefresh pins the refresh-enabled hot path:
// the refresh state machine (forced drains, opportunistic pull-in, wake
// recomputation) must run entirely on preallocated state.
func TestSteadyStateAllocationsRefresh(t *testing.T) {
	sys := sara.Build(sara.Camcorder(sara.CaseA, sara.WithPolicy(sara.QoS), sara.WithRefresh(true)))
	sys.RunFrames(1)

	allocs := testing.AllocsPerRun(50, func() {
		sys.Run(1000)
	})
	if allocs > 2 {
		t.Fatalf("refresh-enabled steady state allocates %.1f times per 1000 cycles, want <= 2", allocs)
	}
}

// TestSteadyStateAllocationsLoaded pins the saturated (non-idle) phase:
// the event-driven NoC's dormancy bookkeeping — window recomputation,
// credit wakes, stall backfill — must run entirely on preallocated state
// even when every channel is flooded and grants flow back to back.
func TestSteadyStateAllocationsLoaded(t *testing.T) {
	sys := sara.Build(sara.Saturated())
	sys.RunFrames(1)

	allocs := testing.AllocsPerRun(50, func() {
		sys.Run(1000)
	})
	if allocs > 2 {
		t.Fatalf("loaded phase allocates %.1f times per 1000 cycles, want <= 2", allocs)
	}
}

// TestSteadyStateAllocationsScaled pins the 4x scaled SoC: eight
// channels of per-bank bucket maintenance — pushes, removals, dirty
// marks, cached-bound refreshes — must run entirely on preallocated
// state even with four times the DMAs flooding the system.
func TestSteadyStateAllocationsScaled(t *testing.T) {
	sys := sara.Build(sara.ScaledSaturated(4))
	sys.RunFrames(1)

	allocs := testing.AllocsPerRun(20, func() {
		sys.Run(1000)
	})
	// The budget scales with the roster: the only steady-state allocations
	// are the amortized NPI time-series appends, and the 4x system carries
	// four times the metered units of the base case (whose budget is 2).
	if allocs > 8 {
		t.Fatalf("scaled loaded phase allocates %.1f times per 1000 cycles, want <= 8", allocs)
	}
}

// TestSteadyStateAllocationsReference pins the cycle-stepped reference
// path too: allocation freedom must not depend on idle skipping.
func TestSteadyStateAllocationsReference(t *testing.T) {
	sys := sara.Build(sara.Camcorder(sara.CaseA, sara.WithPolicy(sara.QoS)))
	sys.Kernel().SetIdleSkip(false)
	sys.RunFrames(1)

	allocs := testing.AllocsPerRun(20, func() {
		sys.Run(1000)
	})
	if allocs > 2 {
		t.Fatalf("reference path allocates %.1f times per 1000 cycles, want <= 2", allocs)
	}
}
