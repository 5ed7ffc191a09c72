package sim

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"
)

// busy is an always-due test component: it calls fn on every tick and
// reports activity on every cycle, so the kernel never skips past it.
type busy func(now Cycle)

func (f busy) Tick(now Cycle)                       { f(now) }
func (f busy) NextActivity(now Cycle) (Cycle, bool) { return now, true }

func TestKernelTickOrder(t *testing.T) {
	var k Kernel
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Register(busy(func(Cycle) { order = append(order, i) }))
	}
	k.Step()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("tick order %v, want [0 1 2]", order)
	}
}

func TestKernelRegisterAfterStartPanics(t *testing.T) {
	var k Kernel
	k.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Register after start")
		}
	}()
	k.Register(busy(func(Cycle) {}))
}

func TestKernelEventsFireInOrder(t *testing.T) {
	var k Kernel
	var fired []Cycle
	k.At(5, func(now Cycle) { fired = append(fired, now) })
	k.At(2, func(now Cycle) { fired = append(fired, now) })
	k.At(2, func(now Cycle) { fired = append(fired, now+100) }) // same-cycle tiebreak by schedule order
	k.Run(10)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if fired[0] != 2 || fired[1] != 102 || fired[2] != 5 {
		t.Fatalf("fire order %v, want [2 102 5]", fired)
	}
}

func TestKernelEventBeforeTickers(t *testing.T) {
	var k Kernel
	var log []string
	k.Register(busy(func(Cycle) { log = append(log, "tick") }))
	k.At(0, func(Cycle) { log = append(log, "event") })
	k.Step()
	if log[0] != "event" || log[1] != "tick" {
		t.Fatalf("order %v, want event before tick", log)
	}
}

func TestKernelAfterAndEvery(t *testing.T) {
	var k Kernel
	var at []Cycle
	k.After(3, func(now Cycle) { at = append(at, now) })
	k.Every(4, func(now Cycle) { at = append(at, now) })
	k.Run(13)
	want := []Cycle{3, 4, 8, 12}
	if len(at) != len(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	}
}

func TestKernelEveryZeroPanics(t *testing.T) {
	var k Kernel
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Every(0)")
		}
	}()
	k.Every(0, func(Cycle) {})
}

func TestPastEventFiresNextStep(t *testing.T) {
	var k Kernel
	k.Run(10)
	fired := false
	k.At(3, func(Cycle) { fired = true })
	k.Step()
	if !fired {
		t.Fatal("past-due event did not fire on next step")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRandForkIndependence(t *testing.T) {
	r := NewRand(7)
	a, b := r.Fork(1), r.Fork(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams collided %d times", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandIntnBounds(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Intn(0)")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandGeometricMean(t *testing.T) {
	r := NewRand(11)
	const mean = 50.0
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		g := r.Geometric(mean)
		if g < 1 {
			t.Fatalf("geometric sample %d below 1", g)
		}
		sum += float64(g)
	}
	got := sum / n
	if got < 0.9*mean || got > 1.1*mean {
		t.Fatalf("geometric mean %.1f, want ~%.0f", got, mean)
	}
}

func TestRandGeometricDegenerate(t *testing.T) {
	r := NewRand(1)
	if g := r.Geometric(0.5); g != 1 {
		t.Fatalf("Geometric(0.5) = %d, want 1", g)
	}
}

func TestRandBoolProbability(t *testing.T) {
	r := NewRand(3)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("Bool(0.3) frequency %.3f, want ~0.30", frac)
	}
}

// fakeIdler is a ticker with a scripted wake schedule.
type fakeIdler struct {
	wakes  []Cycle // sorted cycles at which it has work
	ticked []Cycle // cycles at which Tick observed work
}

func (f *fakeIdler) Tick(now Cycle) {
	for len(f.wakes) > 0 && f.wakes[0] <= now {
		if f.wakes[0] == now {
			f.ticked = append(f.ticked, now)
		}
		f.wakes = f.wakes[1:]
	}
}

func (f *fakeIdler) NextActivity(now Cycle) (Cycle, bool) {
	if len(f.wakes) == 0 {
		return 0, false
	}
	if f.wakes[0] <= now {
		return now, true
	}
	return f.wakes[0], true
}

func TestKernelIdleSkipJumpsToNextActivity(t *testing.T) {
	var k Kernel
	f := &fakeIdler{wakes: []Cycle{3, 100, 5000}}
	k.Register(f)
	k.Run(10000)
	if k.Now() != 10000 {
		t.Fatalf("final cycle %d, want 10000", k.Now())
	}
	want := []Cycle{3, 100, 5000}
	if len(f.ticked) != len(want) {
		t.Fatalf("ticked at %v, want %v", f.ticked, want)
	}
	for i := range want {
		if f.ticked[i] != want[i] {
			t.Fatalf("ticked at %v, want %v", f.ticked, want)
		}
	}
	if k.SkippedCycles() == 0 {
		t.Fatal("no cycles skipped across a 10000-cycle idle run")
	}
	if executed := uint64(k.Now()) - k.SkippedCycles(); executed > 10 {
		t.Fatalf("executed %d cycles, want only the scheduled wakes (plus cycle 0)", executed)
	}
}

func TestKernelIdleSkipBoundedByEvents(t *testing.T) {
	var k Kernel
	f := &fakeIdler{wakes: []Cycle{9000}}
	k.Register(f)
	var fired []Cycle
	k.Every(1000, func(now Cycle) { fired = append(fired, now) })
	k.Run(4500)
	want := []Cycle{1000, 2000, 3000, 4000}
	if len(fired) != len(want) {
		t.Fatalf("events fired at %v, want %v", fired, want)
	}
}

func TestKernelSetIdleSkipOff(t *testing.T) {
	var k Kernel
	k.Register(&fakeIdler{wakes: []Cycle{50}})
	k.SetIdleSkip(false)
	k.Run(100)
	if k.SkippedCycles() != 0 {
		t.Fatalf("skipped %d cycles with skipping disabled", k.SkippedCycles())
	}
}

// TestExecutedPlusSkippedIsNow pins the cycle accounting of the one run
// loop: with no watchdog installed, Step counts every executed cycle, so
// after plain Run segments the executed and skipped counts partition the
// clock in each of the three kernel modes.
func TestExecutedPlusSkippedIsNow(t *testing.T) {
	modes := []struct {
		name string
		set  func(*Kernel)
	}{
		{"wakeset", func(*Kernel) {}},
		{"stepped", func(k *Kernel) { k.SetIdleSkip(false) }},
		{"forcepoll", func(k *Kernel) { k.SetForcePoll(true) }},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			var k Kernel
			k.Register(&fakeIdler{wakes: []Cycle{3, 100, 1500, 5000}})
			k.Register(&fakeIdler{wakes: []Cycle{40, 41, 42, 2600}})
			k.Every(700, func(Cycle) {})
			m.set(&k)
			for _, h := range []Cycle{10, 1000, 1001, 4000, 6000} {
				k.Run(h)
				if ex, sk := k.ExecutedCycles(), k.SkippedCycles(); ex+sk != uint64(k.Now()) {
					t.Fatalf("after Run(%d): %d executed + %d skipped != clock %d", h, ex, sk, k.Now())
				}
			}
			if k.ExecutedCycles() == 0 {
				t.Fatal("no executed cycles counted")
			}
		})
	}
}

func TestKernelAtArg(t *testing.T) {
	var k Kernel
	payload := new(int)
	*payload = 7
	var got int
	k.AtArg(5, func(now Cycle, arg any) { got = *arg.(*int) + int(now) }, payload)
	k.Run(10)
	if got != 12 {
		t.Fatalf("AtArg callback got %d, want 12", got)
	}
}

func TestKernelAtArgOrderedWithAt(t *testing.T) {
	var k Kernel
	var order []string
	k.At(3, func(Cycle) { order = append(order, "a") })
	k.AtArg(3, func(Cycle, any) { order = append(order, "b") }, nil)
	k.At(3, func(Cycle) { order = append(order, "c") })
	k.Run(5)
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("same-cycle mixed events fired as %v, want [a b c]", order)
	}
}

func TestKernelNextWake(t *testing.T) {
	var k Kernel
	k.Register(&fakeIdler{wakes: []Cycle{40}})
	k.At(25, func(Cycle) {})
	if got := k.NextWake(1000); got != 25 {
		t.Fatalf("NextWake = %d, want 25 (event before ticker wake)", got)
	}
	k.Run(30)
	if got := k.NextWake(1000); got != 40 {
		t.Fatalf("NextWake = %d, want 40 (ticker wake)", got)
	}
	if got := k.NextWake(35); got != 35 {
		t.Fatalf("NextWake = %d, want horizon cap 35", got)
	}
}

// cachedSleeper models a component that caches its wake cycle instead of
// recomputing it per query — the noc.Router idiom. Its NextActivity is a
// pure read of the cache; Rearm is the external wake propagation, and —
// per the push-based contract — it forwards every external re-arm to the
// kernel wake handle received through BindWake.
type cachedSleeper struct {
	wakeAt Cycle
	wake   WakeHandle
	acted  []Cycle
}

const sleeperNever = ^Cycle(0)

func (s *cachedSleeper) BindWake(h WakeHandle) { s.wake = h }

func (s *cachedSleeper) Rearm(at Cycle) {
	if at < s.wakeAt {
		s.wakeAt = at
	}
	s.wake.Rearm(at)
}

func (s *cachedSleeper) Tick(now Cycle) {
	if now >= s.wakeAt {
		s.acted = append(s.acted, now)
		s.wakeAt = sleeperNever
	}
}

func (s *cachedSleeper) NextActivity(now Cycle) (Cycle, bool) {
	if s.wakeAt == sleeperNever {
		return 0, false
	}
	if s.wakeAt <= now {
		return now, true
	}
	return s.wakeAt, true
}

// TestKernelReArmedWakeHonored pins the push-based wake-propagation
// contract for components that cache their next activity: when an
// external event lands mid-sleep and re-arms an EARLIER wake through the
// component's WakeHandle, the kernel must execute the re-armed cycle —
// including reviving an entry that had parked at never. The skipping run
// must act on exactly the same cycles as the cycle-stepped reference.
func TestKernelReArmedWakeHonored(t *testing.T) {
	run := func(skip bool) []Cycle {
		var k Kernel
		s := &cachedSleeper{wakeAt: 900}
		k.Register(s)
		// The upstream injections: at cycle 50 something lands in the
		// sleeper's queue that advances its next action to cycle 55
		// (ahead of the cached 900), and after the cache is consumed a
		// second injection at 300 arms a fresh wake.
		k.At(50, func(now Cycle) { s.Rearm(now + 5) })
		k.At(300, func(now Cycle) { s.Rearm(now + 10) })
		k.SetIdleSkip(skip)
		k.Run(1000)
		return s.acted
	}
	ref, fast := run(false), run(true)
	want := []Cycle{55, 310}
	if len(ref) != len(want) || ref[0] != want[0] || ref[1] != want[1] {
		t.Fatalf("reference acted at %v, want %v", ref, want)
	}
	if len(fast) != len(ref) {
		t.Fatalf("skipping acted at %v, reference at %v", fast, ref)
	}
	for i := range ref {
		if fast[i] != ref[i] {
			t.Fatalf("skipping acted at %v, reference at %v", fast, ref)
		}
	}
}

// busyBurst is busy every cycle in [0, busyUntil), then has one final
// wake at lateWake.
type busyBurst struct {
	busyUntil Cycle
	lateWake  Cycle
	acted     []Cycle
}

func (b *busyBurst) Tick(now Cycle) {
	if now < b.busyUntil || now == b.lateWake {
		b.acted = append(b.acted, now)
	}
}

func (b *busyBurst) NextActivity(now Cycle) (Cycle, bool) {
	if now < b.busyUntil {
		return now, true
	}
	if now <= b.lateWake {
		return b.lateWake, true
	}
	return 0, false
}

// TestKernelBurstThenIdle pins the cost of a busy burst followed by an
// idle stretch: every burst cycle executes (identically to the stepped
// reference), and the idle stretch after it is skipped at once — no
// executed idle cycles trail the burst.
func TestKernelBurstThenIdle(t *testing.T) {
	run := func(skip bool) (acted []Cycle, skipped uint64) {
		var k Kernel
		b := &busyBurst{busyUntil: 100, lateWake: 5000}
		k.Register(b)
		k.SetIdleSkip(skip)
		k.Run(6000)
		return b.acted, k.SkippedCycles()
	}
	ref, _ := run(false)
	fast, skipped := run(true)
	if len(ref) != len(fast) {
		t.Fatalf("acted %d cycles skipping, %d stepped", len(fast), len(ref))
	}
	for i := range ref {
		if ref[i] != fast[i] {
			t.Fatalf("action %d at cycle %d skipping, %d stepped", i, fast[i], ref[i])
		}
	}
	// Executed: the burst 0..99, the late wake 5000 and the final cycle
	// 5999 (fastForward caps at horizon-1) — 102 cycles. The re-key after
	// cycle 99 files the idler at 5000, so the probe at 100 skips
	// 100..4999 (4900 cycles); the re-key after 5000 parks it, so the
	// probe at 5001 skips 5001..5998 (998 cycles). 4900+998 = 5898.
	if skipped != 5898 {
		t.Fatalf("skipped %d cycles, want exactly 5898", skipped)
	}
}

// edgeTrigger re-arms its targets at the current cycle on each scripted
// wake — a same-cycle edge into other components, like a source
// enqueueing into a dormant engine.
type edgeTrigger struct {
	fakeIdler
	targets []*cachedSleeper
}

func (e *edgeTrigger) Tick(now Cycle) {
	if len(e.wakes) > 0 && e.wakes[0] == now {
		for _, s := range e.targets {
			s.Rearm(now)
		}
	}
	e.fakeIdler.Tick(now)
}

// TestKernelForwardEdgeAcrossWordBoundary pins same-cycle forward edges
// across due-bitset words: ticker 10 re-arms ticker 70 (the next word) at
// now, and 70 must tick that same cycle, as in the stepped reference —
// as must ticker 20, a forward edge within the word being walked. The
// backward edge to ticker 3 acts one cycle later in both modes.
func TestKernelForwardEdgeAcrossWordBoundary(t *testing.T) {
	run := func(skip bool) (fwd, near, back []Cycle) {
		var k Kernel
		back3 := &cachedSleeper{wakeAt: sleeperNever}
		near20 := &cachedSleeper{wakeAt: sleeperNever}
		fwd70 := &cachedSleeper{wakeAt: sleeperNever}
		trig := &edgeTrigger{fakeIdler: fakeIdler{wakes: []Cycle{200, 700}},
			targets: []*cachedSleeper{fwd70, near20, back3}}
		for id := 0; id < 80; id++ {
			switch id {
			case 3:
				k.Register(back3)
			case 10:
				k.Register(trig)
			case 20:
				k.Register(near20)
			case 70:
				k.Register(fwd70)
			default:
				k.Register(&fakeIdler{})
			}
		}
		k.SetIdleSkip(skip)
		k.Run(1000)
		return fwd70.acted, near20.acted, back3.acted
	}
	refFwd, refNear, refBack := run(false)
	fwd, near, back := run(true)
	same := func(a, b []Cycle) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(refFwd, []Cycle{200, 700}) || !same(fwd, refFwd) {
		t.Fatalf("forward edge 10->70 acted at %v skipping, %v stepped; want [200 700]", fwd, refFwd)
	}
	if !same(refNear, []Cycle{200, 700}) || !same(near, refNear) {
		t.Fatalf("forward edge 10->20 acted at %v skipping, %v stepped; want [200 700]", near, refNear)
	}
	if !same(refBack, []Cycle{201, 701}) || !same(back, refBack) {
		t.Fatalf("backward edge 10->3 acted at %v skipping, %v stepped; want [201 701]", back, refBack)
	}
}

func TestEventHeapManyEvents(t *testing.T) {
	var k Kernel
	r := NewRand(9)
	var fired []Cycle
	for i := 0; i < 500; i++ {
		at := Cycle(r.Intn(2000))
		k.At(at, func(now Cycle) { fired = append(fired, now) })
	}
	k.Run(2001)
	if len(fired) != 500 {
		t.Fatalf("fired %d events, want 500", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events fired out of order at %d: %d after %d", i, fired[i], fired[i-1])
		}
	}
}

// unboundSleeper is the negative control for the push contract: it caches
// its wake like cachedSleeper but never forwards re-arms to the kernel.
type unboundSleeper struct {
	cachedSleeper
}

func (s *unboundSleeper) BindWake(WakeHandle) {} // deliberately dropped

func (s *unboundSleeper) Rearm(at Cycle) {
	if at < s.wakeAt {
		s.wakeAt = at
	}
}

// TestWakeSetRequiresRearm documents the contract inversion: a cached
// component whose external wakes are NOT pushed through its WakeHandle is
// handled correctly by the SetForcePoll linear reference (which re-reads
// every hint each executed cycle) but missed by the active-list kernel —
// that gap is exactly why BindWake forwarding is mandatory, and why the
// differential suites run the poll reference against the active list.
func TestWakeSetRequiresRearm(t *testing.T) {
	run := func(poll bool) []Cycle {
		var k Kernel
		k.SetForcePoll(poll)
		s := &unboundSleeper{}
		s.wakeAt = sleeperNever
		k.Register(s)
		anchor := &fakeIdler{wakes: []Cycle{990}} // keeps the run alive past the re-arm
		k.Register(anchor)
		k.At(50, func(now Cycle) { s.Rearm(now + 5) })
		k.Run(1000)
		return s.acted
	}
	if got := run(true); len(got) != 1 || got[0] != 55 {
		t.Fatalf("poll reference acted at %v, want [55]", got)
	}
	// Under the active list the unbound sleeper's kernel entry stays
	// parked at never, so it is never ticked again and never acts at all —
	// not even late. (Before the active list it would have acted 935
	// cycles late, at the anchor's executed cycle 990; now the dropped
	// re-arm silences it completely, which is the equivalence bug the
	// contract forbids.)
	if got := run(false); len(got) != 0 {
		t.Fatalf("active list acted at %v for an unbound sleeper, want no acts at all", got)
	}
}

// TestKernelRearmOutOfRangePanics pins the Rearm wiring check: an
// out-of-range idler id is a silently missed wake waiting to happen, so
// it must die with a typed *InvariantError instead of being dropped.
func TestKernelRearmOutOfRangePanics(t *testing.T) {
	var k Kernel
	k.Register(&fakeIdler{wakes: []Cycle{5}})
	for _, id := range []int{-1, 1, 99} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Rearm(%d) did not panic", id)
				}
				if _, ok := r.(*InvariantError); !ok {
					t.Fatalf("Rearm(%d) panicked with %T (%v), want *InvariantError", id, r, r)
				}
			}()
			k.Rearm(id, 10)
		}()
	}
	// In-range re-arms still work after the checks.
	k.Rearm(0, 3)
	if k.wakes.at[0] != 0 { // initial cached wake is 0; 3 is an ignored increase
		t.Fatalf("valid Rearm broke the cached wake: %d", k.wakes.at[0])
	}
}

// tickCounter counts raw Tick calls on top of fakeIdler's scripted acts,
// exposing the active list's fan-out directly.
type tickCounter struct {
	fakeIdler
	ticks int
}

func (c *tickCounter) Tick(now Cycle) {
	c.ticks++
	c.fakeIdler.Tick(now)
}

// TestActiveListSkipsDormantTickers pins the tentpole property: on
// executed cycles, components whose cached wake is in the future are not
// ticked at all. A component busy every cycle keeps the run executing,
// while a mostly-dormant neighbor must see only its scheduled wakes (plus
// the initial validation tick), not the busy component's ~1000 cycles —
// and must still act on exactly the cycles the stepped reference acts on.
func TestActiveListSkipsDormantTickers(t *testing.T) {
	run := func(skip bool) (acted []Cycle, ticks int) {
		var k Kernel
		busy := &busyBurst{busyUntil: 1000, lateWake: 1000}
		dormant := &tickCounter{fakeIdler: fakeIdler{wakes: []Cycle{200, 600}}}
		k.Register(busy)
		k.Register(dormant)
		k.SetIdleSkip(skip)
		k.Run(1000)
		return dormant.ticked, dormant.ticks
	}
	refActed, refTicks := run(false)
	fastActed, fastTicks := run(true)
	if len(refActed) != 2 || len(fastActed) != 2 ||
		refActed[0] != fastActed[0] || refActed[1] != fastActed[1] {
		t.Fatalf("acted at %v (stepped %v), want [200 600] in both modes", fastActed, refActed)
	}
	if refTicks != 1000 {
		t.Fatalf("stepped reference ticked the dormant idler %d times, want 1000", refTicks)
	}
	if fastTicks > 3 {
		t.Fatalf("active list ticked the dormant idler %d times, want <= 3 (its wakes plus initial validation)", fastTicks)
	}
}

// orderIdler records its tag into a shared log on each scripted wake.
type orderIdler struct {
	wakes []Cycle
	tag   int
	log   *[]int
}

func (o *orderIdler) Tick(now Cycle) {
	if len(o.wakes) > 0 && o.wakes[0] == now {
		*o.log = append(*o.log, o.tag)
		o.wakes = o.wakes[1:]
	}
}

func (o *orderIdler) NextActivity(now Cycle) (Cycle, bool) {
	if len(o.wakes) == 0 {
		return 0, false
	}
	if o.wakes[0] <= now {
		return now, true
	}
	return o.wakes[0], true
}

// TestActiveListPreservesRegistrationOrder pins the co-due ordering
// guarantee the SoC pipeline depends on: when several components are due
// on the same cycle, the active list ticks them in registration order,
// exactly like the stepped reference.
func TestActiveListPreservesRegistrationOrder(t *testing.T) {
	run := func(skip bool) []int {
		var k Kernel
		var log []int
		// All three co-due at 100 and 500; tags registered 0,1,2.
		for tag := 0; tag < 3; tag++ {
			k.Register(&orderIdler{wakes: []Cycle{100, 500}, tag: tag, log: &log})
		}
		k.SetIdleSkip(skip)
		k.Run(1000)
		return log
	}
	ref, fast := run(false), run(true)
	want := []int{0, 1, 2, 0, 1, 2}
	if len(ref) != len(want) || len(fast) != len(want) {
		t.Fatalf("co-due logs: stepped %v, active %v, want %v", ref, fast, want)
	}
	for i := range want {
		if ref[i] != want[i] || fast[i] != want[i] {
			t.Fatalf("co-due logs: stepped %v, active %v, want %v", ref, fast, want)
		}
	}
}

// settleRecorder records every SettleRun call the kernel makes.
type settleRecorder struct {
	fakeIdler
	settles []Cycle
}

func (s *settleRecorder) SettleRun(end Cycle) { s.settles = append(s.settles, end) }

// TestKernelSettlesOnRunExit pins the Settler hook: every Run segment —
// in every kernel mode — ends with SettleRun(horizon) so batched
// dormant-cycle bookkeeping can be flushed even when the active list
// never ticked the component again.
func TestKernelSettlesOnRunExit(t *testing.T) {
	for _, skip := range []bool{true, false} {
		var k Kernel
		s := &settleRecorder{fakeIdler: fakeIdler{wakes: []Cycle{10}}}
		k.Register(s)
		k.SetIdleSkip(skip)
		k.Run(100)
		k.RunFor(50)
		if len(s.settles) != 2 || s.settles[0] != 100 || s.settles[1] != 150 {
			t.Fatalf("skip=%v: SettleRun calls %v, want [100 150]", skip, s.settles)
		}
	}
}

// TestWakeSetDecreaseKey exercises the wake set directly: re-arms are
// decrease-key (position-tracked, no duplicate entries), a far wake waits
// in the overflow heap while a near one sits in its wheel slot, a re-arm
// moves an overflow id into the wheel and a wheel id between slots, a
// re-arm at or before now makes a sleeping id due, and first always
// reports the earliest filed wake.
func TestWakeSetDecreaseKey(t *testing.T) {
	var w wakeSet
	for id := 0; id < 8; id++ {
		w.add(id)
		w.sleep(id, Cycle(100+10*id), true)
	}
	if top := w.heap[0]; top.id != 0 || top.at != 100 || w.occ != 0 {
		t.Fatalf("top (%d, %d), occ %#x, want (0, 100) and an empty wheel", top.id, top.at, w.occ)
	}
	// Decrease-key a deep overflow entry to the top, still out of the
	// wheel's reach (cur is 0, the window [0, 63]).
	w.rearm(7, wheelSlots, 0)
	if top := w.heap[0]; top.id != 7 || top.at != wheelSlots || w.first() != wheelSlots {
		t.Fatalf("after decrease-key top (%d, %d), first %d, want (7, %d)", top.id, top.at, w.first(), wheelSlots)
	}
	// One cycle nearer lands in the wheel's last slot: out of the heap,
	// into slot 63.
	w.rearm(7, wheelSlots-1, 0)
	if w.pos[7] != -1 || w.wheel[wheelSlots-1] != 1<<7 || w.occ != 1<<(wheelSlots-1) || w.first() != wheelSlots-1 {
		t.Fatalf("overflow->wheel: pos %d slot %#x occ %#x first %d", w.pos[7], w.wheel[wheelSlots-1], w.occ, w.first())
	}
	// Wheel to wheel: the old slot empties and its occupancy bit clears.
	w.rearm(7, 5, 0)
	if w.wheel[wheelSlots-1] != 0 || w.wheel[5] != 1<<7 || w.occ != 1<<5 || w.first() != 5 {
		t.Fatalf("wheel->wheel: slot 63 %#x slot 5 %#x occ %#x first %d", w.wheel[wheelSlots-1], w.wheel[5], w.occ, w.first())
	}
	// A wake at or before now leaves the wheel for the due set; the old
	// minimum resurfaces.
	w.rearm(7, 3, 3)
	if !w.isDue(7) || w.pos[7] != -1 || w.at[7] != 3 || w.occ != 0 {
		t.Fatalf("re-armed id 7: due=%v pos=%d at=%d occ=%#x, want due, -1, 3, 0", w.isDue(7), w.pos[7], w.at[7], w.occ)
	}
	if top := w.heap[0]; top.id != 0 || top.at != 100 || w.first() != 100 {
		t.Fatalf("after promotion top (%d, %d), first %d, want (0, 100)", top.id, top.at, w.first())
	}
	// An increase is dropped.
	w.rearm(0, 400, 3)
	if w.at[0] != 100 {
		t.Fatalf("rearm raised id 0 to %d; increases must be lazy", w.at[0])
	}
	if err := checkWakeSet(&w); err != "" {
		t.Fatal(err)
	}
	// Promotion moves the window: once cur passes 36, the heap's 100 is
	// within wheelSlots of it, but it stays in the heap until it arrives
	// or a re-arm moves it.
	w.promote(40)
	if w.cur != 41 || w.pos[0] != 0 || w.first() != 100 {
		t.Fatalf("after promote(40): cur %d pos[0] %d first %d", w.cur, w.pos[0], w.first())
	}
	w.rearm(0, 99, 40)
	if w.pos[0] != -1 || w.occ != 1<<(99%wheelSlots) || w.first() != 99 {
		t.Fatalf("in-window re-arm of an overflow id: pos %d occ %#x first %d", w.pos[0], w.occ, w.first())
	}
	if err := checkWakeSet(&w); err != "" {
		t.Fatal(err)
	}
	// Kernel.Rearm ignores increases (lazy): the cached bound only drops.
	var k Kernel
	k.Register(&fakeIdler{wakes: []Cycle{500}})
	k.Rearm(0, 50)
	if k.wakes.at[0] != 0 { // initial cached wake is 0 (due immediately)
		t.Fatalf("Rearm raised a cached wake to %d; increases must be lazy", k.wakes.at[0])
	}
}

// checkWakeSet reports the first broken wake-set invariant, or "": every
// id is in exactly one of due, the wheel, the overflow heap or parked; a
// wheel id sits in slot at mod wheelSlots with its wake in the window
// [cur, cur+wheelSlots-1], so no slot holds two cycles; occ marks exactly
// the non-empty slots; the heap is min-ordered with exact pos tracking;
// and the at mirror agrees with the heap keys and holds never exactly for
// parked ids.
func checkWakeSet(w *wakeSet) string {
	if len(w.wheel) != len(w.due)*wheelSlots {
		return fmt.Sprintf("wheel has %d words for %d due words", len(w.wheel), len(w.due))
	}
	for i, e := range w.heap {
		if p := (i - 1) / 2; i > 0 && w.heap[p].at > e.at {
			return fmt.Sprintf("heap violation at %d: parent %d > child %d", i, w.heap[p].at, e.at)
		}
		if w.pos[e.id] != int32(i) {
			return fmt.Sprintf("pos[%d] = %d, entry at %d", e.id, w.pos[e.id], i)
		}
		if w.at[e.id] != e.at {
			return fmt.Sprintf("at[%d] = %d, heap entry holds %d", e.id, w.at[e.id], e.at)
		}
	}
	slots := make([]int, len(w.at)) // wheel slots holding each id
	slot := make([]int, len(w.at))  // the last of them
	for s := 0; s < wheelSlots; s++ {
		used := false
		for i := range w.due {
			for word := w.wheel[i*wheelSlots+s]; word != 0; word &= word - 1 {
				id := i<<6 | bits.TrailingZeros64(word)
				if id >= len(w.at) {
					return fmt.Sprintf("slot %d holds unregistered id %d", s, id)
				}
				slots[id]++
				slot[id] = s
				used = true
			}
		}
		if used != (w.occ&(1<<s) != 0) {
			return fmt.Sprintf("slot %d non-empty=%v but occ bit %v", s, used, !used)
		}
	}
	for id := range w.at {
		inHeap := w.pos[id] >= 0
		if inHeap && (int(w.pos[id]) >= len(w.heap) || w.heap[w.pos[id]].id != int32(id)) {
			return fmt.Sprintf("pos[%d] = %d points at a foreign entry", id, w.pos[id])
		}
		if !inHeap && w.pos[id] != -1 {
			return fmt.Sprintf("pos[%d] = %d, want -1 outside the heap", id, w.pos[id])
		}
		inWheel := slots[id] > 0
		parked := !w.isDue(id) && !inHeap && !inWheel
		places := slots[id]
		for _, in := range []bool{w.isDue(id), inHeap, parked} {
			if in {
				places++
			}
		}
		if places != 1 {
			return fmt.Sprintf("id %d in %d places (due=%v heap=%v wheel slots=%d)", id, places, w.isDue(id), inHeap, slots[id])
		}
		if inWheel {
			at := w.at[id]
			if slot[id] != int(at%wheelSlots) {
				return fmt.Sprintf("id %d wakes at %d but sits in slot %d, want %d", id, at, slot[id], at%wheelSlots)
			}
			if at < w.cur || at-w.cur >= wheelSlots {
				return fmt.Sprintf("id %d wakes at %d outside the wheel window [%d, %d]", id, at, w.cur, w.cur+wheelSlots-1)
			}
		}
		if parked != (w.at[id] == never) {
			return fmt.Sprintf("id %d parked=%v with cached wake %d", id, parked, w.at[id])
		}
	}
	return ""
}

// TestWakeSetNeverIsNotUnregister pins the park-at-never semantics: an
// idler that reports ok=false stays in the heap (its entry is parked at
// never, not removed) and a later Rearm revives it.
func TestWakeSetNeverIsNotUnregister(t *testing.T) {
	var k Kernel
	s := &cachedSleeper{wakeAt: sleeperNever} // never acts on its own
	k.Register(s)
	anchor := &fakeIdler{wakes: []Cycle{10, 2000}}
	k.Register(anchor)
	k.Run(100) // validates s once: entry parks at never
	if got := k.wakes.at[0]; got != never {
		t.Fatalf("dormant sleeper cached wake %d, want never", got)
	}
	k.At(300, func(now Cycle) { s.Rearm(now + 7) })
	k.Run(1500)
	if len(s.acted) != 1 || s.acted[0] != 307 {
		t.Fatalf("revived sleeper acted at %v, want [307]", s.acted)
	}
}

// TestKernelRegistrationOrderIrrelevantForSkipping pins the fix for the
// old one-time idler reversal in Run: fast-forward targets come off the
// wake set, so registration order affects tick order (as documented)
// and nothing else.
func TestKernelRegistrationOrderIrrelevantForSkipping(t *testing.T) {
	mk := func(reverse bool) (acted [][]Cycle, skipped uint64) {
		var k Kernel
		a := &fakeIdler{wakes: []Cycle{5, 40, 700}}
		b := &fakeIdler{wakes: []Cycle{40, 300}}
		c := &cachedSleeper{wakeAt: 90}
		if reverse {
			k.Register(c)
			k.Register(b)
			k.Register(a)
		} else {
			k.Register(a)
			k.Register(b)
			k.Register(c)
		}
		k.Run(1000)
		return [][]Cycle{a.ticked, b.ticked, c.acted}, k.SkippedCycles()
	}
	fwd, fs := mk(false)
	rev, rs := mk(true)
	if fs != rs {
		t.Fatalf("skipped cycles differ with registration order: %d vs %d", fs, rs)
	}
	for i := range fwd {
		if len(fwd[i]) != len(rev[i]) {
			t.Fatalf("idler %d acted %v vs %v across registration orders", i, fwd[i], rev[i])
		}
		for j := range fwd[i] {
			if fwd[i][j] != rev[i][j] {
				t.Fatalf("idler %d acted %v vs %v across registration orders", i, fwd[i], rev[i])
			}
		}
	}
}

// TestWakeSetMatchesPoll is the kernel-level differential property: a
// random population of self-timed idlers (stale-early cached bounds
// after every act) and cached sleepers re-armed by random external
// events must act on exactly the same cycles — and skip exactly the same
// stretches — under the wake set as under the SetForcePoll linear
// reference and the cycle-stepped run. Wake gaps include the wheel's
// edge (63, 64 and 65 cycles) and far overflow sleeps, and the skipping
// runs are split into Run segments with a stepped middle segment
// (SetIdleSkip toggled between runs), so the wheel sees clock jumps with
// wakes filed but never promoted.
func TestWakeSetMatchesPoll(t *testing.T) {
	const horizon = 3000
	type mode int
	const (
		stepped mode = iota
		pollSkip
		heapSkip
	)
	run := func(seed uint64, m mode) (acted [][]Cycle, skipped uint64, now Cycle) {
		rng := NewRand(seed)
		var k Kernel
		k.SetIdleSkip(m != stepped)
		k.SetForcePoll(m == pollSkip)

		nFake := 1 + rng.Intn(4)
		nSleep := 1 + rng.Intn(4)
		var report []func() []Cycle
		for i := 0; i < nFake; i++ {
			var wakes []Cycle
			at := Cycle(0)
			for j := 0; j < 1+rng.Intn(12); j++ {
				if rng.Bool(0.3) {
					at += wheelSlots - 1 + Cycle(rng.Intn(3))
				} else {
					at += Cycle(1 + rng.Intn(500))
				}
				wakes = append(wakes, at)
			}
			f := &fakeIdler{wakes: wakes}
			k.Register(f)
			report = append(report, func() []Cycle { return f.ticked })
		}
		for i := 0; i < nSleep; i++ {
			s := &cachedSleeper{wakeAt: sleeperNever}
			if rng.Bool(0.5) {
				s.wakeAt = Cycle(rng.Intn(horizon))
			}
			k.Register(s)
			for j := 0; j < rng.Intn(6); j++ {
				at := Cycle(rng.Intn(horizon))
				delay := Cycle(rng.Intn(40))
				if rng.Bool(0.3) {
					delay = wheelSlots - 1 + Cycle(rng.Intn(3))
				}
				k.At(at, func(now Cycle) { s.Rearm(now + delay) })
			}
			report = append(report, func() []Cycle { return s.acted })
		}
		// Segment boundaries: skip, stepped, skip (the stepped reference
		// steps all three).
		cut1 := Cycle(1 + rng.Intn(horizon/2))
		cut2 := cut1 + Cycle(rng.Intn(horizon/4))
		k.Run(cut1)
		k.SetIdleSkip(false)
		k.Run(cut2)
		k.SetIdleSkip(m != stepped)
		k.Run(horizon)
		acted = make([][]Cycle, len(report))
		for i, f := range report {
			acted[i] = f()
		}
		return acted, k.SkippedCycles(), k.Now()
	}
	prop := func(seed uint64) bool {
		ref, _, refNow := run(seed, stepped)
		poll, pollSkipped, pollNow := run(seed, pollSkip)
		heap, heapSkipped, heapNow := run(seed, heapSkip)
		if refNow != pollNow || refNow != heapNow {
			t.Errorf("seed %#x: final cycles %d / %d / %d", seed, refNow, pollNow, heapNow)
			return false
		}
		same := func(a, b [][]Cycle) bool {
			for i := range a {
				if len(a[i]) != len(b[i]) {
					return false
				}
				for j := range a[i] {
					if a[i][j] != b[i][j] {
						return false
					}
				}
			}
			return true
		}
		if !same(ref, poll) {
			t.Errorf("seed %#x: poll reference diverged from stepped run: %v vs %v", seed, poll, ref)
			return false
		}
		if !same(ref, heap) {
			t.Errorf("seed %#x: wake set diverged from stepped run: %v vs %v", seed, heap, ref)
			return false
		}
		if pollSkipped != heapSkipped {
			t.Errorf("seed %#x: poll skipped %d cycles, wake set skipped %d — the wake-set target must equal the swept minimum",
				seed, pollSkipped, heapSkipped)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestWakeSetInvariant fuzzes the wake set over up to 160 ids (three
// bitset words) with the kernel's operation mix — re-arms at, before and
// after now (near, far and exactly at the wheel's edge), active-list
// re-keys of due ids (stay due, sleep near or far, park) and promotions
// as the clock advances one cycle at a time, jumps to the earliest filed
// wake as a fast-forward does, or jumps arbitrarily far as a stepped
// stretch between runs does — and checks the full invariant
// (checkWakeSet) after every operation, plus the decrease-key rule
// against a plain mirror of expected wakes, first() against the mirror's
// minimum, and that a promotion leaves no arrived wake behind.
func TestWakeSetInvariant(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := NewRand(seed)
		var w wakeSet
		n := 1 + rng.Intn(160)
		want := make([]Cycle, n)
		for id := 0; id < n; id++ {
			w.add(id)
		}
		// ahead draws a wake distance: mostly near, sometimes at the
		// wheel's edge relative to now (the window starts at cur = now+1
		// after a promotion), sometimes far into the overflow heap.
		ahead := func() Cycle {
			switch r := rng.Intn(8); {
			case r < 4:
				return 1 + Cycle(rng.Intn(40))
			case r < 6:
				return wheelSlots - 1 + Cycle(rng.Intn(3))
			default:
				return 1 + Cycle(rng.Intn(4096))
			}
		}
		now := Cycle(0)
		for op := 0; op < 20*n; op++ {
			switch r := rng.Intn(12); {
			case r < 4:
				id := rng.Intn(n)
				c := now + ahead()
				if rng.Bool(0.3) && now > 0 {
					c = now - Cycle(rng.Intn(int(min(now, 10))))
				}
				if c < want[id] {
					want[id] = c
				}
				w.rearm(id, c, now)
			case r < 8:
				// Re-key one due id, as stepActive does after its tick.
				for id := rng.Intn(n); id < n; id++ {
					if !w.isDue(id) {
						continue
					}
					next := now + ahead()
					ok := rng.Bool(0.8)
					if ok && next <= now+1 {
						w.at[id] = next
					} else {
						w.sleep(id, next, ok)
					}
					want[id] = w.at[id]
					break
				}
			default:
				switch r {
				case 8, 9:
					now++
				case 10:
					// A fast-forward: straight to the earliest filed wake.
					if f := w.first(); f != never && f > now {
						now = f
					}
				default:
					// A stepped stretch: no promotion for a while.
					now += Cycle(rng.Intn(3 * wheelSlots))
				}
				w.promote(now)
				for id := range want {
					if !w.isDue(id) && w.at[id] <= now {
						t.Errorf("seed %#x: id %d at %d left filed after promote(%d)", seed, id, w.at[id], now)
						return false
					}
				}
			}
			if err := checkWakeSet(&w); err != "" {
				t.Errorf("seed %#x op %d: %s", seed, op, err)
				return false
			}
			first := never
			for id := range want {
				if w.at[id] != want[id] {
					t.Errorf("seed %#x op %d: at[%d] = %d, want %d", seed, op, id, w.at[id], want[id])
					return false
				}
				if !w.isDue(id) && want[id] < first {
					first = want[id]
				}
			}
			if got := w.first(); got != first {
				t.Errorf("seed %#x op %d: first() = %d, want %d", seed, op, got, first)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if testing.Short() {
		cfg.MaxCount = 50
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
