// Package sim provides the simulation kernel used by every other
// subsystem: a cycle counter, a deterministic random-number generator,
// and a lightweight event scheduler for things that happen at known future
// cycles (frame boundaries, adaptation ticks, aging sweeps).
//
// One simulator cycle corresponds to one DRAM command-clock cycle. All
// components tick in this single clock domain; cross-domain effects (e.g.
// the LCD panel draining its read buffer in wall-clock time) are expressed
// as rates converted to bytes-per-cycle at configuration time.
//
// The kernel is event-driven with idle skipping: every registered
// component is a Ticker that also implements Idler, reporting when it next
// has work, and the kernel fast-forwards the clock over stretches where
// every component is quiescent and no event is due, instead of stepping
// cycle by cycle through dead time. Register accepts nothing else, so no
// component can silently turn skipping off.
//
// Wake scheduling is push-based: the kernel caches each idler's wake
// cycle, and components re-arm it through the WakeHandle returned by
// Register whenever an external action moves their next activity to an
// earlier cycle. Every idler is in exactly one of four places: the due
// set (a bitset of ids that may act this cycle), a 64-slot timing wheel
// (a bitset per cycle for wakes less than 64 cycles out), an overflow
// heap (an indexed min-heap of the farther wakes), or parked (no wake
// until a re-arm). Sleeps, re-arms and promotions into the due set cost
// O(1) for wheel wakes, which are nearly all of them, and the
// fast-forward target — the first occupied slot or the heap top,
// whichever is earlier — is read off once no due id is busy, instead of
// polling every idler's hint each executed cycle.
//
// Executed cycles use the due set as an active-ticker list: a component
// is ticked iff its cached wake is at or before the current cycle, and it
// is re-keyed to its exact next activity right after the tick — staying
// due when that is the next cycle, so a busy component costs no wake-set
// operation — while dormant components are not even visited. An executed
// cycle thus pays for the components that are due, not for how many are
// registered. This changes the Ticker contract
// from "ticked every executed cycle" to "ticked every cycle it may act",
// which imposes two obligations on components:
//
//   - Every external action that could make a dormant component act this
//     cycle or earlier than its cached wake must re-arm the kernel entry
//     at the moment it happens (see Idler), not at the component's next
//     tick — there may not be one.
//
//   - Per-cycle bookkeeping that a stepped run would accrue on dormant
//     ticks (stall counters, buffer occupancy integration) must be derived
//     from elapsed time on the next real tick (the batched-settle pattern)
//     and, because a run can end mid-dormancy, also settled at the run
//     horizon via the optional Settler interface.
//
// The kernel has three modes. The default wake-set mode runs the active
// list and fast-forwards from the wake set. Two reference modes bypass the
// active list for the differential suites; both are per-Kernel settings,
// so kernels in one process never see each other's mode:
// SetIdleSkip(false) restores full cycle-by-cycle stepping (every ticker
// ticked every cycle, in registration order), and SetForcePoll(true)
// replaces both the active list and the wake-set-driven fast-forward with
// the linear NextActivity sweep. The subsystems' force-scan references
// (dormancy caches bypassed) are per-component too, and trace observers
// subscribe per system through Probes. Among co-due tickers the active
// list preserves registration order — the SoC pipeline order sources ->
// DMA -> NoC -> MC -> DRAM -> adapters — so all three modes execute the
// same cycles' work in the same order.
//
// Run is the only run loop. It counts every executed cycle, so
// ExecutedCycles()+SkippedCycles() == Now() in every mode, and it enforces
// an installed Watchdog (see guard.go); RunChecked is Run with failures
// recovered into errors.
package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// Cycle is a point in simulated time, measured in DRAM command-clock cycles.
type Cycle uint64

// never marks a parked idler's cached wake: the idler reported it will not
// act again without external input, so only a Rearm can revive it.
const never = ^Cycle(0)

// Ticker is a component that advances by one cycle at a time. The kernel
// registers Tickers only together with their Idler half (see Component).
type Ticker interface {
	// Tick advances the component to cycle now. In the stepped and
	// force-poll reference modes the kernel calls Tick exactly once per
	// ticker per executed cycle, in registration order. In the default
	// active-list mode a ticker is only called on cycles its cached wake
	// covers (wake <= now); dormant components are skipped entirely.
	// Components must therefore derive elapsed time from now rather than
	// counting Tick calls, and must keep their cached wake a sound lower
	// bound on their next action (see Idler).
	Tick(now Cycle)
}

// Settler is an optional Ticker extension for components that batch
// per-cycle bookkeeping (stall counters, occupancy integration) across
// dormant stretches and settle it on their next tick. Because the
// active-ticker list may leave such a component un-ticked from its last
// wake to the end of a run, the kernel calls SettleRun(end) when Run
// reaches its horizon, where end is the first cycle NOT simulated (the
// horizon). SettleRun must bring all externally observable statistics to
// exactly the state a stepped run would have after its final tick at
// end-1, and must be idempotent: it runs in every kernel mode and at the
// end of every Run segment, including segments where the component was
// ticked at end-1 already.
type Settler interface {
	SettleRun(end Cycle)
}

// Idler is the half of the Component contract that enables idle skipping.
// A ticker that implements it promises that, absent any new input from the
// rest of the system (events, other components' actions), its Tick will
// not act on the system — enqueue requests, forward packets, issue
// commands, or mutate externally observable counters — at any cycle
// strictly before the reported activity cycle.
//
// The contract is push-based. The kernel caches each idler's most recent
// hint (see wakeSet) and does NOT re-query every hint after every
// executed cycle; it re-queries an idler only right after ticking it (the
// active-list re-key) or, during a fast-forward probe, when it is due or
// its cached wake (in the wheel or the overflow heap) has arrived. The
// cached entry is therefore required to be a sound LOWER bound on the idler's true next activity at all
// times — doubly important under the active list, where a too-late bound
// does not merely skip a cycle but skips the component's Tick on cycles
// other components execute. The responsibility splits in two:
//
//   - Re-arm is mandatory on external wakes. Whenever another component's
//     action could advance this idler's next action to an EARLIER cycle
//     than its cached entry — an upstream injection landing in its queue
//     mid-sleep, a downstream credit return unblocking it, a completion
//     freeing its window — the component performing the action (or the
//     wiring between them, see noc.Waker and dma.Engine) must call
//     WakeHandle.Rearm with the new wake cycle during the executed cycle
//     in which the action happens. Re-arming earlier than necessary is
//     always safe: the kernel executes a cycle that turns out to be
//     uneventful, re-validates the hint, and goes back to sleep. Failing
//     to re-arm lets the kernel skip past the action and breaks
//     simulation equivalence.
//
//   - Lazy increase is always safe. When an idler's next activity moves
//     LATER (it consumed its queue, its tokens drained), it does not need
//     to tell the kernel: the stale too-early wake merely comes due, the
//     kernel re-queries NextActivity once, and the entry moves to its
//     correct place. An idler that reports ok=false is parked but never
//     unregistered — a later Rearm revives it.
//
// NextActivity itself must remain cheap and pure: it is the validation
// query for due ids, and (under SetForcePoll) the per-cycle linear
// reference. Components that cache their wake cycle should answer from
// the cache in O(1). The answer must be sound in ABSOLUTE time: a
// component whose lazy integration lags `now` (a token bucket whose
// funded cursor is behind, a buffer whose drain cursor is behind) must
// anchor its bound at that cursor — e.g. cursor + steps - 1, clamped up
// to now — never `now + steps` computed from stale state. The probe
// RAISES entries from these answers; a bound even one cycle too
// late starves the component permanently. This rule is enforced
// statically: the wakebound analyzer in cmd/saravet flags NextActivity
// and Wake implementations that add mutable receiver state to `now`,
// unless the site carries a //sara:bound-ok justification (see the
// "Static analysis" section of the README).
type Idler interface {
	// NextActivity reports the earliest cycle >= now at which the
	// component may act on the system, or ok=false if it will never act
	// again without external input.
	NextActivity(now Cycle) (at Cycle, ok bool)
}

// Component is what Register accepts: a Ticker that reports its next
// activity. Requiring both halves at registration is what makes idle
// skipping unconditional — the kernel never holds a ticker it cannot
// prove quiescent.
type Component interface {
	Ticker
	Idler
}

// WakeBinder is an optional interface for Idlers that participate in
// push-based wake scheduling: Register hands the component its WakeHandle
// so the component (and the wiring around it) can re-arm its kernel wake
// when an external action moves its next activity earlier.
type WakeBinder interface {
	// BindWake receives the component's wake handle at registration time.
	BindWake(h WakeHandle)
}

// WakeHandle re-arms one registered idler's cached wake cycle in the
// kernel's wake set. The zero value is inert (Rearm is a no-op), so
// components can hold a handle unconditionally and be driven either by a
// kernel or standalone in unit tests.
type WakeHandle struct {
	k  *Kernel
	id int
}

// Rearm lowers the idler's cached wake to at if the cached value is
// later (decrease-key). Raising a cached wake is impossible by design:
// increases are reconciled lazily when the stale wake comes due, so a
// spurious early Rearm can cost an uneventful executed cycle but
// can never lose a wake.
//
//sara:hotpath
func (h WakeHandle) Rearm(at Cycle) {
	if h.k == nil {
		return
	}
	h.k.Rearm(h.id, at)
}

// event is a scheduled callback. Exactly one of fn and argFn is set;
// argFn carries a caller-supplied payload so hot paths (transaction
// completion) can schedule a single long-lived function with a pointer
// argument instead of allocating a fresh closure per event.
type event struct {
	at    Cycle
	seq   uint64 // tie-break so same-cycle events fire in schedule order
	fn    func(now Cycle)
	argFn func(now Cycle, arg any)
	arg   any
}

// eventHeap is a min-heap of events ordered by (at, seq), stored by value
// in a plain slice. Push and pop sift manually instead of going through
// container/heap, which would box every element in an interface and
// allocate on the steady-state completion path.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // clear callback/payload references for the GC
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && q.less(l, s) {
			s = l
		}
		if r < n && q.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		q[i], q[s] = q[s], q[i]
		i = s
	}
	return top
}

// wakeEntry is one overflow-heap slot; keys live inline so sift compares
// and swaps stay within one contiguous array.
type wakeEntry struct {
	at Cycle
	id int32
}

// wheelSlots is the timing wheel's span in cycles: a wake less than
// wheelSlots cycles past the first unpromoted cycle is filed in the wheel
// in O(1); a farther one waits in the overflow heap. Most sleeps in the
// SoC are a few cycles long (a hop, a DRAM timing gap), so the wheel
// takes nearly every filing (87% of them over a scale-1 case-B frame)
// and the heap stays small.
const wheelSlots = 64

// wakeSet is the kernel's wake structure, a hashed timing wheel with an
// overflow heap. Every registered idler is in exactly one of four places:
//
//   - due: its bit is set in the due bitset — it may act this cycle, so
//     the active list ticks it and the fast-forward probe queries it;
//   - the wheel: its cached wake lies in [cur, cur+wheelSlots-1], where
//     cur is the first cycle not yet promoted, and its bit is set in slot
//     at mod wheelSlots. Anchoring the window at cur rather than at the
//     filing cycle means no slot ever holds two different cycles, however
//     far the clock jumps between promotions;
//   - the overflow heap: its cached wake is farther out, and it waits in
//     an indexed min-heap ordered by that wake;
//   - parked: it reported it will never act without external input; it
//     is in none of the above, and only a Rearm revives it.
//
// The at mirror holds every id's cached wake (never when parked) and is
// the single place diagnostics read; it also tells a wheel id from a
// parked one, so pos only needs to track heap membership. An executed
// cycle therefore costs one bit walk over the due ids, one OR of the
// current slot into the due set, and a heap operation only for wakes at
// least wheelSlots cycles out.
type wakeSet struct {
	at []Cycle
	// due holds one bit per id: bit id%64 of word id/64.
	due []uint64
	// wheel holds wheelSlots bitsets laid out word-major: word i of slot s
	// is wheel[i*wheelSlots+s], so registering the 65th id appends a row
	// instead of re-laying out every slot. occ has bit s set iff slot s
	// holds any id.
	wheel []uint64
	occ   uint64
	// cur is the first cycle promote has not covered yet; every wheel wake
	// lies in [cur, cur+wheelSlots-1].
	cur Cycle
	// heap is the overflow heap; its backing array is sized at
	// registration (one slot per id) so pushes never grow it during a run.
	heap []wakeEntry
	// pos is each id's index in heap, -1 when the id is not in it.
	pos []int32
}

// add registers a new idler as due with cached wake 0, so the first
// executed cycle ticks it and re-keys it from its live hint.
func (w *wakeSet) add(id int) {
	w.at = append(w.at, 0)
	w.pos = append(w.pos, -1)
	if id%64 == 0 {
		w.due = append(w.due, 0)
		w.wheel = append(w.wheel, make([]uint64, wheelSlots)...)
	}
	w.setDue(id)
	w.heap = slices.Grow(w.heap, len(w.at)-len(w.heap))
}

func (w *wakeSet) isDue(id int) bool { return w.due[id>>6]&(1<<(id&63)) != 0 }
func (w *wakeSet) setDue(id int)     { w.due[id>>6] |= 1 << (id & 63) }
func (w *wakeSet) clearDue(id int)   { w.due[id>>6] &^= 1 << (id & 63) }

// rearm lowers id's cached wake to c (decrease-key); c at or above the
// cached wake is dropped. A wake at or before now makes the id due; a
// later one is taken out of the wheel slot or heap position it held and
// filed again at c, so an overflow id re-armed to a near wake moves into
// the wheel. A due id stays due: its cached wake is at most one cycle
// ahead, so any lower wake is due as well.
//
//sara:hotpath
func (w *wakeSet) rearm(id int, c, now Cycle) {
	old := w.at[id]
	if c >= old {
		return
	}
	w.at[id] = c
	switch {
	case w.isDue(id):
	case c <= now:
		w.unfile(id, old)
		w.setDue(id)
	case w.pos[id] >= 0 && c-w.cur >= wheelSlots:
		i := int(w.pos[id])
		w.heap[i].at = c
		w.siftUp(i)
	default:
		w.unfile(id, old)
		w.file(id, c)
	}
}

// sleep files a due id whose next activity is later than the current
// cycle: at c in the wheel or the overflow heap, or parked when ok is
// false.
//
//sara:hotpath
func (w *wakeSet) sleep(id int, c Cycle, ok bool) {
	w.clearDue(id)
	if !ok {
		w.at[id] = never
		return
	}
	w.at[id] = c
	w.file(id, c)
}

// file puts id, which is in neither the wheel nor the heap, at wake
// c >= cur: into slot c mod wheelSlots when c is inside the wheel's
// window, into the overflow heap otherwise.
//
//sara:hotpath
func (w *wakeSet) file(id int, c Cycle) {
	if c-w.cur >= wheelSlots {
		w.push(id, c)
		return
	}
	s := int(c % wheelSlots)
	w.wheel[(id>>6)*wheelSlots+s] |= 1 << (id & 63)
	w.occ |= 1 << s
}

// unfile takes a sleeping id with cached wake old out of the heap or its
// wheel slot; a parked id (old == never) is in neither.
//
//sara:hotpath
func (w *wakeSet) unfile(id int, old Cycle) {
	if w.pos[id] >= 0 {
		w.remove(id)
		return
	}
	if old == never {
		return
	}
	s := int(old % wheelSlots)
	w.wheel[(id>>6)*wheelSlots+s] &^= 1 << (id & 63)
	for i := s; i < len(w.wheel); i += wheelSlots {
		if w.wheel[i] != 0 {
			return
		}
	}
	w.occ &^= 1 << s
}

// promote moves every wake that has arrived by now into the due set:
// overflow entries with at <= now, and the wheel slots of the cycles
// [cur, now]. The clock can move more than one cycle between promotions
// (a fast-forward, a stepped stretch between runs), so every occupied
// slot of that range is swept, all of them once it spans the wheel;
// because wheel wakes never lie before cur, a swept slot holds only
// arrived wakes.
//
//sara:hotpath
func (w *wakeSet) promote(now Cycle) {
	for len(w.heap) > 0 && w.heap[0].at <= now {
		w.setDue(w.popMin())
	}
	if now < w.cur {
		return
	}
	if w.occ != 0 {
		m := w.occ
		if span := now - w.cur + 1; span < wheelSlots {
			m &= bits.RotateLeft64(1<<span-1, int(w.cur%wheelSlots))
		}
		for ; m != 0; m &= m - 1 {
			w.drain(bits.TrailingZeros64(m))
		}
	}
	w.cur = now + 1
}

// drain moves every id in wheel slot s into the due set.
//
//sara:hotpath
func (w *wakeSet) drain(s int) {
	for i := range w.due {
		j := i*wheelSlots + s
		w.due[i] |= w.wheel[j]
		w.wheel[j] = 0
	}
	w.occ &^= 1 << s
}

// first reports the earliest cached wake in the wheel or the overflow
// heap, never when both are empty. The wheel's earliest wake is the first
// occupied slot at or after cur's, found by rotating occ so cur's slot is
// bit 0.
//
//sara:hotpath
func (w *wakeSet) first() Cycle {
	t := never
	if w.occ != 0 {
		r := bits.RotateLeft64(w.occ, -int(w.cur%wheelSlots))
		t = w.cur + Cycle(bits.TrailingZeros64(r))
	}
	if len(w.heap) > 0 && w.heap[0].at < t {
		t = w.heap[0].at
	}
	return t
}

// popMin removes the heap top and returns its id. It pops bottom-up: the
// hole at the root descends along the smaller children to a leaf, and
// the last entry — which almost always belongs near the bottom — sifts
// up from there, saving a compare per level over a top-down sift.
func (w *wakeSet) popMin() int {
	q := w.heap
	id := int(q[0].id)
	w.pos[id] = -1
	n := len(q) - 1
	e := q[n]
	q = q[:n]
	w.heap = q
	if n == 0 {
		return id
	}
	i := 0
	for {
		s := 2*i + 1
		if s >= n {
			break
		}
		if r := s + 1; r < n && q[r].at < q[s].at {
			s = r
		}
		q[i] = q[s]
		w.pos[q[i].id] = int32(i)
		i = s
	}
	q[i] = e
	w.pos[e.id] = int32(i)
	w.siftUp(i)
	return id
}

// push files id, which must not be in the heap, at wake c.
func (w *wakeSet) push(id int, c Cycle) {
	i := len(w.heap)
	w.heap = w.heap[:i+1]
	w.heap[i] = wakeEntry{at: c, id: int32(id)}
	w.pos[id] = int32(i)
	w.siftUp(i)
}

// remove takes id, which must be in the heap, out of it.
func (w *wakeSet) remove(id int) {
	i := int(w.pos[id])
	last := len(w.heap) - 1
	w.pos[id] = -1
	if i != last {
		w.heap[i] = w.heap[last]
		w.pos[w.heap[i].id] = int32(i)
	}
	w.heap = w.heap[:last]
	if i != last {
		w.siftDown(i)
		w.siftUp(i)
	}
}

func (w *wakeSet) siftUp(i int) {
	q := w.heap
	e := q[i]
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if e.at >= q[p].at {
			break
		}
		q[i] = q[p]
		w.pos[q[i].id] = int32(i)
		i = p
		moved = true
	}
	if moved {
		q[i] = e
		w.pos[e.id] = int32(i)
	}
}

func (w *wakeSet) siftDown(i int) {
	q := w.heap
	n := len(q)
	e := q[i]
	for {
		s := 2*i + 1
		if s >= n {
			break
		}
		if r := s + 1; r < n && q[r].at < q[s].at {
			s = r
		}
		if q[s].at >= e.at {
			break
		}
		q[i] = q[s]
		w.pos[q[i].id] = int32(i)
		i = s
	}
	q[i] = e
	w.pos[e.id] = int32(i)
}

// Kernel owns the clock, the ordered component list, the event queue and
// the wake set. The zero value is ready to use, with idle skipping enabled.
type Kernel struct {
	now Cycle
	// comps holds every registered component, indexed by wake-set id,
	// which is registration order.
	comps []Component
	wakes wakeSet
	// settlers are the registered tickers that batch dormant-cycle
	// bookkeeping; Run calls SettleRun on each when it reaches its
	// horizon so end-of-run statistics are exact even when the active
	// list left a component un-ticked over a trailing dormant stretch.
	settlers []Settler
	noSkip   bool
	// forcePoll replaces the active list and the wake-set fast-forward
	// probe with the linear NextActivity sweep (see SetForcePoll).
	forcePoll bool
	events    eventHeap
	seq       uint64
	started   bool
	// executed and skipped partition the clock: Step counts the cycles it
	// executes, fastForward the cycles it jumps over.
	executed uint64
	skipped  uint64
	// wd is the installed watchdog (nil: none). Run consults it once
	// executed reaches wdNext; wdArmed is executed at arming, the origin
	// of the MaxExecuted budget (see guard.go).
	wd      *Watchdog
	wdArmed uint64
	wdNext  uint64
}

// Now reports the current cycle.
func (k *Kernel) Now() Cycle { return k.now }

// ExecutedCycles reports how many cycles Step has executed. Together
// with SkippedCycles it accounts for the whole clock:
// ExecutedCycles()+SkippedCycles() == Now() in every kernel mode.
func (k *Kernel) ExecutedCycles() uint64 { return k.executed }

// SkippedCycles reports how many cycles Run fast-forwarded over instead of
// executing.
func (k *Kernel) SkippedCycles() uint64 { return k.skipped }

// SetIdleSkip enables or disables idle skipping (enabled by default).
// Disabling it forces the reference cycle-by-cycle execution, which the
// equivalence tests compare against.
func (k *Kernel) SetIdleSkip(on bool) { k.noSkip = !on }

// SetForcePoll switches the kernel to the polling reference the
// wake-set differential tests replay against: every executed cycle ticks
// every ticker, and the fast-forward target comes from a linear sweep
// over every idler's NextActivity instead of the wake set. The sweep and
// the wake set compute the same fast-forward target as long as every
// external wake is re-armed, which is exactly the property the
// differential suites check. Off by default; set it before Run.
func (k *Kernel) SetForcePoll(on bool) { k.forcePoll = on }

// Register appends c to the per-cycle tick list and returns c's wake
// handle. Components are ticked in registration order, which the SoC
// assembly uses to realize the pipeline order sources -> DMAs -> NoC ->
// MC -> DRAM -> responses -> adapters; the wheel and overflow heap order
// themselves by cached wake cycle, so registration order never affects
// fast-forward targets. If c implements WakeBinder the handle is also
// pushed into the component here, so assemblies get push wiring for free.
// Register panics if the simulation has already started, because
// inserting a ticker mid-run would silently skip its earlier cycles.
func (k *Kernel) Register(c Component) WakeHandle {
	if k.started {
		panic(invariant("sim: Register after simulation started"))
	}
	h := WakeHandle{k: k, id: len(k.comps)}
	k.comps = append(k.comps, c)
	k.wakes.add(h.id)
	if wb, ok := c.(WakeBinder); ok {
		wb.BindWake(h)
	}
	if s, ok := c.(Settler); ok {
		k.settlers = append(k.settlers, s)
	}
	return h
}

// Rearm lowers idler id's cached wake cycle to at (a decrease-key; see
// wakeSet.rearm); a cached wake at or before at is left untouched.
// Components normally call this through their WakeHandle. An out-of-range
// id panics with an *InvariantError: a dropped re-arm is a silently
// missed wake — the simulation would diverge, not fail — so bad wiring
// must die loudly instead.
func (k *Kernel) Rearm(id int, at Cycle) {
	if id < 0 || id >= len(k.wakes.at) {
		panic(invariant(fmt.Sprintf(
			"sim: Rearm of unregistered idler id %d (%d idlers registered)",
			id, len(k.wakes.at))))
	}
	k.wakes.rearm(id, at, k.now)
}

// At schedules fn to run at cycle at, before that cycle's tickers. If at is
// in the past the event fires on the next Step.
func (k *Kernel) At(at Cycle, fn func(now Cycle)) {
	k.seq++
	k.events.push(event{at: at, seq: k.seq, fn: fn})
}

// AtArg schedules fn(now, arg) at cycle at. It exists for hot paths: a
// single long-lived fn plus a per-event pointer payload schedules without
// allocating, where a fresh closure per event would not.
func (k *Kernel) AtArg(at Cycle, fn func(now Cycle, arg any), arg any) {
	k.seq++
	k.events.push(event{at: at, seq: k.seq, argFn: fn, arg: arg})
}

// After schedules fn to run delay cycles from now.
func (k *Kernel) After(delay Cycle, fn func(now Cycle)) {
	k.At(k.now+delay, fn)
}

// Every schedules fn at period, 2*period, ... relative to the current cycle.
// It reschedules itself forever; the run simply ends when Run's horizon is
// reached.
func (k *Kernel) Every(period Cycle, fn func(now Cycle)) {
	if period == 0 {
		panic(invariant("sim: Every with zero period"))
	}
	var rearm func(now Cycle)
	rearm = func(now Cycle) {
		fn(now)
		k.At(now+period, rearm)
	}
	k.At(k.now+period, rearm)
}

// Step advances the simulation by exactly one cycle: due events first,
// then the registered tickers. In the default wake-set mode only due
// tickers — cached wake at or before the current cycle — are called; the
// stepped (SetIdleSkip(false)) and force-poll modes tick every ticker.
// Step never skips a cycle, and counts the cycle it executes.
//
//sara:hotpath
func (k *Kernel) Step() {
	k.started = true
	k.executed++
	for len(k.events) > 0 && k.events[0].at <= k.now {
		e := k.events.pop()
		if e.fn != nil {
			e.fn(k.now)
		} else {
			e.argFn(k.now, e.arg)
		}
	}
	if !k.noSkip && !k.forcePoll {
		k.stepActive()
	} else {
		for _, c := range k.comps {
			c.Tick(k.now)
		}
	}
	k.now++
}

// stepActive is Step's tick loop in active-list mode. It first promotes
// the wakes that have arrived (the current wheel slot, plus any overflow
// entries due) into the due set, then ticks the due ids in ascending id
// order — registration order — and re-keys each from its exact next
// activity: a wake at or before the next cycle stays due with no
// wake-set operation, a later one goes into its wheel slot (or the
// overflow heap when 64 or more cycles out), and ok=false parks the id.
// The current bitset word is re-read after every tick, so same-cycle
// forward edges work: a source enqueueing into a dormant engine re-arms
// the engine at now, which sets its due bit, and the walk reaches it
// later this cycle. Backward same-cycle edges need no
// tick: a stepped run's earlier-registered component had already ticked
// when the edge fired, so both modes first act on it the next cycle (the
// re-arm leaves the id due for then). Because every ticked id is re-keyed
// from a live NextActivity query, the cached wakes are exact after each
// active step, and the fast-forward probe computes the same skip targets
// as the force-poll linear sweep.
//
//sara:hotpath
func (k *Kernel) stepActive() {
	now := k.now
	w := &k.wakes
	w.promote(now)
	for wi := range w.due {
		for word := w.due[wi]; word != 0; {
			b := bits.TrailingZeros64(word)
			id := wi<<6 | b
			c := k.comps[id]
			c.Tick(now)
			next, ok := c.NextActivity(now + 1)
			if ok && next <= now+1 {
				w.at[id] = next
			} else {
				w.sleep(id, next, ok)
			}
			word = w.due[wi] & (^uint64(1) << b)
		}
	}
}

// Run advances the simulation until the clock reaches horizon (exclusive).
// Unless idle skipping is disabled, quiescent stretches — no event due and
// every ticker's cached wake strictly in the future — are fast-forwarded
// instead of executed. On reaching the horizon Run settles every
// registered Settler, so statistics batched across dormant stretches are
// exact even for components the active list never ticked again.
//
// With a watchdog installed, Run also consults it on a fixed cadence of
// executed cycles and once more at the horizon; a trip panics with the
// *DeadlockError, leaving the run where it stopped, unsettled (RunChecked
// returns it as an error). Without one the only cost is a compare per
// executed cycle.
func (k *Kernel) Run(horizon Cycle) {
	skip := !k.noSkip
	for k.now < horizon {
		k.Step()
		if k.executed >= k.wdNext {
			k.watch()
		}
		if skip && k.now < horizon {
			k.fastForward(horizon)
		}
	}
	k.settleRun()
	if k.wd != nil {
		k.checkParked()
	}
}

// Settle flushes every registered Settler's batched dormant-cycle
// bookkeeping through the current clock, exactly as the end of a Run
// segment would. SettleRun implementations are idempotent, so Settle is
// safe mid-run — the analysis sampler calls it from a recurring event so
// windowed stall and occupancy statistics are exact at sample boundaries
// even for components the active list left dormant.
func (k *Kernel) Settle() { k.settleRun() }

// settleRun flushes batched dormant-cycle bookkeeping at the end of a Run
// segment. It runs in every mode: in the stepped and force-poll modes the
// final executed cycle ticked everyone, so each SettleRun is an idempotent
// no-op there.
func (k *Kernel) settleRun() {
	for _, s := range k.settlers {
		s.SettleRun(k.now)
	}
}

// NextWake reports the cycle Run would fast-forward to from the current
// clock — the next due event or the earliest ticker activity — capped at
// horizon. It does not move the clock and always uses the linear poll
// sweep, making it an audit of the live hints (and of the wake set's
// cached bounds, which may never be later); the equivalence tests use it
// to check Idler hints against actual behavior.
func (k *Kernel) NextWake(horizon Cycle) Cycle {
	return k.nextWakePoll(horizon)
}

// nextWakePoll computes the fast-forward target by the legacy linear
// sweep: the next due event or the earliest ticker activity, capped at
// horizon; k.now means something is due immediately. It is the
// SetForcePoll reference and the NextWake audit.
func (k *Kernel) nextWakePoll(horizon Cycle) Cycle {
	target := horizon
	if len(k.events) > 0 {
		at := k.events[0].at
		if at <= k.now {
			return k.now
		}
		if at < target {
			target = at
		}
	}
	for _, c := range k.comps {
		next, ok := c.NextActivity(k.now)
		if !ok {
			continue
		}
		if next <= k.now {
			return k.now
		}
		if next < target {
			target = next
		}
	}
	return target
}

// nextWakeHeap computes the fast-forward target from the wake set: the
// next due event, or the earliest cached wake, capped at horizon. It first
// promotes the wakes that have arrived (the slot of now and overflow
// entries at or before now), then re-queries only the due ids; the first
// one that is busy now answers "now" and stays due. The others sleep at
// their exact next activity or park. A FUTURE cached wake is trusted
// without a query: every cached wake is a sound lower bound, so skipping
// to the earliest one can never skip past real activity — at worst a
// stale-early bound wakes the kernel for one uneventful executed cycle,
// whose probe then raises it. That trade (a rare extra cycle instead of
// validating every future bound per probe) keeps the probe O(1) once
// nothing is due: the earliest wake is the first occupied wheel slot or
// the overflow-heap top. Under SetForcePoll the linear reference instead
// computes the exact swept minimum, so the poll reference may skip
// slightly more while observable behavior stays bit-identical.
//
//sara:hotpath
func (k *Kernel) nextWakeHeap(horizon Cycle) Cycle {
	now := k.now
	target := horizon
	if len(k.events) > 0 {
		at := k.events[0].at
		if at <= now {
			return now
		}
		if at < target {
			target = at
		}
	}
	w := &k.wakes
	w.promote(now)
	for wi := range w.due {
		for word := w.due[wi]; word != 0; word &= word - 1 {
			id := wi<<6 | bits.TrailingZeros64(word)
			next, ok := k.comps[id].NextActivity(now)
			if ok && next <= now {
				return now
			}
			w.sleep(id, next, ok)
		}
	}
	if at := w.first(); at < target {
		target = at
	}
	return target
}

// fastForward advances the clock to the earliest upcoming activity —
// the next due event or the earliest cached wake — capped at horizon-1 so
// the run's final cycle always executes: in the stepped and force-poll
// modes that last cycle ticks every component and settles bookkeeping
// accrued over a trailing quiescent stretch (the active list instead
// settles via Settler at the horizon, and keeps the same cap so all three
// modes execute — and count as skipped — the same cycles). It returns
// without moving the clock if anything is due now.
func (k *Kernel) fastForward(horizon Cycle) {
	var target Cycle
	if k.forcePoll {
		target = k.nextWakePoll(horizon - 1)
	} else {
		target = k.nextWakeHeap(horizon - 1)
	}
	if target > k.now {
		k.skipped += uint64(target - k.now)
		k.now = target
	}
}

// RunFor advances the simulation by n cycles.
func (k *Kernel) RunFor(n Cycle) { k.Run(k.now + n) }
