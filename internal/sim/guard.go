// Run-loop guardrails: a watchdog that Run consults to detect livelock
// (a budget on executed cycles, and parked-at-never deadlock with work
// outstanding) and wall-clock overruns, and a checked run entry point
// that converts both watchdog trips and internal invariant panics into
// typed errors at the run boundary instead of spinning or crashing the
// whole process.
//
// There is one run loop: Run itself consults an installed watchdog once
// every checkEvery executed cycles (and at the budget's first overrun
// cycle), through a single compare per executed cycle. Everything the
// checks call — watch, checkParked, the diagnostic dump — stays off the
// //sara:hotpath extents; RunChecked is Run plus a deferred recover.

package sim

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"
)

// Watchdog bounds a kernel run. The zero value of each field disables
// that check; a zero-value Watchdog as a whole only buys panic
// containment (which RunChecked provides with a nil watchdog too).
type Watchdog struct {
	// MaxExecuted aborts the run after this many executed (non-skipped)
	// cycles since the watchdog was armed. With idle skipping active,
	// executed cycles measure actual work, so a run that should be mostly
	// quiescent but spins busy every cycle trips this budget long before
	// its horizon.
	MaxExecuted uint64
	// Deadline aborts the run when wall-clock time passes it. The clock
	// is sampled every checkEvery executed cycles, so a run overshoots
	// the deadline by at most that much simulation work (or by however
	// long a single Tick blocks — cooperative, like all Go timeouts
	// without preemption).
	Deadline time.Time
	// Outstanding reports how much work is still in flight (for a SoC
	// run: transactions generated but not yet completed). When it is
	// non-nil and reports > 0 while the wake set is fully parked at
	// never with no events pending, the run can provably never act
	// again — the watchdog aborts with a DeadlockError instead of
	// fast-forwarding to the horizon and returning silently-truncated
	// results.
	Outstanding func() uint64
}

// checkEvery is the watchdog's cadence in executed cycles. One clock read
// per 64 executed cycles is noise next to the simulation work those
// cycles do, and keeps the timeout granularity well under any sensible
// budget.
const checkEvery = 64

// IdlerState is one registered idler's wake state in a DeadlockError
// diagnostic dump: its cached wake-set bound and its live NextActivity
// answer at the moment the watchdog tripped.
type IdlerState struct {
	// ID is the idler's wake-set id (registration order among idlers).
	ID int
	// Name labels the component: its Name() or Label() if it has one,
	// otherwise its Go type.
	Name string
	// CachedWake is the wake set's cached lower bound; Parked means the
	// entry sits at never (the component reported it will not act again
	// without external input).
	CachedWake Cycle
	Parked     bool
	// Hint and HintOK are the component's live NextActivity answer.
	Hint   Cycle
	HintOK bool
}

// DeadlockError reports a watchdog trip: the run was aborted because it
// provably or heuristically stopped making progress. It carries the
// per-idler wake-state dump so a parked or spinning component can be
// identified without re-running under a debugger.
type DeadlockError struct {
	// Reason is a one-line diagnosis ("cycle budget exceeded", ...).
	Reason string
	// Now and Executed locate the trip in simulated time; Executed counts
	// the cycles executed since the watchdog was armed.
	Now      Cycle
	Executed uint64
	// Outstanding is the watchdog's Outstanding() answer at the trip
	// (0 if no probe was configured).
	Outstanding uint64
	// Idlers is the wake-state dump, in wake-set id order.
	Idlers []IdlerState
}

// Error summarizes the trip and appends the wake-state dump.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %s at cycle %d (%d executed, %d outstanding)",
		e.Reason, e.Now, e.Executed, e.Outstanding)
	for _, st := range e.Idlers {
		wake := fmt.Sprint(st.CachedWake)
		if st.Parked {
			wake = "never"
		}
		hint := "never"
		if st.HintOK {
			hint = fmt.Sprint(st.Hint)
		}
		fmt.Fprintf(&b, "\n  idler %2d %-24s cached=%s live=%s", st.ID, st.Name, wake, hint)
	}
	return b.String()
}

// PanicError wraps a panic recovered at the run boundary — an internal
// invariant trip (double wire, heap corruption), a component bug, or an
// injected fault — as an error, so one bad run in a sweep reports instead
// of taking the process down.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error reports the panic value (the stack is carried separately so
// callers control how much of it they print).
func (e *PanicError) Error() string { return fmt.Sprintf("sim: run panicked: %v", e.Value) }

// Unwrap exposes a panic value that was itself an error (such as an
// *InvariantError), so errors.As sees through the recovery.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// InvariantError is the panic value used by the kernel's own invariant
// checks (Register after start, zero-period Every). Surfacing them as a
// typed value lets RunChecked callers distinguish "the kernel caught a
// misuse" from an arbitrary component panic.
type InvariantError struct{ Msg string }

// Error returns the invariant message.
func (e *InvariantError) Error() string { return e.Msg }

// invariant builds the typed panic value for kernel invariant trips.
func invariant(msg string) *InvariantError { return &InvariantError{Msg: msg} }

// SetWatchdog installs (or, with nil, removes) the run watchdog. Its
// MaxExecuted budget counts from the cycles executed so far, and Run
// consults it on the next executed cycle.
func (k *Kernel) SetWatchdog(wd *Watchdog) {
	k.wd = wd
	k.wdArmed = k.executed
	k.wdNext = k.executed + 1
}

// RunChecked advances the simulation like Run, but contains failures:
// any panic raised by an event, a ticker or the kernel's own invariant
// checks is recovered into a *PanicError, and a watchdog trip is
// returned as its *DeadlockError. A nil error means the horizon was
// reached normally.
func (k *Kernel) RunChecked(horizon Cycle) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if de, ok := r.(*DeadlockError); ok {
				err = de
				return
			}
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	k.Run(horizon)
	return nil
}

// watch runs the watchdog's checks — the cycle budget, the wall-clock
// deadline and the parked deadlock — and schedules the next visit:
// checkEvery executed cycles on, or the budget's first overrun cycle if
// that comes first, so the budget trips on the exact cycle. With no
// watchdog installed it parks wdNext out of reach (the zero Kernel's
// first executed cycle lands here once).
func (k *Kernel) watch() {
	wd := k.wd
	if wd == nil {
		k.wdNext = ^uint64(0)
		return
	}
	if wd.MaxExecuted > 0 && k.executed-k.wdArmed > wd.MaxExecuted {
		panic(k.deadlock(fmt.Sprintf("cycle budget exceeded (%d executed cycles)", wd.MaxExecuted)))
	}
	//sara:wallclock the watchdog's deadline check is about the host clock by design
	if !wd.Deadline.IsZero() && time.Now().After(wd.Deadline) {
		panic(k.deadlock(fmt.Sprintf("wall-clock deadline exceeded (%s)", wd.Deadline.Format(time.RFC3339))))
	}
	k.checkParked()
	k.wdNext = k.executed + checkEvery
	if wd.MaxExecuted > 0 {
		k.wdNext = min(k.wdNext, k.wdArmed+wd.MaxExecuted+1)
	}
}

// checkParked trips on the provable deadlock: every idler parked at
// never, no event pending, and the outstanding probe reporting work
// still in flight — nothing can ever act again, yet the run is not done.
// Run also calls it at the horizon, because a fully parked system
// fast-forwards there almost at once and the cadence may never see it.
func (k *Kernel) checkParked() {
	wd := k.wd
	if wd.Outstanding == nil || len(k.events) > 0 {
		return
	}
	for _, at := range k.wakes.at {
		if at != never {
			return
		}
	}
	if n := wd.Outstanding(); n > 0 {
		panic(k.deadlock(fmt.Sprintf("all %d idlers parked with %d transactions outstanding", len(k.comps), n)))
	}
}

// deadlock builds a DeadlockError with the current wake-state dump.
func (k *Kernel) deadlock(reason string) *DeadlockError {
	e := &DeadlockError{
		Reason:   reason,
		Now:      k.now,
		Executed: k.executed - k.wdArmed,
		Idlers:   k.idlerDump(),
	}
	if k.wd.Outstanding != nil {
		e.Outstanding = k.wd.Outstanding()
	}
	return e
}

// idlerDump snapshots every idler's cached wake bound and live hint.
// Error path only; allocation here is fine.
func (k *Kernel) idlerDump() []IdlerState {
	out := make([]IdlerState, len(k.comps))
	for i, c := range k.comps {
		st := IdlerState{ID: i, Name: idlerName(c), CachedWake: k.wakes.at[i]}
		st.Parked = st.CachedWake == never
		st.Hint, st.HintOK = c.NextActivity(k.now)
		out[i] = st
	}
	return out
}

// idlerName labels a component for the diagnostic dump.
func idlerName(v any) string {
	switch n := v.(type) {
	case interface{ Name() string }:
		return n.Name()
	case interface{ Label() string }:
		return n.Label()
	}
	return fmt.Sprintf("%T", v)
}
