package memctrl

import (
	"fmt"

	"sara/internal/dram"
	"sara/internal/sim"
)

// Per-bank candidate buckets: incremental maintenance of the queue scan.
//
// The controller's scheduling scan used to re-probe every queued
// transaction against the timing snapshot on every eligible cycle. Under
// the saturated loaded phase that full rescan dominated simulation time,
// and it grows with queue depth rather than with actual activity. The
// buckets below replace it: every queued entry is indexed by its bank
// (bankKey = rank*banks+bank), and each bucket carries a cached lower
// bound on the earliest cycle any of its entries could issue. A scan then
// touches only banks whose readiness could have changed since the last
// event — clean buckets parked in the future contribute their cached
// cycle to the dormancy window (nextTry, and through it the controller's
// sim.Idler hint) without probing a single entry.
//
// # Invalidation contract
//
// bucket.readyAt must remain a LOWER bound on the true earliest-issuable
// cycle of every entry in the bucket for as long as the bucket is clean.
// Probing too early is always safe (the scan re-probes and goes back to
// sleep); probing too late would miss a command and break skip-vs-step
// equivalence. The bound stays sound because every input of probeScan is
// either monotone — DRAM timing gates (bank CAS/PRE/ACT, rank tRRD/tFAW,
// channel CAS and bus gates) only ever move later as commands issue — or
// bank-local and patched at the exact event that could advance an entry:
//
//   - command issue on a bank (CAS, PRE, ACT — transaction or refresh
//     drain): the bank's row state, reservation, timing gates and queued
//     row-hit picture all changed; issue() and issueRefreshPre call
//     bankChanged, which marks the bucket dirty and rebuilds its cached
//     row-hit priority against the freshly patched dram.ScanState.
//   - CAS release: the served entry leaves its bucket (bucketRemove in
//     issueCAS) before bankChanged rebuilds the hit cache, so the
//     open-page guard (allowPrecharge) unblocks followers the same cycle.
//   - REF issue: the rank's forced-drain gate (ScanState.RefBlocked)
//     clears and every activate gate of the rank moved; issueRefresh
//     calls dirtyRank. The opposite transitions (a drain starting, gates
//     moving later) only delay entries and need no invalidation.
//   - enqueue: the new entry may be issuable immediately; Enqueue pushes
//     it into its bucket, marks the bucket dirty and raises the cached
//     row-hit priority if the entry hits the open row. (nextTry is also
//     reset to zero, as before, so the next Tick scans.)
//
// Entry attributes the probe reads (Priority, Urgent, Enqueue, ID,
// decoded Location) are stamped at injection and immutable while queued,
// so no adapter activity can invalidate a parked bucket.
//
// Aging is the one non-bank-local input: once any class-queue head
// crosses the starvation limit the "serve only over-age work" rule makes
// the candidate set a function of age, not of banks, so the controller
// falls back to the full legacy rescan for those (rare) cycles. The full
// scan leaves the cached bounds untouched; they remain sound because
// aged-pass issues dirty their banks like any other issue.
//
// # Bank mask and aging deadline
//
// Two more caches keep a scan's cost proportional to the occupied banks
// rather than to the geometry:
//
//   - nonempty has bit k set exactly when bucket k holds entries. It is
//     maintained at the only two membership edges — bucketPush sets the
//     bit, bucketRemove clears it when the bucket empties — and
//     collectBuckets walks its set bits in ascending key order, the same
//     order as a walk over every bucket, so candidate order and policy
//     tie-breaks are unchanged.
//   - agingAt is the earliest aging deadline (Enqueue+AgingT) over the
//     class-queue heads. Queues are FIFO with monotone Enqueue stamps, so
//     each head is its queue's oldest entry and the minimum only moves
//     when a head changes: Enqueue into an empty queue lowers it, and the
//     CAS removal of a head (issueCAS) recomputes it over the five heads.
//     The aged-pass test in collectCandidates and the bucket scan's
//     aging bound on the dormancy window read it. Like readyAt it must
//     never be LATER than the true head minimum — that would skip an
//     aged pass and diverge from the reference — while an earlier value
//     only costs a full rescan that finds nothing aged.
//
// SetForceScan keeps the contract honest: with it enabled the controller
// re-derives candidates from scratch every tick — no nextTry dormancy, no
// bucket caches or bank mask, a linear head walk for the aging test, full
// bankHit recompute — giving the differential fuzz harness a stepped
// reference that any stale bound diverges from.

// bucket indexes the queued entries of one bank.
type bucket struct {
	entries []entry
	// readyAt is the cached lower bound on the earliest cycle any entry in
	// this bucket could issue; neverTry when the bucket is empty or every
	// entry is blocked on a queue-shape change rather than a timing gate.
	readyAt sim.Cycle
	// dirty forces a re-probe on the next scan regardless of readyAt.
	dirty bool
}

// entryHit is THE queued row-hit-priority rule: the entry's priority
// offset by one when a CAS would hit the bank's open row (so zero means
// "no hit"). The incremental maintainers (bucketPush, bankChanged) and
// the full recompute (refreshBankHits) all evaluate this one function —
// the incremental and reference bankHit values must stay bit-identical
// for skip-vs-step equivalence, so the rule must not fork.
func entryHit(bs *dram.BankScan, e *entry) uint16 {
	if !bs.Open || bs.Row != e.loc.Row {
		return 0
	}
	return uint16(e.t.Priority) + 1
}

// bucketPush adds e to its bank's bucket and marks it for re-probing.
// When the entry hits the bank's open row it also raises the cached
// row-hit priority (it can only raise it: lowering happens exclusively
// through bankChanged after an issue on the bank).
func (c *Controller) bucketPush(e entry) {
	key := c.bankKey(e.loc)
	b := &c.buckets[key]
	b.entries = append(b.entries, e) //sara:alloc-ok bucket capacity amortizes to steady state (0 allocs/op bench gate)
	b.dirty = true
	c.nonempty[key>>6] |= 1 << (key & 63)
	if c.rowAware {
		if p := entryHit(&c.scan.Banks[key], &e); p > c.bankHit[key] {
			c.bankHit[key] = p
		}
	}
}

// bucketRemove deletes the entry holding transaction id from bank key.
func (c *Controller) bucketRemove(key int, id uint64) {
	es := c.buckets[key].entries
	for i := range es {
		if es[i].t.ID == id {
			copy(es[i:], es[i+1:])
			es[len(es)-1] = entry{}
			c.buckets[key].entries = es[:len(es)-1]
			if len(es) == 1 {
				c.nonempty[key>>6] &^= 1 << (key & 63)
			}
			return
		}
	}
	panic(fmt.Sprintf("memctrl: bucket remove of unknown txn %d", id))
}

// bankChanged records that a command was issued to bank key: the bucket
// must be re-probed, and for row-aware policies the cached best queued
// row-hit priority is rebuilt against the just-patched scan snapshot.
func (c *Controller) bankChanged(key int) {
	b := &c.buckets[key]
	b.dirty = true
	if !c.rowAware {
		return
	}
	hit := uint16(0)
	bs := &c.scan.Banks[key]
	for i := range b.entries {
		if p := entryHit(bs, &b.entries[i]); p > hit {
			hit = p
		}
	}
	c.bankHit[key] = hit
}

// dirtyRank marks every bucket of rank r for re-probing (a REF cleared
// the rank's forced-drain gate and moved its activate gates).
func (c *Controller) dirtyRank(r int) {
	for b := r * c.nBanks; b < (r+1)*c.nBanks; b++ {
		c.buckets[b].dirty = true
	}
}

// SetForceScan switches the controller to the per-cycle full-rescan
// reference: no dormancy window and no bucket caches, so every Tick
// re-derives the candidate set, the row-hit table and the refresh mask
// from scratch. The differential fuzz harness runs the cycle-stepped
// reference in this mode, so a stale bucket bound or missed invalidation
// diverges the command trace instead of hiding. Use it with idle skipping
// disabled.
func (c *Controller) SetForceScan(on bool) { c.forceScan = on }
