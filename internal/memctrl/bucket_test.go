package memctrl

import (
	"fmt"
	"testing"

	"sara/internal/dram"
	"sara/internal/sim"
	"sara/internal/txn"
)

// issueRecord is one observable scheduling decision.
type issueRecord struct {
	id   uint64
	at   sim.Cycle
	kind byte
}

// driveRandom runs one controller under a seeded random enqueue stream
// for the given cycles, recording every issued command. With force set
// the controller re-derives candidates from scratch every cycle; without
// it the per-bank buckets and the dormancy window are live. Both must
// produce identical command streams. A non-nil corrupt runs before every
// Tick, after the cycle's arrivals: the stale-cache tests use it to
// break one of the controller's caches on purpose.
func driveRandom(t *testing.T, policy PolicyKind, seed uint64, refresh, force bool, cycles sim.Cycle, corrupt func(*Controller)) []issueRecord {
	t.Helper()
	SetForceScan(force)
	defer SetForceScan(false)

	dcfg := dram.PaperConfig(1866)
	if refresh {
		dcfg.Refresh = dcfg.DefaultRefresh()
	}
	d := dram.New(dcfg)
	cfg := DefaultConfig(0)
	cfg.Policy = policy
	cfg.AgingT = 500 // low enough that aged passes actually happen
	c := New(cfg, d)

	var out []issueRecord
	SetDebugTrace(func(ch int, now sim.Cycle, id uint64, kind byte) {
		out = append(out, issueRecord{id, now, kind})
	})
	defer SetDebugTrace(nil)
	c.OnComplete = func(*txn.Transaction, sim.Cycle) {}

	rng := sim.NewRand(seed)
	id := uint64(0)
	for now := sim.Cycle(0); now < cycles; now++ {
		// A bursty, bank-colliding arrival pattern: some cycles enqueue
		// several transactions, many enqueue none, rows collide often so
		// conflicts, reservations and the open-page guard all trigger.
		if rng.Bool(0.25) {
			for n := rng.Intn(3); n >= 0; n-- {
				class := txn.Class(rng.Intn(txn.NumClasses))
				if !c.SpaceFor(class) {
					continue
				}
				id++
				loc := dram.Location{
					Channel: 0,
					Rank:    rng.Intn(2),
					Bank:    rng.Intn(4), // few banks: heavy collisions
					Row:     uint64(rng.Intn(3)),
				}
				kind := txn.Read
				if rng.Bool(0.3) {
					kind = txn.Write
				}
				tr := &txn.Transaction{
					ID:       id,
					Kind:     kind,
					Addr:     d.Mapper().Encode(loc),
					Size:     128,
					Class:    class,
					Priority: txn.Priority(rng.Intn(8)),
					Urgent:   rng.Bool(0.1),
				}
				c.Enqueue(tr, now)
			}
		}
		if corrupt != nil {
			corrupt(c)
		}
		c.Tick(now)
	}
	return out
}

// TestBucketScanMatchesForceScan is the unit-level differential for the
// per-bank buckets: across every policy, with and without refresh, the
// incrementally maintained scan must issue the exact same command stream
// — same transactions, same cycles, same command kinds — as the
// per-cycle full rescan reference. Random bank collisions exercise every
// invalidation edge (reservation release, open-page guard, refresh
// drains, aging passes, dormancy-window resets).
func TestBucketScanMatchesForceScan(t *testing.T) {
	for _, policy := range AllPolicies() {
		for _, refresh := range []bool{false, true} {
			policy, refresh := policy, refresh
			t.Run(fmt.Sprintf("%v/refresh=%v", policy, refresh), func(t *testing.T) {
				for seed := uint64(1); seed <= 5; seed++ {
					ref := driveRandom(t, policy, seed, refresh, true, 30000, nil)
					fast := driveRandom(t, policy, seed, refresh, false, 30000, nil)
					if len(ref) == 0 {
						t.Fatalf("seed %d: reference issued nothing", seed)
					}
					if len(ref) != len(fast) {
						t.Fatalf("seed %d: issue counts differ: full %d, bucket %d",
							seed, len(ref), len(fast))
					}
					for i := range ref {
						if ref[i] != fast[i] {
							t.Fatalf("seed %d: issue %d differs: full %+v, bucket %+v",
								seed, i, ref[i], fast[i])
						}
					}
				}
			})
		}
	}
}

// TestBucketMembershipTracksQueues pins the dual index: after a run with
// arrivals and completions, the bucket population must equal the class
// queue population entry for entry.
func TestBucketMembershipTracksQueues(t *testing.T) {
	c, d := newTestController(QoS)
	rng := sim.NewRand(7)
	id := uint64(0)
	for now := sim.Cycle(0); now < 5000; now++ {
		if rng.Bool(0.3) && c.SpaceFor(txn.ClassGPU) {
			id++
			loc := dram.Location{Channel: 0, Rank: rng.Intn(2), Bank: rng.Intn(4), Row: uint64(rng.Intn(3))}
			c.Enqueue(&txn.Transaction{ID: id, Kind: txn.Read, Addr: d.Mapper().Encode(loc),
				Size: 128, Class: txn.ClassGPU}, now)
		}
		c.Tick(now)
	}
	inQueues := make(map[uint64]bool)
	for qi := range c.queues {
		for i := range c.queues[qi].entries {
			inQueues[c.queues[qi].entries[i].t.ID] = true
		}
	}
	nBuckets := 0
	for k := range c.buckets {
		for i := range c.buckets[k].entries {
			e := &c.buckets[k].entries[i]
			if c.bankKey(e.loc) != k {
				t.Fatalf("txn %d filed under bank %d, located at %+v", e.t.ID, k, e.loc)
			}
			if !inQueues[e.t.ID] {
				t.Fatalf("txn %d in a bucket but not in any class queue", e.t.ID)
			}
			nBuckets++
		}
	}
	if nBuckets != len(inQueues) {
		t.Fatalf("bucket population %d, queue population %d", nBuckets, len(inQueues))
	}
	if c.Pending() != nBuckets {
		t.Fatalf("Pending() %d, bucket population %d", c.Pending(), nBuckets)
	}
}

// TestScanCachesTrackQueues pins the bank mask and the cached aging
// deadline against their from-scratch definitions: after every cycle of
// a random enqueue-and-serve run across all five classes, agingAt must
// equal the minimum head deadline recomputed linearly, and bit k of
// nonempty must be set exactly when bucket k holds entries.
func TestScanCachesTrackQueues(t *testing.T) {
	for _, agingT := range []sim.Cycle{0, 300} {
		c, d := newTestController(QoS)
		c.cfg.AgingT = agingT
		rng := sim.NewRand(11)
		id := uint64(0)
		for now := sim.Cycle(0); now < 20000; now++ {
			if rng.Bool(0.3) {
				class := txn.Class(rng.Intn(txn.NumClasses))
				if c.SpaceFor(class) {
					id++
					loc := dram.Location{Channel: 0, Rank: rng.Intn(2), Bank: rng.Intn(8), Row: uint64(rng.Intn(3))}
					c.Enqueue(&txn.Transaction{ID: id, Kind: txn.Read, Addr: d.Mapper().Encode(loc),
						Size: 128, Class: class, Priority: txn.Priority(rng.Intn(8))}, now)
				}
			}
			c.Tick(now)
			if want := c.headAgingDeadline(); c.agingAt != want {
				t.Fatalf("agingT=%d cycle %d: cached aging deadline %d, head minimum %d", agingT, now, c.agingAt, want)
			}
			for k := range c.buckets {
				set := c.nonempty[k>>6]&(1<<(k&63)) != 0
				if set != (len(c.buckets[k].entries) > 0) {
					t.Fatalf("agingT=%d cycle %d: nonempty bit %d = %v, bucket holds %d entries",
						agingT, now, k, set, len(c.buckets[k].entries))
				}
			}
		}
		if c.stats.Served == 0 {
			t.Fatalf("agingT=%d: nothing served", agingT)
		}
		if agingT > 0 && c.stats.AgedServes == 0 {
			t.Fatalf("agingT=%d: no aged serves; the aging cache was never exercised", agingT)
		}
	}
}

// TestStaleScanCacheDivergesFromForceScan is the negative control for
// the two caches: with the aging deadline or the bank mask deliberately
// stale, the bucket scan must issue a different command stream from the
// SetForceScan reference, which derives both from scratch — so the
// differential suites would catch a missed cache update.
func TestStaleScanCacheDivergesFromForceScan(t *testing.T) {
	stale := map[string]func(*Controller){
		// An aging deadline that never arrives: aged passes are lost.
		"aging": func(c *Controller) { c.agingAt = neverTry },
		// A mask that forgets bank 0 of rank 0: its entries are never
		// scanned.
		"mask": func(c *Controller) { c.nonempty[0] &^= 1 },
	}
	for name, corrupt := range stale {
		diverged := false
		for seed := uint64(1); seed <= 5 && !diverged; seed++ {
			ref := driveRandom(t, QoS, seed, false, true, 30000, nil)
			fast := driveRandom(t, QoS, seed, false, false, 30000, corrupt)
			if len(ref) != len(fast) {
				diverged = true
				break
			}
			for i := range ref {
				if ref[i] != fast[i] {
					diverged = true
					break
				}
			}
		}
		if !diverged {
			t.Fatalf("stale %s cache matched the force-scan reference on every seed", name)
		}
	}
}
