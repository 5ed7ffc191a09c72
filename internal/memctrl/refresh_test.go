package memctrl

import (
	"sort"
	"testing"

	"sara/internal/dram"
	"sara/internal/sim"
	"sara/internal/txn"
)

func newRefreshController(policy PolicyKind) (*Controller, *dram.DRAM) {
	cfg := dram.PaperConfig(1866)
	cfg.Refresh = cfg.DefaultRefresh()
	d := dram.New(cfg)
	mc := DefaultConfig(0)
	mc.Policy = policy
	return New(mc, d), d
}

// TestRefreshGoldenIdleSchedule pins the hand-computed REF schedule of an
// idle channel. Pull-in waits until a rank has been idle a full tRFC, so
// the first REF lands at tRFC; from there the controller banks the
// window's credit — one REF per rank every tRFC, ranks staggered by the
// one-command-per-cycle rule — then settles into exactly one REF per rank
// per tREFI at the rank's own staggered boundary:
//
//	rank 0: tRFC, 2*tRFC, ... 8*tRFC, then tREFI, 2*tREFI, ...
//	rank 1: one cycle behind through the pull-in, then its boundaries
//	        offset by tREFI/4 (rank index 1 of 4 device-wide).
func TestRefreshGoldenIdleSchedule(t *testing.T) {
	c, d := newRefreshController(QoS)
	ref := d.Config().Refresh

	var got []sim.Cycle
	probes := c.Config().Probes
	probes.Command = append(probes.Command, func(ch int, now sim.Cycle, id uint64, kind byte) {
		if kind != 'R' {
			t.Fatalf("idle controller issued non-REF command %c at %d", kind, now)
		}
		if id != 0 {
			t.Fatalf("REF carried transaction id %d, want 0", id)
		}
		got = append(got, now)
	})

	horizon := 3*ref.TREFI + 10
	for now := sim.Cycle(0); now < horizon; now++ {
		c.Tick(now)
	}

	var want []sim.Cycle
	for k := sim.Cycle(1); k <= sim.Cycle(ref.Window); k++ {
		want = append(want, k*ref.TRFC, k*ref.TRFC+1)
	}
	geo := d.Config().Geometry
	total := sim.Cycle(geo.Channels * geo.Ranks)
	var bounds []sim.Cycle
	for r := sim.Cycle(0); r < sim.Cycle(geo.Ranks); r++ {
		offset := r * ref.TREFI / total
		for m := sim.Cycle(1); m*ref.TREFI+offset < horizon; m++ {
			bounds = append(bounds, m*ref.TREFI+offset)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	want = append(want, bounds...)
	if len(got) != len(want) {
		t.Fatalf("REF count %d, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("REF %d at cycle %d, want %d\ngot:  %v\nwant: %v", i, got[i], want[i], got, want)
		}
	}
	st := c.Stats()
	if st.Refreshes != uint64(len(want)) || st.ForcedRefreshes != 0 {
		t.Fatalf("stats %+v: want %d refreshes, none forced", st, len(want))
	}
}

// TestRefreshForcedUnderLoad keeps one rank saturated with row-hit
// traffic so opportunistic refresh never fires there, and asserts the
// postponement contract: owed never exceeds the window, the forced drain
// precharges the open row and issues REF, and service resumes afterwards.
func TestRefreshForcedUnderLoad(t *testing.T) {
	c, d := newRefreshController(FCFS)
	ref := d.Config().Refresh

	var refs, pres []sim.Cycle
	probes := c.Config().Probes
	probes.Command = append(probes.Command, func(ch int, now sim.Cycle, id uint64, kind byte) {
		if id != 0 {
			return
		}
		switch kind {
		case 'R':
			refs = append(refs, now)
		case 'P':
			pres = append(pres, now)
		}
	})

	served := 0
	c.OnComplete = func(tr *txn.Transaction, at sim.Cycle) { served++ }
	id := uint64(0)
	horizon := sim.Cycle(ref.Window)*ref.TREFI + 4000
	lastServe := sim.Cycle(0)
	for now := sim.Cycle(0); now < horizon; now++ {
		// Row-hitting reads to rank 0, bank 0 keep its pending count high.
		if c.SpaceFor(txn.ClassCPU) {
			id++
			tr := mkTxn(d, id, txn.Read, txn.ClassCPU, 0, 0, 1)
			c.Enqueue(tr, now)
		}
		before := served
		c.Tick(now)
		if served > before {
			lastServe = now
		}
		if owed := d.RefreshOwed(0, 0, now); owed > ref.Window {
			t.Fatalf("cycle %d: owed %d exceeds the %d-deep postponement window", now, owed, ref.Window)
		}
	}

	// Rank 1 is idle: it refreshes opportunistically from cycle 0. Rank 0
	// must have been forced at the window's edge, draining via PRE first.
	st := c.Stats()
	if st.ForcedRefreshes == 0 {
		t.Fatalf("stats %+v: saturated rank never forced a refresh", st)
	}
	if st.RefreshPrecharges == 0 {
		t.Fatalf("stats %+v: forced refresh never drained the open row", st)
	}
	forcedAt := sim.Cycle(ref.Window) * ref.TREFI
	found := false
	for _, at := range refs {
		if at >= forcedAt && at < forcedAt+2000 {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no REF near the forced deadline %d; refs=%v", forcedAt, refs)
	}
	if lastServe < forcedAt {
		t.Fatalf("service stopped at %d, before the forced refresh at %d", lastServe, forcedAt)
	}
	if served == 0 {
		t.Fatal("no transactions served under load")
	}
}

// TestRefreshNextActivity pins the sim.Idler contract extension: an empty
// controller with refresh enabled still reports a wake (the refresh
// cadence), where the refresh-free controller reports none.
func TestRefreshNextActivity(t *testing.T) {
	c, d := newRefreshController(QoS)
	if at, ok := c.NextActivity(0); !ok || at != 0 {
		t.Fatalf("fresh refresh-on controller NextActivity = (%d, %v), want (0, true)", at, ok)
	}
	// Bank the full pull-in credit, then the controller sleeps until the
	// next tREFI boundary.
	ref := d.Config().Refresh
	var now sim.Cycle
	for d.RefreshOwed(0, 0, now) > -ref.Window || d.RefreshOwed(0, 1, now) > -ref.Window {
		c.Tick(now)
		now++
		if now > 100*ref.TRFC {
			t.Fatal("pull-in never completed")
		}
	}
	c.Tick(now) // recompute refNextAction with the credit banked
	at, ok := c.NextActivity(now + 1)
	if !ok {
		t.Fatal("refresh-on controller reported no wake")
	}
	if at != ref.TREFI {
		t.Fatalf("dormant wake at %d, want the tREFI boundary %d", at, ref.TREFI)
	}

	off, _ := newTestController(QoS)
	if _, ok := off.NextActivity(0); ok {
		t.Fatal("refresh-free empty controller reported a wake")
	}
}
