package sim

// Probes is one system's set of trace edges: one subscriber list per
// edge, shared by every router, DMA engine and memory controller of that
// system. Subscribing is an append; there is no detach, since probes live
// and die with their system. The hot path ranges over the list, so an
// edge nobody subscribed to costs one length check and no allocation.
// Subscribe from the goroutine that owns the system, never while its
// kernel runs.
type Probes struct {
	// Stall observes a router stall accrual: name's router stalled for n
	// cycles ending at now. Stalls are batched across dormant stretches,
	// so one call may cover many cycles (backfill reports whether the
	// accrual was settled after the fact rather than observed on a live
	// scan); batching boundaries depend on when settles run and are not
	// part of the equivalence contract — only the per-router totals are.
	Stall []func(name string, now Cycle, n uint64, backfill bool)
	// Grant observes one switch-allocation grant: which input port won
	// which output for which transaction.
	Grant []func(name string, now Cycle, port, out int, id uint64)
	// Credit observes a credit-side pop of a router input port: which
	// port freed a slot and whether the FIFO was full (the pop returned a
	// credit upstream). Memory-controller class-queue releases arrive on
	// the same edge under the name "mc<channel>", with port = class and
	// wasFull always true.
	Credit []func(name string, now Cycle, port int, wasFull bool)
	// Sleep observes a router sleep window: when a scan runs at cycle
	// until after the previous scan at from-1, the router asserts no
	// grant occurred in [from, until).
	Sleep []func(name string, from, until Cycle)
	// Inject observes one DMA injection: which engine injected which
	// transaction (id, address) into its NoC port at now.
	Inject []func(now Cycle, source int, id uint64, addr uint64)
	// Wake observes one DMA injection-wake re-arm of the cached
	// next-injection cycle: which engine re-armed to at, and why — 'D'
	// for a completion delivery, 'C' for a port credit return. The
	// re-arm stream is a function of the simulated behavior alone, so it
	// must be bit-identical between the idle-skipping run and the
	// stepped force-scan reference.
	Wake []func(source int, at Cycle, cause byte)
	// Command observes one issued DRAM command on channel ch: kind is 'A'
	// (activate), 'P' (precharge), 'C' (CAS) or 'R' (refresh, id 0); id
	// is the transaction the command serves.
	Command []func(ch int, now Cycle, id uint64, kind byte)
}
