// Package core implements the paper's contributed algorithms on the
// simulated machine:
//
//   - GCC — Algorithm G-CC (Fig. 2): the generic O(1)-RMR mutual
//     exclusion algorithm for CC machines, driven by any fetch-and-φ
//     primitive of rank ≥ 2N;
//   - GDSM — Algorithm G-DSM (Fig. 3): its DSM counterpart, obtained
//     through the Sec. 3 await transformation (internal/localspin);
//   - Tree — the arbitration tree of Theorem 1, giving Θ(log_r N) RMR
//     from any primitive of rank r ≥ 4;
//   - T0 — Algorithm T0 (Fig. 6), the Θ(log N / log log N) algorithm
//     over the Node_Type object (Fig. 5);
//   - T — Algorithm T (Fig. 10), the same bound from any
//     self-resettable fetch-and-φ primitive of rank ≥ 3;
//   - TokenAbortable and GDSMAbortable — abortable locks with O(1)
//     amortized RMR per passage.
//
// The algorithms are built from four shared parts rather than
// near-duplicate bodies:
//
//   - the queue core (queueCore): G-CC's two fetch-and-φ queues,
//     their exchange, and the two-process mutex between their heads —
//     used by GCC, GDSM and GDSMAbortable;
//   - the exit handshake (GDSM.exit): G-DSM's position sweep,
//     successor signal and delegation, which GDSMAbortable reuses;
//   - the abort-marker relay (markerRelay): the baton hand-off past
//     withdrawn waiters of TokenAbortable and GDSMAbortable;
//   - the promotion skeleton (promotion): the spin, waiting-queue,
//     barrier and final-mutex machinery of T0 and T, which differ only
//     in how a tree node is represented.
package core

import (
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
	"fetchphi/internal/twoproc"
)

// Word is re-exported for brevity.
type Word = memsim.Word

// GCC is Algorithm G-CC: the queue core with the paper's busy-waits
// left as they are. Its busy-waits target globally-homed signal and
// state words — the paper presents it as O(1) on CC machines and
// applies the Sec. 3 transformation (G-DSM) to make the spinning local
// on DSM.
//
//fetchphilint:nonlocal G-CC is the paper's CC-machine algorithm; G-DSM is its local-spin DSM counterpart
//fetchphilint:rmr O(1) Theorem 1: O(1) RMR on CC for any primitive of rank >= 2N
type GCC struct {
	core *queueCore
}

// NewGCC builds an instance for m's N processes on top of prim, whose
// rank must be at least 2N.
func NewGCC(m *memsim.Machine, prim phi.Primitive) *GCC {
	return NewGCCSized(m, prim, m.NumProcs(), "gcc")
}

// NewGCCSized builds an instance arbitrating `slots` competitors, where
// competitor identities are slot numbers 0..slots-1 passed explicitly
// to AcquireSlot/ReleaseSlot. Different processes may use a slot at
// different times as long as slot occupancy is exclusive (an
// arbitration tree guarantees this structurally). prim's rank must be
// at least 2·slots.
func NewGCCSized(m *memsim.Machine, prim phi.Primitive, slots int, name string) *GCC {
	c := newQueueCore(m, prim, slots, name, "G-CC")
	c.two = twoproc.New(m, name+".two")
	return &GCC{core: c}
}

// Name implements harness.Algorithm.
func (g *GCC) Name() string {
	if g.core.posFromPrev {
		return "g-cc-specialized/" + g.core.prim.Name()
	}
	return "g-cc/" + g.core.prim.Name()
}

// Acquire implements the entry section (Fig. 2, lines 1–11) with the
// caller's process id as the slot.
func (g *GCC) Acquire(p *memsim.Proc) { g.AcquireSlot(p, p.ID()) }

// Release implements the exit section with the caller's id as slot.
func (g *GCC) Release(p *memsim.Proc) { g.ReleaseSlot(p, p.ID()) }

// AcquireSlot performs the entry section for the competitor occupying
// the given slot.
func (g *GCC) AcquireSlot(p *memsim.Proc, slot int) {
	c := g.core
	idx := c.begin(p, slot)                                  // 1–3
	p.Write(c.queueID[slot], qidQueue0+Word(idx))            // 4
	if prev := c.enqueue(p, slot, idx); prev != phi.Bottom { // 5–8
		sig := c.signal[idx].At(prev)
		p.AwaitTrue(sig) // 9
		p.Write(sig, 0)  // 10
	}
	c.two.Acquire(p, idx) // 11
}

// ReleaseSlot performs the exit section for the competitor occupying
// the given slot.
func (g *GCC) ReleaseSlot(p *memsim.Proc, slot int) {
	c := g.core
	st := &c.st[slot]
	pos := c.nextPosition(p, slot)           // 12–13
	c.two.Release(p, st.idx)                 // 14
	c.sweep(p, slot, pos, nil)               // 15–22
	p.Write(c.signal[st.idx].At(st.self), 1) // 23
	p.Write(c.active[slot], 0)               // 24
}

// NewGCCFetchInc builds the fetch-and-increment specialization of
// G-CC: queue positions are read off the fetch values instead of the
// shared Position counters, removing two operations and one contended
// variable per exit (see queueCore.posFromPrev). Semantically
// equivalent to NewGCC(m, phi.FetchAndIncrement{}); measured in
// ablation E8f.
func NewGCCFetchInc(m *memsim.Machine) *GCC {
	g := NewGCCSized(m, phi.FetchAndIncrement{}, m.NumProcs(), "gcc-fi")
	g.core.posFromPrev = true
	return g
}

// NewGCCWithoutStaleClear builds the algorithm exactly as printed in
// Fig. 2, WITHOUT the stale-signal completion. It exists only for the
// E8a ablation: under schedules where a queue generation's last
// fetch-and-φ value recurs in a later generation, it violates mutual
// exclusion.
func NewGCCWithoutStaleClear(m *memsim.Machine, prim phi.Primitive) *GCC {
	g := NewGCC(m, prim)
	g.core.skipStaleClear = true
	return g
}
