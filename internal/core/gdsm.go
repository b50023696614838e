package core

import (
	"fetchphi/internal/localspin"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
	"fetchphi/internal/twoproc"
)

// GDSM is Algorithm G-DSM (Fig. 3): Algorithm G-CC with every busy
// wait converted by the Sec. 3 transformation, so that all spinning is
// on per-process variables homed at the spinner. It has O(1) RMR
// complexity on DSM (and CC) machines for any primitive of rank ≥ 2N.
//
// The two condition-site families of Fig. 3 are:
//
//   - queue sites, keyed by (queue, fetch-and-φ value): an enqueuer
//     waits for its predecessor's Signal[idx][prev] (Waiter2 in the
//     paper's variable list);
//   - process sites, keyed by process id: an exiting process at
//     position q waits for process q to leave the old queue (Waiter1).
//
// Fig. 3's boldface lines map to localspin.Site.Wait (13–21, 28–36)
// and localspin.Site.Signal (4–8, 41–45, 46–50).
//
//fetchphilint:rmr O(1) Theorem 1 via the Sec. 3 transformation: O(1) RMR on CC and DSM
type GDSM struct {
	core *queueCore

	procSites *localspin.SiteSet // Waiter1 sites, keyed by process id
	queueSite *localspin.SiteSet // Waiter2 sites, keyed by (queue, value)

	// delegate is non-nil exactly under the exit-handshake extension
	// the paper sketches after presenting G-CC ("with a slightly more
	// complicated handshake, such waiting can be eliminated"): an
	// exiting process that finds its position's process q still in
	// the old queue does not wait for q — it registers a delegation
	// in delegate[q] (atomically with q's state, via q's process
	// site) instructing q to signal the successor when q finishes.
	// delegate[q] holds the encoded (queue, value) successor signal q
	// must fire, or 0.
	delegate []memsim.Var
}

// successor fires the signal that lets the waiter behind value self of
// queue idx proceed (Fig. 3 lines 41–45): G-DSM establishes it,
// GDSMAbortable relays it past withdrawn waiters. The entry and exit
// sections take it as a function literal at each call site, not from a
// field, so the relay's loop stays out of G-DSM's call graph and the
// static O(1) bound (rmrbound) still holds for G-DSM.
type successor func(idx int, self Word)

// NewGDSM builds an instance for m's N processes on top of prim, whose
// rank must be at least 2N.
func NewGDSM(m *memsim.Machine, prim phi.Primitive) *GDSM {
	return NewGDSMSized(m, prim, m.NumProcs(), "gdsm")
}

// NewGDSMNoExitWait builds G-DSM with the exit-handshake extension:
// exit sections never block waiting for an old-queue process (the
// paper's sketched improvement). The successor signal is delegated to
// the process being waited on and fired when it finishes.
func NewGDSMNoExitWait(m *memsim.Machine, prim phi.Primitive) *GDSM {
	g := NewGDSMSized(m, prim, m.NumProcs(), "gdsm-nw")
	g.delegate = m.NewArray("gdsm-nw.Delegate", m.NumProcs(), memsim.HomeGlobal, 0)
	return g
}

// NewGDSMSized builds an instance arbitrating `slots` competitors; see
// NewGCCSized for the slot contract. prim's rank must be at least
// 2·slots.
func NewGDSMSized(m *memsim.Machine, prim phi.Primitive, slots int, name string) *GDSM {
	c := newQueueCore(m, prim, slots, name, "G-DSM")
	c.two = twoproc.New(m, name+".two")
	return &GDSM{
		core:      c,
		procSites: localspin.NewSiteSet(m, name+".W1"),
		queueSite: localspin.NewSiteSet(m, name+".W2"),
	}
}

// Name implements harness.Algorithm.
func (g *GDSM) Name() string {
	if g.delegate != nil {
		return "g-dsm-nowait/" + g.core.prim.Name()
	}
	return "g-dsm/" + g.core.prim.Name()
}

// queueKey packs a (queue index, fetch-and-φ value) site key.
func queueKey(idx int, v Word) Word { return v<<1 | Word(idx) }

// Acquire implements the entry section (Fig. 3, lines 1–22) with the
// caller's process id as the slot.
func (g *GDSM) Acquire(p *memsim.Proc) { g.AcquireSlot(p, p.ID()) }

// Release implements the exit section with the caller's id as slot.
func (g *GDSM) Release(p *memsim.Proc) { g.ReleaseSlot(p, p.ID()) }

// AcquireSlot performs the entry section for the competitor occupying
// the given slot.
func (g *GDSM) AcquireSlot(p *memsim.Proc, slot int) {
	c := g.core
	idx := g.announce(p, slot, func(idx int, self Word) { g.signalSuccessor(p, idx, self) }) // 1–8
	if prev := c.enqueue(p, slot, idx); prev != phi.Bottom {                                 // 9–12
		sig := c.signal[idx].At(prev)
		// 13–20: wait for the predecessor's signal, spinning locally.
		g.queueSite.At(queueKey(idx, prev)).Wait(p, func(read func(memsim.Var) Word) bool {
			return read(sig) != 0 // 14
		})
		p.Write(sig, 0) // 21
	}
	c.two.Acquire(p, idx) // 22
}

// ReleaseSlot performs the exit section for the competitor occupying
// the given slot.
func (g *GDSM) ReleaseSlot(p *memsim.Proc, slot int) {
	c := g.core
	pos := c.nextPosition(p, slot)   // 23–24
	c.two.Release(p, c.st[slot].idx) // 25
	g.exit(p, slot, pos, func(idx int, self Word) { g.signalSuccessor(p, idx, self) })
}

// announce opens slot's entry section (Fig. 3 lines 1–8) and returns
// the queue it will join. Setting QueueId goes through slot's process
// site: it may release an exit-section waiter — or, with the handshake
// extension, pick up a delegated successor signal for fire to send.
func (g *GDSM) announce(p *memsim.Proc, slot int, fire successor) int {
	c := g.core
	idx := c.begin(p, slot) // 1–3
	g.signalSelfSite(p, slot, func() {
		p.Write(c.queueID[slot], qidQueue0+Word(idx)) // 5
	}, fire)
	return idx
}

// exit is the exit section after the position step (Fig. 3 lines
// 26–50): the position sweep, the successor signal through fire, and
// going inactive.
func (g *GDSM) exit(p *memsim.Proc, slot int, pos Word, fire successor) {
	c := g.core
	st := &c.st[slot]
	delegated := false
	c.sweep(p, slot, pos, func(q int) { // 26–40
		if g.delegate == nil {
			// 28–36: wait for q to finish or reveal itself in my
			// queue.
			g.procSites.At(Word(q)).Wait(p, func(read func(memsim.Var) Word) bool {
				return read(c.active[q]) == 0 || read(c.queueID[q]) == qidQueue0+Word(st.idx)
			})
			return
		}
		// Handshake extension: atomically with q's own state
		// transitions (the site mutex), either observe q done / in my
		// queue (no action needed) or leave q the duty of signalling
		// my successor.
		g.procSites.At(Word(q)).Visit(p, func() {
			if p.Read(c.active[q]) != 0 && p.Read(c.queueID[q]) != qidQueue0+Word(st.idx) {
				p.Write(g.delegate[q], queueKey(st.idx, st.self)+1)
				delegated = true
			}
		})
	})
	if !delegated {
		fire(st.idx, st.self) // 41–45: signal the successor in my queue
	}
	// 46–50: go inactive, possibly releasing an exit-section waiter —
	// and fire any successor signal delegated to us.
	g.signalSelfSite(p, slot, func() {
		p.Write(c.active[slot], 0) // 47
	}, fire)
}

// signalSuccessor performs Fig. 3 lines 41–45 for the given queue and
// fetch-and-φ value — by the owning process, or by a delegate under
// the handshake extension.
func (g *GDSM) signalSuccessor(p *memsim.Proc, idx int, self Word) {
	sig := g.core.signal[idx].At(self)
	g.queueSite.At(queueKey(idx, self)).Signal(p, func() {
		p.Write(sig, 1) // 42
	})
}

// signalSelfSite runs one of the two establishing writes on process
// me's own site (Fig. 3 lines 4–8 and 46–50) and, under the handshake
// extension, drains a pending delegation: the establishment that makes
// the exit-waiter's condition true is exactly the moment the delegated
// successor signal becomes ours to fire.
func (g *GDSM) signalSelfSite(p *memsim.Proc, me int, establish func(), fire successor) {
	var duty Word
	g.procSites.At(Word(me)).Signal(p, func() {
		establish()
		if g.delegate != nil {
			duty = p.Read(g.delegate[me])
			if duty != 0 {
				p.Write(g.delegate[me], 0)
			}
		}
	})
	if duty != 0 {
		k := duty - 1
		fire(int(k&1), k>>1)
	}
}
