package core

import (
	"fmt"

	"fetchphi/internal/localspin"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
	"fetchphi/internal/twoproc"
)

// This file adds abortable mutual exclusion on top of the paper's
// machinery, in the direction of Jayanti & Jayanti's constant-
// amortized-RMR deterministic abortable mutex: a process may withdraw
// its request while still in the entry section, withdrawal is
// wait-free (a bounded number of the withdrawer's own steps), and the
// honest cost metric becomes AMORTIZED RMR per passage, where a
// passage is a request that either entered the critical section or
// withdrew.
//
// Both algorithms here use the same queue-unwinding idea, the
// ABORT-MARKER RELAY: a waiter that withdraws cannot excise its queue
// node (fetch-and-φ tails are append-only), so instead it deregisters
// from its wait site and leaves a marker at that site — written
// atomically with the establisher via the site's two-process lock —
// naming the site where ITS successor waits. A releaser that finds a
// marker does not establish the signal (nobody will consume it);
// it follows the marker and releases the successor's site instead,
// repeating until it finds a live waiter or the end of the queue.
// Every relay hop consumes one marker and every marker was paid for by
// one abort, so total relay work is bounded by total aborts: each
// passage, completed or withdrawn, costs O(1) amortized RMR on both
// CC and DSM machines.

// markerRelay is one family of relayed waits: a waiter on value v
// spins at Sec. 3 site siteKey(v) until signal[v] is established, and
// a waiter that withdraws leaves mark[v] naming the value its own
// successor waits on. TokenAbortable has one family, GDSMAbortable one
// per queue.
type markerRelay struct {
	sites        *localspin.SiteSet
	signal, mark *memsim.Dict
	siteKey      func(v Word) Word
}

// wait blocks until signal[prev] is established and reports false, or
// withdraws on an abort request and reports true, leaving the marker
// that sends the baton on to self.
func (r markerRelay) wait(p *memsim.Proc, prev, self Word) (withdrew bool) {
	sig := r.signal.At(prev)
	return r.sites.At(r.siteKey(prev)).WaitAbortable(p,
		func(read func(memsim.Var) Word) bool { return read(sig) != 0 },
		func() { p.Write(r.mark.At(prev), self) },
	)
}

// release establishes signal[v]; if the waiter on v withdrew (marker
// present), the signal is skipped — it would never be consumed — and
// the baton follows the marker to the withdrawn waiter's own value,
// until a live waiter or the end of the queue. Marker reads and signal
// establishment happen inside the site's Signal critical section,
// mutually exclusive with the withdrawer's marker write, so exactly
// one of the two sides observes the other.
func (r markerRelay) release(p *memsim.Proc, v Word) {
	for {
		var marker Word
		sig := r.signal.At(v)
		r.sites.At(r.siteKey(v)).Signal(p, func() {
			marker = p.Read(r.mark.At(v))
			if marker != 0 {
				p.Write(r.mark.At(v), 0)
			} else {
				p.Write(sig, 1)
			}
		})
		if marker == 0 {
			return
		}
		v = marker
	}
}

// ---------------------------------------------------------------------
// TokenAbortable: the Jayanti-style constant-amortized-RMR baseline.
// ---------------------------------------------------------------------

// TokenAbortable is a token-FIFO abortable lock built directly on the
// abort-marker relay. Every request draws a globally unique token t
// (encoded (process, round)) and swaps it into the tail, learning its
// predecessor's token; it then waits — through a Sec. 3 site, so the
// spin is local on DSM — for Grant[prev] to be established. A released
// or withdrawn request hands the baton on by establishing Grant of its
// own token, following markers across withdrawn requests.
//
// Tokens are never reused, so grants persist harmlessly and no signal
// consumption or reset is needed; the unbounded Grant/Mark families
// mirror the paper's own use of variables indexed by unbounded
// fetch-and-φ values. Entry, exit, and withdrawal are each O(1)
// operations apart from the relay loop, whose total length is bounded
// by the number of withdrawals — O(1) amortized RMR per passage on CC
// and DSM.
//
//fetchphilint:rmr O(1) amortized: relay hops are prepaid one-for-one by aborts
type TokenAbortable struct {
	nproc int

	tail  memsim.Var  // last token swapped in; 0 = never used
	relay markerRelay // Grant[t], Mark[t] and one site per awaited token

	rounds []Word // private per-process token counters
	held   []Word // private: token of each process's open acquisition
}

// NewTokenAbortable builds an instance for m's N processes.
func NewTokenAbortable(m *memsim.Machine) *TokenAbortable {
	n := m.NumProcs()
	return &TokenAbortable{
		nproc: n,
		tail:  m.NewVar("token.Tail", memsim.HomeGlobal, 0),
		relay: markerRelay{
			signal:  m.NewDict("token.Grant", memsim.HomeGlobal, 0),
			mark:    m.NewDict("token.Mark", memsim.HomeGlobal, 0),
			sites:   localspin.NewSiteSet(m, "token.W"),
			siteKey: func(t Word) Word { return t },
		},
		rounds: make([]Word, n),
		held:   make([]Word, n),
	}
}

// Name implements harness.Algorithm.
func (l *TokenAbortable) Name() string { return "token-abortable/fetch-and-store" }

// token draws the next unique nonzero token for p.
func (l *TokenAbortable) token(p *memsim.Proc) Word {
	t := l.rounds[p.ID()]*Word(l.nproc) + Word(p.ID()) + 1
	l.rounds[p.ID()]++
	return t
}

// Acquire implements the non-abortable entry section.
func (l *TokenAbortable) Acquire(p *memsim.Proc) {
	if !l.AcquireAbortable(p) {
		p.Fail("core: %s withdrew with no abort scheduled", l.Name())
	}
}

// AcquireAbortable implements the abortable entry section.
func (l *TokenAbortable) AcquireAbortable(p *memsim.Proc) bool {
	if p.AbortRequested() {
		return false // not yet enqueued: withdrawing is free
	}
	t := l.token(p)
	prev := p.FetchPhi(l.tail, phi.FetchAndStore{}, t)
	if prev != 0 && l.relay.wait(p, prev, t) {
		return false
	}
	l.held[p.ID()] = t
	return true
}

// Release implements the exit section: establish the grant for our own
// token, relaying across markers left by withdrawn successors.
func (l *TokenAbortable) Release(p *memsim.Proc) {
	l.relay.release(p, l.held[p.ID()])
}

// ---------------------------------------------------------------------
// GDSMAbortable: Algorithm G-DSM with queue-node unwinding.
// ---------------------------------------------------------------------

// GDSMAbortable is the abortable variant of Algorithm G-DSM: the same
// two-generation queue structure (fetch-and-φ tails, Sec. 3 transformed
// waits, two-process arbitration between queues) with three abort
// windows wired through the marker relay:
//
//   - before enqueueing: the request withdraws by re-announcing
//     inactivity through its own process site — it never held a queue
//     node, so nothing is unwound;
//   - while awaiting the predecessor's signal: the request deregisters
//     from the queue site and leaves a marker naming its own node, so
//     the baton skips it (the relay replaces Fig. 3's lines 41–45);
//   - while awaiting the two-process lock: the inner acquisition is
//     abandoned (twoproc.AcquireAbortable) but the request already
//     holds its queue's baton, so it performs the full exit-section
//     duties — position sweep, possible queue exchange, successor
//     relay — before going inactive. Position operations need no lock:
//     they are serialized by the baton itself.
//
// Everything else is G-DSM's: the exit section is GDSM.exit with the
// delegation handshake (the no-exit-wait extension) always on, so neither
// release nor withdrawal ever blocks on another process's progress —
// which is what keeps withdrawal wait-free and passages O(1) amortized
// RMR.
//
// Withdrawn requests make fetch-and-φ values outlive the 2N-invocation
// window the rank analysis of Theorem 1 assumes, so the construction
// requires a primitive of infinite rank (fetch-and-increment,
// fetch-and-store, ...): values never alias, and the existing
// stale-signal clear at queue exchange covers the one signal a relay
// can strand at the tail.
//
//fetchphilint:rmr O(1) amortized: Theorem 1 plus marker relays prepaid by aborts
type GDSMAbortable struct {
	gdsm *GDSM
	mark [2]*memsim.Dict // Mark[j][v]: the waiter on Signal[j][v] withdrew; relay to this value
}

// NewGDSMAbortable builds an instance for m's N processes on top of
// prim, which must have infinite rank.
func NewGDSMAbortable(m *memsim.Machine, prim phi.Primitive) *GDSMAbortable {
	if prim.Rank() != phi.RankInfinite {
		panic(fmt.Sprintf("core: abortable G-DSM needs an infinite-rank primitive, but %s has rank %d",
			prim.Name(), prim.Rank()))
	}
	n := m.NumProcs()
	name := "gdsm-abort"
	c := newQueueCore(m, prim, n, name, "abortable G-DSM")
	delegate := m.NewArray(name+".Delegate", n, memsim.HomeGlobal, 0)
	c.two = twoproc.New(m, name+".two")
	return &GDSMAbortable{
		gdsm: &GDSM{
			core:      c,
			procSites: localspin.NewSiteSet(m, name+".W1"),
			queueSite: localspin.NewSiteSet(m, name+".W2"),
			delegate:  delegate,
		},
		mark: [2]*memsim.Dict{
			m.NewDict(name+".Mark[0]", memsim.HomeGlobal, 0),
			m.NewDict(name+".Mark[1]", memsim.HomeGlobal, 0),
		},
	}
}

// relay returns queue idx's marker relay: its Signal and Mark families
// over G-DSM's queue sites.
func (a *GDSMAbortable) relay(idx int) markerRelay {
	return markerRelay{
		sites:   a.gdsm.queueSite,
		signal:  a.gdsm.core.signal[idx],
		mark:    a.mark[idx],
		siteKey: func(v Word) Word { return queueKey(idx, v) },
	}
}

// Name implements harness.Algorithm.
func (a *GDSMAbortable) Name() string { return "gdsm-abortable/" + a.gdsm.core.prim.Name() }

// Acquire implements the non-abortable entry section.
func (a *GDSMAbortable) Acquire(p *memsim.Proc) {
	if !a.AcquireAbortable(p) {
		p.Fail("core: %s withdrew with no abort scheduled", a.Name())
	}
}

// AcquireAbortable implements the abortable entry section.
func (a *GDSMAbortable) AcquireAbortable(p *memsim.Proc) bool {
	c, me := a.gdsm.core, p.ID()
	idx := a.gdsm.announce(p, me, func(idx int, self Word) { a.relay(idx).release(p, self) }) // 1–8
	if p.AbortRequested() {
		// Not yet enqueued: withdraw by going inactive.
		a.withdraw(p, me)
		return false
	}
	if prev := c.enqueue(p, me, idx); prev != phi.Bottom { // 9–12
		if a.relay(idx).wait(p, prev, c.st[me].self) {
			// Withdrawn without the baton: the node is dead, the relay
			// will step over it; nothing to unwind but our activity.
			a.withdraw(p, me)
			return false
		}
		p.Write(c.signal[idx].At(prev), 0) // 21
	}
	if !c.two.AcquireAbortable(p, idx) { // 22
		// Withdrawn holding the baton: the inner acquisition was
		// abandoned (its rival, if any, was released by the
		// abandonment), but the queue still owes its successor a
		// signal and its generation a position step. Run the full
		// exit-section duties, minus the two-process release we never
		// acquired; only the queue's baton holder touches its
		// position, so the step needs no lock.
		a.exit(p, me, c.nextPosition(p, me))
		return false
	}
	return true
}

// Release implements the exit section.
func (a *GDSMAbortable) Release(p *memsim.Proc) {
	c := a.gdsm.core
	pos := c.nextPosition(p, p.ID())   // 23–24
	c.two.Release(p, c.st[p.ID()].idx) // 25
	a.exit(p, p.ID(), pos)
}

// exit is G-DSM's exit section after the position step, with the
// successor signal relayed past withdrawn waiters.
func (a *GDSMAbortable) exit(p *memsim.Proc, me int, pos Word) {
	a.gdsm.exit(p, me, pos, func(idx int, self Word) { a.relay(idx).release(p, self) })
}

// withdraw abandons a request that holds no baton: going inactive
// through the process site both releases any exit-section waiter on
// this slot and fires a delegation registered in the meantime.
func (a *GDSMAbortable) withdraw(p *memsim.Proc, me int) {
	c := a.gdsm.core
	a.gdsm.signalSelfSite(p, me, func() {
		p.Write(c.active[me], 0)
	}, func(idx int, self Word) { a.relay(idx).release(p, self) })
}
