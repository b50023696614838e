package core

import (
	"fmt"

	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
	"fetchphi/internal/twoproc"
)

// Queue-id encoding for the QueueId array: ⊥, queue 0, queue 1.
const (
	qidBottom Word = 0
	qidQueue0 Word = 1
)

// queueCore is the two-queue structure that G-CC, G-DSM and abortable
// G-DSM share. Two waiting queues, each with a tail pointer updated by
// the fetch-and-φ primitive, are switched over time so that neither
// tail is ever hit by more than 2N invocations between resets; the
// heads of the two queues are arbitrated by a two-process mutex. The
// algorithms built on it differ only in how they wait and signal.
//
// Its methods name the receiver g: the checked-in lint baseline
// records G-CC's exit busy-wait by its watch expressions, g.active[q]
// and g.queueID[q].
type queueCore struct {
	m     *memsim.Machine
	prim  phi.Primitive
	slots int

	currentQueue memsim.Var
	tail         [2]memsim.Var
	position     [2]memsim.Var
	signal       [2]*memsim.Dict // Signal[j] keyed by fetch-and-φ value
	active       []memsim.Var    // Active[slot]
	queueID      []memsim.Var    // QueueId[slot]
	two          *twoproc.Mutex

	// skipStaleClear disables the stale-signal completion in
	// exchangeQueues — the E8a ablation that demonstrates why the
	// printed algorithm needs it.
	skipStaleClear bool

	// posFromPrev enables the fetch-and-increment specialization the
	// paper's conclusion hints at ("by exploiting the semantics of a
	// particular primitive, our algorithms could be optimized
	// considerably"): with fetch-and-increment, the k-th enqueuer of
	// a generation receives exactly k−1 from the tail, which IS its
	// queue position — so the shared Position counters (a read and a
	// write per exit, on a contended line) vanish.
	posFromPrev bool

	st []gccState
}

// gccState is slot-private state carried from Acquire to Release. (At
// the top level each process owns one slot; inside an arbitration-tree
// node the processes of one subtree share a slot, one at a time.)
type gccState struct {
	inv  *phi.Invoker
	idx  int  // queue joined by the last Acquire
	self Word // value the last Acquire wrote to the tail
	prev Word // value the last Acquire received from the tail
}

// newQueueCore checks that prim's rank covers the 2·slots invocations
// a tail takes between resets (alg names the algorithm in the panic)
// and allocates the queues under name. It leaves two nil: the caller
// allocates it next, after any variables of its own that precede it.
func newQueueCore(m *memsim.Machine, prim phi.Primitive, slots int, name, alg string) *queueCore {
	if r := prim.Rank(); r < 2*slots {
		panic(fmt.Sprintf("core: %s needs rank >= 2N = %d, but %s has rank %d", alg, 2*slots, prim.Name(), r))
	}
	c := &queueCore{
		m:            m,
		prim:         prim,
		slots:        slots,
		currentQueue: m.NewVar(name+".CurrentQueue", memsim.HomeGlobal, 0),
		tail: [2]memsim.Var{
			m.NewVar(name+".Tail[0]", memsim.HomeGlobal, phi.Bottom),
			m.NewVar(name+".Tail[1]", memsim.HomeGlobal, phi.Bottom),
		},
		position: [2]memsim.Var{
			m.NewVar(name+".Position[0]", memsim.HomeGlobal, 0),
			m.NewVar(name+".Position[1]", memsim.HomeGlobal, 0),
		},
		signal: [2]*memsim.Dict{
			m.NewDict(name+".Signal[0]", memsim.HomeGlobal, 0),
			m.NewDict(name+".Signal[1]", memsim.HomeGlobal, 0),
		},
		active:  m.NewArray(name+".Active", slots, memsim.HomeGlobal, 0),
		queueID: m.NewArray(name+".QueueId", slots, memsim.HomeGlobal, qidBottom),
		st:      make([]gccState, slots),
	}
	for s := 0; s < slots; s++ {
		c.st[s].inv = phi.NewInvoker(prim, s)
	}
	return c
}

// begin opens slot's entry section (lines 1–3 of Figs. 2 and 3): leave
// every queue, turn active, and return the current queue's index.
func (g *queueCore) begin(p *memsim.Proc, slot int) int {
	p.Write(g.queueID[slot], qidBottom)
	p.Write(g.active[slot], 1)
	return int(p.Read(g.currentQueue))
}

// enqueue is the fetch-and-φ step (Fig. 2 lines 5–7, Fig. 3 lines
// 9–11): slot joins queue idx and gets back its predecessor's value,
// ⊥ at the head of a generation. The joined queue and both values are
// kept in the slot's private state for the exit section.
func (g *queueCore) enqueue(p *memsim.Proc, slot, idx int) (prev Word) {
	st := &g.st[slot]
	input := st.inv.UpdateInput()
	prev = p.FetchPhi(g.tail[idx], g.prim, input)
	st.idx, st.self, st.prev = idx, g.prim.Apply(prev, input), prev
	return prev
}

// nextPosition is the exit section's position step (Fig. 2 lines
// 12–13, Fig. 3 lines 23–24): slot's position in its queue, counting
// from 0. Only the queue's baton holder runs it.
func (g *queueCore) nextPosition(p *memsim.Proc, slot int) Word {
	st := &g.st[slot]
	if g.posFromPrev {
		return st.prev // the fetch value is the position, by f&i semantics
	}
	pos := p.Read(g.position[st.idx])
	p.Write(g.position[st.idx], pos+1)
	return pos
}

// sweep is the exit section's position case (Fig. 2 lines 15–22, Fig.
// 3 lines 26–40). The exit at position q < N must not let its queue run
// on while slot q may still be executing in the old queue, so it
// awaits q's departure: await(q) when given — G-DSM's transformed
// wait or delegation — and otherwise G-CC's plain busy-wait. The exit
// at position N exchanges the queues.
func (g *queueCore) sweep(p *memsim.Proc, slot int, pos Word, await func(q int)) {
	idx := g.st[slot].idx
	switch {
	case pos < Word(g.slots) && pos != Word(slot) && p.Read(g.active[pos]) != 0:
		q := int(pos)
		if await != nil {
			await(q)
			return
		}
		p.Await(func(read func(memsim.Var) Word) bool {
			return read(g.active[q]) == 0 || read(g.queueID[q]) == qidQueue0+Word(idx)
		}, g.active[q], g.queueID[q])
	case pos == Word(g.slots):
		g.exchangeQueues(p, idx)
	}
}

// exchangeQueues resets the old queue and makes it current (Fig. 2,
// lines 20–22; Fig. 3, lines 38–40). Invariant (I1) guarantees the old
// queue is empty here.
//
// Completion of the printed algorithm: the last enqueuer of the old
// queue's ended generation set Signal[1−idx][self] with no successor to
// consume it; that value is exactly the old tail's current value. If
// left set, a process in a LATER generation of that queue that obtains
// the same fetch-and-φ value as its predecessor's self (values may
// recur once the tail is reset to ⊥) would skip waiting and break the
// queue discipline. We clear the single stale key before resetting the
// tail; this costs O(1) reads/writes and is safe precisely because of
// (I1). In abortable G-DSM the same clear covers the signal a marker
// relay can establish at the tail after its waiter withdrew. See
// DESIGN.md, "Deviations".
func (g *queueCore) exchangeQueues(p *memsim.Proc, idx int) {
	old := 1 - idx
	g.assertOldQueueEmpty(p, old)
	if !g.skipStaleClear {
		if last := p.Read(g.tail[old]); last != phi.Bottom {
			p.Write(g.signal[old].At(last), 0)
		}
	}
	p.Write(g.tail[old], phi.Bottom) // 20
	if !g.posFromPrev {
		p.Write(g.position[old], 0) // 21; implicit in the tail reset otherwise
	}
	p.Write(g.currentQueue, Word(old)) // 22
}

// assertOldQueueEmpty checks the paper's invariant (I1) at the moment
// it is needed: when the process at position N exchanges the queues,
// no slot may still be executing in the old queue. The check inspects
// machine state host-side (no simulated cost) and turns a violated
// invariant into an immediate, attributable failure instead of silent
// downstream corruption.
func (g *queueCore) assertOldQueueEmpty(p *memsim.Proc, old int) {
	for slot := 0; slot < g.slots; slot++ {
		if g.m.Value(g.active[slot]) != 0 && g.m.Value(g.queueID[slot]) == qidQueue0+Word(old) {
			p.Fail("core: invariant I1 violated: slot %d still active in old queue %d at exchange", slot, old)
		}
	}
}
