package core

import (
	"fmt"

	"fetchphi/internal/memsim"
)

// T0 is Algorithm T0 (Fig. 6): the Θ(log N / log log N) arbitration
// tree over Node_Type objects. The tree has degree m = √(log N), so
// its height is Θ(log N / log log N); a process that fails to win a
// node is promoted through the shared promotion skeleton. Each node is
// one Node_Type word (Fig. 5).
type T0 struct {
	tree *promotion
	lock [][]memsim.Var // lock[lev][idx]; lev is 1-based
}

// NewT0 builds Algorithm T0 with the paper's degree m = √(log₂ N).
func NewT0(m *memsim.Machine) *T0 {
	return NewT0WithDegree(m, defaultDegree(m.NumProcs()))
}

// NewT0WithDegree builds Algorithm T0 with an explicit tree degree
// (the E8c ablation sweeps this).
func NewT0WithDegree(m *memsim.Machine, degree int) *T0 {
	if degree < 2 {
		panic(fmt.Sprintf("core: T0 degree must be >= 2, got %d", degree))
	}
	tree, widths := newPromotion(m, "t0", degree)
	// Reverse the leaves-first widths into 1-based lock[lev] with the
	// root at lev 1.
	t := &T0{tree: tree, lock: make([][]memsim.Var, tree.maxLevel+1)}
	for i, w := range widths {
		level := make([]memsim.Var, w)
		for j := range level {
			level[j] = m.NewVar(fmt.Sprintf("t0.Lock[%d.%d]", i, j), memsim.HomeGlobal, 0)
		}
		t.lock[tree.maxLevel-i] = level
	}
	return t
}

// Name implements harness.Algorithm.
func (t *T0) Name() string { return fmt.Sprintf("t0(m=%d)", t.tree.degree) }

// MaxLevel returns the tree height (Θ(log N / log log N) at the
// paper's degree).
func (t *T0) MaxLevel() int { return t.tree.maxLevel }

// node returns the lock variable on p's path at the given level.
func (t *T0) node(id, lev int) memsim.Var {
	return t.lock[lev][t.tree.nodeIndex(id, lev)]
}

// Acquire implements the entry section (Fig. 6, lines 1–13).
func (t *T0) Acquire(p *memsim.Proc) {
	me, tree := p.ID(), t.tree
	tree.enter(p)                                   // 1–2
	acquireNode(p, t.node(me, tree.maxLevel))       // 3: the leaf, always WINNER
	for lev := tree.maxLevel - 1; lev >= 1; lev-- { // 4
		if acquireNode(p, t.node(me, lev)) != Winner { // 5–6
			tree.park(p, lev) // 7–10: wait until promoted
			return
		}
	}
	tree.setInTreeFalse(p) // 11
	tree.breakLevel[me] = 0
	tree.two.Acquire(p, 0) // 12–13: normal entry
}

// Release implements the exit section (Fig. 6, lines 14–41).
func (t *T0) Release(p *memsim.Proc) {
	me, tree := p.ID(), t.tree
	breakLevel := tree.beginExit(p) // 14–18
	if breakLevel != 0 {
		n := t.node(me, breakLevel)                // 19
		if lk := p.Read(n); nodeWaiter(lk) == me { // 20: I am the primary waiter
			q := nodeWinner(lk)       // 21
			tree.awaitNotInTree(p, q) // 22
			// 23 — deviation from the printed Fig. 6, which resets
			// the node to (⊥, ⊥) here. Reopening the node before the
			// winner q finished its CRITICAL SECTION (¬InTree only
			// says q left the tree) would let a new root winner
			// collide with q on side 0 of the final two-process
			// mutex. Instead we only unregister ourselves, writing
			// (q, ⊥); q's own exit performs the actual release, and
			// a waiter that registers in between is handled by q's
			// FAIL path. See DESIGN.md, "Deviations".
			p.Write(n, encodeNode(q, -1))
			tree.wq.Enqueue(p, q) // 24
		}
		// 25–27: enqueue the winner of every child of n (secondary
		// waiters hold some child; over-approximation is corrected
		// by each process removing itself at line 35).
		t.forEachChild(me, breakLevel, func(child memsim.Var) {
			if q := nodeWinner(p.Read(child)); q >= 0 {
				tree.wq.Enqueue(p, q)
			}
		})
	}
	// 28–33: reopen every node acquired on the way up.
	for lev := breakLevel + 1; lev <= tree.maxLevel-1; lev++ {
		n := t.node(me, lev)
		if nodeWinner(p.Read(n)) == me { // 30
			if !releaseNode(p, n) { // 31: FAIL — a primary waiter arrived
				if w := nodeWaiter(p.Read(n)); w >= 0 { // 32
					tree.wq.Enqueue(p, w)
				}
				p.Write(n, 0) // 33: reopen with an ordinary write
			}
		}
	}
	releaseNode(p, t.node(me, tree.maxLevel)) // 34: reset the leaf
	tree.finishExit(p)                        // 35–41
}

// forEachChild visits the lock variables of every existing child of
// the node on p's path at the given level.
func (t *T0) forEachChild(id, lev int, visit func(memsim.Var)) {
	if lev >= t.tree.maxLevel {
		return // leaves have no children
	}
	base := t.tree.nodeIndex(id, lev) * t.tree.degree
	childLevel := t.lock[lev+1]
	for i := 0; i < t.tree.degree; i++ {
		if base+i < len(childLevel) {
			visit(childLevel[base+i])
		}
	}
}
