package core

import (
	"math"

	"fetchphi/internal/barrier"
	"fetchphi/internal/localspin"
	"fetchphi/internal/memsim"
	"fetchphi/internal/queue"
	"fetchphi/internal/twoproc"
)

// promotion is the skeleton Algorithms T0 (Fig. 6) and T (Fig. 10)
// share around their arbitration trees: a process that fails to win a
// node leaves the tree and parks on its Spin variable until an exiting
// process discovers it, puts it on the serial waiting queue, and
// promotes it straight to its critical section. Promoted and normal
// (root-winning) entries are arbitrated by a two-process mutex, and
// exit sections are serialized by a barrier so the waiting queue needs
// no synchronization of its own. The two algorithms differ only in how
// a tree node is represented and won.
type promotion struct {
	degree   int
	maxLevel int // leaves live at maxLevel, the root at 1

	spin     []memsim.Var // Spin[p], homed at p
	inTree   []memsim.Var // InTree[p], homed at p
	wq       *queue.Queue
	promoted memsim.Var // promoted process + 1, or 0
	bar      *barrier.Barrier
	two      *twoproc.Mutex

	// inTreeSites holds the Sec. 3 transformation sites for the
	// "await ¬InTree[q]" wait of the exit section (nil on CC, where
	// the plain await is already local after caching).
	inTreeSites *localspin.SiteSet

	breakLevel []int // private: level at which each process stopped
}

// defaultDegree is the paper's tree degree m = √(log₂ N), at least 2.
func defaultDegree(n int) int {
	return max(2, int(math.Round(math.Sqrt(math.Log2(float64(n)+1)))))
}

// newPromotion allocates the skeleton's variables under prefix (e.g.
// "t0.Spin") and returns it with the width of every tree level of the
// given degree, leaves first; the caller allocates the nodes.
func newPromotion(m *memsim.Machine, prefix string, degree int) (*promotion, []int) {
	n := m.NumProcs()
	s := &promotion{
		degree:     degree,
		spin:       m.NewPerProcArray(prefix+".Spin", 0),
		inTree:     m.NewPerProcArray(prefix+".InTree", 0),
		wq:         queue.New(m, prefix+".wq"),
		promoted:   m.NewVar(prefix+".Promoted", memsim.HomeGlobal, 0),
		bar:        barrier.New(m, prefix+".bar"),
		two:        twoproc.New(m, prefix+".two"),
		breakLevel: make([]int, n),
	}
	if m.Model() == memsim.DSM {
		s.inTreeSites = localspin.NewSiteSet(m, prefix+".intree")
	}
	// Each level above the N leaves groups `degree` children until a
	// single root remains.
	widths := []int{n}
	for w := n; w > 1; {
		w = (w + degree - 1) / degree
		widths = append(widths, w)
	}
	s.maxLevel = len(widths)
	return s, widths
}

// nodeIndex returns process id's node index at the given level.
func (s *promotion) nodeIndex(id, lev int) int {
	idx := id
	for l := s.maxLevel; l > lev; l-- {
		idx /= s.degree
	}
	return idx
}

// enter opens the entry section (lines 1–2 of Figs. 6 and 10).
func (s *promotion) enter(p *memsim.Proc) {
	p.Write(s.spin[p.ID()], 0)   // 1
	p.Write(s.inTree[p.ID()], 1) // 2
}

// park is the entry section's break path (lines 7–10 of Figs. 6 and
// 10) for a process that lost at level lev: leave the tree, wait until
// promoted, and enter on the promoted side of the final mutex.
func (s *promotion) park(p *memsim.Proc, lev int) {
	me := p.ID()
	s.setInTreeFalse(p)     // 7
	p.AwaitTrue(s.spin[me]) // 8
	s.breakLevel[me] = lev  // 9
	s.two.Acquire(p, 1)     // 10
}

// setInTreeFalse publishes that p stopped accessing the tree — the
// establishing write of the exit section's "await ¬InTree[q]", routed
// through the transformation site on DSM machines.
func (s *promotion) setInTreeFalse(p *memsim.Proc) {
	me := p.ID()
	if s.inTreeSites == nil {
		p.Write(s.inTree[me], 0)
		return
	}
	s.inTreeSites.At(Word(me)).Signal(p, func() { p.Write(s.inTree[me], 0) })
}

// awaitNotInTree blocks until process q has stopped accessing the
// tree (Fig. 6 line 22, Fig. 10 line 33).
func (s *promotion) awaitNotInTree(p *memsim.Proc, q int) {
	if s.inTreeSites == nil {
		p.AwaitEq(s.inTree[q], 0)
		return
	}
	s.inTreeSites.At(Word(q)).Wait(p, func(read func(memsim.Var) Word) bool {
		return read(s.inTree[q]) == 0
	})
}

// beginExit serializes exit sections and releases p's side of the
// final mutex (Fig. 6 lines 14–18, Fig. 10 lines 26–29). It returns
// the level at which p's entry stopped, 0 for a root winner.
func (s *promotion) beginExit(p *memsim.Proc) int {
	s.bar.Wait(p) // serialize exit sections
	lev := s.breakLevel[p.ID()]
	if lev == 0 {
		s.two.Release(p, 0)
	} else {
		s.two.Release(p, 1)
	}
	return lev
}

// finishExit is the exit section's tail (Fig. 6 lines 35–41, Fig. 10
// lines 60–66): leave the waiting queue, promote its head if no
// promotion is pending, and let the next exit section run.
func (s *promotion) finishExit(p *memsim.Proc) {
	me := p.ID()
	s.wq.Remove(p, me)             // 35
	q := p.Read(s.promoted)        // 36
	if q == Word(me)+1 || q == 0 { // 37
		r := s.wq.Dequeue(p) // 38
		if r >= 0 {
			p.Write(s.promoted, Word(r)+1) // 39
			p.Write(s.spin[r], 1)          // 40
		} else {
			p.Write(s.promoted, 0)
		}
	}
	s.bar.Signal(p) // 41
}
