// Package memsim simulates a shared-memory multiprocessor at the
// granularity the RMR (remote-memory-references) time measure is
// defined over: one atomic shared-memory operation per scheduling step.
//
// The simulator supports the two architecture classes of the paper:
//
//   - CC (cache-coherent): variable locality is dynamic. A read hits
//     for free if the process holds a valid cached copy, otherwise it
//     costs one RMR and installs a copy. A write (or atomic
//     read-modify-write) is free only if the writer is the sole holder
//     of the line; otherwise it costs one RMR and invalidates all other
//     copies (write-invalidate protocol).
//
//   - DSM (distributed shared memory, no coherent caches): variable
//     locality is static. Each variable lives in exactly one process's
//     memory module (or in no process's, for HomeGlobal); an access is
//     free iff the accessor is the variable's home process.
//
// Simulated processes are cooperatively scheduled goroutines. Every
// Read, Write, RMW and Await re-check is a scheduling point, so a
// Scheduler fully determines the interleaving; runs are reproducible
// and can be explored systematically (see Explorer). Busy-waiting is
// expressed as condition waits over explicit watch sets, which lets the
// engine (a) suspend spinners instead of burning steps and (b) charge
// exactly one RMR per re-check that misses — the same accounting the
// paper's analyses use for spin loops.
package memsim

import (
	"fmt"
	"os"
	"sort"

	"fetchphi/internal/phi"
)

// varTrace names a variable whose writes and RMWs are printed (debug;
// set VAR_TRACE=<name>).
var varTrace = os.Getenv("VAR_TRACE")

// Word is the machine word; re-exported from phi so algorithm code only
// needs one import for values.
type Word = phi.Word

// Model selects the memory architecture being simulated.
type Model int

// The architecture classes: the paper's two (write-invalidate CC and
// DSM), plus a write-update CC variant for model-sensitivity
// ablations.
const (
	// CC is a cache-coherent machine with a write-invalidate
	// protocol: a write purges all other cached copies, so every
	// spinning reader pays one RMR per update of its spin variable.
	// This is the model the paper's CC analyses assume.
	CC Model = iota
	// DSM is a distributed shared-memory machine without coherent
	// caches.
	DSM
	// CCUpdate is a cache-coherent machine with a write-update
	// protocol: a write refreshes other cached copies in place, so a
	// reader misses at most once per variable and spin re-checks are
	// free; the writer pays one RMR whenever anyone else holds a
	// copy. Asymptotic RMR classes are generally unchanged, but
	// constants shift from readers to writers (ablation E8e).
	CCUpdate
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case CC:
		return "CC"
	case DSM:
		return "DSM"
	case CCUpdate:
		return "CC-update"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// HomeGlobal marks a variable that is remote to every process on a DSM
// machine (e.g. a centralized lock word).
const HomeGlobal = -1

// Var is a handle to a simulated shared variable. The zero Var is
// invalid.
type Var struct{ idx int32 }

// IsZero reports whether v is the invalid zero handle.
func (v Var) IsZero() bool { return v.idx == 0 }

// watchEntry subscribes one process's current await (identified by its
// epoch) to writes on a variable. Entries from completed awaits are
// ignored when the variable is written.
type watchEntry struct {
	p     *Proc
	epoch uint64
}

// variable is the engine-side state of one shared variable.
type variable struct {
	name     string
	home     int // process id, or HomeGlobal
	value    Word
	sharers  bitset // CC: processes holding a valid cached copy
	watchers []watchEntry
	rmrs     int64 // remote references charged against this variable
}

// Machine is one simulated multiprocessor instance. A Machine is built
// (variables allocated, processes added), run exactly once, and then
// inspected. It is not safe for concurrent use by multiple host
// goroutines; the engine coordinates its own process goroutines.
type Machine struct {
	model Model
	nproc int

	vars  []*variable // 1-based; vars[0] unused
	procs []*Proc

	steps      int64
	maxSteps   int64
	csOccupant int // process id in critical section, or -1
	csEntries  int64

	violation  error
	running    *Proc       // process currently between resume and report
	trace      *traceRing  // nil unless EnableTrace was called
	sinks      []EventSink // observers of every shared-memory operation
	phaseSinks []PhaseSink // the subset of sinks observing phase transitions

	abortPoints []AbortPoint // adversary abort schedule (see abort.go)
}

// NewMachine returns a machine with the given memory model, sized for
// nproc processes (process ids 0..nproc-1 are valid variable homes).
func NewMachine(model Model, nproc int) *Machine {
	if nproc <= 0 {
		panic(fmt.Sprintf("memsim: nproc must be positive, got %d", nproc))
	}
	return &Machine{
		model:      model,
		nproc:      nproc,
		vars:       make([]*variable, 1, 64), // index 0 reserved as invalid
		csOccupant: -1,
	}
}

// Model returns the machine's memory model.
func (m *Machine) Model() Model { return m.model }

// NumProcs returns the number of processes the machine was sized for.
func (m *Machine) NumProcs() int { return m.nproc }

// NewVar allocates a shared variable initialized to init. On a DSM
// machine the variable is placed in process home's memory module; pass
// HomeGlobal for a variable remote to everyone. The home is ignored on
// CC machines (locality there is dynamic).
func (m *Machine) NewVar(name string, home int, init Word) Var {
	if home != HomeGlobal && (home < 0 || home >= m.nproc) {
		panic(fmt.Sprintf("memsim: variable %q: invalid home %d", name, home))
	}
	m.vars = append(m.vars, &variable{
		name:    name,
		home:    home,
		value:   init,
		sharers: newBitset(m.nproc),
	})
	return Var{idx: int32(len(m.vars) - 1)}
}

// NewArray allocates n variables name[0..n-1], all with the same home.
func (m *Machine) NewArray(name string, n, home int, init Word) []Var {
	vs := make([]Var, n)
	for i := range vs {
		vs[i] = m.NewVar(fmt.Sprintf("%s[%d]", name, i), home, init)
	}
	return vs
}

// NewPerProcArray allocates one variable per process, variable i homed
// at process i — the layout used for dedicated spin variables on DSM
// machines.
func (m *Machine) NewPerProcArray(name string, init Word) []Var {
	vs := make([]Var, m.nproc)
	for i := range vs {
		vs[i] = m.NewVar(fmt.Sprintf("%s[%d]", name, i), i, init)
	}
	return vs
}

// Value returns the current value of v. It is intended for inspection
// after a run (or from test code between runs); it performs no RMR
// accounting.
func (m *Machine) Value(v Var) Word { return m.varAt(v).value }

// StepsSoFar returns the number of scheduling points executed so far
// (instrumentation; no simulated cost).
func (m *Machine) StepsSoFar() int64 { return m.steps }

// CSEntriesSoFar returns the number of critical-section entries
// recorded so far. Process bodies may call it between operations (it is
// instrumentation, not a simulated memory access) to compute fairness
// metrics such as bypass counts.
func (m *Machine) CSEntriesSoFar() int64 { return m.csEntries }

func (m *Machine) varAt(v Var) *variable {
	if v.idx <= 0 || int(v.idx) >= len(m.vars) {
		panic("memsim: invalid Var handle")
	}
	return m.vars[v.idx]
}

// chargeRMR charges one remote memory reference by p against vv, with
// per-phase attribution.
func (m *Machine) chargeRMR(p *Proc, vv *variable) {
	p.stats.RMRs++
	p.stats.PhaseRMRs[p.phase]++
	vv.rmrs++
}

// doRead performs the memory-system side of a read by p and returns
// the value, charging RMRs per the model.
func (m *Machine) doRead(p *Proc, v Var, spinning bool) Word {
	vv := m.varAt(v)
	// Snapshot the RMR counter only when sinks are attached, so the
	// recorded event can say whether this operation was charged; with
	// no sinks the hot path stays exactly as before.
	rmrsBefore := int64(-1)
	if len(m.sinks) > 0 {
		rmrsBefore = p.stats.RMRs
	}
	switch m.model {
	case DSM:
		if vv.home != p.id {
			m.chargeRMR(p, vv)
			if spinning {
				p.stats.NonLocalSpinReads++
			}
		}
	case CC, CCUpdate:
		if !vv.sharers.has(p.id) {
			m.chargeRMR(p, vv)
			vv.sharers.add(p.id)
		}
	}
	if rmrsBefore >= 0 {
		kind := TraceRead
		if spinning {
			kind = TraceSpinRead
		}
		m.record(p, kind, vv, vv.value, vv.value, p.stats.RMRs > rmrsBefore)
	}
	return vv.value
}

// doWrite performs a write by p, charging RMRs and waking any waiters
// watching v.
func (m *Machine) doWrite(p *Proc, v Var, x Word) {
	vv := m.varAt(v)
	rmrsBefore := int64(-1)
	if len(m.sinks) > 0 {
		rmrsBefore = p.stats.RMRs
	}
	m.chargeWrite(p, vv)
	if varTrace == "*" || (varTrace != "" && vv.name == varTrace) {
		fmt.Printf("  var[%06d]: p%d writes %s: %d -> %d\n", m.steps, p.id, vv.name, vv.value, x)
	}
	old := vv.value
	vv.value = x
	if rmrsBefore >= 0 {
		m.record(p, TraceWrite, vv, old, x, p.stats.RMRs > rmrsBefore)
	}
	m.wakeWatchers(vv)
}

// doRMW atomically applies f to v on behalf of p and returns the old
// value. Its RMR cost is that of a write.
func (m *Machine) doRMW(p *Proc, v Var, f func(Word) Word) Word {
	vv := m.varAt(v)
	rmrsBefore := int64(-1)
	if len(m.sinks) > 0 {
		rmrsBefore = p.stats.RMRs
	}
	m.chargeWrite(p, vv)
	old := vv.value
	vv.value = f(old)
	if rmrsBefore >= 0 {
		m.record(p, TraceRMW, vv, old, vv.value, p.stats.RMRs > rmrsBefore)
	}
	if varTrace == "*" || (varTrace != "" && vv.name == varTrace) {
		fmt.Printf("  var[%06d]: p%d rmw %s: %d -> %d\n", m.steps, p.id, vv.name, old, vv.value)
	}
	m.wakeWatchers(vv)
	return old
}

func (m *Machine) chargeWrite(p *Proc, vv *variable) {
	switch m.model {
	case DSM:
		if vv.home != p.id {
			m.chargeRMR(p, vv)
		}
	case CC:
		if !vv.sharers.hasOnly(p.id) {
			m.chargeRMR(p, vv)
			vv.sharers.clear()
			vv.sharers.add(p.id)
		}
	case CCUpdate:
		// The write refreshes every other copy in place; it is remote
		// iff someone else holds one.
		others := vv.sharers.count
		if vv.sharers.has(p.id) {
			others--
		}
		if others > 0 {
			m.chargeRMR(p, vv)
		} else if !vv.sharers.has(p.id) {
			m.chargeRMR(p, vv) // cold miss
		}
		vv.sharers.add(p.id)
	}
}

// wakeWatchers flags every process with a live await on vv for a
// re-check.
func (m *Machine) wakeWatchers(vv *variable) {
	if len(vv.watchers) == 0 {
		return
	}
	for _, w := range vv.watchers {
		if w.p.status == statusWaiting && w.p.watchEpoch == w.epoch {
			w.p.status = statusRecheck
		}
	}
	vv.watchers = vv.watchers[:0]
}

// registerWatch subscribes p's current await to writes on each watched
// variable.
func (m *Machine) registerWatch(p *Proc) {
	for _, v := range p.watch {
		vv := m.varAt(v)
		vv.watchers = append(vv.watchers, watchEntry{p: p, epoch: p.watchEpoch})
	}
}

// VarRMR is one row of the hot-variable report.
type VarRMR struct {
	// Name is the variable's allocation name.
	Name string
	// RMRs is the number of remote references it attracted.
	RMRs int64
}

// HotVars returns the k variables that attracted the most remote
// memory references, descending — contention attribution for analyzing
// where an algorithm's RMRs actually go. Call after the run.
func (m *Machine) HotVars(k int) []VarRMR {
	out := make([]VarRMR, 0, len(m.vars))
	for _, vv := range m.vars[1:] {
		if vv.rmrs > 0 {
			out = append(out, VarRMR{Name: vv.name, RMRs: vv.rmrs})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RMRs != out[j].RMRs {
			return out[i].RMRs > out[j].RMRs
		}
		return out[i].Name < out[j].Name
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// fail records the first violation; later ones are dropped.
func (m *Machine) fail(err error) {
	if m.violation == nil {
		m.violation = err
	}
}
