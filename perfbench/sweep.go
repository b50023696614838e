package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"fetchphi/internal/claims"
	"fetchphi/internal/experiments"
	"fetchphi/internal/harness"
	"fetchphi/internal/obs"
)

// sweepConfig fixes one full claim-reproducing sweep: every simulated
// experiment of the registry (the wall-clock E9 is the native
// workload's business), run back to back with workers sweep workers
// each, then folded into fetchphi.bench/v1 artifacts under dir and
// evaluated by the claims registry. This is what cmd/report does,
// without the CLI. Each sweep writes its artifacts to a new directory
// under dir.
type sweepConfig struct {
	quick   bool
	seed    int64
	workers int
	dir     string
}

// sweepRep is what one sweep measured.
type sweepRep struct {
	wall, cpu time.Duration
	cells     int64
	// errs are the sweep's failures: experiments that aborted on a failed
	// cell, claims not reproduced and artifacts that could not be written
	// or read.
	errs       []string
	claims     int
	reproduced int
	digest     string
	// cellSteps and cellN are keyed by obs.Cell.Key (duplicate keys
	// sum their steps).
	cellSteps map[string]int64
	cellN     map[string]int
	steps     int64
	// allocs and allocBytes cover the experiments that recorded cells.
	allocs, allocBytes uint64
	expWall            map[string]time.Duration
	writeWall          time.Duration
	claimsWall         time.Duration
	spans              []span
}

// sweepSetup is the set-up a sweep pays before its timed region: the
// experiment registry, the algorithm builders and the claims registry.
func sweepSetup() []experiments.Experiment {
	_ = experiments.Algorithms()
	_ = claims.Registry()
	var sim []experiments.Experiment
	for _, e := range experiments.Registry() {
		if !e.WallClock {
			sim = append(sim, e)
		}
	}
	return sim
}

// cellKey names a sweep cell the way its artifact record does.
func cellKey(c harness.Cell) string {
	return obs.Cell{Experiment: c.Experiment, Algorithm: c.Algorithm, Model: c.Workload.Model.String(),
		N: c.Workload.N, Entries: c.Workload.Entries, Seed: c.Workload.Seed}.Key()
}

// runSweep executes one sweep; tr, when non-nil, records a span for
// the sweep, each experiment's Build, each cell (from the sweep
// engine's Progress events), the artifact write and the claims
// evaluation.
func runSweep(cfg sweepConfig, exps []experiments.Experiment, tr *tracer) sweepRep {
	rep := sweepRep{cellSteps: map[string]int64{}, cellN: map[string]int{}, expWall: map[string]time.Duration{}}
	// A fresh directory per sweep, so claims never read an artifact an
	// earlier sweep left behind.
	dir, err := os.MkdirTemp(cfg.dir, "sweep-")
	if err != nil {
		rep.errs = append(rep.errs, err.Error())
		return rep
	}
	t0, c0 := time.Now(), cpuTime()
	root := tr.begin("bench", "sweep", -1)
	arts := make([]*obs.Artifact, 0, len(exps))
	for _, e := range exps {
		art := &obs.Artifact{
			Experiment: e.ID,
			CreatedBy:  "perfbench",
			Params:     obs.Params{Quick: cfg.quick, Seed: cfg.seed, Workers: cfg.workers},
		}
		opts := experiments.Opts{
			Quick: cfg.quick, Seed: cfg.seed, Workers: cfg.workers,
			Record: func(c obs.Cell) { art.Cells = append(art.Cells, c) },
		}
		id := tr.begin("experiments", e.ID, root)
		if tr != nil {
			opts.Progress = cellSpans(tr, id)
		}
		a0 := readAllocs()
		start := time.Now()
		tables, err := buildExperiment(e, opts)
		rep.expWall[e.ID] = time.Since(start)
		a1 := readAllocs()
		tr.end(id)
		if err != nil {
			rep.errs = append(rep.errs, err.Error())
			continue
		}
		if len(art.Cells) > 0 {
			rep.allocs += a1.objects - a0.objects
			rep.allocBytes += a1.bytes - a0.bytes
		}
		for i := range tables {
			art.Tables = append(art.Tables, tables[i].JSON())
		}
		for _, c := range art.Cells {
			rep.cellSteps[c.Key()] += c.Steps
			rep.cellN[c.Key()] = c.N
			rep.steps += c.Steps
		}
		rep.cells += int64(len(art.Cells))
		arts = append(arts, art)
	}

	id := tr.begin("obs", "write", root)
	start := time.Now()
	for _, a := range arts {
		if err := a.WriteFile(filepath.Join(dir, obs.ArtifactName(a.Experiment))); err != nil {
			rep.errs = append(rep.errs, err.Error())
		}
	}
	rep.writeWall = time.Since(start)
	tr.end(id)

	id = tr.begin("claims", "evaluate", root)
	start = time.Now()
	bench, err := claims.LoadBenchDir(dir)
	if err != nil {
		rep.errs = append(rep.errs, err.Error())
	} else {
		for _, c := range claims.Evaluate(bench).Claims {
			rep.claims++
			if c.Verdict == claims.Reproduced {
				rep.reproduced++
			} else {
				rep.errs = append(rep.errs, fmt.Sprintf("claim %s %s: %s", c.ID, c.Verdict, c.Measured))
			}
		}
	}
	rep.claimsWall = time.Since(start)
	tr.end(id)
	tr.end(root)
	rep.wall, rep.cpu = time.Since(t0), cpuTime()-c0
	rep.digest = digest(arts)
	rep.spans = tr.snapshot()
	return rep
}

// buildExperiment runs one experiment, turning its correctness panic
// (a failed cell) into an error.
func buildExperiment(e experiments.Experiment, o experiments.Opts) (tables []harness.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s FAILED: %v", e.ID, r)
		}
	}()
	return e.Build(o), nil
}

// cellSpans returns a sweep Progress hook recording one span per cell
// under the experiment span parent. Start and completion events of a
// cell arrive on the same worker; cells sharing a key pair up first in,
// first out, which keeps their summed duration exact.
func cellSpans(tr *tracer, parent int) harness.Progress {
	var mu sync.Mutex
	started := map[string][]time.Time{}
	return func(ev harness.ProgressEvent) {
		now := time.Now()
		k := cellKey(ev.Cell)
		mu.Lock()
		defer mu.Unlock()
		if ev.Start {
			started[k] = append(started[k], now)
			return
		}
		st := started[k]
		started[k] = st[1:]
		tr.add("harness.cell", k, parent, st[0], now)
	}
}

// digest fingerprints every simulated statistic of a sweep: each
// artifact's cells, minus the wall-clock fields, and its rendered
// tables. Artifact parameters (the worker count) and the order cells
// completed in are left out, so the digest depends on the seed alone.
func digest(arts []*obs.Artifact) string {
	sorted := append([]*obs.Artifact(nil), arts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Experiment < sorted[j].Experiment })
	h := sha256.New()
	for _, a := range sorted {
		cells := make([][]byte, 0, len(a.Cells))
		for _, c := range a.Cells {
			c.WallClock, c.NsPerOp = false, 0
			b, err := json.Marshal(c)
			if err != nil {
				panic(err) // obs.Cell always marshals
			}
			cells = append(cells, b)
		}
		sort.Slice(cells, func(i, j int) bool { return bytes.Compare(cells[i], cells[j]) < 0 })
		tables, err := json.Marshal(a.Tables)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(h, "%s\n", a.Experiment)
		for _, b := range cells {
			h.Write(b)
			h.Write([]byte{'\n'})
		}
		h.Write(tables)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

type allocCount struct{ objects, bytes uint64 }

// readAllocs reads the cumulative heap allocation counters.
func readAllocs() allocCount {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return allocCount{objects: s[0].Value.Uint64(), bytes: s[1].Value.Uint64()}
}

// sweepWorkload runs full sweeps for cfg.seconds at the experiments
// seed perfbench/metrics.json selects for cfg.seed. Every sweep must
// record the digest metrics.json holds for that seed and reproduce
// every claim.
func sweepWorkload(cfg config) result {
	var exps []experiments.Experiment
	setup := timeSetup(func() { exps = sweepSetup() })
	runtime.GC() // start the timed region without set-up garbage
	cat := loadCatalog()
	seed := cat.sweepSeed(cfg.seed)
	sc := sweepConfig{seed: seed, workers: cfg.workers, dir: cfg.dir}
	var plain, traced []sweepRep
	heap := startHeapSampler()
	repeat(cfg, func(tr *tracer) {
		r := runSweep(sc, exps, tr)
		fmt.Fprintf(cfg.out, "sweep: wall %.3fs cpu %.3fs traced %v\n", r.wall.Seconds(), r.cpu.Seconds(), tr != nil)
		for _, e := range r.errs {
			fmt.Fprintf(cfg.out, "sweep: %s\n", e)
		}
		if tr == nil {
			plain = append(plain, r)
		} else {
			traced = append(traced, r)
		}
	})
	heapMB, heapPeakMB := heap.stop()

	var res result
	want := cat.SweepDigests[fmt.Sprint(seed)]
	for _, r := range append(append([]sweepRep(nil), plain...), traced...) {
		res.attempted += r.cells + int64(r.claims) + 1 // +1: the digest check
		res.failed += int64(len(r.errs))
		if r.digest != want {
			fmt.Fprintf(cfg.out, "sweep: digest %s, want %s\n", r.digest, want)
			res.failed++
		}
	}
	p := plain[0]
	fmt.Fprintf(cfg.out, "sweep: seed %d (experiments seed %d), %d sweeps, %d cells, %d steps, %d/%d claims reproduced, digest %s\n",
		cfg.seed, seed, len(plain)+len(traced), p.cells, p.steps, p.reproduced, p.claims, p.digest)

	var walls, cpus []float64
	for _, r := range plain {
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
	}
	if !cfg.traced {
		res.metrics = map[string]float64{"setup_s": setup, "wall_s": median(walls),
			"cpu_s": median(cpus), "heap_mb": heapMB}
		return res
	}

	t := traced[0]
	m := map[string]float64{"heap.peak_mb": heapPeakMB}
	var tracedWalls []float64
	for _, r := range traced {
		tracedWalls = append(tracedWalls, r.wall.Seconds())
	}
	if err := traceMetrics(m, t.spans, tracedWalls, walls); err != nil {
		fmt.Fprintf(cfg.out, "sweep: trace: %v\n", err)
		res.failed++
	}
	busy := map[string]time.Duration{}
	var cellMS []float64
	var total time.Duration
	for _, s := range t.spans {
		if s.layer == "harness.cell" {
			busy[s.name] += s.end - s.start
			cellMS = append(cellMS, float64(s.end-s.start)/1e6)
			total += s.end - s.start
		}
	}
	perStep := func(keep func(n int) bool) float64 {
		var ns, steps float64
		for k, d := range busy {
			if keep(t.cellN[k]) {
				ns += float64(d)
				steps += float64(t.cellSteps[k])
			}
		}
		if steps == 0 {
			return 0
		}
		return ns / steps
	}
	m["memsim.steps"] = float64(t.steps)
	m["memsim.ns_per_step"] = perStep(func(int) bool { return true })
	m["memsim.ns_per_step.small_n"] = perStep(func(n int) bool { return n <= 8 })
	m["memsim.ns_per_step.large_n"] = perStep(func(n int) bool { return n >= 64 })
	m["memsim.allocs_per_step"] = float64(p.allocs) / float64(p.steps)
	m["memsim.bytes_per_step"] = float64(p.allocBytes) / float64(p.steps)
	m["harness.cells"] = float64(t.cells)
	m["harness.cell_ms.p50"] = percentile(cellMS, 50)
	m["harness.cell_ms.max"] = percentile(cellMS, 100)
	m["sweep.idle_share"] = idleShare(total, cfg.workers, t.wall)
	m["sweep.sim_steps_per_s"] = float64(p.steps) / median(walls)
	for id, d := range p.expWall {
		m["experiments."+id+"_s"] = d.Seconds()
	}
	m["obs.write_ms"] = float64(p.writeWall) / 1e6
	m["claims.eval_ms"] = float64(p.claimsWall) / 1e6
	m["claims.reproduced"] = float64(t.reproduced)
	res.metrics = m
	return res
}
