package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fetchphi/internal/experiments"
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

// The explore workload's campaign: every schedule with at most two
// preemptions of g-dsm at N=3, two entries per process, on CC and DSM,
// each model explored by one wave worker. Exhaustive, so it takes no
// seed.
const (
	exploreAlgorithm   = "g-dsm"
	exploreN           = 3
	exploreEntries     = 2
	explorePreemptions = 2
)

var exploreModels = []memsim.Model{memsim.CC, memsim.DSM}

func exploreOptions() harness.ExploreOptions {
	return harness.ExploreOptions{Preemptions: explorePreemptions, Workers: 1, Models: exploreModels}
}

// exploreRep is what one campaign measured.
type exploreRep struct {
	wall, cpu time.Duration
	schedules int64
	// errs are the campaign's failures: a failing schedule or a model
	// left unexhausted.
	errs []string
	// steps sums every schedule's simulated steps (traced only).
	steps              int64
	allocs, allocBytes uint64
	spans              []span
}

// exploreSetup builds what a campaign needs before its timed region:
// the algorithm builder and one explorer per model.
func exploreSetup() (harness.Builder, error) {
	b, err := experiments.Algorithm(exploreAlgorithm)
	if err != nil {
		return nil, err
	}
	for _, model := range exploreModels {
		_ = harness.CheckExplorer(b, model, exploreN, exploreEntries, exploreOptions())
	}
	return b, nil
}

// runExplore runs the campaign. Untraced, it calls harness.CheckSharded
// as a user would. Traced, it builds the same explorers through
// harness.CheckExplorer, runs the models concurrently as CheckSharded
// does, and records a span per model campaign, per wave (from the
// wave-start Progress events) and per machine Build; the Check hook
// counts simulated steps.
func runExplore(b harness.Builder, tr *tracer) exploreRep {
	var rep exploreRep
	a0 := readAllocs()
	t0, c0 := time.Now(), cpuTime()
	var results []memsim.ExploreResult
	if tr == nil {
		reports, _ := harness.CheckSharded(b, exploreN, exploreEntries, exploreOptions())
		for _, r := range reports {
			results = append(results, r.Result)
		}
	} else {
		results = make([]memsim.ExploreResult, len(exploreModels))
		root := tr.begin("bench", "explore", -1)
		var steps atomic.Int64
		var wg sync.WaitGroup
		for i, model := range exploreModels {
			i, model := i, model
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = tracedCampaign(b, model, tr, root, &steps)
			}()
		}
		wg.Wait()
		tr.end(root)
		rep.steps = steps.Load()
	}
	rep.wall, rep.cpu = time.Since(t0), cpuTime()-c0
	a1 := readAllocs()
	rep.allocs, rep.allocBytes = a1.objects-a0.objects, a1.bytes-a0.bytes
	for i, r := range results {
		rep.schedules += int64(r.Runs)
		if r.Err != nil {
			rep.errs = append(rep.errs, harness.CheckFailure(exploreModels[i], r).Error())
		}
		if !r.Exhausted {
			rep.errs = append(rep.errs, fmt.Sprintf("%v: not exhausted after %d schedules", exploreModels[i], r.Runs))
		}
	}
	rep.spans = tr.snapshot()
	return rep
}

// tracedCampaign explores one model with spans around the campaign,
// each wave and each machine Build.
func tracedCampaign(b harness.Builder, model memsim.Model, tr *tracer, root int, steps *atomic.Int64) memsim.ExploreResult {
	campaign := tr.begin("explore", model.String(), root)
	e := harness.CheckExplorer(b, model, exploreN, exploreEntries, exploreOptions())
	var wave atomic.Int64
	wave.Store(-1)
	build := e.Build
	e.Build = func() *memsim.Machine {
		id := tr.begin("memsim.build", "", int(wave.Load()))
		m := build()
		tr.end(id)
		return m
	}
	e.Check = func(r memsim.Result) error {
		steps.Add(r.Steps)
		return nil
	}
	e.Progress = func(p memsim.ExploreProgress) {
		tr.end(int(wave.Load()))
		wave.Store(int64(tr.begin("explore.wave", fmt.Sprintf("d%d", p.Depth), campaign)))
	}
	res := e.Run()
	tr.end(int(wave.Load()))
	tr.end(campaign)
	return res
}

// exploreWorkload repeats the campaign for cfg.seconds. Every campaign
// must exhaust both models with no failing schedule.
func exploreWorkload(cfg config) result {
	var b harness.Builder
	var setupErr error
	setup := timeSetup(func() { b, setupErr = exploreSetup() })
	if setupErr != nil {
		fmt.Fprintf(cfg.out, "explore: %v\n", setupErr)
		return result{attempted: 1, failed: 1, metrics: map[string]float64{}}
	}
	runtime.GC() // start the timed region without set-up garbage
	var plain, traced []exploreRep
	heap := startHeapSampler()
	repeat(cfg, func(tr *tracer) {
		r := runExplore(b, tr)
		fmt.Fprintf(cfg.out, "explore: wall %.3fs cpu %.3fs traced %v\n", r.wall.Seconds(), r.cpu.Seconds(), tr != nil)
		for _, e := range r.errs {
			fmt.Fprintf(cfg.out, "explore: %s\n", e)
		}
		if tr == nil {
			plain = append(plain, r)
		} else {
			traced = append(traced, r)
		}
	})
	heapMB, heapPeakMB := heap.stop()

	var res result
	var walls, cpus, tracedWalls []float64
	for _, r := range plain {
		res.attempted += r.schedules
		res.failed += int64(len(r.errs))
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
	}
	for _, r := range traced {
		res.attempted += r.schedules
		res.failed += int64(len(r.errs))
		tracedWalls = append(tracedWalls, r.wall.Seconds())
	}
	p := plain[0]
	fmt.Fprintf(cfg.out, "explore: %s N=%d entries=%d K=%d on %v: %d campaigns of %d schedules, %d failed\n",
		exploreAlgorithm, exploreN, exploreEntries, explorePreemptions, exploreModels,
		len(plain)+len(traced), p.schedules, res.failed)
	if !cfg.traced {
		res.metrics = map[string]float64{"setup_s": setup, "wall_s": median(walls),
			"cpu_s": median(cpus), "heap_mb": heapMB}
		return res
	}

	t := traced[0]
	m := map[string]float64{"heap.peak_mb": heapPeakMB}
	if err := traceMetrics(m, t.spans, tracedWalls, walls); err != nil {
		fmt.Fprintf(cfg.out, "explore: trace: %v\n", err)
		res.failed++
	}
	var builds int64
	for _, s := range t.spans {
		switch s.layer {
		case "memsim.build":
			builds++
		case "explore.wave":
			m["explore.wave_s."+s.name] += (s.end - s.start).Seconds()
		}
	}
	sched := float64(t.schedules)
	m["memsim.steps"] = float64(t.steps)
	m["memsim.ns_per_step"] = float64(layerBusy(t.spans, "explore.wave")) / float64(t.steps)
	m["memsim.allocs_per_step"] = float64(p.allocs) / float64(t.steps)
	m["memsim.bytes_per_step"] = float64(p.allocBytes) / float64(t.steps)
	m["memsim.build_us"] = float64(layerBusy(t.spans, "memsim.build")) / 1e3 / float64(builds)
	m["explore.schedules"] = sched
	m["explore.steps_per_schedule"] = float64(t.steps) / sched
	m["explore.ns_per_schedule"] = float64(layerBusy(t.spans, "explore")) / sched
	m["explore.allocs_per_schedule"] = float64(p.allocs) / sched
	res.metrics = m
	return res
}
