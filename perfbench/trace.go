package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Times are offsets from the tracer's
// origin.
type span struct {
	layer, name string
	parent      int // index of the enclosing span, -1 for a root
	start, end  time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so traced and untraced
// runs execute the same benchmark code.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(layer, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{layer: layer, name: name, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
}

// add records an already-timed span (for intervals whose start and end
// are observed by different callbacks).
func (t *tracer) add(layer, name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{layer: layer, name: name, parent: parent,
		start: start.Sub(t.origin), end: end.Sub(t.origin)})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// checkNesting verifies that every span is closed and lies inside its
// parent.
func checkNesting(spans []span) error {
	for i, s := range spans {
		if s.end < s.start {
			return fmt.Errorf("span %d (%s %s) is not closed", i, s.layer, s.name)
		}
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		if s.start < p.start || s.end > p.end {
			return fmt.Errorf("span %d (%s %s) [%v, %v] escapes its parent (%s %s) [%v, %v]",
				i, s.layer, s.name, s.start, s.end, p.layer, p.name, p.start, p.end)
		}
	}
	return nil
}

// selfTimes attributes every instant of the root spans' wall time to
// the innermost layer active at that instant, so the layers' self
// times sum to the roots' total duration even where sibling spans run
// concurrently (parallel cells, the two explored models). Where spans
// of different layers are active at the same depth, the layer whose
// name sorts last takes the instant; the total is the same either way.
func selfTimes(spans []span) map[string]time.Duration {
	depth := make([]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			depth[i] = depth[s.parent] + 1 // parents precede children
		}
	}
	type event struct {
		at    time.Duration
		delta int
		span  int
	}
	events := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		events = append(events, event{s.start, +1, i}, event{s.end, -1, i})
	}
	sort.Slice(events, func(a, b int) bool { return events[a].at < events[b].at })
	type key struct {
		depth int
		layer string
	}
	active := make(map[key]int)
	self := make(map[string]time.Duration)
	for i, ev := range events {
		k := key{depth[ev.span], spans[ev.span].layer}
		active[k] += ev.delta
		if active[k] == 0 {
			delete(active, k)
		}
		if i+1 == len(events) {
			break
		}
		seg := events[i+1].at - ev.at
		if seg <= 0 || len(active) == 0 {
			continue
		}
		best := key{depth: -1}
		for k := range active {
			if k.depth > best.depth || (k.depth == best.depth && k.layer > best.layer) {
				best = k
			}
		}
		self[best.layer] += seg
	}
	return self
}

// layerBusy sums the durations of every span of one layer: busy time,
// which exceeds wall time where the layer runs concurrently.
func layerBusy(spans []span, layer string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.layer == layer {
			d += s.end - s.start
		}
	}
	return d
}
