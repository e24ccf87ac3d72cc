package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"farron/internal/engine"
	"farron/internal/engine/wallclock"
)

// noSpan is the id of "no span": the parent of a root span, and what begin
// returns while recording is off.
const noSpan = -1

// span is one timed call into a layer. Times are seconds since the tracer
// was created.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run writes them out. It is safe
// for concurrent use: registry entries record spans from the engine's pool
// goroutines and from the cluster daemons' sessions. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	base wallclock.Stamp
	// on gates recording, so a traced run can interleave untraced ops and
	// measure what tracing costs.
	on atomic.Bool
	// cur is the span that registry entries nest under: entries run on
	// goroutines the harness does not start, so they cannot be handed
	// their parent directly.
	cur atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{base: wallclock.Start()}
	t.cur.Store(noSpan)
	return t
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil || !t.on.Load() {
		return noSpan
	}
	now := t.base.Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := t.base.Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span named name under parent and passes fn the new
// span's id.
func (t *tracer) do(name string, parent int, fn func(id int) error) error {
	id := t.begin(name, parent)
	defer t.end(id)
	return fn(id)
}

// time runs fn inside a span named name under parent.
func (t *tracer) time(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	defer t.end(id)
	fn()
}

// under makes id the parent of registry-entry spans until the next call.
func (t *tracer) under(id int) {
	if t != nil {
		t.cur.Store(int64(id))
	}
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// traceRegistry wraps every entry so that its Run and its Result's Render
// each record a span under the current parent of the tracer current
// returns at call time (none when it returns nil). Output is unchanged: the
// wrapped Result renders the same bytes.
func traceRegistry(exps []engine.Experiment, current func() *tracer) []engine.Experiment {
	out := make([]engine.Experiment, len(exps))
	for i, e := range exps {
		run, name := e.Run, e.Name
		e.Run = func(ctx *engine.Ctx, sc engine.Scale) (engine.Result, error) {
			t := current()
			if t == nil {
				return run(ctx, sc)
			}
			parent := int(t.cur.Load())
			var res engine.Result
			err := t.do("exp:"+name, parent, func(int) error {
				var err error
				res, err = run(ctx, sc)
				return err
			})
			if err != nil {
				return nil, err
			}
			return tracedResult{Result: res, t: t, name: name, parent: parent}, nil
		}
		out[i] = e
	}
	return out
}

type tracedResult struct {
	engine.Result
	t      *tracer
	name   string
	parent int
}

func (r tracedResult) Render() string {
	id := r.t.begin("render:"+r.name, r.parent)
	defer r.t.end(id)
	return r.Result.Render()
}

// layerOf maps a span name to its layer: the text before the first ':' or
// '.', with the per-op root span charged to the harness.
func layerOf(name string) string {
	if i := strings.IndexAny(name, ":."); i >= 0 {
		name = name[:i]
	}
	if name == "op" {
		return "harness"
	}
	return name
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its children cover. Children that ran concurrently are
// merged first, so overlap is not subtracted twice.
func selfTimes(spans []span) []float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = max(s.End-s.Start-covered, 0)
	}
	return self
}

// layerShares sums self time per layer over spans and divides it by wall,
// the summed duration of the ops the spans belong to. Shares can add up to
// more than 1 where layers ran in parallel.
func layerShares(spans []span, wall float64) map[string]float64 {
	shares := make(map[string]float64, len(traceLayers))
	for _, l := range traceLayers {
		shares[l] = 0
	}
	if wall <= 0 {
		return shares
	}
	for i, st := range selfTimes(spans) {
		if l := layerOf(spans[i].Name); slices.Contains(traceLayers, l) {
			shares[l] += st / wall
		}
	}
	return shares
}

// writeSpans writes the workload's and the probes' spans as one JSON file.
func writeSpans(path string, workload, probes []span) error {
	b, err := json.MarshalIndent(map[string][]span{"workload": workload, "probes": probes}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
