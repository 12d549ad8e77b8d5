package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span
// that caused it (0 for a top-level span) and Op groups the spans of
// one workload operation. Times are wall-clock Unix nanoseconds, so
// spans built from the service's own job timestamps line up with the
// spans the benchmark records around its calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced run pays one nil check per layer boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere (job
// timestamps, stage events) and returns its id.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// untracedLayer names the part of the window no span covers.
const untracedLayer = "untraced"

// selfTimes attributes every instant of the window [from, to] (Unix
// ns) to the innermost spans open at that instant, splitting it evenly
// when several are (concurrent workers or clients). For a sequential
// trace this is the usual self time — a span's duration minus the part
// its children cover — and for any trace the attributed times sum to
// the window, so the per-layer rollup accounts for the whole wall time.
// Instants no span covers go to untracedLayer. Result is in seconds
// per span name.
func selfTimes(spans []span, from, to int64) map[string]float64 {
	type edge struct {
		at    int64
		start bool
		idx   int
	}
	edges := make([]edge, 0, 2*len(spans)+2)
	for i, s := range spans {
		a, b := max(s.Start, from), min(s.End, to)
		if a >= b {
			continue
		}
		edges = append(edges, edge{a, true, i}, edge{b, false, i})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })

	out := make(map[string]float64)
	active := make(map[int]bool) // span index -> open
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	parent := make([]int, len(spans)) // span index -> parent index, -1 for none
	for i, s := range spans {
		parent[i] = -1
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			parent[i] = p
		}
	}
	prev := from
	attribute := func(until int64) {
		d := float64(until-prev) / 1e9
		if d <= 0 {
			return
		}
		inner := make(map[int]bool, len(active))
		for i := range active {
			inner[i] = true
		}
		for i := range active {
			if p := parent[i]; p >= 0 && active[p] {
				delete(inner, p)
			}
		}
		leaves := make([]int, 0, len(inner))
		for i := range inner {
			leaves = append(leaves, i)
		}
		if len(leaves) == 0 {
			out[untracedLayer] += d
			return
		}
		for _, i := range leaves {
			out[spans[i].Name] += d / float64(len(leaves))
		}
	}
	for _, e := range edges {
		attribute(e.at)
		prev = max(prev, e.at)
		if e.start {
			active[e.idx] = true
		} else {
			delete(active, e.idx)
		}
	}
	attribute(to)
	return out
}

// layerOf maps a span name to its layer: the text before the first
// dot ("core.filter" -> "core").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// printRollup writes the per-span and per-layer self times, largest
// first, with each one's share of the window.
func printRollup(self map[string]float64, wall float64) {
	byLayer := make(map[string]float64)
	for name, s := range self {
		byLayer[layerOf(name)] += s
	}
	show := func(title string, m map[string]float64) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return m[keys[i]] > m[keys[j]] })
		fmt.Printf("%s (self time, share of %.3fs traced wall):\n", title, wall)
		for _, k := range keys {
			fmt.Printf("  %-24s %10.4fs %6.1f%%\n", k, m[k], 100*m[k]/wall)
		}
	}
	show("spans", self)
	show("layers", byLayer)
}
