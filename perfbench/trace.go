package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"flame/internal/stats"
)

// span is one timed interval of a layer. Its name is "<layer>.<what>",
// with the layer named after the package whose entry point it wraps.
// Spans are kept in memory and written out when the run ends.
type span struct {
	id, parent int
	name       string
	lane       int // trace row: 0 is the main goroutine, 1.. are workers
	start, end time.Time
}

func (s *span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i > 0 {
		return s.name[:i]
	}
	return s.name
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer records spans of one run. All spans are added from one
// goroutine: campaign and fleet spans are rebuilt after the run from
// timestamps taken at the public observation points.
type tracer struct {
	run   string
	spans []span
}

// add records a span and returns its id (ids start at 1; parent 0 is
// "no parent").
func (t *tracer) add(parent int, name string, lane int, start, end time.Time) int {
	if end.Before(start) {
		end = start
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, lane: lane, start: start, end: end})
	return id
}

// interval is a half-open time range.
type interval struct{ from, to time.Time }

// unionLen is the total length covered by the intervals, clipped to
// [from, to].
func unionLen(ivs []interval, from, to time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from.Before(ivs[j].from) })
	var total time.Duration
	cur := from
	for _, iv := range ivs {
		a, b := iv.from, iv.to
		if a.Before(cur) {
			a = cur
		}
		if b.After(to) {
			b = to
		}
		if b.After(a) {
			total += b.Sub(a)
			cur = b
		}
	}
	return total
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []*span {
	var out []*span
	for i := range t.spans {
		if t.spans[i].parent == id {
			out = append(out, &t.spans[i])
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover.
func (t *tracer) selfTime(s *span) time.Duration {
	var ivs []interval
	for _, c := range t.children(s.id) {
		ivs = append(ivs, interval{c.start, c.end})
	}
	return s.dur() - unionLen(ivs, s.start, s.end)
}

// coverage is the share of the root span's wall time covered by leaf
// spans (spans with no children) below it: the time the ledger can
// attribute to a named unit of layer work.
func (t *tracer) coverage(root int) float64 {
	r := &t.spans[root-1]
	if r.dur() <= 0 {
		return 0
	}
	hasChild := map[int]bool{}
	for _, s := range t.spans {
		hasChild[s.parent] = true
	}
	var ivs []interval
	var walk func(id int)
	walk = func(id int) {
		for _, c := range t.children(id) {
			if hasChild[c.id] {
				walk(c.id)
			} else {
				ivs = append(ivs, interval{c.start, c.end})
			}
		}
	}
	walk(root)
	return float64(unionLen(ivs, r.start, r.end)) / float64(r.dur())
}

// layerTable renders per-layer span counts, total and self time, and
// self time as a share of the root span's wall time.
func (t *tracer) layerTable(root int) *stats.Table {
	wall := t.spans[root-1].dur().Seconds()
	type agg struct {
		n           int
		total, self float64
	}
	byLayer := map[string]*agg{}
	top := func(s *span) int {
		for s.parent != 0 {
			s = &t.spans[s.parent-1]
		}
		return s.id
	}
	for i := range t.spans {
		s := &t.spans[i]
		if top(s) != root {
			continue
		}
		a := byLayer[s.layer()]
		if a == nil {
			a = &agg{}
			byLayer[s.layer()] = a
		}
		a.n++
		a.total += s.dur().Seconds()
		a.self += t.selfTime(s).Seconds()
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	tb := &stats.Table{Header: []string{"layer", "spans", "total_s", "self_s", "self/wall"}}
	for _, l := range layers {
		a := byLayer[l]
		tb.Add(l, a.n, fmt.Sprintf("%.4f", a.total), fmt.Sprintf("%.4f", a.self),
			fmt.Sprintf("%.1f%%", 100*a.self/wall))
	}
	return tb
}

// sum returns the total duration of spans with the given name.
func (t *tracer) sum(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.dur()
		}
	}
	return d
}

// traceEvent is one Chrome/Perfetto trace_event record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace_event JSON, loadable in
// Perfetto or chrome://tracing. Each span keeps its id, parent and run
// id in args.
func (t *tracer) writeChrome(w io.Writer) error {
	t0 := t.spans[0].start
	for _, s := range t.spans {
		if s.start.Before(t0) {
			t0 = s.start
		}
	}
	lanes := map[int]bool{}
	var evs []traceEvent
	for _, s := range t.spans {
		lanes[s.lane] = true
		evs = append(evs, traceEvent{
			Name: s.name, Cat: s.layer(), Ph: "X",
			TS:  float64(s.start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			PID: 1, TID: s.lane,
			Args: map[string]any{"id": s.id, "parent": s.parent, "run": t.run},
		})
	}
	for lane := range lanes {
		name := "main"
		if lane > 0 {
			name = fmt.Sprintf("worker %d", lane)
		}
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: lane,
			Args: map[string]any{"name": name}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// saveChrome writes the trace to dir/name and returns the path.
func (t *tracer) saveChrome(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := t.writeChrome(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
