package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the boundary. Parent is the index of the span
// that was open when this one began (-1 at the top); Req numbers the
// top-level operation the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory and writes them out once at exit. A nil
// tracer records nothing, which is how the gated run is measured.
type tracer struct {
	t0    time.Time
	spans []span
	open  int // innermost open span, -1 = none
	req   int
	off   bool // paused: spans are dropped (the untraced half of the overhead pair)
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

// span opens a span and returns the func that closes it.
func (t *tracer) span(name string) func() {
	if t == nil || t.off {
		return func() {}
	}
	if t.open < 0 {
		t.req++
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: t.open, Req: t.req})
	parent := t.open
	t.open = id
	return func() {
		t.spans[id].End = int64(time.Since(t.t0))
		t.open = parent
	}
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	Count  int   `json:"count"`
	Total  int64 `json:"total_ns"`
	SelfNs int64 `json:"self_ns"` // total minus the part child spans cover
}

func (t *tracer) totals() map[string]*spanTotal {
	out := map[string]*spanTotal{}
	get := func(name string) *spanTotal {
		if out[name] == nil {
			out[name] = &spanTotal{}
		}
		return out[name]
	}
	for _, s := range t.spans {
		d := s.End - s.Start
		st := get(s.Name)
		st.Count++
		st.Total += d
		st.SelfNs += d
		if s.Parent >= 0 {
			get(t.spans[s.Parent].Name).SelfNs -= d
		}
	}
	return out
}

// maxSpansWritten caps the raw spans in trace.json (a point-lookup
// block alone opens 20 000); the per-name totals cover all of them.
const maxSpansWritten = 50000

func (t *tracer) write(path string, extra map[string]any) error {
	out := map[string]any{"span_totals": t.totals(), "spans_recorded": len(t.spans), "spans": t.spans[:min(len(t.spans), maxSpansWritten)]}
	for k, v := range extra {
		out[k] = v
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
