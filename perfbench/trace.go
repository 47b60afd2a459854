package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Name is
// "<layer>.<operation>"; Parent is 0 for a root span; Req groups the spans
// of one request or work item. Start and End are nanoseconds since the
// tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the part of the span name before the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory. A nil *tracer records nothing, so
// untraced runs pay one nil check per boundary.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	nextID int64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	t   *tracer
	s   span
	set bool
}

// start opens a span under parent (0 for a root) for request req.
func (t *tracer) start(name string, parent, req int64) open {
	if t == nil {
		return open{}
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return open{t: t, s: span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.origin))}, set: true}
}

// id is the span's identifier, for children to name as their parent.
func (o open) id() int64 { return o.s.ID }

// end closes the span and keeps it.
func (o open) end() {
	if !o.set {
		return
	}
	o.s.End = int64(time.Since(o.t.origin))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval covered by the union of its children.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur0, cur1 := int64(0), int64(0)
	first := true
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		switch {
		case first:
			cur0, cur1, first = a, b, false
		case a > cur1:
			total += cur1 - cur0
			cur0, cur1 = a, b
		case b > cur1:
			cur1 = b
		}
	}
	if !first {
		total += cur1 - cur0
	}
	return total
}

// layerStat is one layer's self time and span count.
type layerStat struct {
	Layer  string
	SelfNs int64
	Count  int
}

// layerSummary sums self time and counts spans per layer, sorted by
// descending self time.
func layerSummary(spans []span) []layerStat {
	self := selfTimes(spans)
	by := map[string]*layerStat{}
	for _, s := range spans {
		l := s.layer()
		st := by[l]
		if st == nil {
			st = &layerStat{Layer: l}
			by[l] = st
		}
		st.SelfNs += self[s.ID]
		st.Count++
	}
	out := make([]layerStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].SelfNs != out[b].SelfNs {
			return out[a].SelfNs > out[b].SelfNs
		}
		return out[a].Layer < out[b].Layer
	})
	return out
}

// printSummary writes the per-layer self time table of one workload.
func printSummary(w io.Writer, workload string, spans []span) {
	fmt.Fprintf(w, "layer self time, workload %s (%d spans):\n", workload, len(spans))
	for _, st := range layerSummary(spans) {
		fmt.Fprintf(w, "  %-12s %12.3f ms  %8d spans\n", st.Layer, float64(st.SelfNs)/1e6, st.Count)
	}
}

// writeTrace stores the spans as one JSON document.
func writeTrace(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
