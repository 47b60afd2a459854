package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // median rank 10 leaves 9 beyond
		{20, 50, true}, // median rank 10 leaves 10 beyond
		{39, 50, true}, // p75 rank 30 leaves 9
		{40, 75, true}, // p75 rank 30 leaves 10
		{51, 75, true}, // p75 rank 39 leaves 12; p90 rank 46 leaves 5
		{100, 90, true},
		{199, 90, true}, // p95 rank 190 leaves 9
		{200, 95, true},
		{999, 95, true}, // p99 rank 990 leaves 9
		{1000, 99, true},
		{100000, 99, true}, // the ladder stops at p99
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestTailValue(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40..1, unsorted on purpose
	}
	v, q := tail(xs)
	if q != 75 || v != 30 {
		t.Errorf("tail of 1..40 = %v at p%v; want 30 at p75", v, q)
	}
	if m := median(xs); m != 20 {
		t.Errorf("median of 1..40 = %v; want 20 (nearest rank)", m)
	}
	v, q = tail([]float64{3, 1, 2})
	if q != 50 || v != 2 {
		t.Errorf("tail of 3 samples = %v at p%v; want the median 2 at p50", v, q)
	}
	if xs[0] != 40 {
		t.Error("percentile reordered its input")
	}
}

func TestFailedShare(t *testing.T) {
	var a tally
	if a.failedShare() != 0 {
		t.Error("empty tally has a nonzero failed share")
	}
	for _, ok := range []bool{true, false, true, true} {
		a.add(ok)
	}
	if a.attempted != 4 || a.failed != 1 || a.failedShare() != 0.25 {
		t.Errorf("after 3 ok + 1 failed: %+v, share %v; want 4, 1, 0.25", a, a.failedShare())
	}
	var b tally
	b.add(false)
	b.add(false)
	a.merge(b)
	if a.attempted != 6 || a.failed != 3 || a.failedShare() != 0.5 {
		t.Errorf("merged: %+v, share %v; want 6, 3, 0.5", a, a.failedShare())
	}
}

func TestSegmentStats(t *testing.T) {
	start := time.Unix(0, 0)
	at := func(segs float64) time.Time {
		return start.Add(time.Duration(segs * segmentSeconds * float64(time.Second)))
	}
	var reqs []served
	// A window of 4.25 segments: four segments, the last one absorbing
	// the extra quarter. Segment k holds 20+k requests of latency k+1 ms,
	// except that segment 2 also holds 10 slow requests of 100 ms.
	for k := 0; k < 4; k++ {
		for i := 0; i < 20+k; i++ {
			reqs = append(reqs, served{at(float64(k) + 0.01*float64(i)), float64(k + 1)})
		}
	}
	for i := 0; i < 10; i++ {
		reqs = append(reqs, served{at(2.5), 100})
	}
	reqs = append(reqs, served{at(4.2), 4}) // completes after the last boundary
	var o outcome
	segmentStats(reqs, start, 4.25*segmentSeconds, &o)
	// Counts 20, 21, 32, 24 → the median count (21) allows only the
	// median as the tail.
	// Rates per segment length 20, 21, 32, 24/1.25=19.2 → upper quartile
	// (rank 3) 21. Medians 1, 2, 3, 4 → lower quartile (rank 1) 1.
	if o.rate != 21/segmentSeconds || o.p50 != 1 || o.tail != 1 || o.tailQ != 50 || o.samples != 21 {
		t.Errorf("segmentStats = rate %v p50 %v tail %v (p%v of %d); want %v, 1, 1 (p50 of 21)",
			o.rate, o.p50, o.tail, o.tailQ, o.samples, 21/segmentSeconds)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.pass", Start: 0, End: 100},
		// Children cover [10,40) and [30,60) overlapping, [80,90), and
		// [95,100) once span 6 is clipped: their union is 50 + 10 + 5 = 65,
		// so the parent keeps 35.
		{ID: 2, Parent: 1, Name: "exact.solve", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "exact.solve", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "core.evaluate", Start: 80, End: 90},
		// A grandchild [15,25) counts against span 2 only.
		{ID: 5, Parent: 2, Name: "core.evaluate", Start: 15, End: 25},
		// A child reaching past its parent is clipped to [95,100).
		{ID: 6, Parent: 1, Name: "gen.instance", Start: 95, End: 120},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 35, 2: 20, 3: 30, 4: 10, 5: 10, 6: 25}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v; want %v", self, want)
	}
	got := layerSummary(spans)
	wantLayers := []layerStat{
		{Layer: "exact", SelfNs: 50, Count: 2},
		{Layer: "bench", SelfNs: 35, Count: 1},
		{Layer: "gen", SelfNs: 25, Count: 1},
		{Layer: "core", SelfNs: 20, Count: 2},
	}
	if !reflect.DeepEqual(got, wantLayers) {
		t.Errorf("layerSummary = %+v; want %+v", got, wantLayers)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.start("exact.solve", 0, 1)
	sp.end()
	if sp.id() != 0 {
		t.Errorf("nil tracer gave span id %d", sp.id())
	}
	tr = newTracer()
	root := tr.start("bench.pass", 0, 0)
	child := tr.start("exact.solve", root.id(), 7)
	child.end()
	root.end()
	spans := tr.all()
	if len(spans) != 2 || spans[0].Parent != root.id() || spans[0].Req != 7 || spans[1].Parent != 0 {
		t.Errorf("recorded spans %+v", spans)
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json in step with the metrics the
// program prints.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Errorf("manifest workloads %v, program %v", names, have)
	}
	e2e := endToEnd(1, &outcome{})
	if len(man.EndToEnd) != len(e2e) {
		t.Errorf("manifest has %d end-to-end metrics, program prints %d", len(man.EndToEnd), len(e2e))
	}
	for _, m := range man.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): program prints %+v", m.Name, m.Unit, got)
		}
	}
	var layer []string
	for _, m := range man.PerLayer {
		layer = append(layer, m.Name)
	}
	want := perLayerKeys()
	sort.Strings(layer)
	sort.Strings(want)
	if !reflect.DeepEqual(layer, want) {
		t.Errorf("manifest per-layer metrics %v, program %v", layer, want)
	}
}

// perLayerKeys lists every per-layer metric the traced run reports.
func perLayerKeys() []string {
	out := []string{"trace_overhead_frac"}
	for _, g := range suiteGroups {
		out = append(out, g.keys...)
	}
	return out
}
