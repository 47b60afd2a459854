package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	microfab "microfab"
	"microfab/internal/core"
	"microfab/internal/instance"
	"microfab/internal/serve"
)

// Serve workload shape: two closed-loop clients against a two-worker
// server; 80% of requests hit a hot set of 32 instances sent under 8
// relabelings each, 20% are fresh n=12, m=5 chains (4 in 5 of them
// "exact", the rest "ls").
const (
	serveClients   = 2
	serveWorkers   = 2
	hotInstances   = 32
	hotLabelings   = 8
	hitShare       = 0.8
	missExactShare = 0.8
	serveN         = 12
	serveP         = 2
	serveM         = 5
)

// hotCase is one relabeling of a hot instance, ready to send.
type hotCase struct {
	in   *microfab.Instance
	body []byte
}

// serveBench is the serve-mixed workload: an in-process mfserve on a
// loopback listener and the pre-encoded hot set.
type serveBench struct {
	seed   int64
	hot    [hotInstances][hotLabelings]hotCase
	first  [hotInstances]float64 // the first answer's period per hot instance
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{}
	url    string
	client *http.Client
	fresh  atomic.Int64 // fresh instances sent so far
	runs   int64
}

// solveBody encodes a /solve request.
func solveBody(in *microfab.Instance, solver string) ([]byte, error) {
	return json.Marshal(serve.SolveRequest{Instance: *instance.FromInstance(in, ""), Solver: solver, Workers: 1})
}

func setupServe(seed int64) (bench, error) {
	b := &serveBench{seed: seed}
	rng := rand.New(rand.NewSource(seed))
	for h := range b.hot {
		in, err := microfab.GenerateChain(microfab.CampaignParams(serveN, serveP, serveM), rng.Int63())
		if err != nil {
			return nil, err
		}
		f := instance.FromInstance(in, "")
		for v := range b.hot[h] {
			rel, err := relabelFile(f, rng).ToInstance()
			if err != nil {
				return nil, err
			}
			body, err := solveBody(rel, "exact")
			if err != nil {
				return nil, err
			}
			b.hot[h][v] = hotCase{in: rel, body: body}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.srv = serve.NewServer(serve.Config{Workers: serveWorkers})
	b.hs = &http.Server{Handler: b.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	b.done = make(chan struct{})
	go func() {
		defer close(b.done)
		_ = b.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	b.url = "http://" + ln.Addr().String()
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}}
	for h := range b.hot { // warm the cache: the first answer of every hot instance
		resp, status, err := b.post(b.hot[h][0].body)
		if err != nil || status != http.StatusOK {
			b.close()
			return nil, fmt.Errorf("warm-up of hot instance %d: status %d: %v", h, status, err)
		}
		b.first[h] = resp.Period
	}
	return b, nil
}

func (b *serveBench) close() {
	_ = b.hs.Close() // the listener error is all it can report
	<-b.done
	b.srv.Close()
	b.client.CloseIdleConnections()
}

// post sends one /solve request and decodes the reply.
func (b *serveBench) post(body []byte) (*serve.SolveResponse, int, error) {
	resp, err := b.client.Post(b.url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, fmt.Errorf("%s", raw)
	}
	var out serve.SolveResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, resp.StatusCode, err
	}
	return &out, resp.StatusCode, nil
}

// stats reads the server's /stats.
func (b *serveBench) stats() (*serve.StatsResponse, error) {
	resp, err := b.client.Get(b.url + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	return &st, nil
}

// segmentSeconds is the length of the windows the serve metrics are
// computed over; see segmentStats.
const segmentSeconds = 1.0

// served is one completed request as a client saw it.
type served struct {
	done time.Time
	ms   float64
}

// clientLog is what one client observed.
type clientLog struct {
	hitMs, missMs, exactMissMs []float64
	reqs                       []served
	o                          outcome
}

// segmentStats splits the window into segments of segmentSeconds by
// completion time and computes each segment's throughput, median and tail
// latency. It reports the upper quartile of the throughputs and the lower
// quartile of the latencies: the least contended quarter of the window.
// The tail's percentile follows from the median segment's sample count;
// a segment too small for it contributes no tail.
func segmentStats(reqs []served, start time.Time, wall float64, o *outcome) {
	nseg := max(1, int(wall/segmentSeconds))
	segs := make([][]float64, nseg)
	for _, r := range reqs {
		k := min(int(r.done.Sub(start).Seconds()/segmentSeconds), nseg-1)
		segs[k] = append(segs[k], r.ms)
	}
	counts := make([]float64, nseg)
	for k, s := range segs {
		counts[k] = float64(len(s))
	}
	typical := int(median(counts))
	q, ok := tailPercentile(typical)
	if !ok {
		q = 50
	}
	var rates, p50s, tails []float64
	for k, s := range segs {
		if len(s) == 0 {
			continue
		}
		d := segmentSeconds
		if k == nseg-1 {
			d = wall - float64(nseg-1)*segmentSeconds
		}
		rates = append(rates, float64(len(s))/d)
		p50s = append(p50s, median(s))
		if len(s)-rank(q, len(s)) >= minBeyond || !ok {
			tails = append(tails, percentile(s, q))
		}
	}
	o.rate = percentile(rates, 75)
	o.p50 = percentile(p50s, 25)
	o.tail, o.tailQ, o.samples = percentile(tails, 25), q, typical
}

func (b *serveBench) run(seconds float64, tr *tracer, parent int64) (*outcome, error) {
	before, err := b.stats()
	if err != nil {
		return nil, err
	}
	b.runs++
	win := tr.start("bench.serve_window", parent, 0)
	logs := make([]clientLog, serveClients)
	var reqID atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*1_000_003 + b.runs*101 + int64(c)))
			for time.Now().Before(deadline) {
				b.request(rng, &logs[c], reqID.Add(1), tr, win.id())
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	win.end()
	after, err := b.stats()
	if err != nil {
		return nil, err
	}

	o := &outcome{wall: wall, rssMB: peakRSSMB()}
	var hit, miss, exactMiss []float64
	var reqs []served
	for _, l := range logs {
		hit = append(hit, l.hitMs...)
		miss = append(miss, l.missMs...)
		exactMiss = append(exactMiss, l.exactMissMs...)
		reqs = append(reqs, l.reqs...)
		o.tally.merge(l.o.tally)
		o.problems = append(o.problems, l.o.problems...)
	}
	o.ops = len(reqs)
	segmentStats(reqs, start, wall, o)
	hp, hq := tail(hit)
	mp, mq := tail(miss)
	o.report = []named{
		{"serve_rps (whole window)", metric{float64(o.ops) / wall, "req/s"}},
		{"serve_hit_p50_ms", metric{median(hit), "ms"}},
		{fmt.Sprintf("serve_hit_p%g_ms", hq), metric{hp, "ms"}},
		{"serve_miss_p50_ms", metric{median(miss), "ms"}},
		{fmt.Sprintf("serve_miss_p%g_ms", mq), metric{mp, "ms"}},
		{"hits", metric{float64(len(hit)), "count"}},
		{"misses", metric{float64(len(miss)), "count"}},
	}
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	o.layers = map[string]metric{
		"serve.cache_hits":     {float64(hits), "count"},
		"serve.cache_misses":   {float64(misses), "count"},
		"serve.hit_ratio":      {float64(hits) / math.Max(1, float64(hits+misses)), "share"},
		"serve.rejected":       {float64(after.Rejected - before.Rejected), "count"},
		"serve.server_p50_us":  {after.Latency.P50Us, "us"},
		"serve.server_p99_us":  {after.Latency.P99Us, "us"},
		"exact.solve_ms.serve": {median(exactMiss), "ms"},
	}
	return o, nil
}

// request sends one request of the mix, times it and checks the answer.
func (b *serveBench) request(rng *rand.Rand, l *clientLog, id int64, tr *tracer, parent int64) {
	var in *microfab.Instance
	var body []byte
	hot := -1
	solver := "exact"
	if rng.Float64() < hitShare {
		hot = rng.Intn(hotInstances)
		hc := b.hot[hot][rng.Intn(hotLabelings)]
		in, body = hc.in, hc.body
	} else {
		k := b.fresh.Add(1)
		if rng.Float64() >= missExactShare {
			solver = "ls"
		}
		gs := tr.start("gen.instance", parent, id)
		fin, err := microfab.GenerateChain(microfab.CampaignParams(serveN, serveP, serveM), b.seed<<32^k)
		gs.end()
		if err != nil {
			l.o.tally.add(false)
			l.o.fail("generate fresh instance %d: %v", k, err)
			return
		}
		es := tr.start("instance.encode", parent, id)
		body, err = solveBody(fin, solver)
		es.end()
		if err != nil {
			l.o.tally.add(false)
			l.o.fail("encode fresh instance %d: %v", k, err)
			return
		}
		in = fin
	}
	sp := tr.start("serve.request", parent, id)
	t0 := time.Now()
	resp, status, err := b.post(body)
	done := time.Now()
	ms := float64(done.Sub(t0)) / 1e6
	sp.end()
	if err != nil {
		l.o.tally.add(false)
		l.o.fail("request %d: status %d: %v", id, status, err)
		return
	}
	l.reqs = append(l.reqs, served{done, ms})
	if resp.Cached {
		l.hitMs = append(l.hitMs, ms)
	} else {
		l.missMs = append(l.missMs, ms)
		if solver == "exact" {
			l.exactMissMs = append(l.exactMissMs, resp.ElapsedMs)
		}
	}
	cs := tr.start("core.evaluate", sp.id(), id)
	ok := checkAnswer(in, resp, l)
	cs.end()
	if ok && resp.Cached && hot >= 0 && resp.Period != b.first[hot] {
		l.o.fail("request %d: cached period %v, first answer %v", id, resp.Period, b.first[hot])
		ok = false
	}
	l.o.tally.add(ok)
}

// checkAnswer re-evaluates the returned assignment on the instance as
// sent: it must be complete and give the reported period.
func checkAnswer(in *microfab.Instance, resp *serve.SolveResponse, l *clientLog) bool {
	if len(resp.Assign) != in.N() {
		l.o.fail("answer assigns %d tasks, instance has %d", len(resp.Assign), in.N())
		return false
	}
	ms := make([]microfab.MachineID, len(resp.Assign))
	for i, u := range resp.Assign {
		ms[i] = microfab.MachineID(u)
	}
	ev, err := microfab.Evaluate(in, core.FromSlice(ms))
	if err != nil {
		l.o.fail("answer does not evaluate: %v", err)
		return false
	}
	if !sameFloat(ev.Period, resp.Period) {
		l.o.fail("answer period %v, re-evaluated %v", resp.Period, ev.Period)
		return false
	}
	return true
}
