package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	microfab "microfab"
	"microfab/internal/instance"
)

// corpusMaxNodes is the node budget of every corpus proof. It is far above
// what any corpus instance needs, and there is no wall-clock limit, so a
// proof's node count repeats exactly from run to run.
const corpusMaxNodes = 200_000_000

// cell is one (shape, rule, m) cell of the proof corpus: instances with n
// tasks of p types on m machines, drawn from the listed generator seeds.
type cell struct {
	shape   string // "chain" or "intree" (3 branches)
	rule    microfab.Rule
	n, p, m int
	seeds   []int64
}

// corpusCells is the committed proof corpus. n is picked per cell so that
// proofs take 10 ms–2 s on a 2-core x86-64 box; the One-to-One cells at
// m=5 and m=9 cannot reach 10 ms because One-to-One caps n at m, and are
// kept small. README.md lists the sizing measurements.
var corpusCells = []cell{
	{"chain", microfab.OneToOne, 5, 2, 5, []int64{1, 2}},
	{"chain", microfab.OneToOne, 9, 4, 9, []int64{1, 2}},
	{"chain", microfab.OneToOne, 13, 5, 14, []int64{2, 3, 4, 7, 8}},
	{"chain", microfab.Specialized, 17, 2, 5, []int64{3, 4, 5, 6, 8}},
	{"chain", microfab.Specialized, 14, 4, 9, []int64{1, 2, 3, 4, 6}},
	{"chain", microfab.Specialized, 14, 5, 14, []int64{1, 3, 4, 7, 8}},
	{"chain", microfab.General, 13, 2, 5, []int64{3, 4, 5, 7, 8}},
	{"chain", microfab.General, 13, 4, 9, []int64{1, 2, 3, 5, 6}},
	{"chain", microfab.General, 14, 5, 14, []int64{1, 3, 4, 7, 8}},
	{"intree", microfab.OneToOne, 5, 2, 5, []int64{1, 2}},
	{"intree", microfab.OneToOne, 9, 4, 9, []int64{1, 2}},
	{"intree", microfab.OneToOne, 14, 5, 14, []int64{1, 4, 5, 6, 7}},
	{"intree", microfab.Specialized, 17, 2, 5, []int64{1, 3, 4, 6, 8}},
	{"intree", microfab.Specialized, 14, 4, 9, []int64{1, 3, 4, 5, 7}},
	{"intree", microfab.Specialized, 15, 5, 14, []int64{3, 5, 7, 8}},
	{"intree", microfab.General, 13, 2, 5, []int64{1, 4, 5, 7, 8}},
	{"intree", microfab.General, 14, 4, 9, []int64{1, 2, 4, 5, 7}},
	{"intree", microfab.General, 15, 5, 14, []int64{3, 4, 5, 7, 8}},
}

// ruleName is the short rule label used in metric names.
func ruleName(r microfab.Rule) string {
	switch r {
	case microfab.OneToOne:
		return "oto"
	case microfab.General:
		return "general"
	}
	return "specialized"
}

// proofCase is one corpus instance as a run solves it.
type proofCase struct {
	label string
	shape string
	rule  microfab.Rule
	in    *microfab.Instance
	base  float64 // period of the heuristic baseline the optimum must not exceed
}

// corpusBench is the proof-corpus workload: every instance relabeled by
// the seed, solved in a seed-shuffled order.
type corpusBench struct {
	seed  int64
	cases []proofCase
}

func (*corpusBench) close() {}

// setupCorpus builds the corpus for a seed. Every instance is a committed
// generator draw put under a random task and machine relabeling drawn from
// the seed, so every seed proves the same optima on differently labeled
// inputs.
func setupCorpus(seed int64) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	b := &corpusBench{seed: seed}
	add := func(label, shape string, rule microfab.Rule, in *microfab.Instance) error {
		rel, err := relabel(in, rng)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		base, err := baseline(rel, rule)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		b.cases = append(b.cases, proofCase{label: label, shape: shape, rule: rule, in: rel, base: base})
		return nil
	}
	for _, c := range corpusCells {
		for _, s := range c.seeds {
			pr := microfab.CampaignParams(c.n, c.p, c.m)
			var in *microfab.Instance
			var err error
			if c.shape == "chain" {
				in, err = microfab.GenerateChain(pr, s)
			} else {
				in, err = microfab.GenerateInTree(pr, 3, s)
			}
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%s/%s/m%d/n%d/s%d", c.shape, ruleName(c.rule), c.m, c.n, s)
			if err := add(label, c.shape, c.rule, in); err != nil {
				return nil, err
			}
		}
	}
	n18, err := provenRegimeN18()
	if err != nil {
		return nil, err
	}
	if err := add("chain/specialized/m9/n18/proven-regime", "chain", microfab.Specialized, n18); err != nil {
		return nil, err
	}
	rng.Shuffle(len(b.cases), func(i, j int) { b.cases[i], b.cases[j] = b.cases[j], b.cases[i] })
	return b, nil
}

// provenRegimeN18 rebuilds the n=18 high-failure chain on a 9-machine
// platform with only three distinct machine columns (machine u copies
// column u mod 3), the acceptance case of the exact solver's bounds.
func provenRegimeN18() (*microfab.Instance, error) {
	const n, m, distinct = 18, 9, 3
	pr := microfab.CampaignParams(n, 2, distinct)
	pr.FMin, pr.FMax = 0, 0.1
	base, err := microfab.GenerateChain(pr, 1804)
	if err != nil {
		return nil, err
	}
	w := make([][]float64, n)
	f := make([][]float64, n)
	for i := range w {
		id := microfab.TaskID(i)
		w[i] = make([]float64, m)
		f[i] = make([]float64, m)
		for u := 0; u < m; u++ {
			src := microfab.MachineID(u % distinct)
			w[i][u] = base.Platform.Time(id, src)
			f[i][u] = base.Failures.Rate(id, src)
		}
	}
	pl, err := microfab.NewPlatform(w)
	if err != nil {
		return nil, err
	}
	fm, err := microfab.NewFailureMatrix(f)
	if err != nil {
		return nil, err
	}
	return microfab.NewInstance(base.App, pl, fm)
}

// relabel returns the instance with its tasks and machines renumbered by
// random permutations, through the instance JSON form.
func relabel(in *microfab.Instance, rng *rand.Rand) (*microfab.Instance, error) {
	f := relabelFile(instance.FromInstance(in, ""), rng)
	return f.ToInstance()
}

// relabelFile permutes the task and machine labels of an instance file.
func relabelFile(f *instance.File, rng *rand.Rand) *instance.File {
	n, m := len(f.Tasks), len(f.Times[0])
	tp, mp := rng.Perm(n), rng.Perm(m)
	out := &instance.File{
		Tasks:    make([]instance.TaskJSON, n),
		Deps:     make([]instance.DepJSON, len(f.Deps)),
		Times:    make([][]float64, n),
		Failures: make([][]float64, n),
	}
	for i, t := range f.Tasks {
		out.Tasks[tp[i]] = instance.TaskJSON{ID: tp[i], Type: t.Type}
		out.Times[tp[i]] = make([]float64, m)
		out.Failures[tp[i]] = make([]float64, m)
		for u := 0; u < m; u++ {
			out.Times[tp[i]][mp[u]] = f.Times[i][u]
			out.Failures[tp[i]][mp[u]] = f.Failures[i][u]
		}
	}
	for k, d := range f.Deps {
		out.Deps[k] = instance.DepJSON{From: tp[d.From], To: tp[d.To]}
	}
	return out
}

// baseline is the period of a polynomial heuristic whose mapping respects
// the rule: H4w (a Specialized mapping, hence also General) or, under
// One-to-One, the greedy one-to-one mapping. An optimum may not exceed it.
func baseline(in *microfab.Instance, rule microfab.Rule) (float64, error) {
	method := "H4w"
	if rule == microfab.OneToOne {
		method = "oto-greedy"
	}
	mp, err := microfab.Solve(in, method, 0)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", method, err)
	}
	if err := mp.CheckRule(in.App, rule); err != nil {
		return 0, fmt.Errorf("%s breaks the rule: %w", method, err)
	}
	ev, err := microfab.Evaluate(in, mp)
	if err != nil {
		return 0, err
	}
	return ev.Period, nil
}

// proofRecord is one instance's measurements within a run.
type proofRecord struct {
	ms     []float64 // time to proof of every pass
	nodes  int64
	period float64
}

func (b *corpusBench) run(seconds float64, tr *tracer, parent int64) (*outcome, error) {
	o := &outcome{}
	recs := make([]proofRecord, len(b.cases))
	var passes []float64
	start := time.Now()
	for pass := 0; ; pass++ {
		ps := tr.start("bench.corpus_pass", parent, 0)
		t0 := time.Now()
		for i := range b.cases {
			if err := b.prove(i, &recs[i], ps.id(), tr, o); err != nil {
				return nil, err
			}
		}
		d := time.Since(t0).Seconds()
		ps.end()
		passes = append(passes, d)
		if pass == 0 {
			o.rssMB = peakRSSMB()
		}
		if el := time.Since(start).Seconds(); el+d > seconds {
			break
		}
	}
	o.wall = time.Since(start).Seconds()
	o.ops = len(passes) * len(b.cases)

	// Each instance's time to proof is its best pass.
	var nodes int64
	var solveMs float64
	best := make([]float64, len(b.cases))
	byClass := map[string][]float64{}
	for i, c := range b.cases {
		t := slices.Min(recs[i].ms)
		best[i] = t
		nodes += recs[i].nodes
		solveMs += t
		byClass[ruleName(c.rule)] = append(byClass[ruleName(c.rule)], t)
		byClass[c.shape] = append(byClass[c.shape], t)
	}
	o.rate = float64(len(b.cases)) / (solveMs / 1e3)
	o.setLatency(best)
	o.report = []named{
		{"proof_total_s", metric{solveMs / 1e3, "s"}},
		{"proof_p50_ms", metric{o.p50, "ms"}},
		{fmt.Sprintf("proof_p%g_ms", o.tailQ), metric{o.tail, "ms"}},
		{"pass_s (median)", metric{median(passes), "s"}},
		{"instances", metric{float64(len(b.cases)), "count"}},
		{"passes", metric{float64(len(passes)), "count"}},
	}
	o.layers = map[string]metric{
		"exact.nodes":        {float64(nodes), "count"},
		"exact.nodes_per_s":  {float64(nodes) / (solveMs / 1e3), "1/s"},
		"exact.solve_ms.oto": {median(byClass["oto"]), "ms"},
	}
	for _, k := range []string{"specialized", "general", "chain", "intree"} {
		o.layers["exact.solve_ms."+k] = metric{median(byClass[k]), "ms"}
	}
	for i, c := range b.cases {
		o.refs = append(o.refs, fmt.Sprintf("%q: %#x,", c.label, math.Float64bits(recs[i].period)))
	}
	if b.seed == defaultSeed {
		o.checkReference(b, recs)
	} else {
		for i, c := range b.cases {
			if ref, ok := corpusReference[c.label]; ok && !sameFloat(recs[i].period, math.Float64frombits(ref)) {
				o.fail("%s: period %v, reference optimum %v", c.label, recs[i].period, math.Float64frombits(ref))
			}
		}
	}
	return o, nil
}

// prove solves one corpus case, times it, and checks the result.
func (b *corpusBench) prove(i int, rec *proofRecord, parent int64, tr *tracer, o *outcome) error {
	c := b.cases[i]
	sp := tr.start("exact.solve", parent, int64(i))
	t0 := time.Now()
	res, err := microfab.SolveExact(c.in, microfab.ExactOptions{
		Rule: c.rule, MaxNodes: corpusMaxNodes, Workers: 1, WarmStart: true,
	})
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return fmt.Errorf("%s: %w", c.label, err)
	}
	rec.ms = append(rec.ms, float64(d)/1e6)
	ok := res.Proven
	if !res.Proven {
		o.fail("%s: unproven after %d nodes", c.label, res.Nodes)
	}
	cs := tr.start("core.evaluate", parent, int64(i))
	if !checkProof(c, res, o) {
		ok = false
	}
	cs.end()
	if len(rec.ms) > 1 && (res.Nodes != rec.nodes || res.Period != rec.period) {
		o.fail("%s: pass %d gave %d nodes / period %v, first pass %d / %v",
			c.label, len(rec.ms), res.Nodes, res.Period, rec.nodes, rec.period)
		ok = false
	}
	rec.nodes, rec.period = res.Nodes, res.Period
	o.tally.add(ok)
	return nil
}

// checkProof re-evaluates a proven mapping: it must respect the rule,
// reproduce the reported period, and be no worse than the baseline.
func checkProof(c proofCase, res *microfab.ExactResult, o *outcome) bool {
	if res.Mapping == nil {
		o.fail("%s: no mapping", c.label)
		return false
	}
	if err := res.Mapping.CheckRule(c.in.App, c.rule); err != nil {
		o.fail("%s: mapping breaks the rule: %v", c.label, err)
		return false
	}
	ev, err := microfab.Evaluate(c.in, res.Mapping)
	if err != nil {
		o.fail("%s: evaluate: %v", c.label, err)
		return false
	}
	if ev.Period != res.Period {
		o.fail("%s: reported period %v, re-evaluated %v", c.label, res.Period, ev.Period)
		return false
	}
	if res.Period > c.base {
		o.fail("%s: optimum %v worse than the heuristic baseline %v", c.label, res.Period, c.base)
		return false
	}
	return true
}

// checkReference compares every proven period with the committed optimum
// of the default seed, bit for bit.
func (o *outcome) checkReference(b *corpusBench, recs []proofRecord) {
	for i, c := range b.cases {
		ref, ok := corpusReference[c.label]
		if !ok {
			o.fail("%s: no committed reference optimum", c.label)
			continue
		}
		if math.Float64bits(recs[i].period) != ref {
			o.fail("%s: period %v (%#x), reference %v (%#x)", c.label, recs[i].period,
				math.Float64bits(recs[i].period), math.Float64frombits(ref), ref)
		}
	}
}
