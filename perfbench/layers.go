package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	microfab "microfab"
	"microfab/internal/milp"
	"microfab/internal/serve"
)

// suiteReps is how many times the suite repeats a timed layer call; each
// per-call metric is the median over the repetitions.
const suiteReps = 15

// suiteGroup is a set of per-layer metrics measured together.
type suiteGroup struct {
	keys []string
	run  func(s *suite) (map[string]metric, error)
}

// suite times calls into each layer's public functions from the
// benchmark, for the traced run. A group the traced workload already
// measured is skipped, so a per-layer metric comes from the workload
// whenever the workload exercises that layer.
type suite struct {
	seed   int64
	tr     *tracer
	parent int64
	rng    *rand.Rand
}

// timed runs fn under a span and returns its duration.
func (s *suite) timed(name string, fn func() error) (time.Duration, error) {
	sp := s.tr.start(name, s.parent, 0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.end()
	return d, err
}

// instances draws k chains of the given shape from the suite's stream.
func (s *suite) instances(k int, pr microfab.GenParams) ([]*microfab.Instance, error) {
	out := make([]*microfab.Instance, k)
	for i := range out {
		in, err := microfab.GenerateChain(pr, s.rng.Int63())
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// Figure shapes used by the layer calls.
var (
	fig5Shape  = microfab.CampaignParams(100, 5, 50)
	fig10Shape = []int{2, 5, 8, 11} // n at m=5, p=2: Figure 10 points, without the slowest
)

func fig8Shape() microfab.GenParams {
	pr := microfab.CampaignParams(50, 5, 10)
	pr.FMin, pr.FMax = 0, 0.1
	return pr
}

func fig9Shape() microfab.GenParams {
	pr := microfab.CampaignParams(100, 60, 100)
	pr.TaskOnlyFailures = true
	return pr
}

var suiteGroups = []suiteGroup{
	{[]string{"exact.nodes", "exact.nodes_per_s", "exact.solve_ms.oto", "exact.solve_ms.specialized",
		"exact.solve_ms.general", "exact.solve_ms.chain", "exact.solve_ms.intree"}, miniCorpus},
	{[]string{"serve.cache_hits", "serve.cache_misses", "serve.hit_ratio", "serve.rejected",
		"serve.server_p50_us", "serve.server_p99_us", "exact.solve_ms.serve"}, miniServe},
	{[]string{"experiments.draw_ms.fig5", "experiments.draw_ms.fig6", "experiments.draw_ms.fig7",
		"experiments.draw_ms.fig8", "experiments.draw_ms.fig8-ls", "experiments.draw_ms.fig9", "experiments.draw_ms.fig10",
		"experiments.pool_idle_frac"}, miniCampaign},
	{[]string{"exact.burst_ms", "exact.burst_proven_frac", "milp.solve_ms", "milp.nodes", "milp.proven_frac"}, mipShapes},
	{[]string{"heuristics.call_us.H1", "heuristics.call_us.H2", "heuristics.call_us.H3",
		"heuristics.call_us.H4", "heuristics.call_us.H4w", "heuristics.call_us.H4f",
		"core.evaluate_us", "search.polish_ms", "oto.solve_ms"}, heuristicShapes},
	{[]string{"serve.hash_us", "instance.decode_us", "gen.instance_us"}, requestPath},
}

// runSuite returns every per-layer metric: the workload's own where it
// measured them, the suite's otherwise.
func runSuite(seed int64, tr *tracer, have map[string]metric) (map[string]metric, error) {
	root := tr.start("bench.suite", 0, 0)
	defer root.end()
	s := &suite{seed: seed, tr: tr, parent: root.id(), rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	out := map[string]metric{}
	for _, g := range suiteGroups {
		missing := false
		for _, k := range g.keys {
			if v, ok := have[k]; ok {
				out[k] = v
			} else {
				missing = true
			}
		}
		if !missing {
			continue
		}
		got, err := g.run(s)
		if err != nil {
			return nil, err
		}
		for _, k := range g.keys {
			if _, ok := out[k]; !ok {
				v, ok := got[k]
				if !ok {
					return nil, fmt.Errorf("suite did not measure %s", k)
				}
				out[k] = v
			}
		}
	}
	return out, nil
}

// miniCorpus proves one small instance per rule and shape.
func miniCorpus(s *suite) (map[string]metric, error) {
	var nodes int64
	var total float64
	by := map[string][]float64{}
	for _, shape := range []string{"chain", "intree"} {
		for _, rc := range []struct {
			rule microfab.Rule
			n    int
		}{{microfab.OneToOne, 9}, {microfab.Specialized, 13}, {microfab.General, 11}} {
			pr := microfab.CampaignParams(rc.n, 4, 9)
			var in *microfab.Instance
			var err error
			if shape == "chain" {
				in, err = microfab.GenerateChain(pr, s.rng.Int63())
			} else {
				in, err = microfab.GenerateInTree(pr, 3, s.rng.Int63())
			}
			if err != nil {
				return nil, err
			}
			var res *microfab.ExactResult
			d, err := s.timed("exact.solve", func() error {
				var err error
				res, err = microfab.SolveExact(in, microfab.ExactOptions{Rule: rc.rule, MaxNodes: corpusMaxNodes, Workers: 1, WarmStart: true})
				return err
			})
			if err != nil {
				return nil, err
			}
			ms := float64(d) / 1e6
			nodes += res.Nodes
			total += ms
			by[ruleName(rc.rule)] = append(by[ruleName(rc.rule)], ms)
			by[shape] = append(by[shape], ms)
		}
	}
	out := map[string]metric{
		"exact.nodes":       {float64(nodes), "count"},
		"exact.nodes_per_s": {float64(nodes) / (total / 1e3), "1/s"},
	}
	for _, k := range []string{"oto", "specialized", "general", "chain", "intree"} {
		out["exact.solve_ms."+k] = metric{median(by[k]), "ms"}
	}
	return out, nil
}

// miniServe serves two seconds of the serve-mixed traffic.
func miniServe(s *suite) (map[string]metric, error) {
	b, err := setupServe(s.seed)
	if err != nil {
		return nil, err
	}
	defer b.close()
	o, err := b.run(2, s.tr, s.parent)
	if err != nil {
		return nil, err
	}
	return o.layers, nil
}

// miniCampaign computes two draws of the first point of every campaign
// figure on the draw pool.
func miniCampaign(s *suite) (map[string]metric, error) {
	figs, err := campaignFigures(s.seed, 2, 100, 100)
	if err != nil {
		return nil, err
	}
	out := map[string]metric{}
	var busy, capacity float64
	for _, f := range figs {
		fo, err := runFigure(f, s.parent, s.tr)
		if err != nil {
			return nil, err
		}
		out["experiments.draw_ms."+f.name] = metric{median(fo.drawMs), "ms"}
		capacity += fo.wall * 1e3 * campaignWorkers
		for _, d := range fo.drawMs {
			busy += d
		}
	}
	out["experiments.pool_idle_frac"] = metric{(capacity - busy) / capacity, "share"}
	return out, nil
}

// mipShapes runs the exact burst and the MILP on Figure 10 shapes, one
// instance per point, with Figure 10's 100-node budget.
func mipShapes(s *suite) (map[string]metric, error) {
	var burst, solve []float64
	var burstProven, milpProven, milpNodes, count int
	for _, n := range fig10Shape {
		ins, err := s.instances(1, microfab.CampaignParams(n, 2, 5))
		if err != nil {
			return nil, err
		}
		for _, in := range ins {
			count++
			var eres *microfab.ExactResult
			d, err := s.timed("exact.solve", func() error {
				var err error
				eres, err = microfab.SolveExact(in, microfab.ExactOptions{Rule: microfab.Specialized, MaxNodes: 100, Workers: 1, WarmStart: true})
				return err
			})
			if err != nil {
				return nil, err
			}
			burst = append(burst, float64(d)/1e6)
			if eres.Proven {
				burstProven++
			}
			var mres *milp.Result
			d, err = s.timed("milp.solve", func() error {
				var err error
				mres, err = milp.Solve(in, milp.Options{Rule: microfab.Specialized, WarmStart: eres.Mapping, MaxNodes: 100, TimeLimit: time.Hour})
				return err
			})
			if err != nil {
				return nil, err
			}
			solve = append(solve, float64(d)/1e6)
			milpNodes += mres.Nodes
			if mres.Proven {
				milpProven++
			}
		}
	}
	return map[string]metric{
		"exact.burst_ms":          {median(burst), "ms"},
		"exact.burst_proven_frac": {float64(burstProven) / float64(count), "share"},
		"milp.solve_ms":           {median(solve), "ms"},
		"milp.nodes":              {float64(milpNodes), "count"},
		"milp.proven_frac":        {float64(milpProven) / float64(count), "share"},
	}, nil
}

// heuristicShapes times every paper heuristic, a full evaluation, the
// local-search polish and the optimal one-to-one solver at the shapes of
// the figures that use them.
func heuristicShapes(s *suite) (map[string]metric, error) {
	shapes := []microfab.GenParams{fig5Shape, microfab.CampaignParams(50, 2, 10), microfab.CampaignParams(150, 5, 100), fig8Shape()}
	var ins []*microfab.Instance
	for _, pr := range shapes {
		in, err := s.instances(1, pr)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in...)
	}
	out := map[string]metric{}
	for _, h := range []string{"H1", "H2", "H3", "H4", "H4w", "H4f"} {
		var per []float64
		for r := 0; r < suiteReps; r++ {
			var sum time.Duration
			for _, in := range ins {
				d, err := s.timed("heuristics."+h, func() error {
					_, err := microfab.Solve(in, h, int64(r))
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("%s: %w", h, err)
				}
				sum += d
			}
			per = append(per, float64(sum)/1e3/float64(len(ins)))
		}
		out["heuristics.call_us."+h] = metric{median(per), "us"}
	}

	mp, err := microfab.Solve(ins[0], "H4w", 0)
	if err != nil {
		return nil, err
	}
	var eval []float64
	for r := 0; r < suiteReps; r++ {
		d, err := s.timed("core.evaluate", func() error { _, err := microfab.Evaluate(ins[0], mp); return err })
		if err != nil {
			return nil, err
		}
		eval = append(eval, float64(d)/1e3)
	}
	out["core.evaluate_us"] = metric{median(eval), "us"}

	f8, err := s.instances(5, fig8Shape())
	if err != nil {
		return nil, err
	}
	var polish []float64
	for r, in := range f8 {
		start, err := microfab.Solve(in, "H4w", 0)
		if err != nil {
			return nil, err
		}
		d, err := s.timed("search.polish", func() error {
			_, err := microfab.Polish(in, start, "ls", microfab.Specialized, int64(r), 0)
			return err
		})
		if err != nil {
			return nil, err
		}
		polish = append(polish, float64(d)/1e6)
	}
	out["search.polish_ms"] = metric{median(polish), "ms"}

	f9, err := s.instances(5, fig9Shape())
	if err != nil {
		return nil, err
	}
	var otoMs []float64
	for _, in := range f9 {
		d, err := s.timed("oto.solve", func() error { _, err := microfab.Solve(in, "oto", 0); return err })
		if err != nil {
			return nil, err
		}
		otoMs = append(otoMs, float64(d)/1e6)
	}
	out["oto.solve_ms"] = metric{median(otoMs), "ms"}
	return out, nil
}

// requestPath times the per-request steps of the serve miss path that a
// client can call directly: canonical hashing, request decoding, and the
// instance generator that feeds the corpus and the fresh requests.
func requestPath(s *suite) (map[string]metric, error) {
	var hash, decode, gen []float64
	for r := 0; r < suiteReps*4; r++ {
		var in *microfab.Instance
		d, err := s.timed("gen.instance", func() error {
			var err error
			in, err = microfab.GenerateChain(microfab.CampaignParams(serveN, serveP, serveM), s.rng.Int63())
			return err
		})
		if err != nil {
			return nil, err
		}
		gen = append(gen, float64(d)/1e3)
		d, _ = s.timed("serve.hash", func() error { serve.CanonicalHash(in); return nil })
		hash = append(hash, float64(d)/1e3)
		body, err := solveBody(in, "exact")
		if err != nil {
			return nil, err
		}
		d, err = s.timed("instance.decode", func() error {
			var req serve.SolveRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return err
			}
			_, err := req.Instance.ToInstance()
			return err
		})
		if err != nil {
			return nil, err
		}
		decode = append(decode, float64(d)/1e3)
	}
	return map[string]metric{
		"serve.hash_us":      {median(hash), "us"},
		"instance.decode_us": {median(decode), "us"},
		"gen.instance_us":    {median(gen), "us"},
	}, nil
}
