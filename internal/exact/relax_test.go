// Admissibility and dominance gates for the relaxation tier (relax.go): a
// native fuzz target cross-checks the tier against the exhaustive
// completion oracle exactly like FuzzExactBound does for the combinatorial
// bound, and the deterministic tests pin that the tier (a) does strengthen
// bounds somewhere, (b) never grows a sequential proof, and (c) leaves
// every proven result byte-identical, for any worker count, tier on or off.
//
// Smoke-run the fuzzer locally or in CI with:
//
//	go test -run='^$' -fuzz=FuzzAssignmentBound -fuzztime=10s ./internal/exact
package exact

import (
	"math"
	"testing"

	"microfab/internal/core"
	"microfab/internal/platform"
)

// relaxAt replays a prefix on a fresh searcher with the relaxation tier
// force-built (no warmup), runs the combinatorial bound with +Inf
// thresholds to fill the per-node scratch the tier reads (dlb, minLand,
// landArg), and returns the searcher plus that combinatorial bound. The
// tier method is then directly callable for the replayed depth.
func relaxAt(t testing.TB, in *core.Instance, rule core.Rule, prefix []platform.MachineID) (*searcher, float64) {
	t.Helper()
	sv, err := newSolver(in, Options{Rule: rule})
	if err != nil {
		t.Fatal(err)
	}
	s := sv.newSearcher(nil)
	s.rx = newRelaxer(sv.in)
	s.minLand = make([]float64, len(s.order))
	s.landArg = make([]int, len(s.order))
	s.push(prefix)
	return s, s.lowerBound(len(prefix), math.Inf(1), math.Inf(1))
}

// FuzzAssignmentBound: the bottleneck-assignment bound of any rule-feasible
// partial assignment must never exceed the optimum over its completions
// (+Inf claims the node has none at all).
func FuzzAssignmentBound(f *testing.F) {
	f.Add([]byte("assign-bound-admissible"))
	f.Add([]byte{6, 3, 2, 0, 120, 40, 1, 90, 0, 55, 2, 80, 1, 70, 3, 1, 2, 0, 1, 2})
	f.Add([]byte{5, 5, 2, 1, 30, 60, 90, 120, 150, 180, 210, 240, 14, 3, 1})
	f.Add([]byte("\x04\x05\x01\x00one-to-one-collisions\x7f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		p := &fuzzTape{data: data}
		in, err := decodeBoundInstance(p)
		if err != nil {
			t.Fatalf("decoder built an invalid instance: %v", err)
		}
		rule := core.Specialized
		if p.next()%2 == 0 && in.N() <= in.M() {
			rule = core.OneToOne
		}
		order := in.App.ReverseTopological()
		prefix := feasiblePrefix(in, rule, order, p.intn(in.N()+1), func(int) int { return int(p.next()) })

		s, _ := relaxAt(t, in, rule, prefix)
		ab, ok, tried := s.assignmentBound(len(prefix))
		if !tried && ok {
			t.Fatalf("collision-free skip claimed a bound: %v", ab)
		}
		if !ok {
			return
		}
		opt, done := completionOptimum(in, rule, order, prefix, 2_000_000)
		if !done {
			return // oracle budget hit; nothing to assert
		}
		if ab > opt*(1+1e-9) {
			t.Fatalf("inadmissible assignment bound: %v exceeds completion optimum %v (rule %v, prefix %v, n=%d m=%d)",
				ab, opt, rule, prefix, in.N(), in.M())
		}
	})
}

// TestRelaxationTiersAdmissible sweeps the differential corpus at several
// prefix depths, checking the assignment tier against the exhaustive
// oracle, and — so the gates can't rot into vacuity — that it strictly
// improves on the combinatorial bound somewhere in the sweep.
func TestRelaxationTiersAdmissible(t *testing.T) {
	assignWins := 0
	for ci, c := range differentialCorpus(t) {
		order := c.in.App.ReverseTopological()
		for _, depth := range []int{0, 1, c.in.N() / 2} {
			prefix := feasiblePrefix(c.in, c.rule, order, depth, func(j int) int { return ci*31 + j*7 })
			s, lb := relaxAt(t, c.in, c.rule, prefix)
			opt, done := completionOptimum(c.in, c.rule, order, prefix, 2_000_000)
			if !done {
				continue
			}
			if ab, ok, _ := s.assignmentBound(len(prefix)); ok {
				if ab > opt*(1+1e-9) {
					t.Fatalf("%s[%d] depth %d: assignment bound %v > optimum %v", c.name, ci, depth, ab, opt)
				}
				if ab > lb {
					assignWins++
				}
			}
		}
	}
	if assignWins == 0 {
		t.Fatal("the assignment tier never beat the combinatorial bound on the corpus — its gates are vacuous")
	}
	t.Logf("the assignment tier strictly improved the combinatorial bound %d times", assignWins)
}

// TestRelaxationBoundDominates: on the full differential corpus, a
// sequential proof with the tier on explores no more nodes than with it
// off, returns byte-identical results either way, and parallel runs with
// the tier on stay byte-identical to the sequential ones. The warmup is
// forced off so the tier actually runs on these small instances.
func TestRelaxationBoundDominates(t *testing.T) {
	oldWarmup := relaxWarmup
	relaxWarmup = 0
	defer func() { relaxWarmup = oldWarmup }()

	corpus := differentialCorpus(t)
	if len(corpus) < 50 {
		t.Fatalf("corpus has %d instances, the gate requires >= 50", len(corpus))
	}
	improved := 0
	for ci, c := range corpus {
		on := Options{Rule: c.rule, MaxNodes: 4_000_000, Workers: 1}
		off := on
		off.DisableAssignBound = true

		comb, err := Solve(c.in, off)
		if err != nil {
			t.Fatalf("%s[%d]: tiers off: %v", c.name, ci, err)
		}
		both, err := Solve(c.in, on)
		if err != nil {
			t.Fatalf("%s[%d]: tiers on: %v", c.name, ci, err)
		}
		if !comb.Proven || !both.Proven {
			t.Fatalf("%s[%d]: unproven (off %v, on %v)", c.name, ci, comb.Proven, both.Proven)
		}
		if math.Float64bits(both.Period) != math.Float64bits(comb.Period) {
			t.Fatalf("%s[%d]: period diverged: tiers on %v, off %v", c.name, ci, both.Period, comb.Period)
		}
		if both.Mapping.String() != comb.Mapping.String() {
			t.Fatalf("%s[%d]: mapping diverged:\n  on  %v\n  off %v", c.name, ci, both.Mapping, comb.Mapping)
		}
		if both.Nodes > comb.Nodes {
			t.Fatalf("%s[%d]: tiers grew the proof: %d nodes vs %d without", c.name, ci, both.Nodes, comb.Nodes)
		}
		if both.Nodes < comb.Nodes {
			improved++
		}
		par, err := Solve(c.in, optsWithWorkers(on, 3))
		if err != nil {
			t.Fatalf("%s[%d] workers=3: %v", c.name, ci, err)
		}
		if !par.Proven || math.Float64bits(par.Period) != math.Float64bits(both.Period) ||
			par.Mapping.String() != both.Mapping.String() {
			t.Fatalf("%s[%d]: parallel run with tiers diverged from sequential", c.name, ci)
		}
	}
	if improved == 0 {
		t.Fatal("tiers never reduced a corpus proof; the strengthen path is dead")
	}
	t.Logf("tiers reduced the sequential proof on %d/%d corpus cases", improved, len(corpus))
}

// TestProvenRegimeRelaxNodeRatio: the production configuration (default
// warmup and gates) must prove the n=18 proven-regime instance in
// measurably fewer nodes than the combinatorial bound alone, with a
// byte-identical result.
func TestProvenRegimeRelaxNodeRatio(t *testing.T) {
	if raceEnabled {
		t.Skip("node-ratio measurement is redundant under the race detector")
	}
	in := symmetricInstanceF(t, 18, 2, 9, 3, 0, 0.1, 1804)
	both, err := Solve(in, Options{Rule: core.Specialized})
	if err != nil {
		t.Fatal(err)
	}
	comb, err := Solve(in, Options{Rule: core.Specialized, DisableAssignBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if !both.Proven || !comb.Proven {
		t.Fatalf("unproven (tiers %v, comb %v)", both.Proven, comb.Proven)
	}
	if math.Float64bits(both.Period) != math.Float64bits(comb.Period) {
		t.Fatalf("period diverged: tiers %v, comb %v", both.Period, comb.Period)
	}
	if both.Mapping.String() != comb.Mapping.String() {
		t.Fatalf("mapping diverged:\n  tiers %v\n  comb  %v", both.Mapping, comb.Mapping)
	}
	// Measured ~8.3% fewer nodes; 3% is the rot alarm, not the target.
	if both.Nodes*100 > comb.Nodes*97 {
		t.Fatalf("relaxation tiers reduced the n=18 proof by under 3%%: %d nodes vs %d", both.Nodes, comb.Nodes)
	}
	t.Logf("n=18 proof: %d nodes with tiers vs %d combinatorial-only (%.1f%% fewer)",
		both.Nodes, comb.Nodes, 100*(1-float64(both.Nodes)/float64(comb.Nodes)))
}
