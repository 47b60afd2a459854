// Tiered relaxation bounds for the branch and bound: when the cheap
// combinatorial bound (bound.go) lands close to the pruning threshold but
// not over it, the node is worth a stronger — and costlier — relaxation
// before its subtree is expanded.
//
//	tier 1  combinatorial      O((n-k)·m)          every node (bound.go)
//	tier 2  bottleneck assign  O((n-k)·m·√ + sort)  rule-constrained nodes
//
// Tier 2 prices every unplaced task's feasible landings off the Pricer's
// SoA rows and solves a min-max one-to-one relaxation with
// internal/hungarian: under the one-to-one rule the unplaced tasks really
// do occupy pairwise-distinct (still-free) machines, so the bottleneck
// assignment value is a valid lower bound on any completion's period;
// under the Specialized rule the same holds for one representative task
// per remaining type (distinct types occupy distinct machines), with the
// representative chosen — deterministically — as the type's hardest task,
// the one whose cheapest feasible landing is largest. Under the general
// rule there is no injectivity to exploit and the tier never runs.
//
// The tier is admissibility-fuzzed against the exhaustive completion
// oracle (FuzzAssignmentBound) exactly like the combinatorial bound.
//
// Activation is gated two ways, because a relaxation only pays when its
// cost is smaller than the subtree it might cut:
//
//   - strength: the tier runs only when the combinatorial bound already
//     reached a fraction (the gate) of the pruning threshold, and each
//     searcher adapts that fraction with an amortized controller — every
//     gateWindow attempts, a tier that almost never converts into a prune
//     is throttled (gate up), one that converts often is let loose (gate
//     down);
//   - collision: the bottleneck value exceeds tier 1's cheapest-landing
//     maximum *iff* the min-landing assignment is not itself a matching,
//     i.e. two relevant tasks share an argmin machine. lowerBound's main
//     loop records each task's argmin for free, so the matcher runs only
//     after an O(n-k) duplicate scan finds a collision — a lossless
//     filter, not a heuristic.
//
// A per-searcher warmup (relaxWarmup nodes) on top of both keeps easy
// searches on the pure combinatorial bound.
//
// The gates and the warmup make bound *values* history-dependent — under a
// parallel root split even timing-dependent, since a worker's node count
// depends on which subtrees it happened to draw. That is
// deliberately safe: every value any gate state produces is admissible, and
// the proven result of the search is invariant under swapping one
// admissible bound for another — ancestors of the first optimum-attaining
// leaf in DFS order satisfy lb <= P* for every admissible lb, so neither
// the >=-test against the (deterministically evolving) local incumbent nor
// the strict test against the shared one can prune them; only node counts
// move. TestExactParallelDifferential and TestExactDistributedMatchesLocal
// pin exactly this: byte-equal proofs with the tier on or off, for any
// worker count.
package exact

import (
	"errors"
	"math"

	"microfab/internal/core"
	"microfab/internal/hungarian"
)

// relaxWarmup: nodes a searcher must have expanded before the tier
// activates. A search that finishes in a few thousand nodes is cheaper
// than the relaxation it would run — the tier exists for searches in the
// millions, and those pass the warmup in microseconds. A variable so the
// admissibility and dominance tests can force activation on small
// instances; production code never writes it.
var relaxWarmup = int64(4096)

const (
	// assignMinRem: minimum unplaced-task count for tier 2 to beat tier 1.
	// One remaining task's bottleneck is its cheapest landing, which tier 1
	// already has.
	assignMinRem = 2

	// assignGate0: run the tier only when tier 1 reached this fraction of
	// the pruning threshold. Tuned from there by the controller.
	assignGate0 = 0.80

	// Controller: every gateWindow attempts, move the gate by gateStep —
	// up (throttle) when fewer than 2% of attempts pruned, down (spend
	// more) when more than 25% did — within [floor, ceiling].
	gateWindow      = 256
	gateStep        = 0.05
	assignGateFloor = 0.30
	assignGateCeil  = 0.95
)

// relaxer is one searcher's relaxation-tier state: the reusable hungarian
// workspace, flat scratch, and the adaptive gate controller. All private to
// the owning goroutine, like the rest of the searcher.
type relaxer struct {
	hs *hungarian.Solver

	cost    []float64 // flat landing matrix for the bottleneck tier
	cols    []int     // column -> machine id
	repTask []int     // per-type representative (order position; -1 none)

	// seen/stamp: O(1)-reset machine marks for the argmin-collision scan.
	seen  []int
	stamp int

	assignGate    float64
	aTries, aHits int
}

func newRelaxer(in *core.Instance) *relaxer {
	return &relaxer{
		hs:         hungarian.NewSolver(),
		cols:       make([]int, in.M()),
		repTask:    make([]int, in.P()),
		seen:       make([]int, in.M()),
		assignGate: assignGate0,
	}
}

// strengthen runs the relaxation tier on a node the combinatorial bound
// (lb) failed to prune, returning a possibly-raised admissible bound. It
// requires lowerBound's main loop to have completed for depth k, so
// s.dlb[k..n) holds the node's demand lower bounds.
func (s *searcher) strengthen(k int, lb, localBest, sharedP float64) float64 {
	rx := s.rx
	thr := localBest
	if sharedP < thr {
		thr = sharedP
	}
	if math.IsInf(thr, 1) {
		// No incumbent to prune against: a stronger bound changes nothing.
		return lb
	}
	if len(s.order)-k < assignMinRem || lb < rx.assignGate*thr {
		return lb
	}
	ab, ok, tried := s.assignmentBound(k)
	if !tried {
		// Collision-skips stay out of the controller's stats: they cost one
		// linear scan, not a matching, and throttling on them would starve
		// the tier on instances with rare-but-deep collisions.
		return lb
	}
	rx.aTries++
	if ok && ab > lb {
		lb = ab
	}
	if lb >= localBest || lb > sharedP {
		rx.aHits++
	}
	rx.tune()
	return lb
}

// tune is the amortized gate controller (see the package comment). It runs
// after every tier attempt but only moves the gate once per gateWindow
// attempts.
func (rx *relaxer) tune() {
	if rx.aTries < gateWindow {
		return
	}
	switch {
	case rx.aHits*50 < rx.aTries: // < 2% conversions: throttle
		rx.assignGate = math.Min(rx.assignGate+gateStep, assignGateCeil)
	case rx.aHits*4 > rx.aTries: // > 25%: the tier is earning; widen
		rx.assignGate = math.Max(rx.assignGate-gateStep, assignGateFloor)
	}
	rx.aTries, rx.aHits = 0, 0
}

// markCollision stamps machine u in the collision scan; true once two
// stamped tasks share a machine. u < 0 (a task with no feasible landing)
// counts as a collision so the matcher runs and proves +Inf.
func (rx *relaxer) markCollision(u int) bool {
	if u < 0 || rx.seen[u] == rx.stamp {
		return true
	}
	rx.seen[u] = rx.stamp
	return false
}

// assignmentBound is the bottleneck tier. It returns (bound, ok, tried):
// ok=false when the rule offers no injectivity here, and tried=false is
// the zero-cost exit — the relevant tasks' cheapest-landing machines are
// pairwise distinct, so the min-landing assignment is itself a feasible
// matching, the bottleneck value equals tier 1's cheapest-landing maximum
// exactly, and running the matcher could not raise the bound. +Inf (with
// ok) proves the node infeasible — more tasks or task types than machines
// can carry them, or no perfect matching at all. Requires s.dlb, s.minLand
// and s.landArg filled for depth k (lowerBound's main loop).
func (s *searcher) assignmentBound(k int) (float64, bool, bool) {
	rx := s.rx
	n := len(s.order)
	switch s.rule {
	case core.OneToOne:
		// Every unplaced task occupies its own still-free machine, so the
		// min-max perfect assignment of tasks to free machines — each cell
		// the exact landing price at the task's demand lower bound — bounds
		// every completion from below.
		cols := rx.cols[:0]
		for u := 0; u < s.m; u++ {
			if !s.used[u] {
				cols = append(cols, u)
			}
		}
		nr, nc := n-k, len(cols)
		if nr > nc {
			return math.Inf(1), true, true
		}
		rx.stamp++
		collide := false
		for j := k; j < n && !collide; j++ {
			collide = rx.markCollision(s.landArg[j])
		}
		if !collide {
			return 0, false, false
		}
		if cap(rx.cost) < nr*nc {
			rx.cost = make([]float64, nr*nc)
		}
		cost := rx.cost[:nr*nc]
		for r := 0; r < nr; r++ {
			j := k + r
			s.pr.PriceAllAt(s.order[j], s.dlb[j], s.land)
			row := cost[r*nc:]
			for c, u := range cols {
				row[c] = s.land[u]
			}
		}
		_, b, err := rx.hs.Bottleneck(cost, nr, nc)
		if err != nil {
			if errors.Is(err, hungarian.ErrNoPerfectMatching) {
				return math.Inf(1), true, true
			}
			return 0, false, true
		}
		return b, true, true

	case core.Specialized:
		// Distinct remaining types end up on distinct machines (each type
		// on machines dedicated to it), so one representative task per
		// remaining type forms a one-to-one sub-problem over all machines.
		// The representative is the type's hardest unplaced task — largest
		// cheapest-feasible-landing — a pure function of the node (ties
		// keep the earliest order position).
		for t := range rx.repTask {
			rx.repTask[t] = -1
		}
		nr := 0
		for j := k; j < n; j++ {
			ty := int(s.in.App.Type(s.order[j]))
			if r := rx.repTask[ty]; r < 0 {
				rx.repTask[ty] = j
				nr++
			} else if s.minLand[j] > s.minLand[r] {
				rx.repTask[ty] = j
			}
		}
		if nr > s.m {
			return math.Inf(1), true, true
		}
		if nr < 2 {
			// A single remaining type's bottleneck is its representative's
			// cheapest landing; tier 1's maxTask already saw it.
			return 0, false, false
		}
		rx.stamp++
		collide := false
		for t := range rx.repTask {
			if j := rx.repTask[t]; j >= 0 && rx.markCollision(s.landArg[j]) {
				collide = true
				break
			}
		}
		if !collide {
			return 0, false, false
		}
		nc := s.m
		if cap(rx.cost) < nr*nc {
			rx.cost = make([]float64, nr*nc)
		}
		cost := rx.cost[:nr*nc]
		r := 0
		for t := range rx.repTask {
			j := rx.repTask[t]
			if j < 0 {
				continue
			}
			i := s.order[j]
			ty := s.in.App.Type(i)
			s.pr.PriceAllAt(i, s.dlb[j], s.land)
			row := cost[r*nc:]
			for u := 0; u < nc; u++ {
				if s.feasible(u, ty) {
					row[u] = s.land[u]
				} else {
					row[u] = math.Inf(1)
				}
			}
			r++
		}
		_, b, err := rx.hs.Bottleneck(cost, nr, nc)
		if err != nil {
			if errors.Is(err, hungarian.ErrNoPerfectMatching) {
				return math.Inf(1), true, true
			}
			return 0, false, true
		}
		return b, true, true
	}
	return 0, false, false
}
