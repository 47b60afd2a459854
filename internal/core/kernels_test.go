package core_test

import (
	"math/rand"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/platform"
)

// TestSwapKernelDifferential drives random swaps over chains and in-trees
// and cross-checks the native kernel against (a) an oracle evaluator
// applying the same move as two Assigns and (b) the from-scratch
// evaluation, after every step. The kernel and the oracle may differ in
// the last ulps of a compensated sum (different charge/discharge
// histories), hence the 1e-12 comparison rather than bit equality.
func TestSwapKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	var corpus []*core.Instance
	add := func(in *core.Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, in)
	}
	add(gen.Chain(gen.Default(10, 3, 4), gen.RNG(8000)))
	add(gen.Chain(gen.Default(25, 5, 8), gen.RNG(8001)))
	add(gen.InTree(gen.Default(12, 3, 5), 2, gen.RNG(8002)))
	add(gen.InTree(gen.Default(30, 4, 9), 4, gen.RNG(8003)))
	hf := gen.Default(20, 4, 6)
	hf.FMin, hf.FMax = 0, 0.10
	add(gen.Chain(hf, gen.RNG(8004)))

	for ci, in := range corpus {
		mp := core.NewMapping(in.N())
		for i := 0; i < in.N(); i++ {
			mp.Assign(app.TaskID(i), platform.MachineID(rng.Intn(in.M())))
		}
		kernel, err := core.NewEvaluatorFrom(in, mp)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := core.NewEvaluatorFrom(in, mp)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 200; step++ {
			i := app.TaskID(rng.Intn(in.N()))
			j := app.TaskID(rng.Intn(in.N()))
			u, v := mp.Machine(i), mp.Machine(j)
			if err := kernel.Swap(i, j); err != nil {
				t.Fatalf("inst%d step %d: Swap(T%d, T%d): %v", ci, step, int(i)+1, int(j)+1, err)
			}
			if err := oracle.Assign(i, v); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Assign(j, u); err != nil {
				t.Fatal(err)
			}
			mp.Assign(i, v)
			mp.Assign(j, u)
			for w := 0; w < in.M(); w++ {
				mw := platform.MachineID(w)
				if !close12(kernel.MachinePeriod(mw), oracle.MachinePeriod(mw)) {
					t.Fatalf("inst%d step %d swap(T%d,T%d): period(M%d) kernel %v, two-assign oracle %v",
						ci, step, int(i)+1, int(j)+1, w+1, kernel.MachinePeriod(mw), oracle.MachinePeriod(mw))
				}
			}
			checkAgainstReference(t, in, mp, kernel, "swap kernel")
		}
	}
}

// TestSwapKernelPartialMappings: the kernel must stay correct when the
// swapped tasks sit above unassigned regions (unknown demands) — the state
// any mid-construction search could hand it.
func TestSwapKernelPartialMappings(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	in, err := gen.InTree(gen.Default(14, 3, 5), 3, gen.RNG(8100))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		mp := core.NewMapping(in.N())
		var assigned []app.TaskID
		for i := 0; i < in.N(); i++ {
			if rng.Intn(4) != 0 {
				mp.Assign(app.TaskID(i), platform.MachineID(rng.Intn(in.M())))
				assigned = append(assigned, app.TaskID(i))
			}
		}
		if len(assigned) < 2 {
			continue
		}
		ev, err := core.NewEvaluatorFrom(in, mp)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 30; step++ {
			i := assigned[rng.Intn(len(assigned))]
			j := assigned[rng.Intn(len(assigned))]
			u, v := mp.Machine(i), mp.Machine(j)
			if err := ev.Swap(i, j); err != nil {
				t.Fatal(err)
			}
			mp.Assign(i, v)
			mp.Assign(j, u)
			checkAgainstReference(t, in, mp, ev, "partial swap")
		}
	}
}

// TestSwapKernelEdges covers the no-op and error contracts: self-swap,
// same-machine swap, unassigned operands, out-of-range ids.
func TestSwapKernelEdges(t *testing.T) {
	in, err := gen.Chain(gen.Default(6, 2, 3), gen.RNG(8200))
	if err != nil {
		t.Fatal(err)
	}
	mp := core.NewMapping(in.N())
	for i := 0; i < in.N(); i++ {
		mp.Assign(app.TaskID(i), platform.MachineID(i%in.M()))
	}
	ev, err := core.NewEvaluatorFrom(in, mp)
	if err != nil {
		t.Fatal(err)
	}
	before := ev.MachinePeriods()
	if err := ev.Swap(0, 0); err != nil {
		t.Fatalf("self-swap errored: %v", err)
	}
	if err := ev.Swap(0, app.TaskID(in.M())); err != nil {
		t.Fatalf("same-machine swap errored: %v", err)
	}
	after := ev.MachinePeriods()
	for u := range before {
		if before[u] != after[u] {
			t.Fatalf("no-op swaps moved period(M%d): %v -> %v", u+1, before[u], after[u])
		}
	}
	if err := ev.Swap(0, app.TaskID(in.N())); err == nil {
		t.Fatal("out-of-range swap accepted")
	}
	ev.Unassign(0)
	if err := ev.Swap(0, 1); err == nil {
		t.Fatal("swap with an unassigned operand accepted")
	}
	if err := ev.Relocate(0, 1); err == nil {
		t.Fatal("relocate of an unassigned task accepted")
	}
	if err := ev.Relocate(app.TaskID(-1), 0); err == nil {
		t.Fatal("out-of-range relocate accepted")
	}
}

// TestRelocateKernelMatchesAssign: Relocate is Assign with validation —
// same resulting state, bit for bit (same code path underneath).
func TestRelocateKernelMatchesAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(4444))
	in, err := gen.InTree(gen.Default(16, 4, 6), 2, gen.RNG(8300))
	if err != nil {
		t.Fatal(err)
	}
	mp := core.NewMapping(in.N())
	for i := 0; i < in.N(); i++ {
		mp.Assign(app.TaskID(i), platform.MachineID(rng.Intn(in.M())))
	}
	a, err := core.NewEvaluatorFrom(in, mp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewEvaluatorFrom(in, mp)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 150; step++ {
		i := app.TaskID(rng.Intn(in.N()))
		v := platform.MachineID(rng.Intn(in.M()))
		if err := a.Relocate(i, v); err != nil {
			t.Fatal(err)
		}
		if err := b.Assign(i, v); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < in.M(); u++ {
			mu := platform.MachineID(u)
			if a.MachinePeriod(mu) != b.MachinePeriod(mu) {
				t.Fatalf("step %d: Relocate and Assign diverged on M%d", step, u+1)
			}
		}
	}
}
