package milp

import (
	"math"
	"testing"

	"repro/internal/lp"
	"repro/internal/stats"
)

// TestWarmMatchesColdProperty fuzzes random MILPs and checks that the
// default warm-started tree and a cold-solved tree agree on the answer.
// Tree statistics are allowed to differ (warm and cold solves can land on
// different vertices of the same optimal face, which changes branching),
// but status and objective must match, and every warm node LP must carry a
// valid KKT certificate.
func TestWarmMatchesColdProperty(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 120
	}
	for seed := 0; seed < n; seed++ {
		rng := stats.NewRNG(uint64(9000 + seed))
		p, ints, sos := randomInstance(rng)

		kkt := func(p *lp.Problem, sol *lp.Solution) {
			if sol.Status != lp.Optimal {
				return
			}
			if err := lp.VerifyKKT(p, sol, 1e-6); err != nil {
				t.Fatalf("seed %d: warm node LP certificate: %v", seed, err)
			}
		}
		warm := Solve(p.Clone(), ints, sos, Options{MaxNodes: 20000, DebugLPCheck: kkt})
		cold := Solve(coldLP(p), ints, sos, Options{MaxNodes: 20000})

		if warm.Status != cold.Status {
			t.Fatalf("seed %d: status %v (warm) vs %v (cold)", seed, warm.Status, cold.Status)
		}
		if warm.Status != Optimal {
			continue
		}
		if diff := math.Abs(warm.Obj - cold.Obj); diff > 1e-9*(1+math.Abs(cold.Obj)) {
			t.Fatalf("seed %d: obj %v (warm) vs %v (cold)", seed, warm.Obj, cold.Obj)
		}
	}
}

// TestIterLimitNodeNotPruned is the regression test for the bug where a
// node LP ending in lp.IterLimit was pruned exactly like lp.Infeasible,
// silently discarding a subtree that may hold the optimum. An iteration
// budget that truncates every node must yield a bounded, explicitly inexact
// verdict — never a claim of infeasibility.
func TestIterLimitNodeNotPruned(t *testing.T) {
	build := func() (*lp.Problem, []int) {
		p := lp.NewProblem()
		var ints []int
		for i := 0; i < 3; i++ {
			ints = append(ints, p.AddVariable(0, 1, -1, ""))
		}
		p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}, {Var: 2, Coef: 1}}, lp.LE, 2, "")
		p.MaxIter = 1 // truncate every node LP
		return p, ints
	}
	for _, cold := range []bool{false, true} {
		p, ints := build()
		p.Engine.DisableWarmStart = cold
		res := Solve(p, ints, nil, Options{})
		if res.Status == Infeasible {
			t.Fatalf("cold=%v: IterLimit nodes reported as Infeasible (the model is feasible)", cold)
		}
		if res.Status != NodeLimit {
			t.Fatalf("cold=%v: want NodeLimit for a fully truncated search, got %v", cold, res.Status)
		}
		if !res.Inexact {
			t.Fatalf("cold=%v: truncated search not flagged Inexact", cold)
		}
	}

	// Sanity: the same model solves to optimality with a real budget.
	p, ints := build()
	p.MaxIter = 0
	res := Solve(p, ints, nil, Options{})
	if res.Status != Optimal || res.Inexact {
		t.Fatalf("control solve: status %v inexact %v", res.Status, res.Inexact)
	}
	if math.Abs(res.Obj-(-2)) > 1e-9 {
		t.Fatalf("control solve: obj %v, want -2", res.Obj)
	}
}

// TestWarmPivotSavings checks the headline perf claim at the milp level:
// warm-started trees spend several times fewer simplex pivots than cold
// trees on the same instances.
func TestWarmPivotSavings(t *testing.T) {
	var warmPivots, coldPivots int
	for seed := 0; seed < 8; seed++ {
		rng := stats.NewRNG(uint64(777 + seed))
		// Assignment-structured instance shaped like the paper's
		// allocation problems: each task picks exactly one config, two
		// capacity rows couple the tasks. The LP has one row per task, so
		// a cold node solve pays O(tasks) pivots while the warm repair of
		// a single branched bound stays O(1) — the regime the basis-reuse
		// layer targets.
		p := lp.NewProblem()
		tasks, configs := 12, 4
		var ints []int
		x := make([][]int, tasks)
		for ti := 0; ti < tasks; ti++ {
			x[ti] = make([]int, configs)
			for k := 0; k < configs; k++ {
				x[ti][k] = p.AddVariable(0, 1, 1+10*rng.Float64(), "")
				ints = append(ints, x[ti][k])
			}
			terms := make([]lp.Term, configs)
			for k := 0; k < configs; k++ {
				terms[k] = lp.Term{Var: x[ti][k], Coef: 1}
			}
			p.AddConstraint(terms, lp.EQ, 1, "")
		}
		for c := 0; c < 2; c++ {
			var terms []lp.Term
			for ti := 0; ti < tasks; ti++ {
				for k := 0; k < configs; k++ {
					terms = append(terms, lp.Term{Var: x[ti][k], Coef: 1 + 5*rng.Float64()})
				}
			}
			p.AddConstraint(terms, lp.LE, 3.0*float64(tasks), "")
		}
		warm := Solve(p.Clone(), ints, nil, Options{MaxNodes: 20000})
		cold := Solve(coldLP(p), ints, nil, Options{MaxNodes: 20000})
		if warm.Status != Optimal || cold.Status != Optimal {
			t.Fatalf("seed %d: status %v (warm) / %v (cold)", seed, warm.Status, cold.Status)
		}
		if diff := math.Abs(warm.Obj - cold.Obj); diff > 1e-9*(1+math.Abs(cold.Obj)) {
			t.Fatalf("seed %d: obj %v (warm) vs %v (cold)", seed, warm.Obj, cold.Obj)
		}
		warmPivots += warm.Pivots
		coldPivots += cold.Pivots
	}
	if warmPivots*3 > coldPivots {
		t.Fatalf("warm trees used %d pivots vs %d cold — expected at least 3x savings",
			warmPivots, coldPivots)
	}
	t.Logf("pivots: warm %d vs cold %d (%.1fx)", warmPivots, coldPivots,
		float64(coldPivots)/float64(warmPivots))
}

// coldLP returns a clone of p whose node LPs all solve cold.
func coldLP(p *lp.Problem) *lp.Problem {
	c := p.Clone()
	c.Engine.DisableWarmStart = true
	return c
}
