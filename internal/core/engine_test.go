package core

import (
	"math"
	"testing"

	"repro/internal/lp"
)

// TestEngineThreading pins the one-value threading of the LP engine knobs:
// a non-zero SolverOptions.Engine must reach every branch-and-bound node LP
// unchanged, on the warm path (node LPs reoptimized by lp.Incremental) and
// on the cold path (node LPs cloned from the master), so a layer that drops
// or rewrites the value fails here. Under DisableSparse no LP of the route
// — Kelley relaxation included — may reach the revised LU engine, and under
// DisableCrash no crash basis may be attempted; presolve must hand the
// knobs on to the reduced problem it solves. The optimum must match the
// production engine's.
func TestEngineThreading(t *testing.T) {
	ref, err := fourTasks(64, MinMax).SolveMINLP(SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []lp.Engine{
		{DisableSparse: true, DisablePresolve: true, DisableCrash: true},
		{DisableWarmStart: true, DisableSparse: true, DisablePresolve: true, DisableCrash: true},
		{DisableWarmStart: true, DisablePresolve: true},
		{DisableWarmStart: true, DisableSparse: true},
	} {
		nodeLPs := 0
		check := func(p *lp.Problem, _ *lp.Solution) {
			nodeLPs++
			if p.Engine != eng {
				t.Fatalf("engine %+v: node LP carries %+v", eng, p.Engine)
			}
		}
		s0 := lp.ReadEngineStats()
		a, err := fourTasks(64, MinMax).SolveMINLP(SolverOptions{Engine: eng, DebugLPCheck: check})
		if err != nil {
			t.Fatalf("engine %+v: %v", eng, err)
		}
		s1 := lp.ReadEngineStats()
		if nodeLPs == 0 {
			t.Fatalf("engine %+v: no node LP reached DebugLPCheck", eng)
		}
		if eng.DisableSparse && (s1.Solves != s0.Solves || s1.Fallbacks != s0.Fallbacks) {
			t.Fatalf("engine %+v: %d LPs reached the revised engine", eng,
				s1.Solves-s0.Solves+s1.Fallbacks-s0.Fallbacks)
		}
		if eng.DisableCrash && (s1.CrashInstalls != s0.CrashInstalls || s1.CrashDeclines != s0.CrashDeclines) {
			t.Fatalf("engine %+v: crash activity under DisableCrash", eng)
		}
		if math.Abs(a.Makespan-ref.Makespan) > 1e-9*(1+math.Abs(ref.Makespan)) {
			t.Fatalf("engine %+v: makespan %g vs %g (production engine)", eng, a.Makespan, ref.Makespan)
		}
	}
}
