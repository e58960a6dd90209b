package core

import (
	"math"
	"testing"

	"repro/internal/lp"
)

// TestCrashSeedsMINLPRoute pins the heuristic→LP threading: SolveMINLP
// runs the paper's static allocation first and hands it to the master LP
// as a crash point, which must actually install (not silently decline),
// and the answer must match the crash-disabled route exactly. The
// Engine.DisableCrash knob is the ablation switch — with it set, no crash
// activity may occur at all.
func TestCrashSeedsMINLPRoute(t *testing.T) {
	p := fourTasks(64, MinMax)
	before := lp.ReadEngineStats()
	a, err := p.SolveMINLP(SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after := lp.ReadEngineStats()
	t.Logf("makespan=%g installs +%d declines +%d", a.Makespan,
		after.CrashInstalls-before.CrashInstalls, after.CrashDeclines-before.CrashDeclines)
	if after.CrashInstalls == before.CrashInstalls {
		t.Fatalf("no crash basis installed on the MINLP route")
	}

	b0 := lp.ReadEngineStats()
	ref, err := fourTasks(64, MinMax).SolveMINLP(SolverOptions{Engine: lp.Engine{DisableCrash: true}})
	if err != nil {
		t.Fatal(err)
	}
	b1 := lp.ReadEngineStats()
	if b1.CrashInstalls != b0.CrashInstalls || b1.CrashDeclines != b0.CrashDeclines {
		t.Fatalf("DisableCrash still produced crash activity")
	}
	if math.Abs(a.Makespan-ref.Makespan) > 1e-9*(1+math.Abs(ref.Makespan)) {
		t.Fatalf("crash changed the MINLP answer: %g vs %g", a.Makespan, ref.Makespan)
	}
}
