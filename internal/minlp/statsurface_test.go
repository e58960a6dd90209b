package minlp

import (
	"testing"

	"repro/internal/lp"
)

// TestWarmColdStatsSurface: the basis-cache statistics of the master tree
// must surface through Result so the serve layer can export them. With warm
// starting on, a branchy instance reoptimizes most node LPs from a cached
// parent basis; with it off, every LP solve is by definition cold.
func TestWarmColdStatsSurface(t *testing.T) {
	w := []float64{13, 11, 7, 5, 3, 2, 17}
	m, _, _ := minMaxModel(w, 23)

	warm := Solve(m.Clone(), Options{})
	if warm.Status != Optimal {
		t.Fatalf("status %v", warm.Status)
	}
	if warm.WarmSolves+warm.ColdSolves == 0 {
		t.Fatal("warm-started solve reported no basis-cache activity at all")
	}
	if warm.WarmSolves == 0 {
		t.Fatalf("warm-started solve reported zero warm reoptimizations: %+v", warm)
	}

	cold := Solve(m.Clone(), Options{Engine: lp.Engine{DisableWarmStart: true}})
	if cold.Status != Optimal {
		t.Fatalf("status %v", cold.Status)
	}
	if cold.WarmSolves != 0 {
		t.Fatalf("DisableWarmStart still counted %d warm solves", cold.WarmSolves)
	}
	if cold.ColdSolves == 0 {
		t.Fatal("DisableWarmStart reported zero cold solves")
	}
	// Different pivot paths legitimately differ in the last ulps.
	if diff := cold.Obj - warm.Obj; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("warm starting changed the optimum: %v vs %v", warm.Obj, cold.Obj)
	}
}
