package milp

import (
	"math"
	"testing"

	"repro/internal/lp"
	"repro/internal/stats"
)

// randomInstance builds a small bounded random MILP: box-bounded variables
// (most integer), a handful of random rows, and occasionally an SOS1 set
// over fresh binaries. Degenerate corners — infeasible rows, empty integer
// sets, dominated SOS members — are all fair game: the property under test
// is only that parallel and serial solves agree exactly.
func randomInstance(rng *stats.RNG) (*lp.Problem, []int, []SOS1) {
	p := lp.NewProblem()
	nv := 2 + rng.Intn(5)
	var ints []int
	for i := 0; i < nv; i++ {
		ub := float64(1 + rng.Intn(10))
		v := p.AddVariable(0, ub, rng.Range(-10, 10), "")
		if rng.Float64() < 0.7 {
			ints = append(ints, v)
		}
	}
	nc := 1 + rng.Intn(4)
	for c := 0; c < nc; c++ {
		var terms []lp.Term
		for v := 0; v < nv; v++ {
			if rng.Float64() < 0.6 {
				terms = append(terms, lp.Term{Var: v, Coef: rng.Range(-5, 5)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		sense := lp.LE
		switch {
		case rng.Float64() < 0.2:
			sense = lp.GE
		case rng.Float64() < 0.1:
			sense = lp.EQ
		}
		p.AddConstraint(terms, sense, rng.Range(-5, 20), "")
	}
	var sos []SOS1
	if rng.Float64() < 0.3 {
		k := 3 + rng.Intn(3)
		vars := make([]int, k)
		weights := make([]float64, k)
		terms := make([]lp.Term, k)
		for i := range vars {
			vars[i] = p.AddVariable(0, 1, rng.Range(-5, 0), "")
			weights[i] = float64(i + 1)
			terms[i] = lp.Term{Var: vars[i], Coef: 1}
		}
		p.AddConstraint(terms, lp.LE, 1, "")
		ints = append(ints, vars...)
		sos = append(sos, SOS1{Vars: vars, Weights: weights})
	}
	return p, ints, sos
}

// sameResult requires bit-identical results: the determinism contract of
// Options.Parallelism promises exact equality, not tolerance-level equality.
func sameResult(t *testing.T, seed int, serial, parallel *Result) {
	t.Helper()
	if serial.Status != parallel.Status {
		t.Fatalf("seed %d: status %v (serial) vs %v (parallel)", seed, serial.Status, parallel.Status)
	}
	if math.Float64bits(serial.Obj) != math.Float64bits(parallel.Obj) {
		t.Fatalf("seed %d: obj %v (serial) vs %v (parallel)", seed, serial.Obj, parallel.Obj)
	}
	if math.Float64bits(serial.BestBound) != math.Float64bits(parallel.BestBound) {
		t.Fatalf("seed %d: bound %v (serial) vs %v (parallel)", seed, serial.BestBound, parallel.BestBound)
	}
	if serial.Nodes != parallel.Nodes || serial.LPSolves != parallel.LPSolves || serial.Cuts != parallel.Cuts {
		t.Fatalf("seed %d: stats (%d,%d,%d) (serial) vs (%d,%d,%d) (parallel)", seed,
			serial.Nodes, serial.LPSolves, serial.Cuts,
			parallel.Nodes, parallel.LPSolves, parallel.Cuts)
	}
	if len(serial.X) != len(parallel.X) {
		t.Fatalf("seed %d: len(X) %d (serial) vs %d (parallel)", seed, len(serial.X), len(parallel.X))
	}
	for i := range serial.X {
		if math.Float64bits(serial.X[i]) != math.Float64bits(parallel.X[i]) {
			t.Fatalf("seed %d: X[%d] = %v (serial) vs %v (parallel)", seed, i, serial.X[i], parallel.X[i])
		}
	}
}

// TestParallelMatchesSerialProperty drives the determinism contract over a
// large population of random instances: for every seed the speculative
// parallel solve must reproduce the serial Result bit for bit, and every
// node LP solution must carry a valid KKT certificate.
func TestParallelMatchesSerialProperty(t *testing.T) {
	instances := 1000
	if testing.Short() {
		instances = 120
	}
	for seed := 0; seed < instances; seed++ {
		rng := stats.NewRNG(uint64(seed) + 1)
		p, ints, sos := randomInstance(rng)
		kkt := func(p *lp.Problem, sol *lp.Solution) {
			if sol.Status != lp.Optimal {
				return
			}
			if err := lp.VerifyKKT(p, sol, 1e-6); err != nil {
				t.Fatalf("seed %d: node LP certificate: %v", seed, err)
			}
		}
		// Warm starts force serial LP solves, so disable them here to
		// keep the speculative prefetch path under test.
		p.Engine.DisableWarmStart = true
		opts := Options{MaxNodes: 20000, DebugLPCheck: kkt}
		optsSerial := opts
		optsSerial.Parallelism = -1
		serial := Solve(p.Clone(), ints, sos, optsSerial)
		for _, workers := range []int{2, 4} {
			optsPar := opts
			optsPar.Parallelism = workers
			sameResult(t, seed, serial, Solve(p.Clone(), ints, sos, optsPar))
		}
	}
}
