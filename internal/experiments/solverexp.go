package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/minlp"
	"repro/internal/perfmodel"
	"repro/internal/stats"
)

// T4Solver reproduces the solver-performance claims (C4): the MINLP solves
// in seconds even at the paper's scales, and branching on the allocation
// special ordered sets instead of their binaries cuts the search
// dramatically (the paper: "improved the runtime of the MINLP solver by two
// orders of magnitude").
func T4Solver(scale Scale) (*Table, error) {
	setSizes := []int{20, 60}
	total := 2048
	if scale == Full {
		setSizes = []int{20, 60, 200, 800}
		total = 32768
	}
	tbl := &Table{
		ID:    "T4",
		Title: "MINLP solver: SOS1 branching vs binary branching (allocation problems with sweet-spot sets)",
		Header: []string{"set size", "nodes(SOS)", "LPs(SOS)", "ms(SOS)",
			"nodes(bin)", "LPs(bin)", "ms(bin)", "time ratio"},
	}
	// The binary-branching ablation explodes combinatorially on large
	// sets (that is the point); give it a wall-clock budget so the table
	// always finishes, and report expired runs as lower bounds.
	binBudget := 5 * time.Second
	if scale == Full {
		binBudget = 60 * time.Second
	}
	rng := stats.NewRNG(44)
	for _, sz := range setSizes {
		p := solverInstance(rng, sz, total)
		runOne := func(o minlp.Options) (*minlp.Result, float64, error) {
			m, _, err := p.BuildModel()
			if err != nil {
				return nil, 0, err
			}
			start := time.Now()
			res := minlp.Solve(m, o)
			return res, float64(time.Since(start).Microseconds()) / 1000, nil
		}
		// The ablation varies only the branching strategy; pin both runs
		// to cold LP solves so warm-start vertex selection cannot reshape
		// either tree.
		cold := lp.Engine{DisableWarmStart: true}
		rSOS, msSOS, err := runOne(minlp.Options{Engine: cold})
		if err != nil {
			return nil, err
		}
		if rSOS.Status != minlp.Optimal {
			return nil, fmt.Errorf("T4: SOS run ended %v on set size %d", rSOS.Status, sz)
		}
		rBin, msBin, err := runOne(minlp.Options{
			DisableSOSBranching: true,
			Engine:              cold,
			TimeLimit:           binBudget,
		})
		if err != nil {
			return nil, err
		}
		nodesBin := fmt.Sprintf("%d", rBin.Nodes)
		lpsBin := fmt.Sprintf("%d", rBin.LPSolves)
		msBinS := fmt.Sprintf("%.4g", msBin)
		ratio := fmt.Sprintf("%.4g", msBin/msSOS)
		if rBin.Status != minlp.Optimal {
			nodesBin = "≥" + nodesBin
			msBinS = "≥" + msBinS
			ratio = "≥" + ratio
		}
		tbl.AddRow(sz, rSOS.Nodes, rSOS.LPSolves, msSOS,
			nodesBin, lpsBin, msBinS, ratio)
	}
	tbl.Note("paper: SOS branching ~100x faster; 'the MINLP for 40960 nodes took less than 60 seconds'")
	return tbl, nil
}

// solverInstance builds an allocation problem where every task is
// restricted to a sweet-spot set of the given size — the structure that
// stresses set branching.
func solverInstance(rng *stats.RNG, setSize, total int) *core.Problem {
	p := &core.Problem{TotalNodes: total, Objective: core.MinMax}
	for t := 0; t < 4; t++ {
		set := make([]int, 0, setSize)
		n := 1 + rng.Intn(3)
		for len(set) < setSize && n < total {
			set = append(set, n)
			n += 1 + rng.Intn(2*total/setSize/3+1)
		}
		p.Tasks = append(p.Tasks, core.Task{
			Name: "t",
			Perf: perfmodel.Params{
				A: rng.Range(1e3, 5e4),
				B: rng.Range(0, 1e-3),
				C: 1 + rng.Float64()*0.4,
				D: rng.Range(0, 10),
			},
			Allowed: set,
		})
	}
	return p
}

// T4Relaxation is the second solver ablation: the value of the initial NLP
// (Kelley) relaxation solve and of cutting at fractional nodes.
func T4Relaxation(scale Scale) (*Table, error) {
	total := 2048
	if scale == Full {
		total = 32768
	}
	tbl := &Table{
		ID:     "T4b",
		Title:  "LP/NLP-based B&B ablations (same optimum, different work)",
		Header: []string{"variant", "B&B nodes", "LP solves", "OA cuts", "obj"},
	}
	rng := stats.NewRNG(45)
	p := solverInstance(rng, 60, total)
	variants := []struct {
		name string
		opt  core.SolverOptions
	}{
		{"default (Kelley warm start)", core.SolverOptions{}},
		{"skip NLP relaxation", core.SolverOptions{SkipNLPRelaxation: true}},
		{"cut at fractional", core.SolverOptions{CutAtFractional: true}},
	}
	for _, v := range variants {
		a, err := p.SolveMINLP(v.opt)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(v.name, a.SolverNodes, a.LPSolves, a.OACuts, a.Makespan)
	}
	tbl.Note("all variants reach the same global optimum (convexity); they differ only in effort")
	return tbl, nil
}
