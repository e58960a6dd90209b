package main

import (
	"context"
	"fmt"
	"math"
	"time"

	hslb "repro"
	"repro/internal/fmo"
	"repro/internal/gddi"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/perfmodel"
	"repro/internal/stats"
)

// Workload plan: the whole HSLB procedure as examples/protein runs it,
// alternating a heterogeneous polypeptide and a homogeneous water cluster
// of planFrags fragments on planNodes nodes.
const (
	planFrags  = 256
	planNodes  = 8192
	planInputs = 16 // distinct molecules built at setup; ops cycle through them
)

// planInput is one molecule with everything the pipeline needs besides
// its answers, plus the executed time of the uniform GDDI layout.
type planInput struct {
	cost     *fmo.CostModel
	seed     uint64
	names    []string
	maxNodes []int
	uniformS float64 // executed monomer time of the uniform layout
}

func newPlanInput(protein bool, seed uint64) (*planInput, error) {
	mol := molecule(protein, planFrags, seed)
	in := &planInput{cost: fmo.NewCostModel(mol, machine.Intrepid()), seed: seed}
	tasks := make([]hslb.Task, len(mol.Fragments))
	for i := range mol.Fragments {
		in.names = append(in.names, mol.Fragments[i].Name)
		in.maxNodes = append(in.maxNodes, in.cost.MaxUsefulNodes(i))
		tasks[i] = hslb.Task{Name: in.names[i], MaxNodes: in.maxNodes[i], Perf: hslb.Params{A: 1}}
	}
	uniform := hslb.Uniform(&hslb.Problem{Tasks: tasks, TotalNodes: planNodes})
	var err error
	in.uniformS, err = in.execute(uniform.Nodes)
	return in, err
}

// gather is the benchmark-owned step-1 callback: a keyed noisy sample of
// the FMO cost model, so retries and replays draw identical values.
func (in *planInput) gather() hslb.BenchmarkFuncE {
	return hslb.GatherWithRNGE(in.seed+1, func(_ context.Context, task, nodes int, rng *stats.RNG) (float64, error) {
		return in.cost.MonomerTotalTime(task, nodes, rng), nil
	})
}

// execute runs the FMO monomer phase with one statically assigned GDDI
// group per fragment (HSLB step 4).
func (in *planInput) execute(groups []int) (float64, error) {
	assign := make([]int, len(groups))
	for i := range assign {
		assign[i] = i
	}
	res, err := gddi.RunFMO2(&gddi.FMO2Config{
		Cost:          in.cost,
		GroupSizes:    groups,
		MonomerPolicy: gddi.StaticAssign,
		MonomerAssign: assign,
		RNG:           stats.NewRNG(in.seed + 7),
	})
	if err != nil {
		return 0, fmt.Errorf("executing the monomer phase: %w", err)
	}
	return res.MonomerTime, nil
}

func (in *planInput) config(execErr *error) *hslb.PipelineConfig {
	return &hslb.PipelineConfig{
		TaskNames:  in.names,
		BenchmarkE: in.gather(),
		Execute: func(nodes []int) float64 {
			t, err := in.execute(nodes)
			if err != nil {
				*execErr = err
				return 1
			}
			return t
		},
		TotalNodes:    planNodes,
		MaxNodes:      in.maxNodes,
		UseParametric: true,
		Seed:          in.seed,
	}
}

func runPlan(cfg config) (*outcome, error) {
	speed := newSpeedProbe()
	inputs, setupS, refSetupS, err := timedSetup(speed, func() ([]*planInput, error) {
		ins := make([]*planInput, planInputs)
		for i := range ins {
			var err error
			if ins[i], err = newPlanInput(i%2 == 0, cfg.seed<<16+uint64(i)); err != nil {
				return nil, err
			}
		}
		return ins, nil
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{e2e: &endToEnd{speed: speed, setupS: setupS, refSetupS: refSetupS}, layer: map[string]float64{}}
	e := out.e2e
	if cfg.traced {
		out.tracer = newTracer()
	}
	chk := newChecker()
	identical := 0
	predErr, replayErr, r2min := 0.0, 0.0, 1.0
	var fitMs []float64
	// One op is a protein pipeline and a water pipeline, so every op weighs
	// both kinds alike and the latency percentiles never fall between them.
	for op := 0; op == 0 || e.wallS < cfg.seconds; op++ {
		opLat, refLat := 0.0, 0.0
		var allocs [2]*hslb.Allocation
		for j := range allocs {
			in := inputs[(2*op+j)%len(inputs)]
			var execErr error
			t0 := time.Now()
			res, err := hslb.RunPipelineContext(context.Background(), in.config(&execErr))
			lat := time.Since(t0).Seconds()
			opLat += lat
			refLat += lat * speed.tick()
			e.attempted++
			if err == nil {
				err = execErr
			}
			if err != nil {
				e.failed++
				out.notef("plan op %d: %v", op, err)
				continue
			}
			e.tasks += len(in.names)
			optimal, cerr := chk.check(res.Problem, res.Allocation)
			if cerr != nil {
				e.failed++
				out.notef("plan op %d: %v", op, cerr)
				continue
			}
			allocs[j] = res.Allocation
			if optimal {
				e.optimal++
			}
			e.speedups = append(e.speedups, in.uniformS/res.Executed)
			predErr += res.PredictionError
		}
		e.addOp(opLat, refLat/opLat)
		if out.tracer == nil {
			continue
		}
		// Traced replay of the same two pipelines, right after the
		// untraced ones so both see the same machine.
		for j, want := range allocs {
			in := inputs[(2*op+j)%len(inputs)]
			a, ms, r2, exec, err := replayPipeline(out.tracer, op, in)
			if err != nil {
				return nil, fmt.Errorf("replaying plan op %d: %w", op, err)
			}
			fitMs = append(fitMs, ms...)
			r2min = math.Min(r2min, r2)
			if want != nil && sameInts(a.Nodes, want.Nodes) && a.Makespan == want.Makespan {
				identical++
			} else {
				out.notef("plan op %d: replayed allocation differs from RunPipeline's", op)
				e.failed++
			}
			replayErr += math.Abs(exec-a.Makespan) / exec
		}
	}
	out.notef("plan: %d pipelines of %d fragments on %d nodes, mean prediction error %.3f%%",
		e.attempted, planFrags, planNodes, 100*predErr/float64(e.attempted))
	if out.tracer != nil {
		n := float64(e.attempted)
		out.layer["perfmodel.fit_calls"] = float64(len(fitMs)) / float64(len(e.lat))
		out.layer["perfmodel.fit_p50_ms"] = quantile(fitMs, 0.5)
		out.layer["perfmodel.r2_min"] = r2min
		out.layer["gddi.pred_err_pct"] = 100 * replayErr / n
		out.layer["hslb.replay_identical"] = float64(identical) / n
	}
	return out, nil
}

// replayPipeline performs RunPipelineContext's four steps for one input:
// the same sample plan, seeds, fit options and solver route. It returns the
// allocation, the per-task fit times (ms), the lowest fit R², and the
// executed time.
func replayPipeline(tr *tracer, op int, in *planInput) (*hslb.Allocation, []float64, float64, float64, error) {
	ctx := context.Background()
	root := tr.begin("hslb.pipeline", op, 0)
	defer tr.end(root)
	k := len(in.names)
	bench := in.gather()
	counts := hslb.SuggestSampleNodes(1, planNodes, 5)
	tasks := make([]hslb.Task, k)
	samples := make([][]hslb.Sample, k)
	for t := range tasks {
		tasks[t] = hslb.Task{Name: in.names[t], MaxNodes: in.maxNodes[t]}
		nodes, err := samplePlan(&tasks[t], counts, planNodes)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		for _, n := range nodes {
			id := tr.begin("fmo.gather", op, root)
			v, err := bench(ctx, t, n)
			tr.end(id)
			if err != nil {
				return nil, nil, 0, 0, err
			}
			samples[t] = append(samples[t], hslb.Sample{Nodes: float64(n), Time: v})
		}
	}

	seeds := par.SplitSeeds(in.seed+1, k)
	fitMs := make([]float64, k)
	fits, err := par.MapErr(0, k, func(t int) (*hslb.FitResult, error) {
		id := tr.begin("perfmodel.fit", op, root)
		t0 := time.Now()
		fr, err := perfmodel.Fit(samples[t], perfmodel.FitOptions{Seed: seeds[t], Parallelism: -1})
		fitMs[t] = 1e3 * time.Since(t0).Seconds()
		tr.end(id)
		return fr, err
	})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	r2min := 1.0
	for t := range tasks {
		tasks[t].Perf = fits[t].Params
		if fits[t].R2 < r2min {
			r2min = fits[t].R2
		}
	}

	p := &hslb.Problem{Tasks: tasks, TotalNodes: planNodes}
	var a *hslb.Allocation
	tr.do("core.parametric", op, root, func() { a, err = p.SolveParametricContext(ctx) })
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var exec float64
	tr.do("gddi.execute", op, root, func() { exec, err = in.execute(a.Nodes) })
	return a, fitMs, r2min, exec, err
}

// samplePlan mirrors the pipeline's sample plan: suggested counts snapped
// onto the task's admissible set, with duplicates the snapping created
// benchmarked once.
func samplePlan(t *hslb.Task, counts []int, total int) ([]int, error) {
	var snapped []int
	clamped := map[int]bool{}
	for _, n := range counts {
		nn, ok := t.SnapToFeasible(n, total)
		if !ok {
			return nil, fmt.Errorf("task %q has no admissible allocation within %d nodes", t.Name, total)
		}
		snapped = append(snapped, nn)
		if nn != n {
			clamped[nn] = true
		}
	}
	var plan []int
	seen := map[int]bool{}
	for _, nn := range snapped {
		if seen[nn] && clamped[nn] {
			continue
		}
		seen[nn] = true
		plan = append(plan, nn)
	}
	return plan, nil
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
