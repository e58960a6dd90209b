package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	hslb "repro"
	"repro/internal/core"
	"repro/internal/lp"
)

// Workload solve-small: the default solve route (hslb.SolveContext, which
// /v1/solve also takes) on pre-fitted protein instances with a fixed
// deadline, over a ladder of task counts.
const (
	smallDeadline     = time.Second
	smallNodesPerTask = 32
	smallRounds       = 4 // ladders built at setup; rounds cycle through them
)

// rung is one ladder step. The ladder keeps only sizes whose solve time at
// this route is far from the deadline on every seed tried: the instances
// either finish below half the deadline (≤ 0.26 s) or run past twice the
// deadline when left unlimited, so optimal_frac does not flip between runs.
// Sweet-spot instances of 8–10 tasks (0.3–1.0 s) and 32 tasks (stops at
// 1.2–1.45 s, straddling the late mark) are therefore left out.
type rung struct {
	tasks     int
	kind      setKind
	reference bool // one fixed instance for every seed (see referenceSeed)
}

var ladder = []rung{
	{4, sweetSet, false}, {4, rangeSet, false}, {5, sweetSet, false},
	{6, sweetSet, false}, {6, rangeSet, false}, {8, rangeSet, false},
	{16, sweetSet, false}, {16, sweetSet, false}, {16, sweetSet, false},
	{16, sweetSet, false}, {16, sweetSet, false}, {16, sweetSet, false},
	{64, sweetSet, true},
}

func runSolveSmall(cfg config) (*outcome, error) {
	rounds, setupS, refSetupS, err := timedSetup(nil, func() ([][]*hslb.Problem, error) {
		fits, refFits := newFitCache(cfg.seed), newFitCache(referenceSeed)
		out := make([][]*hslb.Problem, smallRounds)
		for r := range out {
			for i, g := range ladder {
				f, molSeed := fits, cfg.seed<<16+uint64(r*len(ladder)+i)
				if g.reference {
					f, molSeed = refFits, referenceSeed<<16+uint64(g.tasks)
				}
				p, err := fittedProblem(f, molecule(true, g.tasks, molSeed), smallNodesPerTask, g.kind)
				if err != nil {
					return nil, err
				}
				out[r] = append(out[r], p)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{e2e: &endToEnd{setupS: setupS, refSetupS: refSetupS}, layer: map[string]float64{}}
	e := out.e2e
	if cfg.traced {
		out.tracer = newTracer()
	}
	chk := newChecker()
	opts := hslb.SolverOptions{Deadline: smallDeadline}
	overrunMax := 0.0
	var sum struct {
		noInc, nodes, lps, cuts, pivots int
		engine                          lp.EngineStats
	}
	for r := 0; r == 0 || e.wallS < cfg.seconds; r++ {
		for i, p := range rounds[r%len(rounds)] {
			op, g := len(e.lat), ladder[i]
			e0 := lp.ReadEngineStats()
			t0 := time.Now()
			a, err := hslb.SolveContext(context.Background(), p, opts)
			lat := time.Since(t0).Seconds()
			d := engineDelta(e0, lp.ReadEngineStats())
			e.attempted++
			e.addOp(lat, 1)
			overrun := lat - smallDeadline.Seconds()
			overrunMax = math.Max(overrunMax, overrun)
			if lat > lateFactor*smallDeadline.Seconds() {
				e.late++
			}
			if err != nil {
				e.failed++
				out.notef("solve-small op %d, %d tasks %v: %v", op, g.tasks, g.kind, err)
				continue
			}
			e.tasks += len(p.Tasks)
			optimal, cerr := chk.check(p, a)
			if cerr != nil {
				e.failed++
				out.notef("solve-small op %d, %d tasks %v: %v", op, g.tasks, g.kind, cerr)
				continue
			}
			if optimal {
				e.optimal++
			}
			e.speedups = append(e.speedups, hslb.Uniform(p).Makespan/a.Makespan)
			out.notef("solve-small op %2d %3d tasks %-5v %8.1f ms overrun %8.1f ms bounded=%-5v gap=%.3g b&b-nodes=%d node-lps=%d revised=%d fallbacks=%d",
				op, g.tasks, g.kind, 1e3*lat, 1e3*overrun, a.Bounded, a.Gap,
				a.SolverNodes, a.LPSolves, d.Solves, d.Fallbacks)
			if out.tracer == nil {
				continue
			}

			// Traced replay of the same solve, right after the untraced one,
			// splitting SolveContext's route (MINLP first; the parametric
			// solver when the MINLP stops without an incumbent) with a span
			// per layer and the LP engine's counters read around it.
			e0 = lp.ReadEngineStats()
			ta, noInc, err := replaySolve(out.tracer, op, p, opts)
			d = engineDelta(e0, lp.ReadEngineStats())
			if err != nil {
				return nil, fmt.Errorf("replaying solve-small op %d: %w", op, err)
			}
			if _, cerr := chk.check(p, ta); cerr != nil {
				e.failed++
				out.notef("solve-small traced op %d: %v", op, cerr)
			}
			route := "minlp"
			if noInc {
				sum.noInc++
				route = "minlp→parametric"
			} else {
				sum.nodes += ta.SolverNodes
				sum.lps += ta.LPSolves
				sum.cuts += ta.OACuts
				sum.pivots += ta.Pivots
			}
			sum.engine = engineSum(sum.engine, d)
			out.notef("solve-small traced op %2d route=%s node-lps=%d revised=%d fallbacks=%d refactors=%d ft-updates=%d crash=%d/%d",
				op, route, ta.LPSolves, d.Solves, d.Fallbacks, d.Refactors, d.Updates, d.CrashInstalls, d.CrashDeclines)
		}
	}
	out.layer["minlp.overrun_ms_max"] = 1e3 * overrunMax
	n := float64(len(e.lat))
	out.layer["minlp.no_incumbent"] = float64(sum.noInc) / n
	out.layer["milp.nodes"] = float64(sum.nodes) / n
	out.layer["milp.lp_solves"] = float64(sum.lps) / n
	out.layer["minlp.oa_cuts"] = float64(sum.cuts) / n
	out.layer["lp.pivots"] = float64(sum.pivots) / n
	out.layer["lp.revised_solves"] = float64(sum.engine.Solves) / n
	if sum.lps > 0 {
		out.layer["lp.revised_share"] = float64(sum.engine.Solves) / float64(sum.lps)
	}
	out.layer["lp.fallbacks"] = float64(sum.engine.Fallbacks) / n
	out.layer["lp.refactors"] = float64(sum.engine.Refactors) / n
	out.layer["lp.ft_updates"] = float64(sum.engine.Updates) / n
	out.layer["lp.crash_installs"] = float64(sum.engine.CrashInstalls) / n
	out.layer["lp.crash_declines"] = float64(sum.engine.CrashDeclines) / n
	return out, nil
}

// replaySolve is hslb.SolveContext for a min-max instance, step by step:
// the limited MINLP, then the parametric solver if the MINLP proved no
// incumbent, labelled bounded with the MINLP's bound.
func replaySolve(tr *tracer, op int, p *hslb.Problem, opts hslb.SolverOptions) (*hslb.Allocation, bool, error) {
	root := tr.begin("hslb.solve", op, 0)
	defer tr.end(root)
	var a *hslb.Allocation
	var err error
	tr.do("minlp.solve", op, root, func() { a, err = p.SolveMINLPContext(context.Background(), opts) })
	var noInc *hslb.NoIncumbentError
	if !errors.As(err, &noInc) {
		return a, false, err
	}
	tr.do("core.parametric", op, root, func() { a, err = p.SolveParametric() })
	if err != nil {
		return nil, true, err
	}
	a.Bounded = true
	a.BestBound = noInc.BestBound
	a.Gap = core.RelativeGap(p.ObjectiveValue(a), noInc.BestBound)
	return a, true, nil
}

// engineDelta is b − a for the engine counters the benchmark reports.
func engineDelta(a, b lp.EngineStats) lp.EngineStats {
	return lp.EngineStats{
		Solves:        b.Solves - a.Solves,
		Fallbacks:     b.Fallbacks - a.Fallbacks,
		Refactors:     b.Refactors - a.Refactors,
		Updates:       b.Updates - a.Updates,
		CrashInstalls: b.CrashInstalls - a.CrashInstalls,
		CrashDeclines: b.CrashDeclines - a.CrashDeclines,
	}
}

// engineSum is a + d for the same counters.
func engineSum(a, d lp.EngineStats) lp.EngineStats {
	return lp.EngineStats{
		Solves:        a.Solves + d.Solves,
		Fallbacks:     a.Fallbacks + d.Fallbacks,
		Refactors:     a.Refactors + d.Refactors,
		Updates:       a.Updates + d.Updates,
		CrashInstalls: a.CrashInstalls + d.CrashInstalls,
		CrashDeclines: a.CrashDeclines + d.CrashDeclines,
	}
}
