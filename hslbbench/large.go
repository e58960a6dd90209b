package main

import (
	"fmt"
	"time"

	hslb "repro"
	"repro/internal/stats"
)

// Workload solve-large: the parametric route at FMO scale, on pre-fitted
// protein instances with both kinds of admissible sets.
const largeNodesPerTask = 32

var largeSizes = []int{16384, 65536}

const largeMinRounds = 2

type largeInstance struct {
	p    *hslb.Problem
	kind setKind
	name string // per-layer metric of this instance's solve time
}

func runSolveLarge(cfg config) (*outcome, error) {
	speed := newSpeedProbe()
	insts, setupS, refSetupS, err := timedSetup(speed, func() ([]largeInstance, error) {
		// The instances are reference instances (see referenceSeed); the
		// run seed draws their task order.
		rng := stats.NewRNG(cfg.seed)
		fits := newFitCache(referenceSeed)
		var out []largeInstance
		for i, n := range largeSizes {
			mol := molecule(true, n, referenceSeed<<16+uint64(i))
			for _, kind := range []setKind{rangeSet, sweetSet} {
				p, err := fittedProblem(fits, mol, largeNodesPerTask, kind)
				if err != nil {
					return nil, err
				}
				p = permuted(p, rng)
				out = append(out, largeInstance{p, kind, fmt.Sprintf("core.parametric_s.n%d_%v", n, kind)})
			}
		}
		return out, nil
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
	uniform := make([]float64, len(insts))
	for i, in := range insts {
		uniform[i] = hslb.Uniform(in.p).Makespan
	}
	traced := make([]float64, len(insts))
	// Every run measures at least largeMinRounds rounds, so that every run
	// holds the same ops: one round takes about 15 s, and with a single
	// round allowed, the machine's speed of the moment decided whether a
	// run held four ops or eight.
	rounds := 0
	for ; rounds < largeMinRounds || e.wallS < cfg.seconds; rounds++ {
		for i, in := range insts {
			op := len(e.lat)
			t0 := time.Now()
			a, err := hslb.SolveParametric(in.p)
			lat := time.Since(t0).Seconds()
			e.attempted++
			e.addOp(lat, speed.tick())
			if err != nil {
				e.failed++
				out.notef("solve-large %s: %v", in.name, err)
				continue
			}
			e.tasks += len(in.p.Tasks)
			optimal, cerr := chk.check(in.p, a)
			if cerr != nil {
				e.failed++
				out.notef("solve-large %s: %v", in.name, cerr)
				continue
			}
			if optimal {
				e.optimal++
			}
			e.speedups = append(e.speedups, uniform[i]/a.Makespan)
			out.notef("solve-large op %d %6d tasks %-5v %8.1f ms makespan %.6g", op, len(in.p.Tasks), in.kind, 1e3*lat, a.Makespan)
			if out.tracer == nil {
				continue
			}
			// Traced replay of the same solve, right after the untraced one.
			root := out.tracer.begin("hslb.solve", op, 0)
			t0 = time.Now()
			out.tracer.do("core.parametric", op, root, func() { a, err = in.p.SolveParametric() })
			traced[i] += time.Since(t0).Seconds()
			out.tracer.end(root)
			if err != nil {
				return nil, fmt.Errorf("replaying solve-large op %d: %w", op, err)
			}
			if _, cerr := chk.check(in.p, a); cerr != nil {
				e.failed++
				out.notef("solve-large traced op %d: %v", op, cerr)
			}
		}
	}
	for i, in := range insts {
		out.layer[in.name] = traced[i] / float64(rounds)
	}
	return out, nil
}
