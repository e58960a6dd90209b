package main

import (
	"fmt"
	"math"
	"strconv"

	hslb "repro"
)

// checker verifies min-max answers without calling any solver. It reads
// only the instance (tasks, budget, performance functions) and the answer.
//
// A proven-optimal answer must be feasible, report the times its node
// counts give, and carry a demand witness: giving every task the fewest
// admissible nodes that finish strictly before the makespan needs more
// than the budget, so no allocation beats it. A bounded answer must be
// feasible, not beat its own lower bound, and report the gap that bound
// implies.
type checker struct {
	// demand memoizes the witness per distinct task (performance function,
	// admissible set, target), since FMO instances repeat fragment types.
	demand map[demandKey]int
}

type demandKey struct {
	perf    hslb.Params
	lo, hi  int
	allowed string
	target  float64
}

func newChecker() *checker { return &checker{demand: map[demandKey]int{}} }

// check verifies a against p and reports whether it is proven optimal.
func (c *checker) check(p *hslb.Problem, a *hslb.Allocation) (optimal bool, err error) {
	if a == nil || len(a.Nodes) != len(p.Tasks) {
		return false, fmt.Errorf("answer has the wrong number of tasks")
	}
	if !p.Feasible(a.Nodes) {
		return false, fmt.Errorf("allocation is infeasible")
	}
	makespan, used := math.Inf(-1), 0
	for i, n := range a.Nodes {
		t := p.Tasks[i].Perf.Eval(float64(n))
		if len(a.Times) == len(a.Nodes) && a.Times[i] != t {
			return false, fmt.Errorf("task %d: reported time %v, its %d nodes give %v", i, a.Times[i], n, t)
		}
		makespan = math.Max(makespan, t)
		used += n
	}
	if a.Makespan != makespan || a.Used != used {
		return false, fmt.Errorf("reported makespan %v on %d nodes, allocation gives %v on %d", a.Makespan, a.Used, makespan, used)
	}
	if a.Bounded {
		if a.BestBound > makespan {
			return false, fmt.Errorf("bounded answer %v beats its own lower bound %v", makespan, a.BestBound)
		}
		if want := gap(makespan, a.BestBound); math.Abs(a.Gap-want) > 1e-12*math.Max(1, want) && a.Gap != want {
			return false, fmt.Errorf("reported gap %v, bound %v implies %v", a.Gap, a.BestBound, want)
		}
		return false, nil
	}
	if need := c.demandBelow(p, makespan); need <= p.TotalNodes {
		return false, fmt.Errorf("claimed optimal at %v, but %d ≤ %d nodes finish every task sooner", makespan, need, p.TotalNodes)
	}
	return true, nil
}

// gap is the relative optimality gap (obj − bound)/max(1, |obj|), +Inf for
// an unproven bound.
func gap(obj, bound float64) float64 {
	if math.IsInf(bound, -1) {
		return math.Inf(1)
	}
	return math.Max(0, (obj-bound)/math.Max(1, math.Abs(obj)))
}

// demandBelow returns Σ_j min{n ∈ S_j : T_j(n) < target}, saturating at
// TotalNodes+1 when some task cannot finish before target at all.
func (c *checker) demandBelow(p *hslb.Problem, target float64) int {
	sum := 0
	for i := range p.Tasks {
		d := c.taskDemand(&p.Tasks[i], p.TotalNodes, target)
		if d < 0 {
			return p.TotalNodes + 1
		}
		if sum += d; sum > p.TotalNodes {
			return sum
		}
	}
	return sum
}

// taskDemand is min{n ∈ S : T(n) < target}, or -1 if no such n exists.
func (c *checker) taskDemand(t *hslb.Task, total int, target float64) int {
	lo, hi := t.MinNodes, t.MaxNodes
	if lo < 1 {
		lo = 1
	}
	if hi <= 0 || hi > total {
		hi = total
	}
	var allowed []byte
	for _, n := range t.Allowed {
		allowed = strconv.AppendInt(append(allowed, ','), int64(n), 10)
	}
	key := demandKey{t.Perf, lo, hi, string(allowed), target}
	if d, ok := c.demand[key]; ok {
		return d
	}
	d := -1
	if t.Allowed != nil {
		for _, n := range t.Allowed {
			if n >= lo && n <= hi && t.Perf.Eval(float64(n)) < target {
				d = n
				break
			}
		}
	} else {
		for n := lo; n <= hi; n++ {
			if t.Perf.Eval(float64(n)) < target {
				d = n
				break
			}
		}
	}
	c.demand[key] = d
	return d
}
