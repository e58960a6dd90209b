package main

import (
	"fmt"

	hslb "repro"
	"repro/internal/fmo"
	"repro/internal/machine"
	"repro/internal/stats"
)

// molecule returns the workload's FMO system: a polypeptide
// (heterogeneous fragments, up to ~30× in single-node cost) or a water
// cluster (identical fragments), one fragment per residue or molecule.
func molecule(protein bool, frags int, seed uint64) *fmo.Molecule {
	rng := stats.NewRNG(seed)
	if protein {
		return fmo.Polypeptide(frags, 1, rng)
	}
	return fmo.WaterCluster(frags, 1, rng)
}

// referenceSeed builds the fixed reference instances. Where a solve's cost
// hinges on a discrete accident of the instance, one seed-drawn instance
// per run would make runs differ by up to 2× for reasons unrelated to the
// code: the 64-task MINLP overrun (6–12 s across molecules and task
// orders), the parametric polish at 65,536 range-set tasks (8–20 s, set by
// how many spare nodes it hands out one at a time), and the 1,024-task
// misses that set the service's p99. Those instances are built from this
// seed; the run seed still drives everything around them.
const referenceSeed = 2012

// permuted returns p with its tasks in the order rng draws.
func permuted(p *hslb.Problem, rng *stats.RNG) *hslb.Problem {
	q := *p
	q.Tasks = make([]hslb.Task, len(p.Tasks))
	for i, j := range rng.Perm(len(p.Tasks)) {
		q.Tasks[i] = p.Tasks[j]
	}
	return &q
}

// sweetSpots lists the power-of-two node counts up to max: the allowed
// sets GAMESS users pick because the integral blocks divide evenly there.
func sweetSpots(max int) []int {
	var out []int
	for n := 1; n <= max; n *= 2 {
		out = append(out, n)
	}
	return out
}

// setKind names how a task's admissible node counts are spelled.
type setKind int

const (
	sweetSet setKind = iota // power-of-two allowed set up to MaxUsefulNodes
	rangeSet                // every count in [1, MaxUsefulNodes]
)

func (k setKind) String() string {
	if k == sweetSet {
		return "sweet"
	}
	return "range"
}

// fitCache fits each distinct fragment size once per seed: the size is
// gathered at five node counts (noise keyed by size) and fitted, and every
// fragment of that size shares the result. A 65,536-fragment instance then
// costs about twenty fits.
type fitCache struct {
	seed   uint64
	bySize map[int]hslb.Params
}

func newFitCache(seed uint64) *fitCache {
	return &fitCache{seed: seed, bySize: map[int]hslb.Params{}}
}

func (c *fitCache) params(cost *fmo.CostModel, i int) (hslb.Params, error) {
	nbf := cost.Mol.Fragments[i].NBasis
	if p, ok := c.bySize[nbf]; ok {
		return p, nil
	}
	rng := stats.KeyedRNG(c.seed, uint64(nbf))
	samples := cost.GatherMonomerSamples(i, hslb.SuggestSampleNodes(1, cost.MaxUsefulNodes(i), 5), rng)
	fr, err := hslb.Fit(samples, hslb.FitOptions{Seed: c.seed + uint64(nbf), Parallelism: -1})
	if err != nil {
		return hslb.Params{}, fmt.Errorf("fitting fragment size %d: %w", nbf, err)
	}
	c.bySize[nbf] = fr.Params
	return fr.Params, nil
}

// fittedProblem builds a pre-fitted min-max instance over the molecule's
// fragments with nodesPerTask nodes per fragment.
func fittedProblem(fits *fitCache, mol *fmo.Molecule, nodesPerTask int, kind setKind) (*hslb.Problem, error) {
	cost := fmo.NewCostModel(mol, machine.Intrepid())
	p := &hslb.Problem{TotalNodes: nodesPerTask * len(mol.Fragments), Tasks: make([]hslb.Task, len(mol.Fragments))}
	for i := range mol.Fragments {
		params, err := fits.params(cost, i)
		if err != nil {
			return nil, err
		}
		t := hslb.Task{Name: mol.Fragments[i].Name, Perf: params}
		maxN := min(cost.MaxUsefulNodes(i), p.TotalNodes)
		if kind == sweetSet {
			t.Allowed = sweetSpots(maxN)
		} else {
			t.MinNodes, t.MaxNodes = 1, maxN
		}
		p.Tasks[i] = t
	}
	return p, nil
}
