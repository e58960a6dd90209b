package hslb

// Paired cold/warm solver benchmarks for the LP warm-start layer (see
// DESIGN.md, "LP warm-start architecture"). Each pair runs the identical
// workload with warm starts on (the default) and off, and reports the
// simplex pivot count alongside wall-clock time:
//
//	go test . -run xxx -bench 'MILP|OA|Kelley' -benchtime 1x
//
// Every benchmark also records its totals in a shared collector; TestMain
// writes them to BENCH_solver.json and prints a benchstat-style cold-vs-warm
// comparison, which is what the CI bench job archives.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/minlp"
	"repro/internal/nlp"
	"repro/internal/perfmodel"
	"repro/internal/stats"
)

// benchRecord is one benchmark's totals, serialized into BENCH_solver.json.
type benchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	Pivots      float64 `json:"pivots_per_op"`
	Nodes       float64 `json:"nodes_per_op,omitempty"`
	LPSolves    float64 `json:"lp_solves_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// mallocsNow reads the cumulative heap allocation count; benchmarks diff it
// around their timed loop to report allocs/op into the JSON collectors
// (testing's own ReportAllocs tally is not exposed mid-run).
func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

var benchMu sync.Mutex
var benchRecords []benchRecord

func recordBench(b *testing.B, pivots, nodes, lps int, allocs uint64) {
	n := float64(b.N)
	b.ReportMetric(float64(pivots)/n, "pivots/op")
	benchMu.Lock()
	benchRecords = append(benchRecords, benchRecord{
		Name:        b.Name(),
		NsPerOp:     float64(b.Elapsed().Nanoseconds()) / n,
		Pivots:      float64(pivots) / n,
		Nodes:       float64(nodes) / n,
		LPSolves:    float64(lps) / n,
		AllocsPerOp: float64(allocs) / n,
	})
	benchMu.Unlock()
}

func TestMain(m *testing.M) {
	code := m.Run()
	if len(benchRecords) > 0 {
		writeBenchJSON()
	}
	if len(scalingRecords) > 0 {
		reportScaling()
	}
	if len(parametricRecords) > 0 {
		writeParametricJSON()
	}
	os.Exit(code)
}

func writeBenchJSON() {
	sort.Slice(benchRecords, func(i, j int) bool { return benchRecords[i].Name < benchRecords[j].Name })
	buf, err := json.MarshalIndent(struct {
		Benchmarks []benchRecord `json:"benchmarks"`
	}{benchRecords}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench collector:", err)
		return
	}
	if err := os.WriteFile("BENCH_solver.json", append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench collector:", err)
		return
	}
	// benchstat-style cold-vs-warm comparison for the CI job log.
	byName := map[string]benchRecord{}
	for _, r := range benchRecords {
		byName[r.Name] = r
	}
	fmt.Println("\ncold vs warm (pivots/op and time/op):")
	for _, r := range benchRecords {
		if !strings.HasSuffix(r.Name, "Cold") {
			continue
		}
		w, ok := byName[strings.TrimSuffix(r.Name, "Cold")+"Warm"]
		if !ok {
			continue
		}
		pair := strings.TrimPrefix(strings.TrimSuffix(r.Name, "Cold"), "Benchmark")
		fmt.Printf("  %-8s pivots %9.0f → %8.0f (%5.2fx)   time %9.3fms → %8.3fms (%5.2fx)\n",
			pair, r.Pivots, w.Pivots, safeRatio(r.Pivots, w.Pivots),
			r.NsPerOp/1e6, w.NsPerOp/1e6, safeRatio(r.NsPerOp, w.NsPerOp))
	}
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return a / b
}

// tseriesProblem mirrors the T4 experiment's allocation instances: a few
// tasks, each restricted to a sweet-spot set of allowed node counts — the
// structure the paper's solver claims (C4) are measured on.
func tseriesProblem(seed uint64, setSize, total int) *core.Problem {
	rng := stats.NewRNG(seed)
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

// assignmentMILP builds the pure-MILP analog of an allocation problem: each
// task picks exactly one config, two capacity rows couple the tasks.
func assignmentMILP(seed uint64) (*lp.Problem, []int) {
	rng := stats.NewRNG(seed)
	p := lp.NewProblem()
	tasks, configs := 12, 4
	var ints []int
	x := make([][]int, tasks)
	for t := 0; t < tasks; t++ {
		x[t] = make([]int, configs)
		for k := 0; k < configs; k++ {
			x[t][k] = p.AddVariable(0, 1, 1+10*rng.Float64(), "")
			ints = append(ints, x[t][k])
		}
		terms := make([]lp.Term, configs)
		for k := 0; k < configs; k++ {
			terms[k] = lp.Term{Var: x[t][k], Coef: 1}
		}
		p.AddConstraint(terms, lp.EQ, 1, "")
	}
	for c := 0; c < 2; c++ {
		var terms []lp.Term
		for t := 0; t < tasks; t++ {
			for k := 0; k < configs; k++ {
				terms = append(terms, lp.Term{Var: x[t][k], Coef: 1 + 5*rng.Float64()})
			}
		}
		p.AddConstraint(terms, lp.LE, 3.0*float64(tasks), "")
	}
	return p, ints
}

func benchMILP(b *testing.B, cold bool) {
	b.ReportAllocs()
	var pivots, nodes, lps int
	allocs0 := mallocsNow()
	for i := 0; i < b.N; i++ {
		for seed := uint64(0); seed < 4; seed++ {
			p, ints := assignmentMILP(777 + seed)
			p.Engine.DisableWarmStart = cold
			res := milp.Solve(p, ints, nil, milp.Options{MaxNodes: 20000})
			if res.Status != milp.Optimal {
				b.Fatalf("seed %d: status %v", seed, res.Status)
			}
			pivots += res.Pivots
			nodes += res.Nodes
			lps += res.LPSolves
		}
	}
	recordBench(b, pivots, nodes, lps, mallocsNow()-allocs0)
}

// BenchmarkMILPCold / BenchmarkMILPWarm: branch-and-bound over
// assignment-structured MILPs, every node LP solved from scratch vs
// dual-simplex reoptimized from the parent basis.
func BenchmarkMILPCold(b *testing.B) { benchMILP(b, true) }
func BenchmarkMILPWarm(b *testing.B) { benchMILP(b, false) }

func benchOA(b *testing.B, cold bool) {
	b.ReportAllocs()
	var pivots, nodes, lps int
	allocs0 := mallocsNow()
	for i := 0; i < b.N; i++ {
		for _, sz := range []int{20, 60} {
			p := tseriesProblem(44, sz, 2048)
			m, _, err := p.BuildModel()
			if err != nil {
				b.Fatal(err)
			}
			res := minlp.Solve(m, minlp.Options{Engine: lp.Engine{DisableWarmStart: cold}})
			if res.Status != minlp.Optimal {
				b.Fatalf("set size %d: status %v", sz, res.Status)
			}
			pivots += res.Pivots
			nodes += res.Nodes
			lps += res.LPSolves
		}
	}
	recordBench(b, pivots, nodes, lps, mallocsNow()-allocs0)
}

// BenchmarkOACold / BenchmarkOAWarm: the paper's full outer-approximation
// route on T-series allocation instances — Kelley relaxation plus the lazy
// single-tree master, warm-starting the master after every linearization.
func BenchmarkOACold(b *testing.B) { benchOA(b, true) }
func BenchmarkOAWarm(b *testing.B) { benchOA(b, false) }

func benchKelley(b *testing.B, cold bool) {
	b.ReportAllocs()
	var pivots, lps int
	allocs0 := mallocsNow()
	for i := 0; i < b.N; i++ {
		for _, sz := range []int{20, 60} {
			p := tseriesProblem(44, sz, 2048)
			m, _, err := p.BuildModel()
			if err != nil {
				b.Fatal(err)
			}
			res := nlp.SolveConvex(m, nlp.ConvexOptions{Engine: lp.Engine{DisableWarmStart: cold}})
			if res.Status != nlp.ConvexOptimal {
				b.Fatalf("set size %d: status %v", sz, res.Status)
			}
			pivots += res.Pivots
			lps += res.Iters
		}
	}
	recordBench(b, pivots, 0, lps, mallocsNow()-allocs0)
}

// BenchmarkKelleyCold / BenchmarkKelleyWarm: the continuous relaxation via
// Kelley's cutting planes, re-solving the LP from scratch per iteration vs
// absorbing each new cut into the live tableau.
func BenchmarkKelleyCold(b *testing.B) { benchKelley(b, true) }
func BenchmarkKelleyWarm(b *testing.B) { benchKelley(b, false) }
