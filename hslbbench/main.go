// Command hslbbench is the repository's end-to-end benchmark of the HSLB
// path: gather → fit → solve → execute (workload plan), the default MINLP
// solve route (solve-small), the parametric route at FMO scale
// (solve-large), and the solve service behind loopback HTTP (serve).
//
//	bash hslbbench/run.sh --workload plan --seed 1 --seconds 15 --trace 0
//
// Every answer is re-checked by an independent checker (check.go). With
// --trace 0 the last stdout line is a JSON object carrying the end-to-end
// metrics; with --trace 1 the run repeats its operations with spans around
// every layer call and reports per-layer metrics instead. See README.md for
// why each workload exists and which layer it loads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// config is what every workload receives from the command line.
type config struct {
	seed    uint64
	seconds float64
	traced  bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"plan":        runPlan,
	"solve-small": runSolveSmall,
	"solve-large": runSolveLarge,
	"serve":       runServe,
}

// Each workload builds its inputs at least setupReps times, and keeps
// rebuilding (up to setupMaxReps) until setupMinS has passed; setup_s is the
// median, so one slow build (GC, a noisy neighbour) does not move it, and a
// build of a few milliseconds is still timed over many repetitions. The
// builds span seconds because this machine has slow spells of a few tenths
// of a second: plan's 5 ms build read 10–19 ms for 0.2 s in one run.
const (
	setupReps    = 5
	setupMaxReps = 1000
	setupMinS    = 2
)

// lateFactor marks an answer as late when it arrives after this multiple of
// its deadline.
const lateFactor = 1.25

func main() {
	workload := flag.String("workload", "", "workload: plan, solve-small, solve-large or serve")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "measured time per pass")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "where the traced run writes its spans")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1}
	out, err := run(cfg)
	if err != nil {
		fail(err)
	}
	metrics := out.e2e.metrics()
	if out.e2e.speed != nil {
		out.notef("%s", out.e2e.measuredNote())
	}
	if cfg.traced {
		metrics = out.layerMetrics()
		if err := out.tracer.write(*traceDir, *workload, *seed); err != nil {
			fail(err)
		}
	}
	for _, line := range out.notes {
		fmt.Fprintln(os.Stderr, line)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.e2e.failed == 0, out.e2e.attempted, out.e2e.failed, metrics}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hslbbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload hands back: the untraced end-to-end record
// and, for a traced run, the spans and the per-layer figures.
type outcome struct {
	e2e    *endToEnd
	tracer *tracer
	// layer holds the workload's per-layer figures beyond span self times
	// (counts, percentiles, ratios), keyed by metric name.
	layer map[string]float64
	notes []string
}

func (o *outcome) notef(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// endToEnd accumulates what a user of one workload sees. Times come in
// pairs: as measured, and at the reference speed (see speed.go); they are
// equal for a workload without a speed probe.
type endToEnd struct {
	speed     *speedProbe
	setupS    float64 // median build, as measured
	refSetupS float64 // median build at the reference speed
	attempted int
	failed    int       // answers that failed or did not pass the checker
	optimal   int       // answers proven optimal (checked witness)
	late      int       // answers after lateFactor × their deadline
	tasks     int       // tasks answered
	wallS     float64   // wall time spent answering
	refWallS  float64   // the same at the reference speed
	lat       []float64 // per-op latency, seconds
	refLat    []float64 // the same at the reference speed
	speedups  []float64 // uniform makespan / answer makespan, per op
}

// addOp records one op's latency and the machine speed measured right
// after it, and counts the op's time as time spent answering.
func (e *endToEnd) addOp(lat, speed float64) {
	e.lat = append(e.lat, lat)
	e.refLat = append(e.refLat, lat*speed)
	e.wallS += lat
	e.refWallS += lat * speed
}

// metrics returns the end-to-end figures, derived from the times at the
// reference speed.
func (e *endToEnd) metrics() map[string]metric {
	n := float64(e.attempted)
	return map[string]metric{
		"setup_s":            {e.refSetupS, "s"},
		"tasks_per_s":        {float64(e.tasks) / e.refWallS, "1/s"},
		"ops_per_s":          {float64(len(e.lat)) / e.refWallS, "1/s"},
		"op_p50_ms":          {1e3 * quantile(e.refLat, 0.50), "ms"},
		"ok_frac":            {float64(e.attempted-e.failed) / n, "frac"},
		"optimal_frac":       {float64(e.optimal) / n, "frac"},
		"on_time_frac":       {float64(e.attempted-e.late) / n, "frac"},
		"speedup_vs_uniform": {geomean(e.speedups), "ratio"},
	}
}

// measuredNote describes the run's speed and its figures as measured.
func (e *endToEnd) measuredNote() string {
	return fmt.Sprintf("speed probe: %d samples over %.2fs, mean speed %.4f; as measured: setup_s %.6g, tasks_per_s %.6g, ops_per_s %.6g, op_p50_ms %.6g",
		len(e.speed.speeds), e.speed.spentS, e.refWallS/e.wallS, e.setupS,
		float64(e.tasks)/e.wallS, float64(len(e.lat))/e.wallS, 1e3*quantile(e.lat, 0.5))
}

// perLayer lists every per-layer metric with its unit. Each traced run
// reports all of them; a layer a workload never calls reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"trace.untraced_s", "s"},
	{"trace.traced_s", "s"},
	{"trace.layers_s", "s"},
	{"trace.overhead_pct", "%"},
	{"trace.residual_pct", "%"},
	{"trace.ops", "count"},
	{"bench.speed", "ratio"},

	{"fmo.gather_s", "s"},
	{"perfmodel.fit_s", "s"},
	{"perfmodel.fit_calls", "count"},
	{"perfmodel.fit_p50_ms", "ms"},
	{"perfmodel.r2_min", "1"},
	{"core.parametric_s", "s"},
	{"gddi.execute_s", "s"},
	{"gddi.pred_err_pct", "%"},
	{"hslb.residual_s", "s"},
	{"hslb.replay_identical", "frac"},

	{"core.parametric_s.n16384_range", "s"},
	{"core.parametric_s.n16384_sweet", "s"},
	{"core.parametric_s.n65536_range", "s"},
	{"core.parametric_s.n65536_sweet", "s"},

	{"minlp.solve_s", "s"},
	{"minlp.no_incumbent", "count"},
	{"minlp.overrun_ms_max", "ms"},
	{"milp.nodes", "count"},
	{"milp.lp_solves", "count"},
	{"minlp.oa_cuts", "count"},
	{"lp.pivots", "count"},
	{"lp.revised_solves", "count"},
	{"lp.revised_share", "frac"},
	{"lp.fallbacks", "count"},
	{"lp.refactors", "count"},
	{"lp.ft_updates", "count"},
	{"lp.crash_installs", "count"},
	{"lp.crash_declines", "count"},

	{"serve.roundtrip_s", "s"},
	{"serve.req_p99_ms", "ms"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.table_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.hit_ratio", "frac"},
	{"serve.table_ratio", "frac"},
	{"serve.miss_ratio", "frac"},
	{"serve.solves", "count"},
	{"serve.table_solves", "count"},
	{"serve.collapsed", "count"},
	{"serve.rejected", "count"},
	{"serve.direct_solve_p50_ms", "ms"},
	{"serve.overhead_p50_ms", "ms"},
	{"client.encode_p50_ms", "ms"},
	{"client.decode_p50_ms", "ms"},
	{"client.think_pct", "%"},
	{"serve.req_bytes", "B"},
	{"serve.resp_bytes", "B"},
}

// spanLayers maps span names to the per-layer time metric their self time
// feeds; op-root spans feed the residual of the layer that owns the glue.
var spanLayers = map[string]string{
	"fmo.gather":      "fmo.gather_s",
	"perfmodel.fit":   "perfmodel.fit_s",
	"core.parametric": "core.parametric_s",
	"gddi.execute":    "gddi.execute_s",
	"hslb.pipeline":   "hslb.residual_s",
	"minlp.solve":     "minlp.solve_s",
	"serve.roundtrip": "serve.roundtrip_s",
}

// layerMetrics turns the traced pass into the per-layer metric set. Times
// and counts are per op (a pipeline pair, one solve, one request), so a layer
// that gets faster shows lower numbers even though a faster program fits
// more ops into the same run.
func (o *outcome) layerMetrics() map[string]metric {
	self, roots, tracedS := o.tracer.selfTimes()
	ops, untracedS := float64(len(o.e2e.lat)), 0.0
	for _, l := range o.e2e.lat {
		untracedS += l
	}
	vals := map[string]float64{}
	for name, v := range o.layer {
		vals[name] = v
	}
	layersS := 0.0
	for name, s := range self {
		if m, ok := spanLayers[name]; ok {
			vals[m] += s / ops
		}
		if !roots[name] {
			layersS += s
		}
	}
	vals["trace.untraced_s"] = untracedS / ops
	vals["trace.traced_s"] = tracedS / ops
	vals["trace.layers_s"] = layersS / ops
	vals["trace.overhead_pct"] = 100 * (tracedS - untracedS) / untracedS
	vals["trace.residual_pct"] = 100 * (untracedS - layersS) / untracedS
	vals["trace.ops"] = ops
	vals["bench.speed"] = o.e2e.refWallS / o.e2e.wallS
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	o.notef("traced %d ops: untraced %.4fs, traced %.4fs, layer spans %.4fs (residual %.2f%%, tracing overhead %.2f%%)",
		len(o.e2e.lat), untracedS, tracedS, layersS, vals["trace.residual_pct"], vals["trace.overhead_pct"])
	return out
}

// timedSetup builds a workload's inputs repeatedly and returns the last
// build with the median build time in seconds, as measured and at the
// reference speed (each build times the speed the probe measures after it).
func timedSetup[T any](speed *speedProbe, build func() (T, error)) (v T, setupS, refSetupS float64, err error) {
	var ds, refs []float64
	for total := 0.0; len(ds) < setupReps || (total < setupMinS && len(ds) < setupMaxReps); total += ds[len(ds)-1] {
		t0 := time.Now()
		if v, err = build(); err != nil {
			return v, 0, 0, err
		}
		d := time.Since(t0).Seconds()
		ds, refs = append(ds, d), append(refs, d*speed.tick())
	}
	return v, quantile(ds, 0.5), quantile(refs, 0.5), nil
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
