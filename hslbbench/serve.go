package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	hslb "repro"
	"repro/internal/serve"
	"repro/internal/stats"
)

// Workload serve: an in-process solve service configured like cmd/hslbd's
// defaults (table cache on), behind loopback HTTP, driven by a closed loop
// of serveClients job launchers that each wait for their allocation before
// asking for the next. Requests go to /v1/parametric and carry fitted
// sweet-spot protein and water families of 16–1,024 tasks.
//
// The traffic is cmd/hslbload's default workload, the repository's one
// definition of serving traffic; no trace of real traffic exists. Its
// defaults give the catalog size, the Zipf exponent of popularity, the
// churn probability (a request respells its instance) and the fresh
// probability (a never-seen instance, a forced miss). hslbload respells by
// a permuted task order or a power-of-two rescale, picked uniformly; the
// benchmark adds a budget move as a third kind, picked the same way, so
// that the service's table cache is exercised.
const (
	serveClients  = 2
	serveCatalog  = 64   // hslbload -catalog
	serveZipfS    = 1.2  // hslbload -zipf-s
	serveChurn    = 0.5  // hslbload -churn
	serveFresh    = 0.02 // hslbload -fresh
	serveNodesPer = 32
	serveWarmupS  = 2.0
	// The closed loop runs in chunks this long; the speed probe runs
	// between them, and a traced run replays each chunk right after it.
	serveChunkS = probeEveryS
)

// The family catalogue is built from referenceSeed; the run seed drives the
// traffic: popularity draws, churn, orders, rescales and fresh instances.

// serveSizes are the catalogue's task counts. They cycle in ascending
// order over the popularity ranks, so each size gets 9 or 10 of the 64
// families, as hslbload's uniform size draw gives each size an equal share
// of its catalog, and every seed sends the same mix.
var serveSizes = []int{16, 32, 64, 128, 256, 512, 1024}

// family is one N-parameterized instance family in its base spelling.
type family struct {
	tasks []serve.TaskRequest
	nodes int // base budget
}

// request is one generated request: a family, spelled in some task order
// at some power-of-two time scale, at some budget.
type request struct {
	fam    *family
	perm   []int // request task j is family task perm[j]
	scale  int   // power-of-two exponent applied to a, b, d
	budget int
	seq    int // position in its client's stream
}

func (r *request) body() serve.SolveRequest {
	tasks := make([]serve.TaskRequest, len(r.perm))
	for j, fi := range r.perm {
		t := r.fam.tasks[fi]
		p := *t.Params
		p.A, p.B, p.D = math.Ldexp(p.A, r.scale), math.Ldexp(p.B, r.scale), math.Ldexp(p.D, r.scale)
		t.Params = &p
		tasks[j] = t
	}
	return serve.SolveRequest{Tasks: tasks, TotalNodes: r.budget}
}

// problemOf is the instance a request body describes.
func problemOf(body *serve.SolveRequest) *hslb.Problem {
	p := &hslb.Problem{TotalNodes: body.TotalNodes, Tasks: make([]hslb.Task, len(body.Tasks))}
	for i, t := range body.Tasks {
		p.Tasks[i] = hslb.Task{Name: t.Name, Allowed: t.Allowed,
			Perf: hslb.Params{A: t.Params.A, B: t.Params.B, C: t.Params.C, D: t.Params.D}}
	}
	return p
}

// traffic generates one client's request stream the way hslbload does: a
// fresh instance with probability serveFresh, else a catalog family drawn
// by Zipf popularity; then, with probability serveChurn, one respelling.
// A permuted order or a rescale is answered by the canonical cache; a
// moved budget is a table hit when a certified bracket covers it.
type traffic struct {
	rng  *stats.RNG
	fams []*family
	cdf  []float64
	sent int
}

func newTraffic(fams []*family, seed uint64) *traffic {
	cdf := make([]float64, len(fams))
	s := 0.0
	for i := range fams {
		s += math.Pow(float64(i+1), -serveZipfS)
		cdf[i] = s
	}
	for i := range cdf {
		cdf[i] /= s
	}
	return &traffic{rng: stats.NewRNG(seed), fams: fams, cdf: cdf}
}

func (g *traffic) next() *request {
	var f *family
	if g.rng.Float64() < serveFresh {
		// A family shape from the catalogue with perturbed coefficients:
		// never seen before, so a miss that writes the cache and the tables.
		base := g.fams[g.rng.Intn(len(g.fams))]
		f = &family{nodes: base.nodes, tasks: make([]serve.TaskRequest, len(base.tasks))}
		for i, t := range base.tasks {
			p := *t.Params
			p.A *= 1 + 1e-3*g.rng.Float64()
			t.Params = &p
			f.tasks[i] = t
		}
	} else {
		f = g.fams[sort.SearchFloat64s(g.cdf, g.rng.Float64())]
	}
	k := len(f.tasks)
	r := &request{fam: f, perm: identity(k), budget: f.nodes, seq: g.sent}
	g.sent++
	if g.rng.Float64() < serveChurn {
		switch g.rng.Intn(3) {
		case 0:
			r.perm = g.rng.Perm(k)
		case 1: // hslbload's exponents: -6..6 without 0
			if r.scale = g.rng.Intn(12) - 6; r.scale >= 0 {
				r.scale++
			}
		default: // grow by up to 2 nodes per task; allowed sets stay within the budget
			r.budget += (1 + g.rng.Intn(32)) * k / 16
		}
	}
	return r
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func serveFamiliesFor(seed uint64) ([]*family, error) {
	fits := newFitCache(seed)
	fams := make([]*family, serveCatalog)
	for i := range fams {
		k := serveSizes[i%len(serveSizes)]
		p, err := fittedProblem(fits, molecule(i%2 == 0, k, seed<<16+uint64(i)), serveNodesPer, sweetSet)
		if err != nil {
			return nil, err
		}
		f := &family{nodes: p.TotalNodes}
		for _, t := range p.Tasks {
			f.tasks = append(f.tasks, serve.TaskRequest{Name: t.Name, Allowed: t.Allowed,
				Params: &serve.ParamsRequest{A: t.Perf.A, B: t.Perf.B, C: t.Perf.C, D: t.Perf.D}})
		}
		fams[i] = f
	}
	return fams, nil
}

// service is a running server with its HTTP front and a client.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

func startService(fams []*family) (*service, error) {
	opts := serve.DefaultOptions()
	opts.TableCacheSize = 1024 // cmd/hslbd's -table-cache-size default
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/parametric",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	// Every family's base instance is solved once before timing, so the
	// measured mix starts from a warm cache.
	for _, f := range fams {
		r := &request{fam: f, perm: identity(len(f.tasks)), budget: f.nodes}
		if _, err := s.do(nil, 0, r); err != nil {
			s.stop()
			return nil, fmt.Errorf("priming the service: %w", err)
		}
	}
	return s, nil
}

// stop shuts the HTTP server down and waits for it to exit.
func (s *service) stop() {
	s.hs.Shutdown(context.Background())
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// record is one answered request as the client saw it. Answers are
// checked once the timed window has closed (checkRecords), so within one
// loop a client keeps the solution bytes only of its first answer to each
// request body; a repeat keeps the hashes, and the check compares them.
type record struct {
	req       *request
	err       error   // transport, HTTP or checker failure
	lat       float64 // seconds, encode start to decode end
	encodeS   float64
	decodeS   float64
	cache     string // X-HSLB-Cache
	tasks     int
	reqBytes  int
	respBytes int
	reqHash   [32]byte
	solHash   [32]byte
	solution  json.RawMessage // nil for a repeat of an earlier body
	optimal   bool            // set by checkRecords
	speedup   float64         // uniform makespan / answer makespan, set by checkRecords
	speed     float64         // machine speed measured right after the request's chunk
}

// do sends one request and decodes its answer, with spans when traced.
func (s *service) do(tr *tracer, op int, r *request) (record, error) {
	rec := record{req: r}
	root := tr.begin("client.request", op, 0)
	t0 := time.Now()
	id := tr.begin("client.encode", op, root)
	body := r.body()
	data, err := json.Marshal(&body)
	tr.end(id)
	if err != nil {
		tr.end(root)
		return rec, err
	}
	t1 := time.Now()
	id = tr.begin("serve.roundtrip", op, root)
	var raw []byte
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(data))
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	tr.end(id)
	if err != nil {
		tr.end(root)
		return rec, err
	}
	t2 := time.Now()
	id = tr.begin("client.decode", op, root)
	var env struct {
		Solution json.RawMessage `json:"solution"`
		Meta     serve.MetaBody  `json:"meta"`
	}
	var answer serve.SolutionBody
	err = json.Unmarshal(raw, &env)
	if err == nil {
		err = json.Unmarshal(env.Solution, &answer)
	}
	tr.end(id)
	tr.end(root)
	t3 := time.Now()
	rec.encodeS, rec.decodeS, rec.lat = t1.Sub(t0).Seconds(), t3.Sub(t2).Seconds(), t3.Sub(t0).Seconds()
	if resp.StatusCode != http.StatusOK {
		return rec, fmt.Errorf("HTTP %d: %s", resp.StatusCode, raw)
	}
	if err != nil {
		return rec, fmt.Errorf("decoding the response: %w", err)
	}
	rec.cache = resp.Header.Get("X-HSLB-Cache")
	rec.tasks, rec.reqBytes, rec.respBytes = len(body.Tasks), len(data), len(raw)
	rec.reqHash, rec.solHash = sha256.Sum256(data), sha256.Sum256(env.Solution)
	rec.solution = env.Solution
	return rec, nil
}

type canonKey struct {
	fam    *family
	budget int
}

// checkRecords checks every answer of a pass. Each client's first answer
// to a request body is checked against the instance the body describes,
// and every spelling of one instance must give each family task the same
// nodes; every other answer must carry the same solution bytes as the
// first answer to its body.
func checkRecords(logs [][]record) {
	type verdict struct {
		sol     [32]byte
		optimal bool
		speedup float64
		err     error
	}
	chk := newChecker()
	first := map[[32]byte]*verdict{}
	canon := map[canonKey][]int{}
	for _, lg := range logs {
		for i := range lg {
			rec := &lg[i]
			if rec.err != nil || rec.solution == nil {
				continue
			}
			rec.optimal, rec.speedup, rec.err = checkAnswer(chk, rec, canon)
			if f, ok := first[rec.reqHash]; !ok {
				first[rec.reqHash] = &verdict{rec.solHash, rec.optimal, rec.speedup, rec.err}
			} else if f.sol != rec.solHash && rec.err == nil {
				rec.err = errors.New("repeated request got different solution bytes")
			}
		}
	}
	for _, lg := range logs {
		for i := range lg {
			rec := &lg[i]
			if rec.err != nil || rec.solution != nil {
				continue
			}
			switch f := first[rec.reqHash]; {
			case f == nil:
				rec.err = errors.New("repeated request without a first answer")
			case f.sol != rec.solHash:
				rec.err = errors.New("repeated request got different solution bytes")
			default:
				rec.optimal, rec.speedup, rec.err = f.optimal, f.speedup, f.err
			}
		}
	}
}

// checkAnswer verifies one answer against the instance its request
// describes and against the node counts the first spelling of that
// instance received.
func checkAnswer(chk *checker, rec *record, canon map[canonKey][]int) (optimal bool, speedup float64, err error) {
	var ans serve.SolutionBody
	if err := json.Unmarshal(rec.solution, &ans); err != nil {
		return false, 0, fmt.Errorf("decoding the solution: %w", err)
	}
	r, body := rec.req, rec.req.body()
	if len(ans.Allocation) != len(body.Tasks) {
		return false, 0, fmt.Errorf("answer has %d tasks, request %d", len(ans.Allocation), len(body.Tasks))
	}
	if ans.Status != "optimal" && ans.Status != "bounded" {
		return false, 0, fmt.Errorf("unknown status %q", ans.Status)
	}
	a := &hslb.Allocation{Makespan: ans.Makespan, Used: ans.Used, Bounded: ans.Status == "bounded",
		BestBound: ans.BestBound, Gap: ans.Gap}
	famNodes := make([]int, len(body.Tasks))
	for j, t := range ans.Allocation {
		if t.Name != body.Tasks[j].Name {
			return false, 0, fmt.Errorf("answer task %d is %q, request has %q", j, t.Name, body.Tasks[j].Name)
		}
		a.Nodes = append(a.Nodes, t.Nodes)
		a.Times = append(a.Times, t.Time)
		famNodes[r.perm[j]] = t.Nodes
	}
	p := problemOf(&body)
	if optimal, err = chk.check(p, a); err != nil {
		return false, 0, err
	}
	ck := canonKey{r.fam, r.budget}
	if first, ok := canon[ck]; !ok {
		canon[ck] = famNodes
	} else if !sameInts(first, famNodes) {
		return false, 0, errors.New("respelled instance got a different allocation")
	}
	return optimal, hslb.Uniform(p).Makespan / ans.Makespan, nil
}

func runServe(cfg config) (*outcome, error) {
	type state struct {
		fams []*family
		svc  *service
	}
	speed := newSpeedProbe()
	var prev *service
	st, setupS, refSetupS, err := timedSetup(speed, func() (state, error) {
		if prev != nil {
			prev.stop()
		}
		fams, err := serveFamiliesFor(referenceSeed)
		if err != nil {
			return state{}, err
		}
		svc, err := startService(fams)
		prev = svc
		return state{fams, svc}, err
	})
	if err != nil {
		if prev != nil {
			prev.stop()
		}
		return nil, err
	}
	out := &outcome{e2e: &endToEnd{speed: speed, setupS: setupS, refSetupS: refSetupS}, layer: map[string]float64{}}
	// A traced run replays every request on a second service, in chunks
	// right after the untraced run of the same chunk, so the two passes see
	// the same machine speed; it drifts by up to ±20% over tens of seconds.
	var shadow *service
	if cfg.traced {
		if shadow, err = startService(st.fams); err != nil {
			st.svc.stop()
			return nil, err
		}
		defer shadow.stop()
		out.tracer = newTracer()
	}
	gens := func(first uint64) []*traffic {
		g := make([]*traffic, serveClients)
		for c := range g {
			g[c] = newTraffic(st.fams, cfg.seed<<8+first+uint64(c))
		}
		return g
	}
	// Warm-up traffic, untimed, from its own streams: the first second after
	// priming runs up to 1.7× slower at p50, by a varying amount, while the
	// heap and the cache grow.
	warm, _ := serveLoop(st.svc, nil, serveWarmupS, gens(serveClients), nil)
	checkRecords(warm)
	for _, lg := range warm {
		for _, rec := range lg {
			if rec.err != nil {
				st.svc.stop()
				return nil, fmt.Errorf("serve warm-up: %w", rec.err)
			}
		}
	}
	if shadow != nil {
		serveLoop(shadow, nil, 0, nil, warm)
	}
	before := st.svc.srv.Stats()
	logs, tlogs := make([][]record, serveClients), make([][]record, serveClients)
	var wall, refWall float64
	g := gens(0)
	for wall < cfg.seconds {
		chunk, w := serveLoop(st.svc, nil, min(serveChunkS, cfg.seconds-wall), g, nil)
		sp := speed.tick()
		wall, refWall = wall+w, refWall+w*sp
		for c := range logs {
			for i := range chunk[c] {
				chunk[c][i].speed = sp
			}
			logs[c] = append(logs[c], chunk[c]...)
		}
		if shadow != nil {
			traced, _ := serveLoop(shadow, out.tracer, 0, nil, chunk)
			for c := range tlogs {
				tlogs[c] = append(tlogs[c], traced[c]...)
			}
		}
	}
	after := st.svc.srv.Stats()
	st.svc.stop()
	t0 := time.Now()
	checkRecords(logs)
	checkS := time.Since(t0).Seconds()

	e := out.e2e
	e.wallS, e.refWallS = wall, refWall
	var lat = map[string][]float64{}
	var encode, decode []float64
	var reqBytes, respBytes, checked int
	busyS := 0.0
	for _, lg := range logs {
		for _, rec := range lg {
			e.attempted++
			busyS += rec.lat
			if rec.solution != nil {
				checked++
			}
			if rec.err != nil {
				e.failed++
				out.notef("serve: %v", rec.err)
				continue
			}
			if rec.optimal {
				e.optimal++
			}
			e.lat, e.refLat = append(e.lat, rec.lat), append(e.refLat, rec.lat*rec.speed)
			e.tasks += rec.tasks
			e.speedups = append(e.speedups, rec.speedup)
			lat[rec.cache] = append(lat[rec.cache], rec.lat)
			encode = append(encode, rec.encodeS)
			decode = append(decode, rec.decodeS)
			reqBytes += rec.reqBytes
			respBytes += rec.respBytes
		}
	}
	n := float64(len(e.lat))
	for _, c := range []string{"hit", "table", "miss"} {
		out.layer["serve."+c+"_p50_ms"] = 1e3 * quantile(lat[c], 0.5)
		out.layer["serve."+c+"_ratio"] = float64(len(lat[c])) / n
	}
	out.layer["serve.req_p99_ms"] = 1e3 * quantile(e.lat, 0.99)
	out.layer["serve.solves"] = float64(after.Solves-before.Solves) / n
	out.layer["serve.table_solves"] = float64(after.TableSolves-before.TableSolves) / n
	out.layer["serve.collapsed"] = float64(after.Collapsed-before.Collapsed) / n
	out.layer["serve.rejected"] = float64(after.Rejected-before.Rejected) / n
	out.layer["client.encode_p50_ms"] = 1e3 * quantile(encode, 0.5)
	out.layer["client.decode_p50_ms"] = 1e3 * quantile(decode, 0.5)
	out.layer["serve.req_bytes"] = float64(reqBytes) / n
	out.layer["serve.resp_bytes"] = float64(respBytes) / n
	out.layer["client.think_pct"] = 100 * (1 - busyS/(serveClients*wall))
	out.notef("serve: %d requests from %d clients in %.2fs: %d hits, %d table hits, %d misses; p50 %.3f ms, p99 %.3f ms; clients outside requests %.1f%% of the time",
		len(e.lat), serveClients, wall, len(lat["hit"]), len(lat["table"]), len(lat["miss"]),
		1e3*quantile(e.lat, 0.5), 1e3*quantile(e.lat, 0.99), out.layer["client.think_pct"])
	out.notef("serve: %d distinct answers checked after the timed window in %.2fs", checked, checkS)
	if !cfg.traced {
		return out, nil
	}

	checkRecords(tlogs)
	var direct, overhead []float64
	for _, lg := range tlogs {
		for _, rec := range lg {
			if rec.err != nil {
				return nil, fmt.Errorf("traced serve pass: %w", rec.err)
			}
			if rec.cache != "miss" {
				continue
			}
			body := rec.req.body()
			p := problemOf(&body)
			t0 := time.Now()
			if _, err := hslb.SolveParametric(p); err != nil {
				return nil, fmt.Errorf("direct solve of a served instance: %w", err)
			}
			d := time.Since(t0).Seconds()
			direct = append(direct, d)
			overhead = append(overhead, rec.lat-d)
		}
	}
	out.layer["serve.direct_solve_p50_ms"] = 1e3 * quantile(direct, 0.5)
	out.layer["serve.overhead_p50_ms"] = 1e3 * quantile(overhead, 0.5)
	return out, nil
}

// serveLoop runs the closed loop: serveClients goroutines, each sending its
// next request once the previous one is answered. With gens set, client c
// draws new requests from gens[c] until seconds have passed; with replay
// set, each client resends exactly the requests it sent in that earlier
// run. It returns the per-client records, not yet checked, and the wall
// time.
func serveLoop(svc *service, tr *tracer, seconds float64, gens []*traffic, replay [][]record) ([][]record, float64) {
	logs := make([][]record, serveClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	stopAt := t0.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var g *traffic
			if gens != nil {
				g = gens[c]
			}
			seen := map[[32]byte]bool{}
			for i := 0; ; i++ {
				var r *request
				if g != nil {
					if !time.Now().Before(stopAt) {
						return
					}
					r = g.next()
				} else {
					if i == len(replay[c]) {
						return
					}
					r = replay[c][i].req
				}
				rec, err := svc.do(tr, c<<24+r.seq, r)
				if rec.err = err; err == nil {
					if seen[rec.reqHash] {
						rec.solution = nil
					}
					seen[rec.reqHash] = true
				}
				logs[c] = append(logs[c], rec)
			}
		}(c)
	}
	wg.Wait()
	return logs, time.Since(t0).Seconds()
}
