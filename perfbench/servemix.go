package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"time"

	"abred/internal/bench"
	"abred/internal/cluster"
	"abred/internal/model"
	"abred/internal/serve"
	"abred/internal/topo"
)

// serve_mix is a closed loop with one client against an in-process
// serve.Server, called through Handler().ServeHTTP with no sockets. The
// client sends a fixed-shape sequence generated from the seed: cold
// scenarios of four classes, warm repeats of them (half respelled),
// malformed specs and one spec the validator lets through although the
// flow engine cannot run it.
const (
	hitsPerCold = 1000 // warm repeats of every cold scenario; enough for many GC cycles a round
	serveSetups = 21   // set-ups per run; one takes about 60 ms
)

// Request kinds of the serve_mix sequence.
const (
	kindMiss = iota
	kindHit
	kindMalformed
	kindFault
)

// mixRequest is one request of the sequence.
type mixRequest struct {
	kind  int
	cold  int    // index of the cold scenario (miss and hit)
	body  []byte // the POSTed JSON
	want  string // a malformed request's expected 400 body
	class string // a miss's class
}

// coldScenario is one scenario the sequence asks for cold.
type coldScenario struct {
	class string
	spec  serve.Spec
}

// coldScenarios returns the cold scenarios. Their number per class and
// their shapes are fixed; the seed picks their simulation seeds.
func coldScenarios(rng *rand.Rand) []coldScenario {
	var cs []coldScenario
	add := func(class string, n int, mk func(seed int64) serve.Spec) {
		for i := 0; i < n; i++ {
			cs = append(cs, coldScenario{class, mk(1 + rng.Int63n(1<<40))})
		}
	}
	add("packet", 5, func(s int64) serve.Spec {
		return serve.Spec{Nodes: 256, Mode: "ab", Topo: "fattree:16", Iters: 10, Seed: s}
	})
	add("packet", 5, func(s int64) serve.Spec {
		return serve.Spec{Nodes: 256, Mode: "nab", Topo: "fattree:16", Iters: 10, Seed: s}
	})
	add("packet", 2, func(s int64) serve.Spec {
		return serve.Spec{Nodes: 1024, Topo: "fattree:16", TopoAware: true, Iters: 10, Seed: s}
	})
	add("lossy", 4, func(s int64) serve.Spec {
		return serve.Spec{Nodes: 256, Topo: "fattree:16", Loss: 0.01, FaultSeed: s ^ 0x5bd1e995, Iters: 10, Seed: s}
	})
	add("tenancy", 4, func(s int64) serve.Spec {
		return serve.Spec{Nodes: 64, Topo: "fattree:16", Jobs: 4, Place: "greedy", MaxReps: 8, Seed: s}
	})
	add("flow", 4, func(s int64) serve.Spec {
		return serve.Spec{Nodes: 16384, Engine: "flow", Topo: "fattree:16", Iters: 1, Seed: s}
	})
	return cs
}

// malformedSpecs are rejected by Spec.Normalize; the server must answer
// 400 with the validator's text.
var malformedSpecs = []serve.Spec{
	{Nodes: 1},
	{Nodes: 256, Mode: "fast"},
	{Nodes: 64, Jobs: 2},
	{Nodes: 256, Engine: "flow", Mode: "nic"},
}

// faultySpec passes Spec.Normalize, but its 32 KiB reduction exceeds the
// 16 KiB eager threshold the flow engine models, so the run panics and
// the server answers 500. The right answer is a 400 from the validator;
// every run counts it as one failed operation until that is fixed.
func faultySpec(seed int64) serve.Spec {
	return serve.Spec{Nodes: 16384, Engine: "flow", Topo: "fattree:16", Count: 4096, Seed: seed}
}

// warmupSpec is the server's first, untimed scenario (part of set-up);
// it shares no cache key with the sequence.
var warmupSpec = serve.Spec{Nodes: 64, Mode: "nab"}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // specs and maps of plain values always marshal
	}
	return b
}

// respell writes a spec in one of several spellings that normalize to
// the same key: an equivalent topology, a duration in other units, or
// defaults written out.
func respell(s serve.Spec, rng *rand.Rand) []byte {
	var m map[string]any
	if err := json.Unmarshal(mustJSON(s), &m); err != nil {
		panic(err)
	}
	switch rng.Intn(4) {
	case 0:
		m["topo"] = "fattree:16:o1"
	case 1:
		m["skew"] = "1000us"
	case 2:
		m["cluster"] = "paper"
		if s.Count == 0 {
			m["count"] = 4
		}
		if s.Iters == 0 {
			m["iters"] = 20
		}
	case 3:
		m["lps"] = 1
	}
	return mustJSON(m)
}

// mixSequence builds the request sequence: every cold scenario once as a
// miss and hitsPerCold times as a hit, in seeded order; the malformed
// specs at seeded places; and the faulty spec right before the second
// flow scenario's miss, so that miss runs on the cluster the failed run
// left in the pool.
func mixSequence(seed int64) ([]coldScenario, []mixRequest) {
	rng := rand.New(rand.NewSource(seed))
	colds := coldScenarios(rng)
	var order []int
	for i := range colds {
		for j := 0; j <= hitsPerCold; j++ {
			order = append(order, i)
		}
	}
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })

	var reqs []mixRequest
	seen := make([]bool, len(colds))
	for _, i := range order {
		c := colds[i]
		if !seen[i] {
			seen[i] = true
			reqs = append(reqs, mixRequest{kind: kindMiss, cold: i, body: mustJSON(c.spec), class: c.class})
			continue
		}
		body := mustJSON(c.spec)
		if rng.Intn(2) == 0 {
			body = respell(c.spec, rng)
		}
		reqs = append(reqs, mixRequest{kind: kindHit, cold: i, body: body})
	}
	for _, s := range malformedSpecs {
		_, err := s.Normalize(serve.Limits{})
		if err == nil {
			panic("perfbench: a malformed spec passed the validator")
		}
		at := rng.Intn(len(reqs) + 1)
		m := mixRequest{kind: kindMalformed, cold: -1, body: mustJSON(s), want: "bad spec: " + err.Error() + "\n"}
		reqs = append(reqs[:at], append([]mixRequest{m}, reqs[at:]...)...)
	}
	flows := 0
	for at, q := range reqs {
		if q.kind == kindMiss && q.class == "flow" {
			if flows++; flows == 2 {
				f := mixRequest{kind: kindFault, cold: -1, body: mustJSON(faultySpec(1 + rng.Int63n(1<<40)))}
				reqs = append(reqs[:at], append([]mixRequest{f}, reqs[at:]...)...)
				break
			}
		}
	}
	return colds, reqs
}

// reply is one answered request.
type reply struct {
	status int
	cache  string
	body   []byte
	lat    time.Duration
}

// post sends one spec to the handler.
func post(h http.Handler, body []byte) reply {
	req := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	lat := time.Since(start)
	return reply{status: rec.Code, cache: rec.Header().Get("X-Cache"), body: rec.Body.Bytes(), lat: lat}
}

// newServer is serve_mix's set-up: serve.New and the first, untimed
// scenario.
func newServer() (*serve.Server, error) {
	srv, err := serve.New(serve.Options{})
	if err != nil {
		return nil, err
	}
	if rp := post(srv.Handler(), mustJSON(warmupSpec)); rp.status != http.StatusOK {
		srv.Close()
		return nil, fmt.Errorf("warm-up scenario: %d %s", rp.status, rp.body)
	}
	return srv, nil
}

// body is the part of a 200 response the checks read.
type body struct {
	Spec      serve.Spec `json:"spec"`
	Reps      int        `json:"reps"`
	Converged bool       `json:"converged"`
	Samples   []float64  `json:"samples"`
	Events    uint64     `json:"events"`
}

// mixRound is one pass over the sequence on a fresh server. It keeps the
// latencies, but of the bodies only the misses' and the one answered
// after the faulty spec, so the client holds little heap of its own.
type mixRound struct {
	use        span
	heapMB     float64
	lat        []time.Duration // per request
	missBody   map[int][]byte  // by cold scenario
	afterFault []byte
	events     float64 // simulated events over the misses
	reps       float64 // repetitions over the misses
	srv        metricsDoc
	pool       cluster.PoolStats
}

// metricsDoc is the part of /metrics the traced run reports.
type metricsDoc struct {
	Runs  uint64 `json:"runs"`
	Cache struct {
		Hits uint64 `json:"hits"`
	} `json:"cache"`
}

// playRound sends the whole sequence to a fresh server, checks every
// answer and counts the operations.
func playRound(r *run, reqs []mixRequest) (mixRound, error) {
	srv, err := newServer()
	if err != nil {
		return mixRound{}, err
	}
	defer srv.Close()
	runtime.GC() // the previous round's garbage is not charged to this one
	h := srv.Handler()
	rd := mixRound{lat: make([]time.Duration, len(reqs)), missBody: map[int][]byte{}}
	heap := sampleHeap()
	u := snapshot()
	for i, q := range reqs {
		rp := post(h, q.body)
		rd.lat[i] = rp.lat
		r.attempted++
		switch {
		case q.kind == kindFault:
			if rp.status != http.StatusBadRequest {
				r.failed++
			}
		case q.kind == kindMalformed:
			r.check(rp.status == http.StatusBadRequest && string(rp.body) == q.want,
				"malformed spec %s: got %d %q, want 400 %q", q.body, rp.status, rp.body, q.want)
		case rp.status != http.StatusOK:
			r.check(false, "spec %s: got %d %s", q.body, rp.status, rp.body)
		case q.kind == kindMiss:
			r.check(rp.cache == "miss", "first request for %s answered %q, want a miss", q.body, rp.cache)
			rd.missBody[q.cold] = rp.body
			if i > 0 && reqs[i-1].kind == kindFault {
				rd.afterFault = rp.body
			}
		default:
			r.check(rp.cache == "hit" && bytes.Equal(rp.body, rd.missBody[q.cold]),
				"repeat %s answered %q and differs from its miss body", q.body, rp.cache)
		}
	}
	rd.use = u.since()
	rd.heapMB = heap.peakMB()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &rd.srv); err != nil {
		return rd, fmt.Errorf("/metrics: %v", err)
	}
	rd.pool = srv.Pool().Stats()
	for _, raw := range rd.missBody {
		var b body
		if err := json.Unmarshal(raw, &b); err != nil {
			r.check(false, "a miss body does not parse: %v", err)
			continue
		}
		r.check((b.Reps >= b.Spec.MinReps && b.Converged) || b.Reps == b.Spec.MaxReps,
			"scenario %s: %d reps, converged %v, minreps %d, maxreps %d", b.Spec.Key(), b.Reps, b.Converged, b.Spec.MinReps, b.Spec.MaxReps)
		rd.events += float64(b.Events)
		rd.reps += float64(b.Reps)
	}
	return rd, nil
}

// serveMix drives the serve_mix workload.
func serveMix(r *run) {
	colds, reqs := mixSequence(subSeed(r.seed, 0))

	var setupTimes []float64
	for i := 0; i < serveSetups; i++ {
		start := time.Now()
		srv, err := newServer()
		if err != nil {
			r.attempted++
			r.failed++
			r.check(false, "set-up: %v", err)
			return
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		srv.Close()
		runtime.GC()
	}

	measure := r.seconds
	if r.trace {
		measure /= 2
	}
	var rounds, traced []mixRound
	var roundErr error
	repeatFor(measure, func() {
		if roundErr == nil {
			var rd mixRound
			rd, roundErr = playRound(r, reqs)
			rounds = append(rounds, rd)
			logRound(len(rounds), rd.use)
		}
	})
	var profile bytes.Buffer
	if r.trace && roundErr == nil {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			r.check(false, "cpu profile: %v", err)
			return
		}
		for i := 0; i < len(rounds) && roundErr == nil; i++ {
			var rd mixRound
			rd, roundErr = playRound(r, reqs)
			traced = append(traced, rd)
		}
		pprof.StopCPUProfile()
	}
	if roundErr != nil {
		r.check(false, "%v", roundErr)
		return
	}
	checkMix(r, reqs, rounds[0])

	var walls, cpus, rates, allocs, heaps, misses, hits []float64
	class := map[string][]float64{}
	for _, rd := range rounds {
		walls = append(walls, rd.use.wall.Seconds())
		cpus = append(cpus, rd.use.cpu.Seconds())
		rates = append(rates, rd.events/rd.use.wall.Seconds())
		allocs = append(allocs, float64(rd.use.allocs)/rd.events)
		heaps = append(heaps, rd.heapMB)
		for i, q := range reqs {
			switch q.kind {
			case kindMiss:
				misses = append(misses, ms(rd.lat[i]))
				class[q.class] = append(class[q.class], ms(rd.lat[i]))
			case kindHit:
				hits = append(hits, ms(rd.lat[i]))
			}
		}
	}
	if !r.trace {
		r.report(map[string]float64{
			"wall_s":           median(walls),
			"events_per_s":     median(rates),
			"cpu_s":            median(cpus),
			"allocs_per_event": median(allocs),
			"heap_peak_mb":     median(heaps),
			"setup_s":          median(setupTimes),
			"miss_p50_ms":      median(misses),
			"hit_p50_ms":       quantile(hits, 0.5),
		})
		return
	}

	lay := layers{}
	var twalls []float64
	var events float64
	for _, rd := range traced {
		twalls = append(twalls, rd.use.wall.Seconds())
		events += rd.events
	}
	for _, c := range []string{"packet", "lossy", "tenancy", "flow"} {
		lay["serve.miss_"+c+"_ms"] = median(class[c])
	}
	lay["serve.normalize_us"] = normalizeMicros(reqs)
	lay["hit_p99_ms"] = quantile(hits, 0.99)
	lay["trace.overhead"] = median(twalls) / median(walls)
	lay["host.cpu_per_wall"] = median(cpus) / median(walls)
	first := rounds[0]
	lay["sim.events"] = first.events
	lay["stats.reps"] = first.reps
	lay["serve.runs"] = float64(first.srv.Runs)
	lay["serve.cache_hits"] = float64(first.srv.Cache.Hits)
	lay["cluster.pool_hits"] = float64(first.pool.Hits)
	lay["cluster.pool_misses"] = float64(first.pool.Misses)
	lay["cluster.build_ms"], lay["cluster.reset_ms"] = poolTimes(colds[0].spec)
	if err := lay.attribute(profile.Bytes(), events); err != nil {
		r.check(false, "profile: %v", err)
	}
	lay["host.nproc"] = float64(runtime.NumCPU())
	lay.report(r)
}

// checkMix holds the first round's answers to independent computations:
// the rep-0 sample of the first cold scenario against bench.CPUUtil run
// outside the server, and the scenario answered right after the faulty
// spec against a fresh server's answer.
func checkMix(r *run, reqs []mixRequest, rd mixRound) {
	var b body
	if err := json.Unmarshal(rd.missBody[0], &b); err != nil || len(b.Samples) == 0 {
		r.check(false, "first cold scenario: no samples (%v)", err)
	} else {
		s := b.Spec // the normalized spec: every default written out
		mode, _ := bench.ParseMode(s.Mode)
		ts, _ := topo.ParseSpec(s.Topo)
		res := bench.CPUUtil(bench.Config{
			Specs: model.PaperCluster(s.Nodes), Count: s.Count, Mode: mode,
			MaxSkew: time.Duration(s.Skew), Iters: s.Iters, Seed: s.Seed, Topo: ts,
		})
		direct := float64(res.AvgCPU) / float64(time.Microsecond)
		r.check(b.Samples[0] == direct, "rep-0 sample %v differs from a direct bench.CPUUtil %v", b.Samples[0], direct)
	}

	for i, q := range reqs {
		if q.kind != kindFault {
			continue
		}
		srv, err := serve.New(serve.Options{})
		if err != nil {
			r.check(false, "fresh server: %v", err)
			return
		}
		fresh := post(srv.Handler(), reqs[i+1].body)
		srv.Close()
		r.check(fresh.status == http.StatusOK && bytes.Equal(fresh.body, rd.afterFault),
			"the scenario after the faulty spec differs from a fresh server's answer")
	}
}

// normalizeMicros is the median time of Spec.Normalize plus Key, called
// directly on every well-formed spec of the sequence, in microseconds.
func normalizeMicros(reqs []mixRequest) float64 {
	var us []float64
	for _, q := range reqs {
		if q.kind != kindMiss && q.kind != kindHit {
			continue
		}
		var s serve.Spec
		if err := json.Unmarshal(q.body, &s); err != nil {
			continue
		}
		start := time.Now()
		n, err := s.Normalize(serve.Limits{})
		if err == nil {
			_ = n.Key()
		}
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
	}
	return median(us)
}

// poolTimes times a cold and a warm cluster.Pool.Get of a scenario's
// cluster shape, in milliseconds (medians of three).
func poolTimes(s serve.Spec) (build, reset float64) {
	cc := cluster.Config{Specs: model.PaperCluster(s.Nodes), Topo: fatTree16, Seed: s.Seed}
	var b, w []float64
	for i := 0; i < 3; i++ {
		p := cluster.NewPool()
		start := time.Now()
		c := p.Get(cc)
		b = append(b, ms(time.Since(start)))
		p.Put(c)
		start = time.Now()
		c = p.Get(cc)
		w = append(w, ms(time.Since(start)))
		p.Put(c)
		p.Drain()
	}
	return median(b), median(w)
}
