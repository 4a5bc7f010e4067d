package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	"abred/internal/bench"
	"abred/internal/cluster"
	"abred/internal/coll"
	"abred/internal/model"
	"abred/internal/mpi"
	"abred/internal/topo"
)

// simWorkload is the paper's CPU-utilization benchmark (§VI) on one
// engine: the interlaced model.PaperCluster mix on fattree:16, 4 doubles
// per reduction, 1 ms maximum skew. A round is a nab cell and then an ab
// cell with the topology-aware tree, both on one pooled cluster that
// cluster.Pool Resets between cells. Clusters are monolithic, except in
// the traced run's LP comparison.
type simWorkload struct {
	nodes  int
	engine cluster.Engine
	iters  int // benchmark iterations per cell
	setups int // set-ups per run; setup_s is their median
}

var (
	packet16k = simWorkload{nodes: 16384, engine: cluster.EnginePacket, iters: 2, setups: 3}
	flow256k  = simWorkload{nodes: 262144, engine: cluster.EngineFlow, iters: 1, setups: 9}
)

var fatTree16 = topo.Spec{Kind: topo.FatTree, K: 16}

const warmGets = 1000 // warm Pool.Get samples per run, so p99 has 10 beyond it

// crossEnvelope is one point of the committed packet-vs-flow fidelity
// envelope (DESIGN §9, bench/crossval_test.go), with its bands.
var crossEnvelope = bench.Config{
	Specs: model.Uniform(2048), Mode: bench.AppBypass, MaxSkew: 500 * time.Microsecond,
	Iters: 3, Seed: 20030701, Topo: fatTree16, TopoAware: true,
}

const (
	crossElapsedBand = 0.01
	crossCPUBand     = 0.02
)

// configs returns the round's two cells: nab, then ab with the
// topology-aware tree.
func (w simWorkload) configs(specs []model.NodeSpec, seed int64, pool *cluster.Pool, lps int) [2]bench.Config {
	var cfgs [2]bench.Config
	for i, mode := range []bench.Mode{bench.NonAppBypass, bench.AppBypass} {
		cfgs[i] = bench.Config{
			Specs: specs, Count: 4, Mode: mode, MaxSkew: time.Millisecond,
			Iters: w.iters, Seed: seed, Topo: fatTree16,
			TopoAware: mode == bench.AppBypass, Engine: w.engine, LPs: lps, Pool: pool,
		}
	}
	return cfgs
}

// shape is the cluster.Config a cell asks the pool for.
func shape(cfg bench.Config) cluster.Config {
	return cluster.Config{Specs: cfg.Specs, Seed: cfg.Seed, Topo: cfg.Topo, Engine: cfg.Engine, LPs: cfg.LPs}
}

// cpuUtil runs one cell, turning a panic into an error.
func cpuUtil(cfg bench.Config) (res bench.CPUUtilResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v cell: %v", cfg.Mode, p)
		}
	}()
	return bench.CPUUtil(cfg), nil
}

// setUp is a built pool and how long each set-up took.
type setUp struct {
	pool  *cluster.Pool
	cl    *cluster.Cluster // the pool's one cluster
	total []float64        // seconds per set-up
	build []float64        // seconds of the cold Pool.Get within it
}

// setup builds the cluster cold (a pool miss) reps times, keeping the
// last pool. On the packet engine a set-up also runs the first program,
// a one-iteration nab cell, because that program creates every rank's
// MPI process and engine, which later cells only Reset: it completes the
// construction. The flow engine builds everything in the cold Get.
func setup(cfgs [2]bench.Config, reps int) (setUp, error) {
	var su setUp
	for i := 0; i < reps; i++ {
		if su.pool != nil {
			su.pool.Drain()
			runtime.GC()
		}
		su.pool = cluster.NewPool()
		start := time.Now()
		su.cl = su.pool.Get(shape(cfgs[0]))
		su.build = append(su.build, time.Since(start).Seconds())
		su.pool.Put(su.cl)
		if cfgs[0].Engine == cluster.EnginePacket {
			first := cfgs[0]
			first.Iters, first.Pool = 1, su.pool
			if _, err := cpuUtil(first); err != nil {
				return su, fmt.Errorf("set-up: %v", err)
			}
		}
		su.total = append(su.total, time.Since(start).Seconds())
	}
	runtime.GC() // set-up's garbage is not charged to the first round
	return su, nil
}

// simRound is one measured round.
type simRound struct {
	use    span
	heapMB float64
	walls  [2]time.Duration
	res    [2]bench.CPUUtilResult
	counts map[string]float64 // work counts summed over the cells (traced rounds only)
}

// round runs the nab and ab cells once. cl is the pooled cluster the
// cells run on; its counters are read after each cell when counting.
func round(r *run, cfgs [2]bench.Config, cl *cluster.Cluster, count bool) (simRound, error) {
	var rd simRound
	if count {
		rd.counts = map[string]float64{}
	}
	before := cfgs[0].Pool.Stats()
	heap := sampleHeap()
	u := snapshot()
	for i, cfg := range cfgs {
		start := time.Now()
		res, err := cpuUtil(cfg)
		rd.walls[i] = time.Since(start)
		r.attempted++
		if err != nil {
			r.failed++
			heap.peakMB()
			return rd, err
		}
		rd.res[i] = res
		if count {
			for k, v := range workCounts(cl, res) {
				if k == "sim.event_pool_peak" {
					rd.counts[k] = math.Max(rd.counts[k], v)
				} else {
					rd.counts[k] += v
				}
			}
		}
	}
	rd.use = u.since()
	rd.heapMB = heap.peakMB()
	if count {
		after := cfgs[0].Pool.Stats()
		rd.counts["cluster.pool_hits"] = float64(after.Hits - before.Hits)
		rd.counts["cluster.pool_misses"] = float64(after.Misses - before.Misses)
	}
	return rd, nil
}

// workCounts reads the layers' work counters from a cluster after a cell.
// Reset zeroes them, so each reading covers exactly one cell.
func workCounts(cl *cluster.Cluster, res bench.CPUUtilResult) map[string]float64 {
	c := map[string]float64{
		"sim.events":           float64(cl.Events()),
		"core.signals_handled": float64(res.Signals),
	}
	for _, k := range cl.Ks {
		c["sim.event_pool_peak"] = math.Max(c["sim.event_pool_peak"], float64(k.EventPoolPeak()))
	}
	if cl.Engine == cluster.EngineFlow {
		started, maxActive, delayed, _ := cl.FlowM.NetStats()
		c["flow.flows_started"] = float64(started)
		c["flow.max_active"] = float64(maxActive)
		c["flow.flows_delayed"] = float64(delayed)
		return c
	}
	frames, _ := cl.Fabric.Stats()
	waits, _ := cl.Fabric.TopoStats()
	c["fabric.frames"] = float64(frames)
	c["fabric.link_waits"] = float64(waits)
	for _, n := range cl.Nodes {
		s := n.NIC.Stats()
		c["gm.sent"] += float64(s.Sent)
		c["gm.signals_raised"] += float64(s.SignalsRaised)
		c["gm.token_stalls_host"] += float64(s.TokenStallsHost)
		if n.MPI != nil {
			c["mpi.host_copies"] += float64(n.MPI.Stats.HostCopies)
		}
		if n.Engine != nil {
			c["core.async_children"] += float64(n.Engine.Metrics.AsyncChildren)
			c["core.ab_unexpected"] += float64(n.Engine.Metrics.ABUnexpected)
		}
	}
	return c
}

// run drives the workload: set-up, measured rounds for the run length,
// warm pool Gets, then the output checks. The traced run measures the
// same rounds untraced and then under the CPU profiler, and adds the LP
// comparison.
func (w simWorkload) run(r *run) {
	specs := model.PaperCluster(w.nodes)
	cfgs := w.configs(specs, subSeed(r.seed, 0), nil, 0)
	su, err := setup(cfgs, w.setups)
	pool, cl := su.pool, su.cl
	if err != nil {
		r.attempted++
		r.failed++
		r.check(false, "%v", err)
		return
	}
	for i := range cfgs {
		cfgs[i].Pool = pool
	}

	measure := r.seconds
	if r.trace {
		measure /= 2
	}
	var rounds []simRound
	var roundErr error
	repeatFor(measure, func() {
		if roundErr != nil {
			return
		}
		rd, err := round(r, cfgs, cl, false)
		if err != nil {
			roundErr = err
			return
		}
		rounds = append(rounds, rd)
		logRound(len(rounds), rd.use)
	})
	var traced []simRound
	var profile bytes.Buffer
	if r.trace && roundErr == nil {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			r.check(false, "cpu profile: %v", err)
			return
		}
		for i := 0; i < len(rounds) && roundErr == nil; i++ {
			rd, err := round(r, cfgs, cl, true)
			if err != nil {
				roundErr = err
				break
			}
			traced = append(traced, rd)
		}
		pprof.StopCPUProfile()
	}
	if roundErr != nil {
		r.check(false, "%v", roundErr)
		return
	}

	cc := shape(cfgs[0])
	hits := warmGetTimes(pool, cc)

	w.check(r, rounds, traced, pool, cl, cc)

	var walls, cpus, rates, allocs, heaps, cells []float64
	for _, rd := range rounds {
		ev := float64(rd.res[0].Events + rd.res[1].Events)
		walls = append(walls, rd.use.wall.Seconds())
		cpus = append(cpus, rd.use.cpu.Seconds())
		rates = append(rates, ev/rd.use.wall.Seconds())
		allocs = append(allocs, float64(rd.use.allocs)/ev)
		heaps = append(heaps, rd.heapMB)
		cells = append(cells, ms(rd.walls[0]), ms(rd.walls[1]))
	}
	if !r.trace {
		r.report(map[string]float64{
			"wall_s":           median(walls),
			"events_per_s":     median(rates),
			"cpu_s":            median(cpus),
			"allocs_per_event": median(allocs),
			"heap_peak_mb":     median(heaps),
			"setup_s":          median(su.total),
			"miss_p50_ms":      median(cells),
			"hit_p50_ms":       quantile(hits, 0.5),
		})
		return
	}

	lay := layers{}
	var nab, ab, twalls []float64
	for _, rd := range rounds {
		nab = append(nab, rd.walls[0].Seconds())
		ab = append(ab, rd.walls[1].Seconds())
	}
	var events float64
	for _, rd := range traced {
		twalls = append(twalls, rd.use.wall.Seconds())
		events += float64(rd.res[0].Events + rd.res[1].Events)
	}
	lay["cluster.build_ms"] = 1000 * median(su.build)
	lay["cluster.reset_ms"] = quantile(hits, 0.5)
	lay["hit_p99_ms"] = quantile(hits, 0.99)
	lay["bench.nab_s"] = median(nab)
	lay["bench.ab_s"] = median(ab)
	lay["trace.overhead"] = median(twalls) / median(walls)
	lay["host.cpu_per_wall"] = median(cpus) / median(walls)
	lay["host.nproc"] = float64(runtime.NumCPU())
	for k, v := range traced[0].counts {
		lay[k] = v
	}
	if err := lay.attribute(profile.Bytes(), events); err != nil {
		r.check(false, "profile: %v", err)
	}

	// LP comparison: the same round on a 2-LP cluster, set up like the
	// monolithic one, against the monolithic rounds' median. The
	// monolithic cluster is released first, so the two never share the
	// heap.
	pool.Drain()
	pool, cl, su = nil, nil, setUp{}
	runtime.GC()
	lp := w.configs(specs, subSeed(r.seed, 0), nil, 2)
	lpSU, err := setup(lp, 1)
	if err == nil {
		for i := range lp {
			lp[i].Pool = lpSU.pool
		}
		var rd simRound
		rd, err = round(r, lp, lpSU.cl, false)
		lay["sim.lp2_speedup"] = median(walls) / rd.use.wall.Seconds()
		lpSU.pool.Drain()
	}
	r.check(err == nil, "2-LP comparison: %v", err)
	lay.report(r)
}

// warmGetTimes times warmGets warm Pool.Get+Put pairs, each of which
// Resets the pooled cluster, in milliseconds.
func warmGetTimes(pool *cluster.Pool, cc cluster.Config) []float64 {
	hits := make([]float64, warmGets)
	for i := range hits {
		start := time.Now()
		c := pool.Get(cc)
		pool.Put(c)
		hits[i] = ms(time.Since(start))
	}
	return hits
}

// check verifies the workload's outputs against properties of the method
// and independent computations.
func (w simWorkload) check(r *run, rounds, traced []simRound, pool *cluster.Pool, cl *cluster.Cluster, cc cluster.Config) {
	first := rounds[0]
	for _, rd := range append(append([]simRound(nil), rounds...), traced...) {
		for i := range rd.res {
			a, b := first.res[i], rd.res[i]
			r.check(a.Events == b.Events && a.Elapsed == b.Elapsed && a.AvgCPU == b.AvgCPU,
				"cell %d repeated differently: events %d/%d elapsed %v/%v cpu %v/%v",
				i, a.Events, b.Events, a.Elapsed, b.Elapsed, a.AvgCPU, b.AvgCPU)
		}
	}
	nab, ab := first.res[0], first.res[1]
	r.check(ab.AvgCPU > 0 && nab.AvgCPU > ab.AvgCPU, "nab/ab CPU factor %v/%v is not above 1", nab.AvgCPU, ab.AvgCPU)
	r.check(ab.Signals > 0, "ab handled no signals")
	r.check(nab.Signals == 0, "nab handled %d signals", nab.Signals)
	r.check(pool.Stats().Misses == 1, "cells built %d clusters instead of reusing one", pool.Stats().Misses)
	if w.engine == cluster.EngineFlow {
		r.check(nab.Elapsed > 0 && ab.Elapsed > 0, "a flow cell took no virtual time")
		if err := crossCheck(); err != nil {
			r.check(false, "%v", err)
		}
		return
	}
	if err := reduceCheck(pool, cc, cl); err != nil {
		r.check(false, "%v", err)
	}
}

// reduceCheck runs one core.Engine.Reduce and one coll.Reduce on every
// rank of the pooled cluster, with inputs rank+i, and compares the root's
// results with the closed form n(n-1)/2 + n·i.
func reduceCheck(pool *cluster.Pool, cc cluster.Config, want *cluster.Cluster) (err error) {
	cl := pool.Get(cc)
	defer pool.Put(cl)
	if cl != want {
		return fmt.Errorf("reduce check: the pool returned another cluster")
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("reduce check: %v", p)
		}
	}()
	const count = 4
	var ab, nab [count]float64
	cl.Run(func(nd *cluster.Node, w *mpi.Comm) {
		in := make([]byte, count*8)
		for i := 0; i < count; i++ {
			binary.LittleEndian.PutUint64(in[i*8:], math.Float64bits(float64(nd.ID+i)))
		}
		out1, out2 := make([]byte, count*8), make([]byte, count*8)
		nd.Engine.Reduce(w, in, out1, count, mpi.Float64, mpi.OpSum, 0)
		coll.Reduce(w, in, out2, count, mpi.Float64, mpi.OpSum, 0)
		if nd.ID == 0 {
			for i := 0; i < count; i++ {
				ab[i] = math.Float64frombits(binary.LittleEndian.Uint64(out1[i*8:]))
				nab[i] = math.Float64frombits(binary.LittleEndian.Uint64(out2[i*8:]))
			}
		}
	})
	n := len(cl.Nodes)
	for i := 0; i < count; i++ {
		exact := float64(n*(n-1)/2 + n*i)
		if ab[i] != exact || nab[i] != exact {
			return fmt.Errorf("reduce check: element %d is %v (ab) and %v (nab), want %v", i, ab[i], nab[i], exact)
		}
	}
	return nil
}

// crossCheck runs one point of the committed envelope on both engines
// and holds them to the committed bands.
func crossCheck() error {
	pc := crossEnvelope
	p, err := cpuUtil(pc)
	if err != nil {
		return fmt.Errorf("cross-check: %v", err)
	}
	fc := crossEnvelope
	fc.Engine = cluster.EngineFlow
	f, err := cpuUtil(fc)
	if err != nil {
		return fmt.Errorf("cross-check: %v", err)
	}
	if d := relDiff(float64(p.Elapsed), float64(f.Elapsed)); d > crossElapsedBand {
		return fmt.Errorf("cross-check: elapsed differs by %.4f (packet %v, flow %v)", d, p.Elapsed, f.Elapsed)
	}
	if d := relDiff(float64(p.AvgCPU), float64(f.AvgCPU)); d > crossCPUBand {
		return fmt.Errorf("cross-check: CPU differs by %.4f (packet %v, flow %v)", d, p.AvgCPU, f.AvgCPU)
	}
	return nil
}

// relDiff is |a-b| over the larger of the two.
func relDiff(a, b float64) float64 {
	m := math.Max(a, b)
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
