// Command perfbench is the simulator's benchmark. It drives one of three
// fixed workloads through the layers' public entry points — bench.CPUUtil
// on a pooled cluster.Cluster, and serve.Server's HTTP handler called
// in-process — checks every output, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": K, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with --trace 1 the same workload runs again under a CPU profile and the
// metrics are the per-layer ones (host time per internal module, spans
// around the benchmark's calls into layers, and work counts). --steady N
// runs every workload as two sets of N runs and reports their spread.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload packet_16k --seed 1 --seconds 20 --trace 0
//
// All load comes from one goroutine with the default GOMAXPROCS; the only
// concurrency is the simulator's own.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(r *run){
	"packet_16k": packet16k.run,
	"flow_256k":  flow256k.run,
	"serve_mix":  serveMix,
}

func main() {
	name := flag.String("workload", "", "workload: packet_16k, flow_256k or serve_mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measured section in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	steadyRuns := flag.Int("steady", 0, "run every workload (or --workload) as two sets of this many runs and report their spread")
	flag.Parse()

	if *steadyRuns > 0 {
		if err := steady(*name, *steadyRuns, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload packet_16k|flow_256k|serve_mix, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *traced == 1,
		metrics: map[string]metric{},
	}
	drive(r)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out, err := json.Marshal(result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation of a workload: its arguments, the operations it
// attempted, the checks that failed and the metrics it reports.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool

	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

// check records a failed output check.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// set records a metric.
func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd lists the end-to-end metrics with their units. Every workload
// reports all of them (see README.md for what hit and miss mean on each).
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"events_per_s", "1/s"},
	{"cpu_s", "s"},
	{"allocs_per_event", "allocs/event"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
	{"miss_p50_ms", "ms"},
	{"hit_p50_ms", "ms"},
}

// report sets every end-to-end metric on the run from values by name.
func (r *run) report(values map[string]float64) {
	for _, m := range endToEnd {
		r.set(m.name, values[m.name], m.unit)
	}
}

// subSeed derives the i-th non-zero seed of a workload from its --seed
// (splitmix64), so the workload's inputs are a pure function of the seed.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>1) | 1
}

// usage is a process-wide resource snapshot: wall clock, CPU time from
// getrusage, and heap objects allocated so far.
type usage struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return usage{
		wall:   time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(),
	}
}

// span is the usage between two snapshots.
type span struct {
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
}

func (u usage) since() span {
	now := snapshot()
	return span{wall: now.wall.Sub(u.wall), cpu: now.cpu - u.cpu, allocs: now.allocs - u.allocs}
}

// logRound prints one measured round to standard error.
func logRound(n int, s span) {
	fmt.Fprintf(os.Stderr, "round %d: wall %.3f s, cpu %.3f s\n", n, s.wall.Seconds(), s.cpu.Seconds())
}

// heapSampler tracks the peak of live-plus-unswept heap bytes, read every
// 10 ms from runtime/metrics on a goroutine of its own.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func sampleHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// repeatFor runs whole rounds until d has passed, at least one; it
// returns how many ran.
func repeatFor(d time.Duration, round func()) int {
	start := time.Now()
	n := 0
	for {
		round()
		n++
		if time.Since(start) >= d {
			return n
		}
	}
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
