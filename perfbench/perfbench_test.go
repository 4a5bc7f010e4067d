package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(num int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(num, q.b)
}

// syntheticProfile encodes a CPU profile with the given function names
// and samples (stacks as function indices into names, innermost first).
// Locations 1.. map one-to-one to functions, except location 100, which
// holds functions 0 and 1 as an inlined pair (0 inlined into 1). Odd
// samples use unpacked repeated fields, even ones packed.
func syntheticProfile(t *testing.T, names []string, stacks [][]uint64, ns []int64) []byte {
	t.Helper()
	var p pb
	strs := append([]string{"", "samples", "count", "cpu", "nanoseconds"}, names...)
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var q pb
		q.varint(1, vt[0])
		q.varint(2, vt[1])
		p.bytes(1, q.b)
	}
	for i, st := range stacks {
		var q pb
		if i%2 == 0 {
			q.packed(1, st...)
			q.packed(2, 1, uint64(ns[i]))
		} else {
			for _, l := range st {
				q.varint(1, l)
			}
			q.varint(2, 1)
			q.varint(2, uint64(ns[i]))
		}
		p.bytes(2, q.b)
	}
	for i := range names {
		var loc, line pb
		loc.varint(1, uint64(i+1))
		line.varint(1, uint64(i+1))
		loc.bytes(4, line.b)
		p.bytes(4, loc.b)

		var fn pb
		fn.varint(1, uint64(i+1))
		fn.varint(2, uint64(5+i))
		p.bytes(5, fn.b)
	}
	var loc pb
	loc.varint(1, 100)
	for _, f := range []uint64{1, 2} {
		var line pb
		line.varint(1, f)
		line.varint(2, 7)
		loc.bytes(4, line.b)
	}
	p.bytes(4, loc.b)
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestAttributionOnSyntheticProfile(t *testing.T) {
	names := []string{
		"abred/internal/sim.(*eventHeap).siftDown", // 1
		"abred/internal/sim.(*Kernel).Run",         // 2
		"runtime.chanrecv",                         // 3
		"abred/internal/sim.(*Proc).park",          // 4
		"abred/internal/gm.(*NIC).Send",            // 5
		"runtime.gcBgMarkWorker",                   // 6
		"main.round",                               // 7
		"abred/internal/bench.CPUUtil.func1",       // 8
		"abred/internal/newmod.Do",                 // 9
	}
	stacks := [][]uint64{
		{100},     // siftDown inlined into Run: sim, heap
		{3, 4, 5}, // runtime under park under gm: sim (innermost internal), park
		{5, 8, 7}, // gm
		{6},       // gc only: bg
		{7},       // benchmark code only: bg
		{9, 8},    // unlisted module: other
		{3, 8, 4}, // runtime under bench under park: bench, park
		{1, 2},    // heap again, not inlined
	}
	ns := []int64{10, 20, 40, 80, 160, 320, 640, 1280}
	samples, err := parseProfile(syntheticProfile(t, names, stacks, ns))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(stacks))
	}
	if got := samples[0].stack; len(got) != 2 || got[0] != names[0] || got[1] != names[1] {
		t.Fatalf("inlined location decoded as %q", got)
	}
	c := attribute(samples)
	want := map[string]int64{"sim": 10 + 20 + 1280, "gm": 40, "bench": 640, "newmod": 320}
	for m, v := range want {
		if c.module[m] != v {
			t.Errorf("%s: %d ns, want %d", m, c.module[m], v)
		}
	}
	if len(c.module) != len(want) {
		t.Errorf("modules %v, want exactly %v", c.module, want)
	}
	for _, tc := range []struct {
		name      string
		got, want int64
	}{
		{"bg", c.bg, 80 + 160},
		{"park", c.park, 20 + 640},
		{"heap", c.heap, 10 + 1280},
		{"gc", c.gc, 80},
		{"total", c.total, 2550},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: %d ns, want %d", tc.name, tc.got, tc.want)
		}
	}

	lay := layers{}
	if err := lay.attribute(syntheticProfile(t, names, stacks, ns), 10); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, m := range modules {
		sum += lay[m+".cpu_ms"]
	}
	sum += lay["other.cpu_ms"] + lay["runtime.bg_ms"]
	if math.Abs(sum-lay["profile.total_ms"]) > 1e-12 || lay["other.cpu_ms"] != 320e-6 {
		t.Errorf("module sum %v, other %v, total %v", sum, lay["other.cpu_ms"], lay["profile.total_ms"])
	}
	if lay["sim.ns_per_event"] != 131 {
		t.Errorf("sim.ns_per_event %v, want 131", lay["sim.ns_per_event"])
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("parsed garbage")
	}
}

// TestQuartilesMatchPython pins the quartiles to Python's
// statistics.quantiles(xs, n=4) and statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the code", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no driver", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s/%s in BENCHMARK.json, %s/%s in the code", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	lm := layerMetrics()
	if len(b.PerLayer) != len(lm) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(b.PerLayer), len(lm))
	}
	for i, m := range b.PerLayer {
		if m.Name != lm[i].name || m.Unit != lm[i].unit {
			t.Errorf("per-layer %d: %s/%s in BENCHMARK.json, %s/%s in the code", i, m.Name, m.Unit, lm[i].name, lm[i].unit)
		}
	}
}

// TestMixSequenceShape checks that every seed gives the same make-up of
// requests, that each scenario's miss comes before its hits, and that the
// faulty spec sits right before a flow miss.
func TestMixSequenceShape(t *testing.T) {
	var first map[string]int
	for seed := int64(1); seed <= 5; seed++ {
		colds, reqs := mixSequence(subSeed(seed, 0))
		shape := map[string]int{}
		seen := map[int]bool{}
		for i, q := range reqs {
			switch q.kind {
			case kindMiss:
				shape["miss/"+q.class]++
				seen[q.cold] = true
			case kindHit:
				shape["hit/"+colds[q.cold].class]++
				if !seen[q.cold] {
					t.Fatalf("seed %d: hit of scenario %d before its miss", seed, q.cold)
				}
			case kindMalformed:
				shape["malformed"]++
			case kindFault:
				shape["fault"]++
				if i+1 >= len(reqs) || reqs[i+1].kind != kindMiss || reqs[i+1].class != "flow" {
					t.Fatalf("seed %d: the faulty spec is not followed by a flow miss", seed)
				}
			}
		}
		if first == nil {
			first = shape
			continue
		}
		for k, v := range first {
			if shape[k] != v {
				t.Fatalf("seed %d: %d %s requests, seed 1 has %d", seed, shape[k], k, v)
			}
		}
	}
	if first["fault"] != 1 || first["malformed"] != len(malformedSpecs) {
		t.Fatalf("make-up %v", first)
	}
}
