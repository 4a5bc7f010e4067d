package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runTimeout bounds one benchmark run.
const runTimeout = 180 * time.Second

// steady runs each workload (or only the named one) as two sets of n
// runs, each run with its own seed, and reports per end-to-end metric
// each set's quartiles, the spread of all 2n values against the bound,
// and how far the second set's median moved from the first's. It then
// runs the checks once under a held-out seed. It reads BENCHMARK.json
// from the working directory and returns an error if any check fails or
// any figure is outside its bound.
func steady(only string, n int, seed int64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range b.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		var sets [2][]result
		for s := range sets {
			for i := 0; i < n; i++ {
				res, err := benchRun(self, w.Name, seed+int64(s*n+i), b.RunSeconds)
				if err != nil {
					return err
				}
				line, _ := json.Marshal(res)
				fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w.Name, seed+int64(s*n+i), line)
				if !res.Correct {
					bad++
					fmt.Printf("%s seed %d: checks failed\n", w.Name, seed+int64(s*n+i))
				}
				sets[s] = append(sets[s], res)
			}
		}
		fmt.Printf("%s: %d+%d runs of %d s\n", w.Name, n, n, b.RunSeconds)
		fmt.Printf("  %-18s %11s %11s %11s | %11s %11s %11s | %7s %7s %6s\n",
			"metric", "A q1", "A med", "A q3", "B q1", "B med", "B q3", "spread", "shift", "bound")
		for _, m := range b.EndToEnd {
			var a, bb, all []float64
			for _, r := range sets[0] {
				a = append(a, r.Metrics[m.Name].Value)
			}
			for _, r := range sets[1] {
				bb = append(bb, r.Metrics[m.Name].Value)
			}
			all = append(append(all, a...), bb...)
			qa, qb, qall := quartiles(a), quartiles(bb), quartiles(all)
			spread := (qall[2] - qall[0]) / qall[1]
			shift := (qb[1] - qa[1]) / qa[1]
			if m.Better == "higher" {
				shift = -shift
			}
			mark := ""
			if (m.Name != "setup_s" && spread > m.Bound/3) || shift > m.Bound {
				mark = "  <-- outside"
				bad++
			}
			fmt.Printf("  %-18s %11.5g %11.5g %11.5g | %11.5g %11.5g %11.5g | %7.4f %7.4f %6.3f%s\n",
				m.Name, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], spread, shift, m.Bound, mark)
		}
		all := append(append([]result(nil), sets[0]...), sets[1]...)
		var fails []string
		for _, r := range all {
			fails = append(fails, fmt.Sprintf("%d/%d", r.Failed, r.Attempted))
		}
		same := sameFailShare(all)
		fmt.Printf("  failed/attempted per run: %s; shares equal: %v\n", strings.Join(fails, " "), same)
		if !same {
			bad++
		}
		held := seed + int64(2*n) + 1000
		res, err := benchRun(self, w.Name, held, b.RunSeconds)
		if err != nil {
			return err
		}
		fmt.Printf("  held-out seed %d: correct %v, failed %d/%d\n", held, res.Correct, res.Failed, res.Attempted)
		if !res.Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d figures or checks outside their bounds", bad)
	}
	return nil
}

// benchRun runs the benchmark once in a child process and parses its
// last line.
func benchRun(self, workload string, seed int64, seconds int) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	return res, nil
}

// sameFailShare reports whether every run failed the same share of its
// operations.
func sameFailShare(rs []result) bool {
	for _, r := range rs[1:] {
		if r.Failed*rs[0].Attempted != rs[0].Failed*r.Attempted {
			return false
		}
	}
	return true
}

// quartiles returns the first quartile, the median and the third
// quartile of xs: the quartiles as Python's statistics.quantiles(xs,
// n=4) computes them (the exclusive method), and statistics.median.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		v := math.NaN()
		if ld == 1 {
			v = s[0]
		}
		return [3]float64{v, v, v}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	if ld%2 == 1 {
		q[1] = s[ld/2]
	} else {
		q[1] = (s[ld/2-1] + s[ld/2]) / 2
	}
	return q
}
