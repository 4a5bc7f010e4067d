package main

import "fmt"

// modules are the internal packages the workloads reach; host time is
// charged to them by the innermost frame. A sample whose innermost
// internal frame is in a package not listed goes to other.cpu_ms.
var modules = []string{
	"bench", "cluster", "coll", "core", "fabric", "fault", "flow", "gm",
	"model", "mpi", "serve", "sim", "skew", "stats", "topo", "workload",
}

// layerMetric is one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric in report order. A traced run
// prints each of them; one a workload does not reach reads 0.
func layerMetrics() []layerMetric {
	var l []layerMetric
	for _, m := range modules {
		l = append(l, layerMetric{m + ".cpu_ms", "ms"})
	}
	l = append(l,
		layerMetric{"other.cpu_ms", "ms"},
		layerMetric{"runtime.bg_ms", "ms"},
		layerMetric{"profile.total_ms", "ms"},
	)
	for _, m := range modules {
		l = append(l, layerMetric{m + ".ns_per_event", "ns/event"})
	}
	return append(l, []layerMetric{
		{"sim.park_ms", "ms"},
		{"sim.heap_ms", "ms"},
		{"runtime.gc_ms", "ms"},
		{"host.cpu_per_wall", "ratio"},
		{"host.nproc", "count"},
		{"cluster.build_ms", "ms"},
		{"cluster.reset_ms", "ms"},
		{"hit_p99_ms", "ms"},
		{"bench.nab_s", "s"},
		{"bench.ab_s", "s"},
		{"serve.normalize_us", "us"},
		{"serve.miss_packet_ms", "ms"},
		{"serve.miss_lossy_ms", "ms"},
		{"serve.miss_tenancy_ms", "ms"},
		{"serve.miss_flow_ms", "ms"},
		{"trace.overhead", "ratio"},
		{"sim.events", "count"},
		{"sim.event_pool_peak", "count"},
		{"fabric.frames", "count"},
		{"fabric.link_waits", "count"},
		{"gm.sent", "count"},
		{"gm.signals_raised", "count"},
		{"gm.token_stalls_host", "count"},
		{"mpi.host_copies", "count"},
		{"core.signals_handled", "count"},
		{"core.async_children", "count"},
		{"core.ab_unexpected", "count"},
		{"flow.flows_started", "count"},
		{"flow.flows_delayed", "count"},
		{"flow.max_active", "count"},
		{"cluster.pool_hits", "count"},
		{"cluster.pool_misses", "count"},
		{"serve.runs", "count"},
		{"serve.cache_hits", "count"},
		{"stats.reps", "count"},
		{"sim.lp2_speedup", "ratio"},
	}...)
}

// layers collects a traced run's per-layer values by metric name.
type layers map[string]float64

// attribute charges the traced section's CPU profile to modules and
// overlays; events is the number of simulated events in that section.
// The module values, other.cpu_ms and runtime.bg_ms sum exactly to
// profile.total_ms.
func (l layers) attribute(profile []byte, events float64) error {
	samples, err := parseProfile(profile)
	if err != nil {
		return err
	}
	c := attribute(samples)
	const nsPerMS = 1e6
	known := map[string]bool{}
	for _, m := range modules {
		known[m] = true
		l[m+".cpu_ms"] = float64(c.module[m]) / nsPerMS
		if events > 0 {
			l[m+".ns_per_event"] = float64(c.module[m]) / events
		}
	}
	var other int64
	for m, ns := range c.module {
		if !known[m] {
			other += ns
		}
	}
	l["other.cpu_ms"] = float64(other) / nsPerMS
	l["runtime.bg_ms"] = float64(c.bg) / nsPerMS
	l["profile.total_ms"] = float64(c.total) / nsPerMS
	l["sim.park_ms"] = float64(c.park) / nsPerMS
	l["sim.heap_ms"] = float64(c.heap) / nsPerMS
	l["runtime.gc_ms"] = float64(c.gc) / nsPerMS

	sum := c.bg
	for _, ns := range c.module {
		sum += ns
	}
	if sum != c.total || c.total == 0 {
		return fmt.Errorf("attribution sums to %d ns of a %d ns profile", sum, c.total)
	}
	return nil
}

// report sets every per-layer metric on the run.
func (l layers) report(r *run) {
	for _, m := range layerMetrics() {
		r.set(m.name, l[m.name], m.unit)
	}
}
