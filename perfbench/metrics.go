package main

import "fmt"

// metricDef names one reported metric and its unit. These lists are the
// benchmark's schema; BENCHMARK.json lists the same names and units.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_s", "s"},
	{"latency_p99_s", "s"},
	{"sim_latency_us", "us"},
	{"sim_energy_j", "J"},
}

// perLayerMetrics are printed by every traced run. "op" is the workload's
// unit of work: a collective call, or an executed sweep request. A layer a
// workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"simtime.events", "count/op"},
	{"simtime.run_s", "s"},
	{"simtime.ns_per_event", "ns"},
	{"simtime.launch_s", "s"},
	{"simtime.handoff_cpu_frac", "ratio"},
	{"simtime.cpu_frac", "ratio"},
	{"network.flows", "count/op"},
	{"network.cpu_frac", "ratio"},
	{"network.arm_cpu_frac", "ratio"},
	{"plan.build_us", "us"},
	{"plan.verify_us", "us"},
	{"plan.cpu_frac", "ratio"},
	{"collective.calls", "count"},
	{"collective.host_us_per_call", "us"},
	{"collective.cpu_frac", "ratio"},
	{"power.dvfs_transitions", "count/op"},
	{"power.throttle_transitions", "count/op"},
	{"power.cpu_frac", "ratio"},
	{"mpi.new_world_s", "s"},
	{"mpi.messages", "count/op"},
	{"mpi.control_msgs", "count/op"},
	{"mpi.net_bytes", "B/op"},
	{"mpi.shm_bytes", "B/op"},
	{"mpi.cpu_frac", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles", "count/op"},
	{"runtime.alloc_mb", "MB/op"},
	{"runtime.allocs_per_call", "count/op"},
	{"runtime.cpu_frac", "ratio"},
	{"obs.events", "count/op"},
	{"obs.overhead_frac", "ratio"},
	{"obs.export_us", "us"},
	{"obs.cpu_frac", "ratio"},
	{"sweep.submit_us_p50", "us"},
	{"sweep.queue_wait_s_mean", "s"},
	{"sweep.execute_s_mean", "s"},
	{"sweep.executions", "count"},
	{"sweep.dedupe_hit_ratio", "ratio"},
	{"sweep.dedupe_hits", "count"},
	{"sweep.dedupe_attempts", "count"},
	{"sweep.shed", "count"},
	{"sweep.retries", "count"},
	{"sweep.journal_syncs", "count"},
	{"sweep.journal_records", "count"},
	{"sweep.wal_sync_us", "us"},
	{"sweep.store_put_us", "us"},
	{"sweep.store_get_us", "us"},
	{"sweep.cpu_frac", "ratio"},
	{"bench.cpu_frac", "ratio"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
	{"trace.profile_s", "s"},
}

// conform returns m restricted to defs, in their units, with a metric a
// workload did not measure reading 0. A measured name outside defs, or in
// another unit, is a bug in the benchmark.
func conform(m map[string]metric, defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if ok && v.Unit != d.unit {
			return nil, fmt.Errorf("metric %s measured in %s, schema says %s", d.name, v.Unit, d.unit)
		}
		out[d.name] = metric{v.Value, d.unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the schema", name)
		}
	}
	return out, nil
}
