package main

import "fmt"

// metricDef is a metric's name and unit as BENCHMARK.json lists them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints. Host time and modeled
// (Tab. 2 clock) figures are separate metrics.
var endToEnd = []metricDef{
	{"throughput_mbps", "MB/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
	{"cpu_ms_per_mb", "ms/MB"},
	{"compression_ratio", "x"},
	{"modeled_gbps", "GB/s"},
}

// perLayer are the metrics a traced run prints, named after the modules
// they measure.
var perLayer = []metricDef{
	{"compress.encode_ns_per_entry", "ns"},
	{"compress.decode_ns_per_entry", "ns"},
	{"compress.sectors_per_entry", "sectors"},
	{"core.write_ns_per_entry", "ns"},
	{"core.read_ns_per_entry", "ns"},
	{"core.self_ns_per_entry", "ns"},
	{"core.buddy_access_frac", "frac"},
	{"core.buddy_bytes_per_entry", "B"},
	{"core.retarget_ns_per_entry", "ns"},
	{"core.recover_ns_per_entry", "ns"},
	{"core.migration_bytes", "B"},
	{"core.profile_ns_per_entry", "ns"},
	{"analysis.index_ns_per_entry", "ns"},
	{"workloads.generate_ns_per_kb", "ns"},
	{"pool.request_ns_per_entry", "ns"},
	{"pool.self_ns_per_entry", "ns"},
	{"pool.coalesced_frac", "frac"},
	{"pool.link_busy_cycles_max", "cycles"},
	{"pool.shard_service_skew", "x"},
	{"pool.tenant.default.p99_cycles", "cycles"},
	{"pool.tenant.batch-a.p99_cycles", "cycles"},
	{"pool.tenant.batch-b.p99_cycles", "cycles"},
	{"pool.tenant.latency.p99_cycles", "cycles"},
	{"pool.migrate_ns_per_entry", "ns"},
	{"pool.drain_ms", "ms"},
	{"pool.io_p99_during_relocation_us", "us"},
	{"pool.relocate_mbps", "MB/s"},
	{"runtime.alloc_bytes_per_mb", "B/MB"},
	{"runtime.gc_cycles", "1/GB"},
	{"trace.overhead_frac", "frac"},
}

var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// put records a metric under its declared unit. An undeclared name is a
// bug in this program.
func put(res *result, name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic(fmt.Sprintf("metric %q is not declared", name))
	}
	res.Metrics[name] = metricValue{Value: v, Unit: u}
}
