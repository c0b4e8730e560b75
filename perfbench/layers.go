package main

// layerMetric is one per-layer metric: its unit, which way is better,
// and the end-to-end metric and workload it should move. BENCHMARK.json
// lists the same names, units and directions.
type layerMetric struct {
	name, unit, better, moves string
}

// layerList is every per-layer metric a traced run reports, for every
// workload. A layer a workload bypasses reads 0 in its counters; the
// ledger times its calls on the workload's own fixtures regardless.
var layerList = []layerMetric{
	{"wire.encode_ns", "ns", "lower", "cpu_us_per_op, latency_p50_us on stream"},
	{"wire.decode_ns", "ns", "lower", "cpu_us_per_op, latency_p50_us on stream"},
	{"wire.payload_bytes", "bytes", "lower", "wire_bytes_per_op on stream"},
	{"wire.compiled_ratio", "ratio", "higher", "cpu_us_per_op on stream"},
	{"wire.compile_ns", "ns", "lower", "latency_p50_us on join"},

	{"xmlenc.envelope_append_ns", "ns", "lower", "cpu_us_per_op, latency_p50_us on stream"},
	{"xmlenc.envelope_parse_ns", "ns", "lower", "cpu_us_per_op, latency_p50_us on stream"},
	{"xmlenc.envelope_bytes", "bytes", "lower", "wire_bytes_per_op on stream"},
	{"xmlenc.desc_marshal_ns", "ns", "lower", "latency_p50_us on join"},
	{"xmlenc.desc_unmarshal_ns", "ns", "lower", "latency_p50_us on join"},
	{"xmlenc.desc_bytes", "bytes", "lower", "wire_bytes_per_op on join"},

	{"typedesc.describe_ns", "ns", "lower", "latency_p50_us on join"},
	{"registry.register_ns", "ns", "lower", "latency_p50_us on join"},
	{"registry.lookup_ns", "ns", "lower", "cpu_us_per_op on stream"},

	{"conform.check_cold_ns", "ns", "lower", "latency_p50_us on join"},
	{"conform.plan_ns", "ns", "lower", "latency_p50_us on join"},
	{"conform.check_cached_ns", "ns", "lower", "cpu_us_per_op on stream and fanout-lossy"},
	{"conform.cache_hit_ratio", "ratio", "higher", "cpu_us_per_op on stream and fanout-lossy"},

	{"proxy.mapping_ns", "ns", "lower", "cpu_us_per_op on stream"},
	{"proxy.invoker_ns", "ns", "lower", "cpu_us_per_op on stream"},
	{"proxy.call_ns", "ns", "lower", "latency_p50_us on rpc"},

	{"transport.send_ns", "ns", "lower", "cpu_us_per_op, latency_p50_us on stream"},
	{"transport.send_alloc_bytes", "bytes", "lower", "alloc_bytes_per_op on stream"},
	{"transport.send_compressed_ns", "ns", "lower", "ops_per_s on fanout-lossy"},
	{"transport.send_compressed_alloc_bytes", "bytes", "lower", "alloc_bytes_per_op on fanout-lossy"},
	{"transport.frame_write_ns", "ns", "lower", "latency_p50_us on stream and rpc"},
	{"transport.frame_read_ns", "ns", "lower", "latency_p50_us on stream and rpc"},
	{"transport.unattributed_us", "us", "lower", "latency_p50_us on stream and rpc"},
	{"transport.typeinfo_per_join", "count", "lower", "latency_p50_us, wire_bytes_per_op on join"},
	{"transport.code_per_join", "count", "lower", "latency_p50_us, wire_bytes_per_op on join"},
	{"transport.desc_hit_ratio", "ratio", "higher", "latency_p50_us on join"},
	{"transport.fetch_wait_us", "us", "lower", "latency_p50_us on join"},
	{"transport.dropped", "count", "lower", "fail_ratio on every workload"},
	{"transport.invokes", "count", "higher", "ops_per_s on rpc"},
	{"transport.invoke_shed_ratio", "ratio", "lower", "ops_per_s, fail_ratio on rpc"},
	{"transport.nested_rename_lost_fields", "count", "lower", "fail_ratio once records rename nested members"},

	{"reliable.data_frames", "count", "lower", "frames_per_op, wire_bytes_per_op, latency_p99_us on fanout-lossy"},
	{"reliable.retransmits", "count", "lower", "frames_per_op, wire_bytes_per_op, latency_p99_us on fanout-lossy"},
	{"reliable.fast_retransmits", "count", "lower", "frames_per_op, wire_bytes_per_op, latency_p99_us on fanout-lossy"},
	{"reliable.nacks", "count", "lower", "frames_per_op, wire_bytes_per_op, latency_p99_us on fanout-lossy"},
	{"reliable.deduped", "count", "lower", "frames_per_op, wire_bytes_per_op, latency_p99_us on fanout-lossy"},
	{"reliable.acks", "count", "lower", "frames_per_op, wire_bytes_per_op, latency_p99_us on fanout-lossy"},
	{"reliable.useful_ratio", "ratio", "higher", "frames_per_op, wire_bytes_per_op, latency_p99_us on fanout-lossy"},
	{"reliable.srtt_us", "us", "lower", "latency_p99_us on fanout-lossy"},
	{"reliable.rto_us", "us", "lower", "latency_p99_us on fanout-lossy"},
	{"reliable.queue_peak", "count", "lower", "latency_p99_us on fanout-lossy"},

	{"fabric.frames_dropped", "count", "lower", "input: injected faults on fanout-lossy"},
	{"fabric.frames_duplicated", "count", "lower", "input: injected faults on fanout-lossy"},
	{"fabric.frames_reordered", "count", "lower", "input: injected faults on fanout-lossy"},
	{"fabric.heap_ops_per_frame", "count", "lower", "ops_per_s on fanout-lossy"},
	{"fabric.clock_ms_per_op", "ms", "lower", "ops_per_s on fanout-lossy"},

	{"tps.publish_ns", "ns", "lower", "cpu_us_per_op on fanout-lossy"},
	{"tps.delivered", "count", "higher", "ops_per_s on fanout-lossy"},
	{"tps.dropped", "count", "lower", "fail_ratio on fanout-lossy"},

	{"runtime.gc_cycles_per_kop", "count", "lower", "alloc_bytes_per_op, latency_p99_us on every workload"},
	{"runtime.goroutines_peak", "count", "lower", "alloc_bytes_per_op, latency_p99_us on every workload"},

	{"trace.latency_p50_us", "us", "lower", "none: latency_p50_us measured with tracing on"},
	{"trace.overhead_us", "us", "lower", "none: traced minus untraced latency_p50_us"},
	{"fail_ratio", "ratio", "lower", "failed ops over attempted ops, traced run"},
}

var layerIndex = func() map[string]layerMetric {
	m := make(map[string]layerMetric, len(layerList))
	for _, l := range layerList {
		m[l.name] = l
	}
	return m
}()
