package main

// metricDef is one declared metric. The two tables below are the source
// of BENCHMARK.json's end_to_end and per_layer lists; a test keeps the
// file and the tables equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEndMetrics are what a user of the system sees. Every workload
// reports all of them, tracing off.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayerMetrics are taken by the traced ladder, layer by layer; the
// prefix of a name is the module it belongs to. They carry no bound.
var perLayerMetrics = []metricDef{
	// serve: the wire protocol, per op class, and its share of a read.
	{Name: "serve.ping_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.query_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.insert_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.update_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.delete_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.txn_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.reject_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.req_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "serve.resp_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "serve.wire_share", Unit: "share", Better: "lower"},
	// query: parse, plan and probe without the store around them.
	{Name: "query.parse_p50_us", Unit: "us", Better: "lower"},
	{Name: "query.select_p50_us", Unit: "us", Better: "lower"},
	{Name: "query.candidates_per_result", Unit: "ratio", Better: "lower"},
	{Name: "query.selectall_ms", Unit: "ms", Better: "lower"},
	// store: the same ops called directly on a twin store.Sharded.
	{Name: "store.select_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.qcache_hit_share", Unit: "share", Better: "higher"},
	{Name: "store.first_read_after_write_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.insert_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.update_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.delete_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.txn_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.alloc_kb_per_commit", Unit: "KB", Better: "lower"},
	{Name: "store.null_insert_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.resolve_update_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.reject_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.wal_bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "store.fsyncs_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "store.log_records_replayed", Unit: "count", Better: "lower"},
	{Name: "store.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "store.heap_bytes_per_row", Unit: "B", Better: "lower"},
	// iox: the timing filesystem under the twin's durable commits.
	{Name: "iox.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "iox.sync_p50_us", Unit: "us", Better: "lower"},
	{Name: "iox.sync_busy_share", Unit: "share", Better: "lower"},
	{Name: "iox.writes_per_commit", Unit: "ratio", Better: "lower"},
	// relation: the two O(n) steps the profiles point at.
	{Name: "relation.index_build_ms", Unit: "ms", Better: "lower"},
	{Name: "relation.delete_after_view_us", Unit: "us", Better: "lower"},
	// the analysis library, stage by stage, at the largest corpus size.
	{Name: "relio.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "relio.write_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.checkall_ms", Unit: "ms", Better: "lower"},
	{Name: "testfds.weak_ms", Unit: "ms", Better: "lower"},
	{Name: "testfds.strong_ms", Unit: "ms", Better: "lower"},
	{Name: "chase.run_ms", Unit: "ms", Better: "lower"},
	{Name: "chase.scaling_exp", Unit: "exponent", Better: "lower"},
	{Name: "discover.run_ms", Unit: "ms", Better: "lower"},
	// runtime: process counters of the named workload's own replay.
	{Name: "runtime.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	// the instrument's own checks.
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "budget.gap_share", Unit: "share", Better: "lower"},
}
