package main

// metricDef describes one reported metric. End-to-end metrics carry the
// bound by which they may worsen (a share of the parent's median);
// per-layer metrics name their layer, the end-to-end metric they should
// move, and the workload where they should move it (elsewhere the
// prediction is no change).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	Moves  string
	On     string
}

// endToEnd are the metrics a user of the serving stack sees. Every
// workload reports every one of them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "search_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "goodput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "recall_at_10", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "success_rate", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

const (
	openLoops = "zipf-single, cluster-rw"
	zipf      = "zipf-single"
	bulk      = "bulk-uniform"
	rw        = "cluster-rw"
	all       = "all"
)

// perLayer are the traced run's metrics, each measured from outside the
// program: spans the benchmark records around public calls, counters
// the program exports, and the Go runtime's own counters.
var perLayer = []metricDef{
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", Layer: "loadgen", Moves: "validity of all latency metrics", On: openLoops},
	{Name: "loadgen.outstanding_max", Unit: "count", Better: "lower", Layer: "loadgen", Moves: "validity of all latency metrics", On: openLoops},

	{Name: "serve.req_us_mean", Unit: "us", Better: "lower", Layer: "serve", Moves: "search_p50_ms, goodput_qps", On: zipf},
	{Name: "serve.self_us_per_req", Unit: "us", Better: "lower", Layer: "serve", Moves: "search_p50_ms, goodput_qps", On: zipf},
	{Name: "serve.allocs_per_req", Unit: "count", Better: "lower", Layer: "serve", Moves: "search_p50_ms, goodput_qps", On: zipf},
	{Name: "serve.rejected_share", Unit: "ratio", Better: "lower", Layer: "serve", Moves: "success_rate", On: zipf},

	{Name: "qos.cache.hit_share", Unit: "ratio", Better: "higher", Layer: "qos cache", Moves: "search_p50_ms, goodput_qps", On: zipf},
	{Name: "qos.cache.invalidations", Unit: "count", Better: "lower", Layer: "qos cache", Moves: "search_p50_ms, goodput_qps", On: rw},
	{Name: "qos.cache.evictions", Unit: "count", Better: "lower", Layer: "qos cache", Moves: "search_p50_ms, goodput_qps", On: zipf},

	{Name: "qos.batcher.flushes", Unit: "count", Better: "lower", Layer: "qos batcher", Moves: "search_p50_ms, goodput_qps", On: zipf},
	{Name: "qos.batcher.queries_per_flush", Unit: "count", Better: "higher", Layer: "qos batcher", Moves: "search_p50_ms, goodput_qps", On: zipf},
	{Name: "qos.batcher.wait_us_per_query", Unit: "us", Better: "lower", Layer: "qos batcher", Moves: "search_p50_ms, goodput_qps", On: zipf},

	{Name: "engine.direct_us_per_query", Unit: "us", Better: "lower", Layer: "engine", Moves: "goodput_qps (queries/s)", On: bulk},

	{Name: "ivf.select_us_per_query", Unit: "us", Better: "lower", Layer: "ivf", Moves: "goodput_qps (queries/s)", On: bulk},
	{Name: "ivf.scan_us_per_query", Unit: "us", Better: "lower", Layer: "ivf", Moves: "goodput_qps (queries/s)", On: bulk},
	{Name: "ivf.merge_us_per_query", Unit: "us", Better: "lower", Layer: "ivf", Moves: "goodput_qps (queries/s)", On: bulk},
	{Name: "ivf.scanned_per_query", Unit: "count", Better: "lower", Layer: "ivf", Moves: "goodput_qps (queries/s)", On: bulk},
	{Name: "ivf.list_kb_per_query", Unit: "KiB", Better: "lower", Layer: "ivf", Moves: "goodput_qps (queries/s)", On: bulk},

	{Name: "pq.ns_per_scanned", Unit: "ns", Better: "lower", Layer: "pq/simd", Moves: "goodput_qps (8-bit kernel); search_p50_ms (4-bit kernel)", On: "bulk-uniform; zipf-single, cluster-rw"},

	{Name: "cluster.router_us_per_req", Unit: "us", Better: "lower", Layer: "cluster", Moves: "search_p50_ms, goodput_qps", On: rw},
	{Name: "cluster.shard_us_per_hop", Unit: "us", Better: "lower", Layer: "cluster", Moves: "search_p50_ms, goodput_qps", On: rw},
	{Name: "cluster.router_self_us_per_req", Unit: "us", Better: "lower", Layer: "cluster", Moves: "search_p50_ms, goodput_qps", On: rw},
	{Name: "cluster.hop_skew_us", Unit: "us", Better: "lower", Layer: "cluster", Moves: "search_p50_ms, goodput_qps", On: rw},
	{Name: "cluster.attempts_per_hop", Unit: "count", Better: "lower", Layer: "cluster", Moves: "success_rate, goodput_qps", On: rw},
	{Name: "cluster.partial_share", Unit: "ratio", Better: "lower", Layer: "cluster", Moves: "success_rate", On: rw},

	{Name: "durable.add_p50_ms", Unit: "ms", Better: "lower", Layer: "wal/durable", Moves: "goodput_qps (an add holds the server lock across its WAL fsync)", On: rw},
	{Name: "durable.add_p90_ms", Unit: "ms", Better: "lower", Layer: "wal/durable", Moves: "goodput_qps", On: rw},
	{Name: "wal.append_us_p50", Unit: "us", Better: "lower", Layer: "wal/durable", Moves: "durable.add_p50_ms, goodput_qps", On: rw},
	{Name: "wal.fsync_p99_ms", Unit: "ms", Better: "lower", Layer: "wal/durable", Moves: "durable.add_p90_ms, goodput_qps", On: rw},
	{Name: "wal.fsyncs_per_add", Unit: "count", Better: "lower", Layer: "wal/durable", Moves: "durable.add_p50_ms", On: rw},
	{Name: "wal.bytes_per_vector", Unit: "B", Better: "lower", Layer: "wal/durable", Moves: "durable.add_p50_ms", On: rw},
	{Name: "ivf.add_us_per_vector", Unit: "us", Better: "lower", Layer: "wal/durable", Moves: "durable.add_p50_ms", On: all},

	{Name: "setup.build_s", Unit: "s", Better: "lower", Layer: "build", Moves: "setup_s", On: all},
	{Name: "setup.store_s", Unit: "s", Better: "lower", Layer: "build", Moves: "setup_s", On: rw},
	{Name: "setup.groundtruth_s", Unit: "s", Better: "lower", Layer: "build", Moves: "nothing (benchmark's own cost, excluded from setup_s)", On: all},

	{Name: "go.gc_cpu_fraction", Unit: "ratio", Better: "lower", Layer: "runtime", Moves: "goodput_qps", On: zipf},
	{Name: "trace.overhead.search_p50_ms", Unit: "ratio", Better: "lower", Layer: "tracing", Moves: "validity of the per-layer split", On: all},
	{Name: "trace.overhead.search_p90_ms", Unit: "ratio", Better: "lower", Layer: "tracing", Moves: "validity of the per-layer split", On: all},
}

// absent names, per workload, the per-layer metrics whose layer the
// workload does not run, and why; they read 0 there.
var absent = map[string]map[string]string{
	zipf: {
		"cluster.*":     "no router: one annaserve answers in-process",
		"wal.*":         "in-memory annaserve (no -data): no WAL",
		"durable.*":     "the traffic has no writes",
		"setup.store_s": "no store",
	},
	bulk: {
		"loadgen.late_p99_ms": "closed loop: no schedule to run late against",
		"qos.batcher.*":       "64-query requests bypass the batcher",
		"cluster.*":           "no router: one annaserve answers in-process",
		"wal.*":               "in-memory annaserve (no -data): no WAL",
		"durable.*":           "the traffic has no writes",
		"setup.store_s":       "no store",
	},
	rw: {
		"qos.batcher.*": "router hops arrive tagged with X-Request-ID and skip the batcher",
	},
}
