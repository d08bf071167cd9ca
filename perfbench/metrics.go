package main

// metricName is a reported metric and its unit; BENCHMARK.json at the
// repository root lists the same names (perfbench_test.go checks it).
type metricName struct{ name, unit string }

// endToEndNames are the metrics of an untraced run (-trace 0).
var endToEndNames = []metricName{
	{"setup_s", "s"},
	{"related_p50_ms", "ms"},
	{"related_p99_ms", "ms"},
	{"add_p50_ms", "ms"},
	{"add_p90_ms", "ms"},
	{"saturation_rps", "req/s"},
	{"rss_mb", "MB"},
}

// perLayerNames are the metrics of a traced run (-trace 1).
var perLayerNames = []metricName{
	{"serve.related_us", "us"},
	{"serve.self_us", "us"},
	{"serve.add_us", "us"},
	{"net.remainder_us", "us"},
	{"gen_late_ms", "ms"},
	{"failed_frac", "ratio"},
	{"cache.hit_rate", "ratio"},
	{"cache.evictions_per_1k", "count"},
	{"singleflight.follower_frac", "ratio"},
	{"core.related_us", "us"},
	{"core.related_p99_us", "us"},
	{"core.add_us", "us"},
	{"match.match_us", "us"},
	{"match.probe_us", "us"},
	{"match.lists_us", "us"},
	{"match.lists_per_query", "count"},
	{"match.candidates_per_query", "count"},
	{"match.prepare_add_us", "us"},
	{"match.commit_add_us", "us"},
	{"index.postings_per_query", "count"},
	{"index.postings_skipped_per_query", "count"},
	{"index.scorepool_reuse", "ratio"},
	{"shard.related_us", "us"},
	{"shard.home_leg_us", "us"},
	{"shard.sibling_leg_max_us", "us"},
	{"shard.merge_us", "us"},
	{"shard.tax_ratio", "ratio"},
	{"segment.newdoc_us", "us"},
	{"segment.greedy_us", "us"},
	{"segment.segments_per_doc", "count"},
	{"build.preprocess_s", "s"},
	{"build.segment_s", "s"},
	{"build.group_s", "s"},
	{"build.index_s", "s"},
	{"build.clusters", "count"},
	{"build.heap_mb", "MB"},
	{"persist.load_s", "s"},
	{"persist.bytes", "bytes"},
	{"persist.heap_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
}
