package main

// metricDef describes one metric of BENCHMARK.json. The tables below are the
// source the JSON file is checked against (TestBenchmarkJSONMatchesTables).
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by; per-layer metrics have none.
	bound float64
	// moves says which end-to-end metric a per-layer metric should move, and
	// on which workload (README.md carries the same table).
	moves string
}

// endToEnd lists the metrics every workload reports with --trace 0. The
// contract wants each of them from each workload and never zero, so they are
// the four that mean the same thing everywhere; the workload-specific numbers
// the issue listed beside them (datagram rate, forwarding latency, bytes per
// member, and the simulated quality figures) are per-layer metrics below.
// Memory is the allocation volume, not the resident-set peak: on the parallel
// workload the peak moved by a third between identical runs.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "run_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.25},
}

// perLayer lists the metrics every workload reports with --trace 1, grouped
// by the module they measure. A layer a workload leaves idle reads 0.
var perLayer = []metricDef{
	// experiments, parallel -> run_s on figures.
	{name: "experiments.fig4_s", unit: "s", better: "lower", moves: "run_s on figures"},
	{name: "experiments.fig5_s", unit: "s", better: "lower", moves: "run_s on figures"},
	{name: "experiments.fig6_s", unit: "s", better: "lower", moves: "run_s on figures"},
	{name: "experiments.fig11_s", unit: "s", better: "lower", moves: "run_s on figures"},
	{name: "experiments.fig12_s", unit: "s", better: "lower", moves: "run_s on figures"},
	{name: "experiments.fig13_s", unit: "s", better: "lower", moves: "run_s on figures"},
	{name: "experiments.fig14_s", unit: "s", better: "lower", moves: "run_s on figures"},
	{name: "experiments.tables", unit: "count", better: "higher", moves: "run_s on figures"},
	{name: "parallel.speedup", unit: "x", better: "higher", moves: "run_s on figures"},

	// eventsim -> run_s on scale-rost, tree-evict, stream-cer.
	{name: "eventsim.events", unit: "count", better: "lower", moves: "run_s on scale-rost, tree-evict, stream-cer"},
	{name: "eventsim.ns_per_event", unit: "ns", better: "lower", moves: "run_s on scale-rost, tree-evict, stream-cer"},
	{name: "eventsim.loop_self_s", unit: "s", better: "lower", moves: "run_s on scale-rost, tree-evict, stream-cer"},
	{name: "eventsim.schedule_fire_ns", unit: "ns", better: "lower", moves: "run_s on scale-rost, tree-evict, stream-cer"},

	// churn -> run_s on scale-rost.
	{name: "churn.prepopulate_s", unit: "s", better: "lower", moves: "run_s on scale-rost"},
	{name: "churn.warmup_s", unit: "s", better: "lower", moves: "run_s on scale-rost"},
	{name: "churn.measure_s", unit: "s", better: "lower", moves: "run_s on scale-rost"},
	{name: "churn.steady_ns_per_event", unit: "ns", better: "lower", moves: "run_s on scale-rost"},
	{name: "churn.scale_ratio", unit: "x", better: "lower", moves: "run_s on scale-rost"},
	{name: "churn.joins", unit: "count", better: "lower", moves: "run_s on scale-rost"},
	{name: "churn.failures", unit: "count", better: "lower", moves: "run_s on scale-rost"},
	{name: "churn.rejoins", unit: "count", better: "lower", moves: "run_s on scale-rost"},

	// construct -> run_s on tree-evict and scale-rost.
	{name: "construct.joins", unit: "count", better: "lower", moves: "run_s on tree-evict, scale-rost"},
	{name: "construct.join_s", unit: "s", better: "lower", moves: "run_s on tree-evict, scale-rost"},
	{name: "construct.prepopulate_join_s", unit: "s", better: "lower", moves: "run_s on tree-evict, scale-rost"},
	{name: "construct.join_us_p50", unit: "us", better: "lower", moves: "run_s on tree-evict, scale-rost"},
	{name: "construct.join_us_p99", unit: "us", better: "lower", moves: "run_s on tree-evict, scale-rost"},

	// rost -> run_s and sim.disruptions_per_member on scale-rost.
	{name: "rost.start_s", unit: "s", better: "lower", moves: "run_s on scale-rost"},
	{name: "rost.switches", unit: "count", better: "lower", moves: "sim.disruptions_per_member on scale-rost"},
	{name: "rost.aborts", unit: "count", better: "lower", moves: "sim.disruptions_per_member on scale-rost"},
	{name: "rost.lock_backoffs", unit: "count", better: "lower", moves: "run_s on scale-rost"},

	// topology -> setup_s everywhere; run_s on tree-evict, stream-cer.
	{name: "topology.build_s", unit: "s", better: "lower", moves: "setup_s on every sim workload"},
	{name: "topology.delay_calls", unit: "count", better: "lower", moves: "run_s on tree-evict, stream-cer"},
	{name: "topology.delay_ns", unit: "ns", better: "lower", moves: "run_s on tree-evict, stream-cer"},

	// overlay -> run_s on scale-rost.
	{name: "overlay.sample100_ns", unit: "ns", better: "lower", moves: "run_s on scale-rost"},
	{name: "overlay.attach_detach_ns", unit: "ns", better: "lower", moves: "run_s on scale-rost"},

	// stream -> run_s and sim.starving_ratio_pct on stream-cer.
	{name: "stream.episodes", unit: "count", better: "lower", moves: "run_s on stream-cer"},
	{name: "stream.episode_s", unit: "s", better: "lower", moves: "run_s on stream-cer"},
	{name: "stream.episode_us_p50", unit: "us", better: "lower", moves: "run_s on stream-cer"},
	{name: "stream.episode_us_p99", unit: "us", better: "lower", moves: "run_s on stream-cer"},
	{name: "stream.finish_s", unit: "s", better: "lower", moves: "run_s on stream-cer"},
	{name: "stream.packets_repaired", unit: "count", better: "higher", moves: "sim.starving_ratio_pct on stream-cer"},
	{name: "stream.packets_lost", unit: "count", better: "lower", moves: "sim.starving_ratio_pct on stream-cer"},
	{name: "stream.interval_account_ns", unit: "ns", better: "lower", moves: "run_s on stream-cer"},

	// cer -> run_s on stream-cer.
	{name: "cer.selects", unit: "count", better: "lower", moves: "run_s on stream-cer"},
	{name: "cer.select_s", unit: "s", better: "lower", moves: "run_s on stream-cer"},
	{name: "cer.select_us_p50", unit: "us", better: "lower", moves: "run_s on stream-cer"},

	// wire -> ops_per_s on live-forward.
	{name: "wire.decode_ns", unit: "ns", better: "lower", moves: "ops_per_s on live-forward"},
	{name: "wire.encode_ns", unit: "ns", better: "lower", moves: "ops_per_s on live-forward"},
	{name: "wire.datagram_bytes", unit: "B", better: "lower", moves: "ops_per_s on live-forward"},

	// node -> ops_per_s on live-forward; nothing elsewhere.
	{name: "node.datagrams_per_s", unit: "1/s", better: "higher", moves: "ops_per_s on live-forward"},
	{name: "node.fwd_p50_us", unit: "us", better: "lower", moves: "ops_per_s on live-forward"},
	{name: "node.fwd_p99_us", unit: "us", better: "lower", moves: "ops_per_s on live-forward"},
	{name: "node.fixed_ns", unit: "ns", better: "lower", moves: "ops_per_s on live-forward"},
	{name: "node.per_child_ns", unit: "ns", better: "lower", moves: "ops_per_s on live-forward"},
	{name: "node.handler_self_ns", unit: "ns", better: "lower", moves: "ops_per_s on live-forward"},
	{name: "node.allocs_per_datagram", unit: "allocs", better: "lower", moves: "ops_per_s on live-forward"},
	{name: "node.alloc_bytes_per_datagram", unit: "B", better: "lower", moves: "ops_per_s on live-forward"},
	{name: "node.packets_received", unit: "count", better: "higher", moves: "ops_per_s on live-forward"},
	{name: "node.packets_forwarded", unit: "count", better: "higher", moves: "ops_per_s on live-forward"},
	{name: "node.rejects", unit: "count", better: "lower", moves: "must stay 0 on live-forward"},
	{name: "node.attach_s", unit: "s", better: "lower", moves: "setup_s on live-forward"},

	// sim: the simulated quality figures. Exact for a seed and a commit; a
	// speed or simplicity change must leave them bit-identical.
	{name: "sim.disruptions_per_member", unit: "count", better: "lower", moves: "quality on scale-rost, tree-evict, stream-cer"},
	{name: "sim.service_delay_ms", unit: "ms", better: "lower", moves: "quality on scale-rost, tree-evict, stream-cer"},
	{name: "sim.starving_ratio_pct", unit: "%", better: "lower", moves: "quality on stream-cer"},
	{name: "sim.bytes_per_member", unit: "B", better: "lower", moves: "peak_rss_mb on scale-rost, tree-evict"},

	// host -> run_s wherever the collector's share is high.
	{name: "host.cpu_s", unit: "s", better: "lower", moves: "run_s on every workload"},
	{name: "host.alloc_mb", unit: "MB", better: "lower", moves: "run_s, peak_rss_mb on every workload"},
	{name: "host.gc_cycles", unit: "cycles", better: "lower", moves: "run_s on every workload"},
	{name: "host.gc_pause_ms", unit: "ms", better: "lower", moves: "run_s on every workload"},
	{name: "host.peak_rss_mb", unit: "MB", better: "lower", moves: "peak_rss_mb on every workload"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "none: traced wall against plain wall"},
	{name: "trace.reps", unit: "count", better: "higher", moves: "none: repetitions behind each median"},
	{name: "trace.spans", unit: "count", better: "lower", moves: "none: spans held in memory"},
}
