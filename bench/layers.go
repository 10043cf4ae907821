package main

// perLayer lists the single-layer metrics a traced run reports, timed from
// outside around calls into each layer's public functions. A traced run of
// a workload that does not reach a layer reports that layer's metrics as 0.
// README.md maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	// load: the generator itself — the validity of every serving number.
	{Name: "load.gen_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "load.gen_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.wake_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "load.wake_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "load.write_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "load.write_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.attempted", Unit: "count", Better: "higher"},
	{Name: "load.ok", Unit: "count", Better: "higher"},
	{Name: "load.shed", Unit: "count", Better: "lower"},
	{Name: "load.errors", Unit: "count", Better: "lower"},
	// serve: handler spans joined to client spans, then rung 0 of the ladder.
	{Name: "serve.handler_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.direct_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.self_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.batch_mean_ops", Unit: "count", Better: "higher"},
	{Name: "serve.queue_depth_p50", Unit: "count", Better: "lower"},
	{Name: "serve.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "serve.shed_queue", Unit: "count", Better: "lower"},
	{Name: "serve.shed_lag", Unit: "count", Better: "lower"},
	{Name: "serve.audit_passes", Unit: "count", Better: "higher"},
	{Name: "serve.audit_stall_share", Unit: "share", Better: "lower"},
	{Name: "serve.audit_lag_p50_versions", Unit: "count", Better: "lower"},
	// crowdfair: rung 1, one-element batch calls on a fresh durable platform.
	{Name: "crowdfair.contribution_p50_us", Unit: "us", Better: "lower"},
	{Name: "crowdfair.offer_p50_us", Unit: "us", Better: "lower"},
	{Name: "crowdfair.worker_update_p50_us", Unit: "us", Better: "lower"},
	{Name: "crowdfair.self_p50_us", Unit: "us", Better: "lower"},
	// store and eventlog: rung 2, and their read sides on recover_restart.
	{Name: "store.apply_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.self_p50_us", Unit: "us", Better: "lower"},
	{Name: "store.changes", Unit: "count", Better: "lower"},
	{Name: "store.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "store.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "store.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "eventlog.append_p50_us", Unit: "us", Better: "lower"},
	{Name: "eventlog.events", Unit: "count", Better: "lower"},
	{Name: "eventlog.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "eventlog.disk_bytes", Unit: "bytes", Better: "lower"},
	// wal: rung 3, the store shards' writer counters, and sequential replay.
	{Name: "wal.append_commit_p50_us", Unit: "us", Better: "lower"},
	{Name: "wal.appends", Unit: "count", Better: "lower"},
	{Name: "wal.batches", Unit: "count", Better: "lower"},
	{Name: "wal.syncs", Unit: "count", Better: "lower"},
	{Name: "wal.appends_per_sync", Unit: "ratio", Better: "higher"},
	{Name: "wal.disk_bytes", Unit: "bytes", Better: "lower"},
	{Name: "wal.segments", Unit: "count", Better: "lower"},
	{Name: "wal.replay_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "disk.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	// durable: the serving write path with every acknowledgement waiting on
	// a group-commit fsync — closed loop, SyncAlways; multiples of the
	// device's fsync latency, so layer metrics and not end-to-end ones.
	{Name: "durable.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.write_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.throughput_rps", Unit: "1/s", Better: "higher"},
	{Name: "durable.appends_per_sync", Unit: "ratio", Better: "higher"},
	{Name: "durable.wal_commit_p50_us", Unit: "us", Better: "lower"},
	// audit, fairness, similarity, par.
	{Name: "audit.pass_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "audit.pass_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "audit.checked_pairs", Unit: "count", Better: "lower"},
	{Name: "audit.violations", Unit: "count", Better: "lower"},
	{Name: "audit.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "audit.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "audit.cold_serial_s", Unit: "s", Better: "lower"},
	{Name: "audit.full_s", Unit: "s", Better: "lower"},
	{Name: "par.speedup_x", Unit: "ratio", Better: "higher"},
	{Name: "fairness.axiom1_s", Unit: "s", Better: "lower"},
	{Name: "fairness.axiom2_s", Unit: "s", Better: "lower"},
	{Name: "fairness.axiom3_s", Unit: "s", Better: "lower"},
	{Name: "fairness.axiom4_s", Unit: "s", Better: "lower"},
	{Name: "fairness.axiom5_s", Unit: "s", Better: "lower"},
	{Name: "similarity.candidate_pairs", Unit: "count", Better: "lower"},
	// transparency.
	{Name: "transparency.axiom6_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "transparency.axiom7_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "transparency.compliance_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "transparency.evaluate_p50_us", Unit: "us", Better: "lower"},
	{Name: "transparency.parse_p50_us", Unit: "us", Better: "lower"},
	// replica: the WAL's second reader.
	{Name: "replica.bootstrap_catchup_ms", Unit: "ms", Better: "lower"},
	// proc and the cost of tracing itself.
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// layerUnit looks a per-layer metric's unit up by name.
var layerUnit = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()
