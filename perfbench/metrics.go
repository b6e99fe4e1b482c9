package main

// The metric catalogue. BENCHMARK.json lists the same names and units;
// the self-test holds the two together. NOTES.md defines each metric and
// the end-to-end metric it should move.

type metricDef struct{ name, unit string }

// endToEnd are measured untraced, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_cpu_p50_ms", "ms"},
	{"op_cpu_p90_ms", "ms"},
	{"op_cpu_p99_ms", "ms"},
}

// perLayer are printed by the traced run of every workload.
func perLayer() []metricDef {
	var out []metricDef
	for _, u := range unitCosts() {
		out = append(out, metricDef{u.name + "_" + u.scale, u.scale}, metricDef{u.name + "_allocs", "allocs/op"})
	}
	out = append(out,
		metricDef{"sim.events", "count"},
		metricDef{"sim.events_per_s", "1/s"},
		metricDef{"dsm.faults", "count"},
		metricDef{"msg.messages", "count"},
		metricDef{"net.bytes", "bytes"},
		metricDef{"vcpu.migrations", "count"},
		metricDef{"fleet.admit_attempts", "count"},
		metricDef{"fleet.admit_yield", "ratio"},
		metricDef{"fleet.admitted", "count"},
		metricDef{"fleet.max_queue", "count"},
		metricDef{"fleet.reclaims", "count"},
		metricDef{"fleet.migrations", "count"},
		metricDef{"fleet.rebalances", "count"},
		metricDef{"fleet.queue_wait_p50_s", "s"},
		metricDef{"fleet.queue_wait_p99_s", "s"},
		metricDef{"chaos.vm_episode_p50_ms", "ms"},
		metricDef{"chaos.fleet_episode_p50_ms", "ms"},
	)
	for _, o := range oracleNames {
		out = append(out, metricDef{"chaos.violations." + o, "count"})
	}
	for _, c := range critpathCats {
		out = append(out, metricDef{"critpath." + c.metric, "share"})
	}
	out = append(out,
		metricDef{"runtime.mallocs", "count/unit"},
		metricDef{"runtime.alloc_mb", "MB/unit"},
		metricDef{"runtime.leaked_goroutines", "count/unit"},
		metricDef{"trace.overhead", "ratio"},
		metricDef{"fail_rate", "ratio"},
	)
	for _, b := range buckets() {
		out = append(out, metricDef{"cpu." + b + "_ms", "ms/unit"})
	}
	return append(out, metricDef{"cpu.total_ms", "ms/unit"})
}
