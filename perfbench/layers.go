package main

// Per-layer metrics: self costs from the replay passes, exact counts
// from the daemon's /metrics page, and gauges sampled during the run.

import "fmt"

// layerCosts are per-segment self costs (CPU ns) derived from the
// untraced passes: each pass minus the pass below it.
type layerCosts struct {
	parse, netsim, core, rules, glue, handoff, resil, loadgen, serve float64
}

func costs(dr *daemonResult, rr *replayResult) layerCosts {
	segs := float64(rr.segs)
	pc := func(p int) float64 { return float64(rr.untraced[p].cpuNs) / segs }
	c := layerCosts{
		parse:   pc(1),
		netsim:  pc(2) - pc(1),
		core:    pc(3) - pc(2),
		rules:   pc(4) - pc(3),
		glue:    pc(5) - pc(4),
		handoff: pc(6) - pc(5),
		resil:   pc(7) - pc(6),
		loadgen: float64(rr.loadgenCPUNs) / segs,
	}
	// Whatever the daemon spends per segment beyond pass 7 and the
	// sender is serve's own: TCP read loop, quota, ingest batching,
	// alert record and fan-out (and the benchmark's alert sink).
	c.serve = dr.cpuNsPerSeg - pc(7) - c.loadgen
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perLayer(dr *daemonResult, rr *replayResult) map[string]metric {
	c := costs(dr, rr)
	k := dr.counts
	scanned := k["vpatch_scanned_bytes_total"]
	kb := scanned / 1024
	mb := scanned / 1e6
	p3 := rr.untraced[3].counters
	segs := float64(rr.segs)
	compile := make([]float64, len(dr.setups))
	load := make([]float64, len(dr.setups))
	for i, s := range dr.setups {
		compile[i], load[i] = s.compile, s.load
	}
	var tracedNs, untracedNs float64
	for p := 1; p <= passCount; p++ {
		tracedNs += float64(rr.traced[p].cpuNs)
		untracedNs += float64(rr.untraced[p].cpuNs)
	}
	share := func(ns float64) metric { return metric{ratio(ns, dr.cpuNsPerSeg), "ratio"} }
	ns := func(v float64) metric { return metric{v, "ns"} }
	cnt := func(v float64) metric { return metric{v, "count"} }
	return map[string]metric{
		"loadgen.lag_p99_ms":     {percentile(dr.lag, 99), "ms"},
		"loadgen.cpu_ns_per_seg": ns(c.loadgen),
		"loadgen.cpu_share":      share(c.loadgen),

		"serve.parse_ns_per_seg":     ns(c.parse),
		"serve.self_ns_per_seg":      ns(c.serve),
		"serve.cpu_share":            share(c.parse + c.serve),
		"serve.alerts_per_mb":        {ratio(k["vpatch_alerts_total"], k["vpatch_sched_dispatched_bytes_total"]/1e6), "1/MB"},
		"serve.alert_stream_dropped": cnt(k["vpatch_alert_stream_dropped_total"]),

		"resil.enqueue_ns_per_batch": {ratio(c.resil*segs, float64(rr.untraced[7].batches)), "ns"},
		"resil.cpu_share":            share(c.resil),
		"resil.queued_bytes_p99":     {dr.queuedP99, "B"},
		"resil.dropped_bytes":        {k["vpatch_sched_dropped_bytes_total"], "B"},
		"resil.budget_exhausted":     cnt(k["vpatch_verifier_budget_exhausted_total"]),
		"resil.degraded_flows":       cnt(k["vpatch_degraded_flows_total"]),

		"ids.handoff_ns_per_seg":    ns(c.handoff),
		"ids.shard_glue_ns_per_seg": ns(c.glue),
		"ids.cpu_share":             share(c.handoff + c.glue),

		"netsim.reasm_ns_per_seg":       ns(c.netsim),
		"netsim.cpu_share":              share(c.netsim),
		"netsim.ooo_pending_peak_bytes": {dr.pendPeak, "B"},
		"netsim.flows_peak":             cnt(k["vpatch_flows_peak"]),
		"netsim.dropped_bytes":          {k["vpatch_reasm_dropped_bytes_total"], "B"},

		"arena.chunks_peak": cnt(k["vpatch_arena_chunks_peak"]),
		"arena.overflow":    cnt(k["vpatch_arena_overflow_total"]),

		"core.scan_ns_per_byte":       {c.core * segs / float64(rr.bytes), "ns/B"},
		"core.cpu_share":              share(c.core),
		"core.filter_probes_per_kb":   {ratio(k["vpatch_filter_probes_total"], kb), "1/KB"},
		"core.skip_frac":              {ratio(k["vpatch_accel_skipped_bytes_total"], scanned), "ratio"},
		"core.verify_attempts_per_kb": {ratio(float64(p3.VerifyAttempts), float64(p3.BytesScanned)/1024), "1/KB"},
		"core.matches_per_verify":     {ratio(float64(p3.Matches), float64(p3.VerifyAttempts)), "ratio"},
		"core.verify_bytes_per_kb":    {ratio(k["vpatch_verify_bytes_total"], kb), "B/KB"},
		"core.lane_occupancy":         {ratio(float64(p3.BatchActiveLanes), float64(p3.BatchIters)*float64(rr.width)), "ratio"},

		"rules.ns_per_hit":              {ratio(c.rules*segs, float64(rr.untraced[4].hits)), "ns"},
		"rules.cpu_share":               share(c.rules),
		"rules.verifier_runs_per_mb":    {ratio(k["vpatch_verifier_runs_total"], mb), "1/MB"},
		"rules.verifier_states":         cnt(k["vpatch_verifier_states_total"]),
		"rules.alerts_per_verifier_run": {ratio(float64(dr.regexAlerts), k["vpatch_verifier_runs_total"]), "ratio"},

		"dbfmt.compile_s": {median(compile), "s"},
		"dbfmt.load_s":    {median(load), "s"},

		"runtime.alloc_bytes_per_seg": {dr.allocPerSeg, "B"},
		"runtime.gc_cpu_frac":         {dr.gcCPUFrac, "ratio"},

		"trace.overhead_frac": {ratio(tracedNs, untracedNs) - 1, "ratio"},
	}
}

var passNames = [passCount + 1]string{"", "parse", "+reassembly", "+scan", "+rules", "ids shard", "dispatcher", "scheduler"}

// printReplay reports every pass, the layer self costs and the
// tracing overhead.
func printReplay(rr *replayResult, dr *daemonResult) {
	segs, bytes := float64(rr.segs), float64(rr.bytes)
	fmt.Printf("traced replay: %d segments, %.1f MB, one goroutine (passes 6-7 add the dispatcher's shards), median of %d rounds\n",
		rr.segs, bytes/1e6, rr.rounds)
	fmt.Printf("  %-4s %-12s %12s %12s %12s %9s %9s %9s\n", "pass", "layers", "wall_ns/seg", "cpu_ns/seg", "traced_cpu", "overhead", "hits", "alerts")
	for p := 1; p <= passCount; p++ {
		u, t := rr.untraced[p], rr.traced[p]
		fmt.Printf("  %-4d %-12s %12.1f %12.1f %12.1f %8.1f%% %9d %9d\n", p, passNames[p],
			float64(u.wallNs)/segs, float64(u.cpuNs)/segs, float64(t.cpuNs)/segs,
			100*(ratio(float64(t.cpuNs), float64(u.cpuNs))-1), u.hits, u.alerts)
	}
	c := costs(dr, rr)
	fmt.Printf("layer self cost (untraced pass differences; daemon CPU %.1f ns/seg in the open loop):\n", dr.cpuNsPerSeg)
	fmt.Printf("  %-22s %10s %10s %8s\n", "layer", "ns/seg", "ns/B", "share")
	row := func(name string, v float64) {
		fmt.Printf("  %-22s %10.1f %10.3f %7.1f%%\n", name, v, v*segs/bytes, 100*ratio(v, dr.cpuNsPerSeg))
	}
	row("serve (parse)", c.parse)
	row("serve (self)", c.serve)
	row("resil", c.resil)
	row("ids (handoff)", c.handoff)
	row("ids (shard glue)", c.glue)
	row("netsim", c.netsim)
	row("core", c.core)
	row("rules", c.rules)
	row("loadgen", c.loadgen)
	fmt.Printf("span self time (traced passes, ns/seg):\n")
	for p := 1; p <= passCount; p++ {
		fmt.Printf("  pass %d:", p)
		for n, v := range rr.traced[p].self {
			if v != 0 {
				fmt.Printf(" %s=%.1f", spanNames[n], float64(v)/segs)
			}
		}
		fmt.Println()
	}
	if rr.spanFile != "" {
		fmt.Printf("spans written to %s\n", rr.spanFile)
	}
}
