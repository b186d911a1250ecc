package main

import (
	"fmt"
	"time"
)

// replayWindows is how many windows each half of the stage replay
// (untraced, then traced) measures: shorter than the measured run,
// whose numbers are the ones that count.
const replayWindows = 2

var stageNames = []string{"plan", "prune", "direct", "load", "eval", "materialize"}

// perLayerNames is every metric a traced run reports, on every
// workload (a layer a workload leaves idle reports its probe value or
// 0). BENCHMARK.json lists the same names; a unit test keeps them equal.
var perLayerNames = []string{
	"saxml.parse_mb_per_s", "container.split_mb_per_s", "codec.encode_mb_per_s",
	"codec.decode_ms_per_doc", "codec.decode_mb_per_s", "codec.decode_skeleton_ms_per_doc",
	"container.events_ms_per_doc", "skeleton.build_ms_per_doc", "dag.freeze_ms_per_doc", "dag.vertices_per_tree_node",
	"bundle.read_ms_per_needle", "bundle.reads_per_op",
	"store.open_s", "store.cache_hit_ratio", "store.evictions_per_op", "store.decode_bytes_per_op",
	"store.load_ms_per_miss", "store.query_ms_per_op", "store.queryall_ms_per_op",
	"store.http_overhead_ms_per_op", "store.json_encode_ms_per_op",
	"xpath.compile_us_per_query", "plan.build_us_per_query", "plan.direct_ratio",
	"synopsis.prune_ratio", "synopsis.canmatch_ns_per_doc", "synopsis.build_ms_per_doc",
	"synopsis.sidecar_bytes_per_archive_byte",
	"engine.eval_ms_per_op", "engine.allocs_per_op", "core.distill_merge_ms", "core.materialize_ms_per_op",
	"ingest.add_ms_per_doc", "ingest.wal_append_ms_p50", "ingest.flush_s", "ingest.compactions",
	"ingest.compaction_s_total", "ingest.bytes_written_per_xml_byte",
	"cluster.scatter_ms_per_op", "cluster.replicate_ms_per_doc",
	"obs.trace_overhead_pct", "trace.plan_ms_per_op", "trace.prune_ms_per_op", "trace.direct_ms_per_op",
	"trace.load_ms_per_op", "trace.eval_ms_per_op", "trace.materialize_ms_per_op", "trace.untraced_ms_per_op",
	"client.read_p99_ms", "client.write_p50_ms", "client.write_p99_ms", "client.window_cv",
	"harness.calib_ms", "layers.coverage_ratio",
}

// checkPerLayer fails if a traced run reported anything but exactly
// the perLayerNames.
func checkPerLayer(m layers) error {
	if len(m) != len(perLayerNames) {
		return fmt.Errorf("traced run reported %d metrics, want %d", len(m), len(perLayerNames))
	}
	for _, name := range perLayerNames {
		if _, ok := m[name]; !ok {
			return fmt.Errorf("traced run did not report %s", name)
		}
	}
	return nil
}

// traced is the per-layer run. Part one is the in-process, outside-in
// probes (probes.go). Part two replays the op sequence against a real
// server twice, without and with trace=1, and reads the server's own
// stage breakdown and counter deltas. End-to-end metrics never come
// from this run.
func (e *env) traced() (*result, error) {
	cfg := e.cfg
	l := make(layers)
	calib0 := calibrate()
	rec, err := e.probeLayers(l)
	if err != nil {
		return nil, err
	}
	e.progress("in-process probes done: %d spans", len(rec.spans))

	in, _, err := e.setUp(0)
	if err != nil {
		return nil, err
	}
	srv, drv := in.srv, in.drv
	fail := func(err error) (*result, error) {
		return nil, fmt.Errorf("%w\nserver stderr:\n%s", err, srv.stderr.String())
	}
	if _, err := drv.run(cfg.warm, false, srv.pid()); err != nil {
		return fail(err)
	}
	replay := time.Duration(replayWindows) * cfg.window
	st0, m0, err := srv.health(e.client)
	if err != nil {
		return fail(err)
	}
	plain, err := drv.run(replay, false, srv.pid())
	if err != nil {
		return fail(err)
	}
	stMid, _, err := srv.health(e.client)
	if err != nil {
		return fail(err)
	}
	withTrace, err := drv.run(replay, true, srv.pid())
	if err != nil {
		return fail(err)
	}
	st1, m1, err := srv.health(e.client)
	if err != nil {
		return fail(err)
	}
	srv.kill()
	e.progress("stage replay done")
	if err := drv.failure(); err != nil {
		return nil, err
	}

	plainW := reduceWindows(plain.samples, replayWindows, int64(cfg.window))
	tracedW := reduceWindows(withTrace.samples, replayWindows, int64(cfg.window))
	st := withTrace.stages
	if plainW.ops == 0 || tracedW.ops == 0 || st.ops == 0 {
		return nil, fmt.Errorf("stage replay completed no operations")
	}
	l.set("obs.trace_overhead_pct", 100*(plainW.opsPerSec-tracedW.opsPerSec)/plainW.opsPerSec, "%")
	var staged int64
	for _, name := range stageNames {
		staged += st.stagesNs[name]
		l.set("trace."+name+"_ms_per_op", float64(st.stagesNs[name])/1e6/float64(st.ops), "ms")
	}
	l.set("trace.untraced_ms_per_op", float64(st.clientNs-st.totalNs)/1e6/float64(st.ops), "ms")
	cpuPerOp := withTrace.cpuMs / float64(tracedW.ops)
	l.set("layers.coverage_ratio", float64(staged)/1e6/float64(st.ops)/cpuPerOp, "ratio")

	// Counter ratios over both halves of the replay.
	ops := float64(len(plain.samples) + len(withTrace.samples))
	hits, misses := st1.DocHits-st0.DocHits, st1.DocMisses-st0.DocMisses
	l.set("store.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	l.set("store.evictions_per_op", float64(st1.Evictions-st0.Evictions)/ops, "count")
	l.set("store.decode_bytes_per_op", float64(st1.DecodeBytes-st0.DecodeBytes)/ops, "bytes")
	l.set("bundle.reads_per_op", float64(st1.BundleReads-st0.BundleReads)/ops, "count")
	tracedMisses := st1.DocMisses - stMid.DocMisses
	loadMs := 0.0
	if tracedMisses > 0 {
		loadMs = float64(st.stagesNs["load"]) / 1e6 / float64(tracedMisses)
	}
	l.set("store.load_ms_per_miss", loadMs, "ms")
	considered := st1.PruneConsidered - st0.PruneConsidered
	l.set("synopsis.prune_ratio", ratio(st1.PrunePruned-st0.PrunePruned, considered), "ratio")
	l.set("plan.direct_ratio", ratio(st1.PlanSynopsisDirect-st0.PlanSynopsisDirect, considered), "ratio")
	l.set("ingest.compactions", float64(st1.compactions()-st0.compactions()), "count")
	l.set("ingest.compaction_s_total", m1["xc_compaction_seconds_sum"]-m0["xc_compaction_seconds_sum"], "s")

	l.set("client.read_p99_ms", plainW.readP99ms, "ms")
	l.set("client.write_p50_ms", plainW.writeP50ms, "ms")
	l.set("client.write_p99_ms", plainW.writeP99ms, "ms")
	l.set("client.window_cv", plainW.windowCV, "ratio")
	l.set("harness.calib_ms", (calib0+calibrate())/2, "ms")
	if err := checkPerLayer(l); err != nil {
		return nil, err
	}

	if err := rec.write(cfg.outDir, "trace-"+e.w.name+".json", map[string]any{
		"workload": e.w.name, "seed": cfg.seed, "metrics": l,
	}); err != nil {
		return nil, err
	}
	return &result{
		Workload: e.w.name, Seed: cfg.seed, Correct: true,
		Attempted: drv.attempted, Failed: drv.failed,
		Metrics: l,
		Notes: map[string]float64{
			"replay_ops_per_s_untraced": plainW.opsPerSec,
			"replay_ops_per_s_traced":   tracedW.opsPerSec,
			"traced_read_ops":           float64(st.ops),
			"server_cpu_ms_per_op":      cpuPerOp,
			"spans":                     float64(len(rec.spans)),
		},
	}, nil
}
