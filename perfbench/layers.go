package main

import "fmt"

// layerMetrics lists every per-layer metric with its unit. A traced run
// reports all of them on every workload, 0 where the workload does not
// exercise the layer. Counts and times are per refresh (pagerank-evolve,
// wordcount-stream) or per request (read paths) unless the name says
// otherwise; stage times named task_s are summed over parallel tasks and
// are not shares of wall time.
var layerMetrics = []struct{ name, unit string }{
	{"core.refresh.iterations", "count"},
	{"core.refresh.iter_s", "s"},
	{"core.refresh.outside_iter_s", "s"},
	{"core.cpc.filtered_ratio", "ratio"},
	{"core.cpc.drift", "abs"},
	{"core.recompute.iterations", "count"},
	{"core.recompute.iter_s", "s"},
	{"core.stage.map.task_s", "s"},
	{"core.stage.sort.task_s", "s"},
	{"core.stage.reduce.task_s", "s"},
	{"core.stage.checkpoint_s", "s"},
	{"shuffle.refresh.bytes", "B"},
	{"shuffle.refresh.spill_runs", "count"},
	{"shuffle.refresh.spill_mb", "MiB"},
	{"shuffle.recompute.bytes", "B"},
	{"shuffle.recompute.spill_runs", "count"},
	{"shuffle.recompute.spill_mb", "MiB"},
	{"mrbg.reads", "count"},
	{"mrbg.bytes_read_mb", "MiB"},
	{"mrbg.cache_hits", "count"},
	{"mrbg.appended_chunks", "count"},
	{"mrbg.space_amp", "ratio"},
	{"results.state.groups_flushed", "count"},
	{"results.state.dirty_partitions", "count"},
	{"results.state.segments", "count"},
	{"results.state.compactions", "count"},
	{"results.dirty_partitions", "count"},
	{"results.bytes_rewritten_mb", "MiB"},
	{"results.segments", "count"},
	{"results.compactions", "count"},
	{"results.blocks_read", "count/read"},
	{"results.bloom_skip_ratio", "ratio"},
	{"results.get_s", "s"},
	{"ingest.http_s", "s"},
	{"ingest.stage_wait_s", "s"},
	{"ingest.batch_records", "count"},
	{"ingest.pending_peak", "count"},
	{"dfs.write_deltas_s", "s"},
	{"incr.refresh_s", "s"},
	{"serve.refresh_self_s", "s"},
	{"serve.epoch_flips", "count"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.get_s", "s"},
	{"http.get.client_s", "s"},
	{"http.get.server_s", "s"},
	{"proc.cpu_s", "s"},
	{"io.rchar_mb", "MiB"},
	{"io.wchar_mb", "MiB"},
	{"io.syscr", "count"},
	{"io.syscw", "count"},
	{"go.alloc_mb", "MiB"},
	{"go.gc_cycles", "count"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// completeLayers fills the per-layer metrics a workload did not report
// with 0 and rejects any name or unit missing from layerMetrics.
func (r *run) completeLayers() error {
	known := make(map[string]string, len(layerMetrics))
	for _, m := range layerMetrics {
		known[m.name] = m.unit
		if _, ok := r.layers[m.name]; !ok {
			r.layers[m.name] = metric{0, m.unit}
		}
	}
	for name, m := range r.layers {
		if unit, ok := known[name]; !ok || unit != m.Unit {
			return fmt.Errorf("per-layer metric %s (%s) is not in layerMetrics", name, m.Unit)
		}
	}
	return nil
}
