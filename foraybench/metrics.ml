(* The metric catalogue. BENCHMARK.json declares the same names, units and
   directions (the smoke alias checks that the two agree); each run prints
   every end-to-end metric, or with --trace 1 every per-layer metric.

   End-to-end metrics are the same five on every workload; what an "op"
   is depends on the workload (see README.md):
   - extract-suite: one Pipeline.run_source of one suite program;
   - analyze-wide: one trace pass (sequential analysis, sharded analysis,
     or verification of one recorded program);
   - serve-mixed: one request to the daemon;
   - spm-explore: one Reuse.candidates, Dse.solve or Dse.solve_fused call. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "ops_per_s" "1/s" Higher;
    m "op_p50_ms" "ms" Lower;
    m "op_p90_ms" "ms" Lower;
    m "peak_rss_mb" "MB" Lower;
  ]

let per_layer =
  [
    m "minic.parse_ms" "ms" Lower;
    m "minic.sema_ms" "ms" Lower;
    m "instrument.annotate_ms" "ms" Lower;
    m "sim.self_s" "s" Lower;
    m "sim.steps_per_s" "1/s" Higher;
    m "sim.events" "count" Lower;
    m "core.looptree.self_s" "s" Lower;
    m "core.looptree.alloc_words_per_event" "words" Lower;
    m "core.looptree.refs_seen" "count" Lower;
    m "trace.tstats.self_s" "s" Lower;
    m "trace.tstats.alloc_words_per_event" "words" Lower;
    m "core.online_events_per_s" "1/s" Higher;
    m "core.walk_heap_mb" "MB" Lower;
    m "core.model.self_ms" "ms" Lower;
    m "core.model.keep_ratio" "ratio" Higher;
    m "trace.encode_events_per_s" "1/s" Higher;
    m "trace.decode_events_per_s" "1/s" Higher;
    m "core.pipeline.analyze_events_per_s" "1/s" Higher;
    m "core.pipeline.shard_speedup" "ratio" Higher;
    m "core.pipeline.shards_used" "count" Higher;
    m "verify.events_per_s" "1/s" Higher;
    m "verify.refs_proved" "count" Higher;
    m "spm.candidates_ms" "ms" Lower;
    m "spm.optimal_ms" "ms" Lower;
    m "spm.greedy_ms" "ms" Lower;
    m "spm.stochastic_ms" "ms" Lower;
    m "spm.fused_ms" "ms" Lower;
    m "spm.proposals_per_s" "1/s" Higher;
    m "spm.accept_ratio" "ratio" Higher;
    m "serve.hit.p50_ms" "ms" Lower;
    m "serve.hit.p99_ms" "ms" Lower;
    m "serve.miss.p50_ms" "ms" Lower;
    m "serve.miss.p99_ms" "ms" Lower;
    m "serve.spm.p50_ms" "ms" Lower;
    m "serve.spm.p99_ms" "ms" Lower;
    m "serve.verify.p50_ms" "ms" Lower;
    m "serve.verify.p99_ms" "ms" Lower;
    m "serve.burst_pair_ms" "ms" Lower;
    m "serve.cache_hit_ratio" "ratio" Higher;
    m "serve.computations" "count" Lower;
    m "serve.parse_ms" "ms" Lower;
    m "serve.simulate_ms" "ms" Lower;
    m "serve.analyze_ms" "ms" Lower;
    m "serve.render_ms" "ms" Lower;
    m "trace_overhead_pct" "%" Lower;
    m "trace.span_coverage_pct" "%" Higher;
  ]

let better_name = function Lower -> "lower" | Higher -> "higher"
