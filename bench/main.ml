(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, the Phase II SPM results, the ablations called out in
   DESIGN.md, and bechamel microbenchmarks for the complexity claims.

   Run with: dune exec bench/main.exe -- [-j N] [--json] [--quick]

   Sections render to strings and run on a Foray_util.Parallel domain
   pool ([-j N], default = recommended domain count); output is printed
   in section order afterwards, so tables are byte-identical for any -j.
   --json additionally writes BENCH_pipeline.json, the perf-regression
   record tracked across PRs (see EXPERIMENTS.md for the field list);
   --quick trims the workload to a CI-sized smoke run. *)

open Foray_core
module Report = Foray_report.Report
module Suite = Foray_suite.Suite
module Figures = Foray_suite.Figures
module Tablefmt = Foray_util.Tablefmt
module Parallel = Foray_util.Parallel
module Obs = Foray_obs.Obs
module Span = Foray_obs.Span
module Verify = Foray_verify.Verify

let jobs = ref (Parallel.default_jobs ())
let json = ref false
let json_file = ref "BENCH_pipeline.json"
let quick = ref false
let trace_out = ref ""

let now = Unix.gettimeofday

let bsection b title =
  Printf.bprintf b "\n%s\n%s\n" title (String.make (String.length title) '=')

let th nexec nloc = Filter.{ nexec; nloc }

(* Typed-API unwrappers: the harness's error policy for runs that must
   succeed is to abort with the typed error (guarded nowhere, so the
   registered printer renders it). *)
let run_ok ?config ?thresholds prog =
  match Pipeline.run ?config ?thresholds prog with
  | Ok (o : Pipeline.outcome) -> o.result
  | Error e -> Error.raise_error e

let run_source_ok ?config ?thresholds src =
  match Pipeline.run_source ?config ?thresholds src with
  | Ok (o : Pipeline.outcome) -> o.result
  | Error e -> Error.raise_error e

(* Extraction online, then one more simulation into the verifier. *)
let verify_source_ok ?thresholds src =
  match Verify.of_source ?thresholds src with
  | Ok ((o : Pipeline.outcome), rep) -> (o.result, rep)
  | Error e -> Error.raise_error e

(* ------------------------------------------------------------------ *)
(* Tables I-III (the paper's evaluation section)                       *)
(* ------------------------------------------------------------------ *)

let tables b =
  bsection b "Paper evaluation: Tables I-III";
  let t0 = now () in
  let reports = Report.report_all () in
  Printf.bprintf b "(pipeline over the 6-benchmark suite: %.2fs)\n\n"
    (now () -. t0);
  Buffer.add_string b (Report.table1 reports);
  Buffer.add_char b '\n';
  Buffer.add_string b (Report.table2 reports);
  Buffer.add_char b '\n';
  Buffer.add_string b (Report.table3 reports);
  Buffer.add_char b '\n';
  Buffer.add_string b (Report.headline reports)

(* ------------------------------------------------------------------ *)
(* Figure reproductions                                                *)
(* ------------------------------------------------------------------ *)

let figure2 b =
  bsection b "Figure 2: FORAY models of the Figure 1 excerpts";
  let r = run_source_ok ~thresholds:(th 10 10) Figures.fig1 in
  Buffer.add_string b (Model.to_c r.model)

let figure4 b =
  bsection b "Figure 4: annotated program, trace and model";
  let r = run_source_ok ~thresholds:(th 2 2) Figures.fig4a in
  let head = Buffer.create 512 in
  let records = ref 0 in
  ignore
    (Minic_sim.Interp.run r.instrumented ~sink:(fun e ->
         if !records < 16 then
           Printf.bprintf head "  %s\n" (Foray_trace.Event.to_line e);
         incr records));
  Printf.bprintf b "trace (first 16 of %d records):\n%s" !records
    (Buffer.contents head);
  Buffer.add_string b (Model.to_c r.model)

let figure7 b =
  bsection b "Figure 7: partial affine index expressions";
  List.iter
    (fun (name, src) ->
      let r = run_source_ok ~thresholds:(th 10 5) src in
      let partials =
        List.filter (fun (_, (mr : Model.mref)) -> mr.partial)
          (Model.all_refs r.model)
      in
      Printf.bprintf b "%s: %d model ref(s), %d partial\n" name
        (Model.n_refs r.model) (List.length partials);
      List.iter
        (fun (_, (mr : Model.mref)) ->
          Printf.bprintf b
            "  site %x: partial over %d of %d loops, expression %s\n" mr.site
            mr.m mr.depth (Model.expr_of_ref mr))
        partials)
    [ ("fig7a (stack base)", Figures.fig7a);
      ("fig7b (offset param)", Figures.fig7b) ]

let figure9 b =
  bsection b "Figure 9: function duplication hints";
  let r = run_source_ok ~thresholds:(th 5 5) Figures.fig9 in
  Buffer.add_string b (Hints.to_string (Pipeline.hints r))

(* ------------------------------------------------------------------ *)
(* Phase II: SPM design-space exploration                              *)
(* ------------------------------------------------------------------ *)

let spm_sweep b =
  bsection b "Phase II: SPM energy savings per benchmark (optimal selection)";
  let sizes = [ 256; 512; 1024; 2048; 4096; 8192; 16384 ] in
  let t =
    Tablefmt.create ~title:"Energy saved vs all-main-memory, by SPM size"
      ("Benchmark" :: List.map (fun s -> Printf.sprintf "%dB" s) sizes)
  in
  List.iter
    (fun (bench : Suite.bench) ->
      let r = run_source_ok bench.source in
      let cands = Foray_spm.Reuse.candidates r.model in
      let row =
        List.map
          (fun s ->
            let sel = Foray_spm.Dse.select_optimal cands ~spm_bytes:s in
            Printf.sprintf "%.1f%%" sel.saving_pct)
          sizes
      in
      Tablefmt.row t (bench.name :: row))
    Suite.all;
  Buffer.add_string b (Tablefmt.render t)

let spm_vs_cache b =
  bsection b "SPM vs cache (the Banakar premise, over array traffic)";
  List.iter
    (fun capacity ->
      let results =
        List.map (fun bn -> Foray_report.Memcompare.run bn ~capacity) Suite.all
      in
      Buffer.add_string b (Foray_report.Memcompare.table ~capacity results);
      Buffer.add_char b '\n')
    [ 1024; 2048 ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_thresholds b =
  bsection b "Ablation: Step 4 thresholds (jpeg)";
  let prog = Minic.Parser.program (Option.get (Suite.find "jpeg")).source in
  let t =
    Tablefmt.create ~title:"Model size vs (Nexec, Nloc)"
      [ "Nexec"; "Nloc"; "model refs"; "model loops" ]
  in
  List.iter
    (fun (nexec, nloc) ->
      let r = run_ok ~thresholds:(th nexec nloc) prog in
      Tablefmt.row t
        [
          string_of_int nexec; string_of_int nloc;
          string_of_int (Model.n_refs r.model);
          string_of_int (Model.n_loops r.model);
        ])
    [ (1, 1); (5, 5); (20, 10); (100, 10); (20, 100); (1000, 1000) ];
  Buffer.add_string b (Tablefmt.render t);
  Buffer.add_string b
    "(the paper's Nexec=20/Nloc=10 keeps the reusable references and drops\n\
    \ scalar and small-array traffic)\n"

let ablation_partial b =
  bsection b "Ablation: value of partial affine expressions";
  let t =
    Tablefmt.create
      ~title:"Model references lost if partial expressions were rejected"
      [ "Benchmark"; "refs"; "partial"; "lost accesses" ]
  in
  List.iter
    (fun (bench : Suite.bench) ->
      let r = run_source_ok bench.source in
      let refs = Model.all_refs r.model in
      let partial =
        List.filter (fun (_, (mr : Model.mref)) -> mr.partial) refs
      in
      let lost =
        List.fold_left (fun a (_, (mr : Model.mref)) -> a + mr.execs) 0 partial
      in
      Tablefmt.row t
        [
          bench.name;
          string_of_int (List.length refs);
          string_of_int (List.length partial);
          string_of_int lost;
        ])
    Suite.all;
  Buffer.add_string b (Tablefmt.render t)

let ablation_dse b =
  bsection b "Ablation: greedy vs optimal vs stochastic buffer selection \
              (4 KiB SPM)";
  let t =
    Tablefmt.create
      ~title:"Energy saving, greedy vs grouped-knapsack DP vs annealing"
      [ "Benchmark"; "greedy"; "optimal"; "stochastic" ]
  in
  List.iter
    (fun (bench : Suite.bench) ->
      let r = run_source_ok bench.source in
      let cands = Foray_spm.Reuse.candidates r.model in
      let g = Foray_spm.Dse.select_greedy cands ~spm_bytes:4096 in
      let o = Foray_spm.Dse.select_optimal cands ~spm_bytes:4096 in
      let s =
        Foray_spm.Dse.solve
          ~strategy:(Foray_spm.Dse.Stochastic Foray_spm.Stochastic.default_config)
          cands ~spm_bytes:4096
      in
      Tablefmt.row t
        [
          bench.name;
          Printf.sprintf "%.1f%%" g.saving_pct;
          Printf.sprintf "%.1f%%" o.saving_pct;
          Printf.sprintf "%.1f%%" s.selection.saving_pct;
        ])
    Suite.all;
  Buffer.add_string b (Tablefmt.render t)

let ablation_fusion b =
  bsection b "Ablation: buffer fusion (stencil sharing)";
  let t =
    Tablefmt.create
      ~title:"Energy saving at 1 KiB, separate vs fused buffers"
      [ "Benchmark"; "groups"; "fused groups"; "separate"; "fused" ]
  in
  List.iter
    (fun (bench : Suite.bench) ->
      let r = run_source_ok bench.source in
      let plain = Foray_spm.Reuse.candidates r.model in
      let fused = Foray_spm.Reuse.candidates ~fuse:true r.model in
      let sp = Foray_spm.Dse.select_optimal plain ~spm_bytes:1024 in
      let sf = Foray_spm.Dse.select_optimal fused ~spm_bytes:1024 in
      Tablefmt.row t
        [
          bench.name;
          string_of_int (List.length (Foray_spm.Reuse.by_ref plain));
          string_of_int (List.length (Foray_spm.Reuse.by_ref fused));
          Printf.sprintf "%.1f%%" sp.saving_pct;
          Printf.sprintf "%.1f%%" sf.saving_pct;
        ])
    Suite.all;
  Buffer.add_string b (Tablefmt.render t)

let model_fidelity b =
  bsection b "Model fidelity: replaying the trace against the model";
  let t =
    Tablefmt.create
      ~title:"Prediction accuracy of extracted models (covered accesses)"
      [ "Benchmark"; "covered"; "uncovered"; "exact"; "accuracy" ]
  in
  List.iter
    (fun (bench : Suite.bench) ->
      let _, rep = verify_source_ok bench.source in
      let exact =
        List.fold_left (fun a (rv : Verify.ref_verdict) -> a + rv.exact) 0
          rep.refs
      in
      Tablefmt.row t
        [
          bench.name;
          string_of_int rep.covered;
          string_of_int rep.uncovered;
          string_of_int exact;
          Printf.sprintf "%.2f%%" (100.0 *. Verify.accuracy rep);
        ])
    Suite.all;
  Buffer.add_string b (Tablefmt.render t)

let input_dependence b =
  bsection b
    "Future work (paper section 6): model dependence on profiling input";
  List.iter
    (fun name ->
      let bench = Option.get (Suite.find name) in
      let prog = Minic.Parser.program bench.source in
      let rep = Stability.study ~seeds:[ 1; 42; 1337 ] prog in
      Printf.bprintf b "%s: %s" name (Stability.to_string rep))
    [ "jpeg"; "lame"; "gsm"; "adpcm" ]

(* The offline mode: simulate into a FORAYTR2 file, then analyze the
   file. The model and the number of events stored. *)
let offline_model prog =
  Minic.Sema.check_exn prog;
  let instrumented = Foray_instrument.Annotate.program prog in
  let path = Filename.temp_file "foraybench" ".trace2" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let n = ref 0 in
      Foray_trace.Tracefile.with_sink ~format:Foray_trace.Tracefile.Binary2
        path (fun sink ->
          ignore
            (Minic_sim.Interp.run instrumented ~sink:(fun e ->
                 incr n;
                 sink e)));
      match Pipeline.analyze_trace path with
      | Ok ((tree, _), _) ->
          let loop_kinds = Foray_instrument.Annotate.loop_table prog in
          (Model.of_tree ~loop_kinds tree, !n)
      | Error _ -> failwith "offline_model: the stored trace did not read back")

let ablation_online b =
  bsection b "Ablation: online vs offline trace analysis (constant-space claim)";
  let t =
    Tablefmt.create ~title:"Same model, with and without storing the trace"
      [ "Benchmark"; "events"; "online s"; "offline s"; "models equal" ]
  in
  List.iter
    (fun name ->
      let bench = Option.get (Suite.find name) in
      let prog = Minic.Parser.program bench.source in
      let t0 = now () in
      let online = run_ok prog in
      let t1 = now () in
      let offline, events = offline_model prog in
      let t2 = now () in
      Tablefmt.row t
        [
          name;
          string_of_int events;
          Printf.sprintf "%.2f" (t1 -. t0);
          Printf.sprintf "%.2f" (t2 -. t1);
          string_of_bool (Model.to_c online.model = Model.to_c offline);
        ])
    [ "adpcm"; "gsm"; "fft" ];
  Buffer.add_string b (Tablefmt.render t)

let scaling b =
  bsection b "Scaling: analysis cost vs trace length (linear-time claim)";
  let t =
    Tablefmt.create ~title:"Algorithm 2+3 over synthetic nested-loop traces"
      [ "events"; "seconds"; "Mev/s" ]
  in
  List.iter
    (fun outer ->
      let tree = Looptree.create () in
      let sink = Looptree.sink tree in
      let ck loop kind = Foray_trace.Event.Checkpoint { loop; kind } in
      let t0 = now () in
      let events = ref 0 in
      let push e = incr events; sink e in
      push (ck 1 Foray_trace.Event.Loop_enter);
      for i = 0 to outer - 1 do
        push (ck 1 Foray_trace.Event.Body_enter);
        push (ck 2 Foray_trace.Event.Loop_enter);
        for j = 0 to 31 do
          push (ck 2 Foray_trace.Event.Body_enter);
          push
            (Foray_trace.Event.Access
               { site = 7; addr = 4096 + (4 * j) + (128 * i); write = false;
                 sys = false; width = 4 });
          push (ck 2 Foray_trace.Event.Body_exit)
        done;
        push (ck 2 Foray_trace.Event.Loop_exit);
        push (ck 1 Foray_trace.Event.Body_exit)
      done;
      push (ck 1 Foray_trace.Event.Loop_exit);
      let dt = now () -. t0 in
      Tablefmt.row t
        [
          string_of_int !events;
          Printf.sprintf "%.3f" dt;
          (if dt > 0.0 then
             Printf.sprintf "%.1f" (float_of_int !events /. dt /. 1e6)
           else "-");
        ])
    [ 1_000; 10_000; 100_000; 200_000 ];
  Buffer.add_string b (Tablefmt.render t);
  Buffer.add_string b
    "(near-flat throughput across two orders of magnitude: linear time; the\n\
     walker state is the loop tree plus per-reference footprint intervals,\n\
     independent of the trace length)\n"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks (complexity claims of Section 4)           *)
(* ------------------------------------------------------------------ *)

let microbench b =
  bsection b "Microbenchmarks (bechamel, monotonic clock)";
  let open Bechamel in
  let witness = Toolkit.Instance.monotonic_clock in
  let run_one (test : Test.t) =
    let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) () in
    List.iter
      (fun elt ->
        let bench = Benchmark.run cfg [ witness ] elt in
        let ols =
          Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| "run" |]
        in
        let est = Analyze.one ols witness bench in
        match Analyze.OLS.estimates est with
        | Some [ t ] ->
            Printf.bprintf b "  %-38s %12.1f ns/op\n" (Test.Elt.name elt) t
        | _ -> Printf.bprintf b "  %-38s (no estimate)\n" (Test.Elt.name elt))
      (Test.elements test)
  in
  (* Algorithm 3: one observation *)
  let aff = Affine.create ~site:1 ~depth:3 in
  let iters = [| 0; 0; 0 |] in
  let k = ref 0 in
  run_one
    (Test.make ~name:"affine.observe (algorithm 3 step)"
       (Staged.stage (fun () ->
            incr k;
            iters.(0) <- !k land 15;
            iters.(1) <- (!k lsr 4) land 15;
            iters.(2) <- !k lsr 8;
            Affine.observe aff ~iters ~addr:(1000 + (4 * !k)))));
  (* Algorithm 2: one trace event through the walker *)
  let tree = Looptree.create () in
  let sink = Looptree.sink tree in
  Looptree.sink tree (Checkpoint { loop = 1; kind = Foray_trace.Event.Loop_enter });
  Looptree.sink tree (Checkpoint { loop = 1; kind = Foray_trace.Event.Body_enter });
  let j = ref 0 in
  run_one
    (Test.make ~name:"looptree.sink (access event)"
       (Staged.stage (fun () ->
            incr j;
            sink
              (Access
                 { site = 42; addr = 5000 + (4 * !j); write = false;
                   sys = false; width = 4 }))));
  (* trace serialization *)
  let line = "Instr: 4002a0 addr: 7fff5934 wr 4" in
  run_one
    (Test.make ~name:"event.of_line (figure 4c record)"
       (Staged.stage (fun () -> ignore (Foray_trace.Event.of_line line))));
  (* interval set *)
  let base = Foray_util.Iset.of_intervals [ (0, 64); (128, 256); (1024, 4096) ] in
  let i = ref 0 in
  run_one
    (Test.make ~name:"iset.add_range"
       (Staged.stage (fun () ->
            incr i;
            ignore
              (Foray_util.Iset.add_range (!i land 8191) ((!i land 8191) + 4)
                 base))));
  (* end-to-end simulation+analysis throughput on the smallest benchmark *)
  let adpcm = Minic.Parser.program (Option.get (Suite.find "adpcm")).source in
  run_one
    (Test.make ~name:"pipeline.run adpcm (end to end)"
       (Staged.stage (fun () -> ignore (run_ok adpcm))));
  (* knapsack on a real candidate set *)
  let gsm = run_source_ok (Option.get (Suite.find "gsm")).source in
  let cands = Foray_spm.Reuse.candidates gsm.model in
  run_one
    (Test.make ~name:"dse.select_optimal gsm@4KiB"
       (Staged.stage (fun () ->
            ignore (Foray_spm.Dse.select_optimal cands ~spm_bytes:4096))))

(* ------------------------------------------------------------------ *)
(* Perf-regression measurements (BENCH_pipeline.json)                  *)
(* ------------------------------------------------------------------ *)

type pipeline_perf = {
  pname : string;
  events : int;
  steps : int;
  seconds : float;
  degraded : bool;  (** the run hit a simulator budget and stopped early *)
}

(* One timed simulate-and-analyze run: the interpreter feeding the loop
   tree, the per-site statistics and an event counter, exactly the online
   pipeline of Algorithm 1. *)
let measure_pipeline (bench : Suite.bench) =
  let prog = Minic.Parser.program bench.source in
  Minic.Sema.check_exn prog;
  let instrumented = Foray_instrument.Annotate.program prog in
  let tree = Looptree.create () in
  let tstats = Foray_trace.Tstats.create () in
  let events = ref 0 in
  let analyze =
    Foray_trace.Event.tee (Looptree.sink tree)
      (Foray_trace.Tstats.sink tstats)
  in
  let sink e = incr events; analyze e in
  let t0 = now () in
  let sim = Minic_sim.Interp.run instrumented ~sink in
  let seconds = now () -. t0 in
  ignore (Model.of_tree tree);
  {
    pname = bench.name;
    events = !events;
    steps = sim.steps;
    seconds;
    degraded = sim.stopped <> Minic_sim.Interp.Completed;
  }

type curve_point = {
  dp_domains : int;
  dp_seconds : float;
  dp_speedup : float;  (** vs the sequential mapped walk *)
}

type shard_perf = {
  sname : string;
  sevents : int;
  shard_count : int;
  sjobs : int;  (** domains the sharded pass actually used *)
  seq_seconds : float;
  shard_seconds : float;
  merge_seconds : float;
  curve : curve_point list;
      (** v2 mapped analysis at 1/2/4 requested domains (capped at the
          hardware count) *)
  v1_bytes : int;
  v2_bytes : int;
  v1_read_eps : float;  (** v1 channel decode, events/s, null sink *)
  v2_read_eps : float;  (** v2 mapped decode, events/s, null sink *)
  emit_eps : float;  (** v2 frame encoder, events/s *)
}

(* Sharded-analysis measurement on the largest trace in the suite: the
   mapped FORAYTR2 analysis run once sequentially and once cut into 4
   frame-index shards, models compared byte-for-byte; the domains the
   sharded pass actually used are counted from its parallel.tasks
   labels. Merge cost comes from the
   pipeline.shard_merge timer, so metrics collection is switched on just
   for the sharded pass (and read back before measure_interp resets it).
   Schema 4 adds the FORAYTR2 wire measurements on the same trace: file
   sizes, raw decode rates for both formats, frame-encoder throughput,
   and the mapped sharded analysis at 1, 2 and 4 domains. *)
let measure_shards (pipelines : pipeline_perf list) =
  let largest =
    List.fold_left
      (fun (acc : pipeline_perf) p -> if p.events > acc.events then p else acc)
      (List.hd pipelines) (List.tl pipelines)
  in
  let bench = Option.get (Suite.find largest.pname) in
  let prog = Minic.Parser.program bench.source in
  Minic.Sema.check_exn prog;
  let instrumented = Foray_instrument.Annotate.program prog in
  let buf = ref [] in
  let _ =
    Minic_sim.Interp.run instrumented ~sink:(fun e -> buf := e :: !buf)
  in
  let events = Array.of_list (List.rev !buf) in
  let loop_kinds = Foray_instrument.Annotate.loop_table prog in
  let time f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  (* FORAYTR2 wire measurements on the same trace. Decode rates are
     best-of-3 on a null sink, which isolates the readers from analysis. *)
  let module Tracefile = Foray_trace.Tracefile in
  let nf = float_of_int (Array.length events) in
  let ev_list = Array.to_list events in
  let v1_path = Filename.temp_file "foraybench" ".trace" in
  let v2_path = Filename.temp_file "foraybench" ".trace2" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ v1_path; v2_path ])
    (fun () ->
      Tracefile.save ~format:Tracefile.Binary v1_path ev_list;
      let (), emit_seconds =
        time (fun () -> Tracefile.save ~format:Tracefile.Binary2 v2_path ev_list)
      in
      let v1_bytes = (Unix.stat v1_path).Unix.st_size in
      let v2_bytes = (Unix.stat v2_path).Unix.st_size in
      let best_of n f =
        let best = ref infinity in
        for _ = 1 to n do
          let (), dt = time f in
          if dt < !best then best := dt
        done;
        !best
      in
      let v1_read_s =
        best_of 3 (fun () ->
            match Tracefile.read ~strict:true v1_path Foray_trace.Event.null_sink with
            | Ok _ -> ()
            | Error _ -> failwith "bench: corrupt v1 trace")
      in
      let m = Tracefile.map v2_path in
      let v2_read_s =
        best_of 3 (fun () -> Tracefile.iter_mapped m Foray_trace.Event.null_sink)
      in
      let mapped_model ?jobs shards =
        let tree, _ = Pipeline.analyze_mapped ~shards ?jobs m in
        Model.to_c (Model.of_tree ~loop_kinds tree)
      in
      let seq_model, seq_seconds = time (fun () -> mapped_model 1) in
      Obs.reset ();
      Obs.set_enabled true;
      let shard_model, shard_seconds = time (fun () -> mapped_model 4) in
      Obs.set_enabled false;
      let merge_seconds =
        Option.value ~default:0.0 (Obs.timer_seconds "pipeline.shard_merge")
      in
      (* domains that ran at least one shard task *)
      let sjobs =
        max 1
          (List.length
             (List.filter
                (fun (_, v) -> v > 0)
                (Obs.values ~prefix:"parallel.tasks{" ())))
      in
      if not (String.equal seq_model shard_model) then
        failwith
          "measure_shards: sharded model diverged from the sequential one";
      let eps dt = if dt > 0.0 then nf /. dt else 0.0 in
      let curve =
        List.map
          (fun d ->
            let model, secs = time (fun () -> mapped_model ~jobs:d 4) in
            if not (String.equal seq_model model) then
              failwith
                "measure_shards: v2 mapped model diverged from the sequential \
                 one";
            { dp_domains = d; dp_seconds = secs;
              dp_speedup = seq_seconds /. secs })
          [ 1; 2; 4 ]
      in
      {
        sname = largest.pname;
        sevents = Array.length events;
        shard_count = 4;
        sjobs;
        seq_seconds;
        shard_seconds;
        merge_seconds;
        curve;
        v1_bytes;
        v2_bytes;
        v1_read_eps = eps v1_read_s;
        v2_read_eps = eps v2_read_s;
        emit_eps = eps emit_seconds;
      })

(* Interpreter microbenchmark on the jpeg analogue, resolver on and off:
   steps per second with a null sink isolates the simulator itself. A
   third pass repeats the resolved configuration with observability
   collection on, which is how the "<2% overhead" budget of the metrics
   layer is tracked across PRs. *)
let measure_interp ~reps =
  let bench = Option.get (Suite.find "jpeg") in
  let prog = Minic.Parser.program bench.source in
  Minic.Sema.check_exn prog;
  let instrumented = Foray_instrument.Annotate.program prog in
  let best config =
    let _ =
      Minic_sim.Interp.run ~config instrumented
        ~sink:Foray_trace.Event.null_sink
    in
    let best = ref 0.0 in
    for _ = 1 to reps do
      let t0 = now () in
      let r =
        Minic_sim.Interp.run ~config instrumented
          ~sink:Foray_trace.Event.null_sink
      in
      let dt = now () -. t0 in
      let sps = float_of_int r.steps /. dt in
      if sps > !best then best := sps
    done;
    !best
  in
  let resolved = best Minic_sim.Interp.default_config in
  let unresolved =
    best { Minic_sim.Interp.default_config with resolve = false }
  in
  Obs.reset ();
  Obs.set_enabled true;
  let with_metrics = best Minic_sim.Interp.default_config in
  Obs.set_enabled false;
  (* A fourth pass with span tracing on tracks the loop-span cost the same
     way; the ring keeps only the tail, which is all the overhead needs. *)
  let span_was = Span.enabled () in
  Span.set_enabled true;
  let with_tracing = best Minic_sim.Interp.default_config in
  Span.set_enabled span_was;
  (resolved, unresolved, with_metrics, with_tracing)

type spm_perf = {
  spname : string;  (** benchmark of the convergence measurement *)
  sp_bytes : int;
  sp_proposals : int;
  sp_wall_s : float;
  sp_pps : float;  (** proposals per second, serial ensemble *)
  sp_gap_pct : float;  (** energy gap vs select_optimal *)
  sp_within1_proposals : int;  (** single-chain proposals to within 1% *)
  sp_within1_s : float;  (** the same point on the wall clock *)
  sp_speedup_jobs : int;
  sp_speedup : float;  (** ensemble wall-clock, jobs=1 / jobs=N *)
  fz_clusters : int;  (** fusable clusters of the showcase *)
  fz_configs : float;  (** 2^clusters fusion configurations *)
  fz_deadline_ms : int;
  fz_proposals : int;
  fz_stopped : string;
  fz_saving_pct : float;
  fz_wall_s : float;
}

(* K disjoint 3-tap stencil loops: every loop contributes one fusable
   cluster, so the joint fusion x placement space has 2^K configurations
   per placement — the regime select_optimal cannot enumerate. *)
let stencil_source k =
  let b = Buffer.create 1024 in
  for a = 0 to k - 1 do
    Printf.bprintf b "int A%d[256];\n" a
  done;
  Buffer.add_string b "int s;\nint main() {\n  int i;\n";
  for a = 0 to k - 1 do
    Printf.bprintf b
      "  for (i = 0; i < 253; i++) { s += A%d[i] + A%d[i + 1] + A%d[i + 2]; \
       }\n"
      a a a
  done;
  Buffer.add_string b "  return 0;\n}\n";
  Buffer.contents b

(* Schema 7: the stochastic-DSE record. Three measurements on the
   jpeg@4KiB candidate space — serial throughput and optimality gap of
   the seeded default search, the single-chain anytime curve's
   time-to-within-1%-of-optimal, and the restart-ensemble wall-clock
   speedup (jobs=1 vs jobs=N; determinism makes the results comparable
   by construction, and we fail hard if they diverge) — plus the fusion
   showcase: a 2^16-configuration joint space no exhaustive enumeration
   can touch, answered anytime under a deadline. *)
let measure_spm () =
  let module St = Foray_spm.Stochastic in
  let bench = Option.get (Suite.find "jpeg") in
  let r = run_source_ok bench.source in
  let cands = Foray_spm.Reuse.candidates r.model in
  let spm_bytes = 4096 in
  let opt = (Foray_spm.Dse.select_optimal cands ~spm_bytes).energy_opt in
  let p = St.of_candidates cands in
  let serial = St.search p ~spm_bytes St.default_config in
  let pps =
    if serial.wall_s > 0.0 then
      float_of_int serial.proposals /. serial.wall_s
    else 0.0
  in
  let gap_pct =
    if opt > 0.0 then 100.0 *. (serial.cost -. opt) /. opt else 0.0
  in
  (* the anytime curve on a single chain, so trace indices map linearly
     onto the wall clock *)
  let one =
    St.search p ~spm_bytes { St.default_config with restarts = 1 }
  in
  let bar = (opt *. 1.01) +. 1e-9 in
  let within1 =
    List.fold_left
      (fun acc (k, c) ->
        match acc with Some _ -> acc | None -> if c <= bar then Some k else None)
      None one.trace
  in
  let within1_proposals = Option.value ~default:(-1) within1 in
  let within1_s =
    match within1 with
    | Some k when one.chain_proposals > 0 ->
        one.wall_s *. float_of_int k /. float_of_int one.chain_proposals
    | _ -> -1.0
  in
  (* ensemble speedup on a budget big enough to amortize the pool: the
     default 20k proposals finish in single-digit milliseconds *)
  let speedup_jobs = max 2 (min 4 (Parallel.default_jobs ())) in
  let big =
    { St.default_config with budget = (if !quick then 1_000_000 else 4_000_000) }
  in
  let ser_big = St.search p ~spm_bytes big in
  let par_big = St.search p ~spm_bytes { big with jobs = speedup_jobs } in
  if par_big.cost <> ser_big.cost then
    failwith "measure_spm: ensemble result depends on jobs";
  let speedup =
    if par_big.wall_s > 0.0 then ser_big.wall_s /. par_big.wall_s else 0.0
  in
  (* the fusion showcase *)
  let k = 16 in
  let rs = run_source_ok (stencil_source k) in
  let fp = St.of_model rs.model in
  let deadline_ms = if !quick then 500 else 5000 in
  let fz =
    St.search fp ~spm_bytes
      {
        St.default_config with
        budget = 1_000_000_000;
        deadline_ms = Some deadline_ms;
      }
  in
  {
    spname = bench.name;
    sp_bytes = spm_bytes;
    sp_proposals = serial.proposals;
    sp_wall_s = serial.wall_s;
    sp_pps = pps;
    sp_gap_pct = gap_pct;
    sp_within1_proposals = within1_proposals;
    sp_within1_s = within1_s;
    sp_speedup_jobs = speedup_jobs;
    sp_speedup = speedup;
    fz_clusters = fz.fusable_clusters;
    fz_configs = 2.0 ** float_of_int fz.fusable_clusters;
    fz_deadline_ms = deadline_ms;
    fz_proposals = fz.proposals;
    fz_stopped = St.stop_name fz.stopped;
    fz_saving_pct =
      (if fz.base > 0.0 then 100.0 *. (fz.base -. fz.cost) /. fz.base
       else 0.0);
    fz_wall_s = fz.wall_s;
  }

type verify_perf = {
  vname : string;
  v_refs : int;
  v_proved : int;
  v_diverged : int;
  v_unseen : int;
  v_covered : int;
  v_events : int;
  v_wall_s : float;
  v_eps : float;  (** accesses checked per second of replay *)
}

(* Verification measurement (schema 8): verify each benchmark from
   source (Foray_verify.Verify.of_source: online extraction, then one
   more simulation into the verifier) and time the replay pass alone,
   simulation included, from its [verify.replay] timer. Every reference
   must prove — a divergence here means the extractor and the verifier
   disagree about the pipeline's own ground truth, so it fails the
   harness rather than landing in the record. *)
let measure_verify () =
  List.map
    (fun (bench : Suite.bench) ->
      Obs.reset ();
      Obs.set_enabled true;
      let _, rep =
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled false)
          (fun () -> verify_source_ok bench.source)
      in
      let wall =
        Option.value ~default:0.0 (Obs.timer_seconds "verify.replay")
      in
      if Verify.diverged rep > 0 then
        failwith
          (Printf.sprintf "measure_verify: %s diverged on its own trace"
             bench.name);
      {
        vname = bench.name;
        v_refs = List.length rep.refs;
        v_proved = Verify.proved rep;
        v_diverged = Verify.diverged rep;
        v_unseen = Verify.unseen rep;
        v_covered = rep.covered;
        v_events = rep.events;
        v_wall_s = wall;
        v_eps =
          (if wall > 0.0 then float_of_int rep.events /. wall else 0.0);
      })
    Suite.all

let write_json ~path ~section_times ~pipelines ~shard ~interp ~spm ~verify
    ~total =
  let resolved, unresolved, with_metrics, with_tracing = interp in
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  add "{\n";
  add "  \"meta\": {\n";
  add "    \"schema_version\": 9,\n";
  add "    \"generated_by\": \"bench/main.exe --json\",\n";
  add "    \"benchmark_set\": [%s],\n"
    (String.concat ", "
       (List.map (fun (b : Suite.bench) -> Printf.sprintf "%S" b.name)
          Suite.all));
  add "    \"jobs\": %d,\n" !jobs;
  add "    \"cpus\": %d,\n" (Domain.recommended_domain_count ());
  add "    \"quick\": %b,\n" !quick;
  add "    \"obs_overhead_pct\": %.2f,\n"
    (100.0 *. (resolved -. with_metrics) /. resolved);
  add "    \"trace_overhead_pct\": %.2f,\n"
    (100.0 *. (resolved -. with_tracing) /. resolved);
  add "    \"degraded_runs\": %d\n"
    (List.length (List.filter (fun p -> p.degraded) pipelines));
  add "  },\n";
  add "  \"interp\": {\n";
  add "    \"benchmark\": \"jpeg\",\n";
  add "    \"steps_per_sec\": %.0f,\n" resolved;
  add "    \"steps_per_sec_unresolved\": %.0f,\n" unresolved;
  add "    \"steps_per_sec_metrics\": %.0f,\n" with_metrics;
  add "    \"steps_per_sec_tracing\": %.0f,\n" with_tracing;
  add "    \"metrics_overhead_pct\": %.2f,\n"
    (100.0 *. (resolved -. with_metrics) /. resolved);
  add "    \"tracing_overhead_pct\": %.2f,\n"
    (100.0 *. (resolved -. with_tracing) /. resolved);
  add "    \"resolver_speedup\": %.2f\n" (resolved /. unresolved);
  add "  },\n";
  (* Schema 3: the sharded-analysis record — sequential vs 4-domain
     analysis of the largest stored trace, plus the merge cost. Schema 4
     adds the v2 mapped-analysis domain curve at a fixed 4 shards. *)
  add "  \"shard\": {\n";
  add "    \"name\": %S,\n" shard.sname;
  add "    \"events\": %d,\n" shard.sevents;
  add "    \"shards\": %d,\n" shard.shard_count;
  add "    \"domains\": %d,\n" shard.sjobs;
  add "    \"seq_seconds\": %.4f,\n" shard.seq_seconds;
  add "    \"shard_seconds\": %.4f,\n" shard.shard_seconds;
  add "    \"merge_seconds\": %.4f,\n" shard.merge_seconds;
  add "    \"speedup\": %.2f,\n" (shard.seq_seconds /. shard.shard_seconds);
  add "    \"curve\": [\n";
  List.iteri
    (fun i (p : curve_point) ->
      add
        "      {\"domains\": %d, \"seconds\": %.4f, \"speedup\": %.2f}%s\n"
        p.dp_domains p.dp_seconds p.dp_speedup
        (if i = List.length shard.curve - 1 then "" else ","))
    shard.curve;
  add "    ]\n";
  add "  },\n";
  (* Schema 4: FORAYTR2 wire numbers on the same trace — file sizes,
     raw decode throughput of both formats, frame-encoder throughput. *)
  add "  \"trace_v2\": {\n";
  add "    \"name\": %S,\n" shard.sname;
  add "    \"events\": %d,\n" shard.sevents;
  add "    \"v1_bytes\": %d,\n" shard.v1_bytes;
  add "    \"v2_bytes\": %d,\n" shard.v2_bytes;
  add "    \"v1_read_events_per_sec\": %.0f,\n" shard.v1_read_eps;
  add "    \"v2_read_events_per_sec\": %.0f,\n" shard.v2_read_eps;
  add "    \"read_speedup\": %.2f,\n"
    (if shard.v1_read_eps > 0.0 then shard.v2_read_eps /. shard.v1_read_eps
     else 0.0);
  add "    \"emit_events_per_sec\": %.0f\n" shard.emit_eps;
  add "  },\n";
  (* Schema 7: the stochastic-DSE record — serial throughput and
     optimality gap of the seeded default search on jpeg@4KiB, the
     single-chain time-to-within-1%-of-optimal, the restart-ensemble
     speedup, and the 2^16-configuration fusion showcase answered
     anytime under a deadline. *)
  add "  \"spm\": {\n";
  add "    \"benchmark\": %S,\n" spm.spname;
  add "    \"spm_bytes\": %d,\n" spm.sp_bytes;
  add "    \"proposals\": %d,\n" spm.sp_proposals;
  add "    \"wall_s\": %.4f,\n" spm.sp_wall_s;
  add "    \"proposals_per_sec\": %.0f,\n" spm.sp_pps;
  add "    \"gap_vs_optimal_pct\": %.4f,\n" spm.sp_gap_pct;
  add "    \"within_1pct_proposals\": %d,\n" spm.sp_within1_proposals;
  add "    \"within_1pct_s\": %.6f,\n" spm.sp_within1_s;
  add "    \"ensemble_jobs\": %d,\n" spm.sp_speedup_jobs;
  add "    \"ensemble_speedup\": %.2f,\n" spm.sp_speedup;
  add "    \"fusion_showcase\": {\n";
  add "      \"fusable_clusters\": %d,\n" spm.fz_clusters;
  add "      \"fusion_configs\": %.0f,\n" spm.fz_configs;
  add "      \"deadline_ms\": %d,\n" spm.fz_deadline_ms;
  add "      \"proposals\": %d,\n" spm.fz_proposals;
  add "      \"stopped\": %S,\n" spm.fz_stopped;
  add "      \"saving_pct\": %.2f,\n" spm.fz_saving_pct;
  add "      \"wall_s\": %.4f\n" spm.fz_wall_s;
  add "    }\n";
  add "  },\n";
  (* Schema 8: the verification record — per-benchmark model-replay
     verdicts (every reference must prove on its own trace) and the
     replay throughput. *)
  add "  \"verify\": [\n";
  List.iteri
    (fun i (v : verify_perf) ->
      add
        "    {\"name\": %S, \"refs\": %d, \"proved\": %d, \"diverged\": \
         %d, \"unseen\": %d, \"covered\": %d, \"events\": %d, \"wall_s\": \
         %.4f, \"events_checked_per_sec\": %.0f}%s\n"
        v.vname v.v_refs v.v_proved v.v_diverged v.v_unseen v.v_covered
        v.v_events v.v_wall_s v.v_eps
        (if i = List.length verify - 1 then "" else ","))
    verify;
  add "  ],\n";
  (* Obs.to_json is itself a JSON object, captured during the
     metrics-enabled interpreter pass above. *)
  add "  \"metrics\": %s,\n" (Obs.to_json ());
  add "  \"pipelines\": [\n";
  List.iteri
    (fun i p ->
      add
        "    {\"name\": %S, \"events\": %d, \"steps\": %d, \"seconds\": \
         %.4f, \"events_per_sec\": %.0f, \"degraded\": %b}%s\n"
        p.pname p.events p.steps p.seconds
        (float_of_int p.events /. p.seconds)
        p.degraded
        (if i = List.length pipelines - 1 then "" else ","))
    pipelines;
  add "  ],\n";
  add "  \"sections\": [\n";
  List.iteri
    (fun i (name, dt) ->
      add "    {\"name\": %S, \"seconds\": %.3f}%s\n" name dt
        (if i = List.length section_times - 1 then "" else ","))
    section_times;
  add "  ],\n";
  add "  \"wall_clock_total_sec\": %.3f\n" total;
  add "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* ------------------------------------------------------------------ *)

let () =
  Arg.parse
    [
      ("-j", Arg.Set_int jobs,
       "N  Fan independent sections out over N domains (default: \
        recommended domain count; 1 = serial)");
      ("--json", Arg.Set json,
       " Write the perf-regression record BENCH_pipeline.json");
      ("--json-file", Arg.Set_string json_file,
       "PATH  Destination of the JSON record (default BENCH_pipeline.json)");
      ("--quick", Arg.Set quick,
       " CI-sized run: tables + perf measurements only, <60s");
      ("--trace-out", Arg.Set_string trace_out,
       "FILE  Record spans for the whole bench run and write the Chrome \
        trace (or .folded stacks) to FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "dune exec bench/main.exe -- [-j N] [--json] [--quick] [--trace-out FILE]";
  Span.setup_env ();
  if !trace_out <> "" then begin
    Span.reset ();
    Span.set_enabled true
  end;
  let t0 = now () in
  let sections =
    if !quick then
      [ ("tables", tables); ("figure4", figure4); ("scaling", scaling) ]
    else
      [
        ("tables", tables);
        ("figure2", figure2);
        ("figure4", figure4);
        ("figure7", figure7);
        ("figure9", figure9);
        ("spm_sweep", spm_sweep);
        ("spm_vs_cache", spm_vs_cache);
        ("ablation_thresholds", ablation_thresholds);
        ("ablation_partial", ablation_partial);
        ("ablation_dse", ablation_dse);
        ("ablation_fusion", ablation_fusion);
        ("model_fidelity", model_fidelity);
        ("input_dependence", input_dependence);
        ("ablation_online", ablation_online);
        ("scaling", scaling);
      ]
  in
  let rendered =
    Parallel.run ~jobs:!jobs
      (List.map
         (fun (name, f) () ->
           let b = Buffer.create 4096 in
           let s0 = now () in
           f b;
           (name, Buffer.contents b, now () -. s0))
         sections)
  in
  List.iter (fun (_, out, _) -> print_string out) rendered;
  (* Perf measurements run serially, after the pool is idle, so domain
     contention never skews them. *)
  if !json then begin
    let pipelines =
      List.map measure_pipeline
        (if !quick then
           List.filter (fun (b : Suite.bench) -> b.name <> "lame") Suite.all
         else Suite.all)
    in
    let shard = measure_shards pipelines in
    (* before measure_interp, whose Obs.reset scopes the metrics dump *)
    let verify = measure_verify () in
    let interp = measure_interp ~reps:(if !quick then 3 else 5) in
    let spm = measure_spm () in
    let section_times = List.map (fun (n, _, dt) -> (n, dt)) rendered in
    write_json ~path:!json_file ~section_times ~pipelines ~shard ~interp
      ~spm ~verify ~total:(now () -. t0)
  end;
  if not !quick then begin
    let b = Buffer.create 256 in
    microbench b;
    print_string (Buffer.contents b)
  end;
  if !trace_out <> "" then begin
    Span.set_enabled false;
    Span.write !trace_out;
    Printf.eprintf "trace written to %s (%d span(s), %d dropped)\n%!"
      !trace_out (Span.recorded ()) (Span.dropped ())
  end;
  Printf.printf "\ntotal bench time: %.1fs\n" (now () -. t0)
