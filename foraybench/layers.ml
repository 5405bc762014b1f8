(* The decomposed runs behind the per-layer metrics. A workload's traced
   run passes its own programs through the layers its own ops use, each
   call inside a span of the benchmark's own:
   - [online] (extract-suite; serve-mixed, whose daemon extracts its
     programs): the front end, the simulator under sink stacks, the model;
   - [stored] (analyze-wide): the front end and the recording of set-up,
     replays of the mapped trace under the same sink stacks, sequential
     and sharded analysis, and verification;
   - [phase2] (spm-explore): buffer candidates and every SPM strategy.
   A layer that a workload does not use gets no spans there, and its
   metrics read 0.

   The analyzers cannot be timed apart from the event stream that feeds
   them, so they are split by sink stacks: the stream goes to a counting
   sink alone, then with Looptree added, then with Tstats added, then with
   both, and a layer's cost is the difference between neighbouring stacks.
   Replaying a materialized event array instead would inflate major-GC
   time and overstate the walk. *)

open Foray_core
module Interp = Minic_sim.Interp
module Event = Foray_trace.Event
module Tstats = Foray_trace.Tstats
module Tracefile = Foray_trace.Tracefile
module Annotate = Foray_instrument.Annotate
module Verify = Foray_verify.Verify
module Reuse = Foray_spm.Reuse
module Dse = Foray_spm.Dse
module Stochastic = Foray_spm.Stochastic

type prog = { name : string; source : string; config : Interp.config }

(* The fused search: a fixed proposal budget and no deadline, so the work
   per call does not depend on the machine. *)
let fused_config seed =
  { Stochastic.default_config with seed; budget = 100_000 }

let shards () = min (Meter.nproc ()) 4

(* Sums over the decomposed programs: seconds per layer, events, counts. *)
type acc = (string, float) Hashtbl.t

let acc () : acc = Hashtbl.create 32
let get (a : acc) k = Option.value (Hashtbl.find_opt a k) ~default:0.0
let add (a : acc) k x = Hashtbl.replace a k (get a k +. x)
let addi a k n = add a k (float_of_int n)

let timed t name f =
  let r = Tracer.with_span t name f in
  (r, Tracer.last t)

let dur = Tracer.dur

(* A span grouping one program's layers. *)
let program t a name f =
  addi a "programs" 1;
  Tracer.with_span t ("program:" ^ name) f

(* A layer's cost from a stack with it and the stack without it. *)
let stack_diff a layer ~base s =
  add a (layer ^ "_s") (dur s -. dur base);
  add a (layer ^ "_words") (Tracer.alloc_words s -. Tracer.alloc_words base)

let front_end t p =
  let ast, _ = timed t "minic.parse" (fun () -> Minic.Parser.program p.source) in
  ignore (timed t "minic.sema" (fun () -> Minic.Sema.check_exn ast));
  fst
    (timed t "instrument.annotate" (fun () ->
         (Annotate.program ast, Annotate.loop_table ast)))

(* Simulate inside span [name], feeding [sink]: the interpreter's result,
   the events it produced and the span. *)
let simulate t p instrumented name sink =
  let n = ref 0 in
  let r, s =
    timed t name (fun () ->
        Interp.run ~config:p.config instrumented ~sink:(fun e ->
            incr n;
            sink e))
  in
  (r, !n, s)

(* The walker's heap and the model, once the analyzers have seen the
   whole stream. *)
let model_of t a ~loop_kinds tree tstats =
  let words, _ =
    timed t "measure.walk_heap" (fun () ->
        Obj.reachable_words (Obj.repr (tree, tstats)))
  in
  Hashtbl.replace a "heap_words"
    (Float.max (get a "heap_words") (float_of_int words));
  let m, s =
    timed t "core.model" (fun () ->
        let m = Model.of_tree ~loop_kinds tree in
        ignore (Model.to_c m);
        m)
  in
  addi a "refs_seen" (List.length (Looptree.refs tree));
  addi a "refs_kept" (Model.n_refs m);
  (m, dur s)

(* One program through online extraction; returns its row of the "where
   does online extraction go" table. *)
let online t a p =
  program t a p.name @@ fun () ->
  let instrumented, loop_kinds = front_end t p in
  let sim = simulate t p instrumented in
  let r, events, s0 = sim "sim.null" Event.null_sink in
  let _, _, s1 = sim "sim+looptree" (Looptree.sink (Looptree.create ())) in
  let _, _, s2 = sim "sim+tstats" (Tstats.sink (Tstats.create ())) in
  let tree = Looptree.create () and tstats = Tstats.create () in
  let _, _, s3 =
    sim "sim+looptree+tstats" (Event.tee (Looptree.sink tree) (Tstats.sink tstats))
  in
  let _, model_s = model_of t a ~loop_kinds tree tstats in
  addi a "events" events;
  addi a "steps" r.Interp.steps;
  add a "sim_s" (dur s0);
  stack_diff a "looptree" ~base:s0 s1;
  stack_diff a "tstats" ~base:s0 s2;
  add a "online_s" (dur s3);
  Printf.sprintf
    "%-10s events=%-9d sim=%.4fs looptree=%.4fs tstats=%.4fs interaction=%.4fs \
     model=%.4fs online=%.4fs"
    p.name events (dur s0)
    (dur s1 -. dur s0)
    (dur s2 -. dur s0)
    (dur s3 -. dur s1 -. dur s2 +. dur s0)
    model_s
    (dur s3 +. model_s)

(* One program through the stored-trace path: set-up's recording, then
   the mapped trace replayed under the sink stacks, analyzed sequentially
   and sharded, and verified. Returns its row of the "where does
   stored-trace analysis go" table. *)
let stored t a p =
  program t a p.name @@ fun () ->
  let instrumented, loop_kinds = front_end t p in
  let r, events, s0 = simulate t p instrumented "sim.null" Event.null_sink in
  let path = Meter.run_file ("layers-" ^ p.name ^ ".trace2") in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let _, _, se =
    Tracefile.with_sink ~format:Tracefile.Binary2 path (fun sink ->
        simulate t p instrumented "sim+encode" sink)
  in
  let m, _ = timed t "trace.map" (fun () -> Tracefile.map path) in
  let replay name sink =
    snd (timed t name (fun () -> Tracefile.iter_mapped m sink))
  in
  let d0 = replay "trace.decode" Event.null_sink in
  let d1 = replay "decode+looptree" (Looptree.sink (Looptree.create ())) in
  let d2 = replay "decode+tstats" (Tstats.sink (Tstats.create ())) in
  let (tree, tstats), seq =
    timed t "core.analyze.seq" (fun () -> Pipeline.analyze_mapped m)
  in
  let n = shards () in
  let _, sharded =
    timed t "core.analyze.sharded" (fun () ->
        Pipeline.analyze_mapped ~shards:n ~jobs:n m)
  in
  let used, _ =
    timed t "measure.shards" (fun () -> List.length (Tracefile.frame_shards ~n m))
  in
  let model, model_s = model_of t a ~loop_kinds tree tstats in
  let rep, v =
    timed t "verify" (fun () ->
        let vsink, finish = Verify.sink model in
        Tracefile.iter_mapped m vsink;
        finish ())
  in
  addi a "events" events;
  addi a "steps" r.Interp.steps;
  add a "sim_s" (dur s0);
  add a "encode_s" (dur se -. dur s0);
  add a "decode_s" (dur d0);
  stack_diff a "looptree" ~base:d0 d1;
  stack_diff a "tstats" ~base:d0 d2;
  add a "analyze_s" (dur seq);
  add a "sharded_s" (dur sharded);
  addi a "shards_used" used;
  add a "verify_s" (dur v);
  addi a "proved" (Verify.proved rep);
  Printf.sprintf
    "%-10s events=%-9d decode=%.4fs looptree=%.4fs tstats=%.4fs model=%.4fs \
     seq=%.4fs sharded=%.4fs verify=%.4fs"
    p.name events (dur d0)
    (dur d1 -. dur d0)
    (dur d2 -. dur d0)
    model_s (dur seq) (dur sharded) (dur v)

let search_stats a (sol : Dse.solution) =
  Option.iter
    (fun (r : Stochastic.result) ->
      addi a "proposals" r.proposals;
      addi a "accepted" r.accepted)
    sol.search

(* Phase II on one model, as spm-explore's passes run it: candidates, then
   each strategy at the default sizes, and the fused search when [fused]. *)
let phase2 t a ~seed ~fused (name, model) =
  program t a name @@ fun () ->
  let cands, _ = timed t "spm.candidates" (fun () -> Reuse.candidates model) in
  let solve name strategy =
    ignore
      (timed t name (fun () ->
           List.iter
             (fun size ->
               search_stats a (Dse.solve ~strategy cands ~spm_bytes:size))
             Dse.default_sizes))
  in
  solve "spm.optimal" Dse.Optimal;
  solve "spm.greedy" Dse.Greedy;
  solve "spm.stochastic" (Dse.Stochastic { Stochastic.default_config with seed });
  if fused then
    ignore
      (timed t "spm.fused" (fun () ->
           search_stats a
             (Dse.solve_fused model ~spm_bytes:4096 (fused_config seed))))

(* Per-layer metric values from the spans and sums of the decomposition;
   rates are events over the layer's seconds, summed over programs. *)
let values t a =
  let ms name = 1000.0 *. Tracer.total t name in
  let ratio x y = if y > 0.0 then x /. y else 0.0 in
  let g = get a in
  let ev = g "events" in
  [
    ("minic.parse_ms", ms "minic.parse");
    ("minic.sema_ms", ms "minic.sema");
    ("instrument.annotate_ms", ms "instrument.annotate");
    ("sim.self_s", g "sim_s");
    ("sim.steps_per_s", ratio (g "steps") (g "sim_s"));
    ("sim.events", ev);
    ("core.looptree.self_s", g "looptree_s");
    ("core.looptree.alloc_words_per_event", ratio (g "looptree_words") ev);
    ("core.looptree.refs_seen", g "refs_seen");
    ("trace.tstats.self_s", g "tstats_s");
    ("trace.tstats.alloc_words_per_event", ratio (g "tstats_words") ev);
    ("core.online_events_per_s", ratio ev (g "online_s"));
    ( "core.walk_heap_mb",
      g "heap_words" *. float_of_int (Sys.word_size / 8) /. 1048576.0 );
    ("core.model.self_ms", ms "core.model");
    ("core.model.keep_ratio", ratio (g "refs_kept") (g "refs_seen"));
    ("trace.encode_events_per_s", ratio ev (g "encode_s"));
    ("trace.decode_events_per_s", ratio ev (g "decode_s"));
    ("core.pipeline.analyze_events_per_s", ratio ev (g "analyze_s"));
    ("core.pipeline.shard_speedup", ratio (g "analyze_s") (g "sharded_s"));
    ("core.pipeline.shards_used", g "shards_used");
    ("verify.events_per_s", ratio ev (g "verify_s"));
    ("verify.refs_proved", g "proved");
    ("spm.candidates_ms", ms "spm.candidates");
    ("spm.optimal_ms", ms "spm.optimal");
    ("spm.greedy_ms", ms "spm.greedy");
    ("spm.stochastic_ms", ms "spm.stochastic");
    ("spm.fused_ms", ms "spm.fused");
    ( "spm.proposals_per_s",
      ratio (g "proposals")
        (Tracer.total t "spm.stochastic" +. Tracer.total t "spm.fused") );
    ("spm.accept_ratio", ratio (g "accepted") (g "proposals"));
  ]
