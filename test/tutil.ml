(* Shared helpers for tests exercising the typed pipeline API: unwrap
   the [result]-returning entry points, failing the test with the typed
   error's rendering when a run that must succeed does not. *)

module Pipeline = Foray_core.Pipeline
module Interp = Minic_sim.Interp

let fail_error e =
  Alcotest.failf "pipeline error: %s" (Foray_core.Error.to_string e)

let ok_result = function
  | Ok (o : Pipeline.outcome) -> o.result
  | Error e -> fail_error e

let run ?config ?thresholds prog =
  ok_result (Pipeline.run ?config ?thresholds prog)

let run_source ?config ?thresholds src =
  ok_result (Pipeline.run_source ?config ?thresholds src)

(* Full outcome (with degradation records), still asserting no error. *)
let run_outcome ?config ?thresholds prog =
  match Pipeline.run ?config ?thresholds prog with
  | Ok o -> o
  | Error e -> fail_error e

(* Simulate an instrumented program and keep the whole run as a list:
   the materialized trace the product never builds, kept here as the
   reference the streaming paths are compared against. *)
let run_to_trace ?(config = Interp.default_config) prog =
  let sink, get = Foray_trace.Event.collector () in
  let res = Interp.run ~config prog ~sink in
  (res, get ())

(* A whole stored trace through the strict reader: its events in order,
   or the first damage. *)
let read_strict path =
  let sink, get = Foray_trace.Event.collector () in
  Result.map (fun _ -> get ()) (Foray_trace.Tracefile.read ~strict:true path sink)

let load path =
  match read_strict path with
  | Ok events -> events
  | Error c ->
      Alcotest.failf "%s: corrupt at byte %d: %s" path
        c.Foray_trace.Tracefile.offset c.kind

(* Offline analysis: simulate to a stored trace, then replay the trace
   through a fresh walker — sequentially, or through a FORAYTR2 file cut
   into [shards] frame-index shards when [shards > 1]. The online ==
   offline and seq == sharded differentials compare against this. *)
let run_offline ?config ?(thresholds = Foray_core.Filter.default)
    ?(shards = 1) ?jobs prog =
  (match Minic.Sema.check prog with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "run_offline: program fails Sema");
  let instrumented = Foray_instrument.Annotate.program prog in
  let loop_kinds = Foray_instrument.Annotate.loop_table prog in
  let sim, trace =
    match run_to_trace ?config instrumented with
    | r -> r
    | exception Interp.Runtime_error_at { msg; step } ->
        fail_error (Foray_core.Error.Runtime { loc = "simulate"; step; msg })
  in
  let tree, tstats =
    if shards <= 1 then begin
      let tree = Foray_core.Looptree.create () in
      let tstats = Foray_trace.Tstats.create () in
      List.iter
        (Foray_trace.Event.tee
           (Foray_core.Looptree.sink tree)
           (Foray_trace.Tstats.sink tstats))
        trace;
      (tree, tstats)
    end
    else begin
      let path = Filename.temp_file "tutil" ".trace2" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Foray_trace.Tracefile.save ~frame_events:64
            ~format:Foray_trace.Tracefile.Binary2 path trace;
          Pipeline.analyze_mapped ~shards ?jobs
            (Foray_trace.Tracefile.map path))
    end
  in
  let funcs = Pipeline.loop_functions prog in
  let result =
    {
      Pipeline.program = prog;
      instrumented;
      tree;
      model = Foray_core.Model.of_tree ~thresholds ~loop_kinds tree;
      tstats;
      sim;
      loop_kinds;
      func_of_loop = (fun lid -> List.assoc_opt lid funcs);
      thresholds;
    }
  in
  (result, trace)

(* The [parallel.tasks{domain="i"}] indices that ran at least one task
   since the last [Obs.reset]. *)
let domains_used () =
  Foray_obs.Obs.values ~prefix:"parallel.tasks{" ()
  |> List.filter_map (fun (k, v) ->
         if v > 0 then Scanf.sscanf_opt k "parallel.tasks{domain=%S}" int_of_string_opt
           |> Option.join
         else None)

(* No domain index may reach the hardware count: an explicit [jobs] above
   it is capped. *)
let check_domains_capped what =
  let cap = Foray_util.Parallel.default_jobs () in
  let used = domains_used () in
  if cap > 1 && used = [] then Alcotest.failf "%s: no parallel tasks ran" what;
  List.iter
    (fun d ->
      if d >= cap then
        Alcotest.failf "%s: domain %d ran, but the machine offers %d" what d
          cap)
    used
