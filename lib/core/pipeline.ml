module Ast = Minic.Ast
module Interp = Minic_sim.Interp
module Event = Foray_trace.Event
module Tstats = Foray_trace.Tstats
module Tracefile = Foray_trace.Tracefile
module Annotate = Foray_instrument.Annotate
module Obs = Foray_obs.Obs
module Span = Foray_obs.Span

let t_simulate = Obs.timer "pipeline.simulate"
let t_analyze = Obs.timer "pipeline.analyze"
let t_shard_merge = Obs.timer "pipeline.shard_merge"
let m_shards = Obs.counter "pipeline.shards_analyzed"

type result = {
  program : Ast.program;
  instrumented : Ast.program;
  tree : Looptree.t;
  model : Model.t;
  tstats : Tstats.t;
  sim : Interp.result;
  loop_kinds : (int * string) list;
  func_of_loop : int -> string option;
  thresholds : Filter.thresholds;
}

type degradation =
  | Degraded_budget of {
      budget : string;
      limit : int;
      spent : int;
      events_seen : int;
    }
  | Degraded_corrupt of {
      offset : int;
      kind : string;
      salvaged : int;
      resyncs : int;
      bytes_skipped : int;
    }

let degradation_to_string = function
  | Degraded_budget { budget; limit; spent; events_seen } ->
      Printf.sprintf
        "degraded: budget %s exhausted (spent %d of %d); model covers the %d \
         access(es) seen"
        budget spent limit events_seen
  | Degraded_corrupt { offset; kind; salvaged; resyncs; bytes_skipped } ->
      Printf.sprintf
        "degraded: corrupt trace (first damage at byte %d: %s); salvaged %d \
         event(s) across %d resync(s), %d byte(s) skipped"
        offset kind salvaged resyncs bytes_skipped

let degradation_to_json = function
  | Degraded_budget { budget; limit; spent; events_seen } ->
      Printf.sprintf
        "{\"degraded\": \"budget\", \"budget\": \"%s\", \"limit\": %d, \
         \"spent\": %d, \"events_seen\": %d}"
        budget limit spent events_seen
  | Degraded_corrupt { offset; kind; salvaged; resyncs; bytes_skipped } ->
      Printf.sprintf
        "{\"degraded\": \"corrupt\", \"offset\": %d, \"kind\": \"%s\", \
         \"salvaged\": %d, \"resyncs\": %d, \"bytes_skipped\": %d}"
        offset (Error.json_escape kind) salvaged resyncs bytes_skipped

let salvage_degradations (salvage : Tracefile.salvage) =
  if salvage.resyncs = 0 && not salvage.truncated_tail then []
  else
    [
      Degraded_corrupt
        {
          offset =
            (match salvage.first_errors with (off, _) :: _ -> off | [] -> -1);
          kind =
            (match salvage.first_errors with
            | (_, k) :: _ -> k
            | [] -> "unknown");
          salvaged = salvage.events;
          resyncs = salvage.resyncs;
          bytes_skipped = salvage.bytes_skipped;
        };
    ]

let error_of_degradation = function
  | Degraded_budget { budget; limit; spent; _ } ->
      Error.Budget_exceeded { budget; limit; spent }
  | Degraded_corrupt { offset; kind; salvaged; _ } ->
      Error.Trace_corrupt { offset; kind; events_salvaged = salvaged }

let error_of_corruption { Tracefile.offset; kind; events_before } =
  Error.Trace_corrupt { offset; kind; events_salvaged = events_before }

type outcome = { result : result; degraded : degradation list }

let loop_functions (prog : Ast.program) =
  List.concat_map
    (function
      | Ast.Gvar _ -> []
      | Ast.Gfunc f ->
          let acc = ref [] in
          let rec go st =
            if Ast.is_loop st then acc := (st.Ast.sid, f.fname) :: !acc;
            match st.Ast.s with
            | Ast.Sif (_, a, b) ->
                List.iter go a;
                List.iter go b
            | Ast.Sfor (_, _, _, b) | Ast.Swhile (_, b) | Ast.Sdo (b, _)
            | Ast.Sblock b ->
                List.iter go b
            | Ast.Sswitch (_, cases) ->
                List.iter
                  (fun (c : Ast.switch_case) -> List.iter go c.body)
                  cases
            | _ -> ()
          in
          List.iter go f.body;
          List.rev !acc)
    prog.Ast.globals

let finish ~thresholds ~program ~instrumented ~loop_kinds tree tstats sim =
  Looptree.flush_metrics tree;
  let model =
    Span.with_span ~cat:"pipeline" "pipeline.analyze" (fun () ->
        Obs.time t_analyze (fun () ->
            Model.of_tree ~thresholds ~loop_kinds tree))
  in
  (* One table lookup per query instead of a linear scan of the
     association list: hint generation calls [func_of_loop] for every
     loop in the tree. *)
  let funcs = Hashtbl.create 16 in
  List.iter
    (fun (lid, fname) ->
      if not (Hashtbl.mem funcs lid) then Hashtbl.add funcs lid fname)
    (loop_functions program);
  {
    program;
    instrumented;
    tree;
    model;
    tstats;
    sim;
    loop_kinds;
    func_of_loop = (fun lid -> Hashtbl.find_opt funcs lid);
    thresholds;
  }

let sema_error errs =
  let msg =
    String.concat "; "
      (List.map (fun e -> Format.asprintf "%a" Minic.Sema.pp_error e) errs)
  in
  Error.Sema { msg }

let budget_degradations (sim : Interp.result) =
  match sim.Interp.stopped with
  | Interp.Completed -> []
  | Interp.Stopped { budget; limit; spent } ->
      [ Degraded_budget { budget; limit; spent; events_seen = sim.accesses } ]

(* Shard results reduce tree-wise on the pool (log2 rounds of pairwise
   merges — and with arena logs each merge is a pointer splice, not a
   copy); Tstats are a few dozen scalars, so a left fold is free. *)
let merge_parts ~jobs parts =
  let tree, tstats =
    Span.with_span ~cat:"pipeline" "pipeline.shard_merge" (fun () ->
        Obs.time t_shard_merge (fun () ->
            let tree = Looptree.merge_all ~jobs (List.map fst parts) in
            let tstats =
              match List.map snd parts with
              | [] -> Tstats.create ()
              | first :: rest -> List.fold_left Tstats.merge first rest
            in
            (tree, tstats)))
  in
  Span.with_span ~cat:"pipeline" "pipeline.shard_finalize" (fun () ->
      Looptree.finalize ~jobs tree);
  (tree, tstats)

let walker ?mergeable () =
  let tree = Looptree.create ?mergeable () in
  let tstats = Tstats.create () in
  (tree, tstats, Event.tee (Looptree.sink tree) (Tstats.sink tstats))

(* Zero-copy sharding: workers decode their mmap'd frame windows straight
   into the tree sinks — no [Event.event array] is ever built. *)
let analyze_mapped ?(shards = 1) ?jobs m =
  if shards <= 1 || Tracefile.mapped_events m = 0 then begin
    let tree, tstats, sink = walker () in
    Tracefile.iter_mapped m sink;
    (tree, tstats)
  end
  else begin
    (* Never run more domains than the hardware offers, whatever was
       asked for: extra domains only add minor-GC synchronization, they
       cannot add parallelism. *)
    let jobs =
      min
        (Option.value jobs ~default:shards)
        (Foray_util.Parallel.default_jobs ())
    in
    let cuts = Tracefile.frame_shards ~n:shards m in
    let parts =
      Foray_util.Parallel.map ~jobs
        (fun (fs : Tracefile.fshard) ->
          Span.with_span ~cat:"pipeline" "shard.analyze"
            ~args:
              [ ("shard", string_of_int fs.fs_index);
                ("events", string_of_int fs.fs_events) ]
          @@ fun () ->
          let tree, tstats, sink = walker ~mergeable:true () in
          Looptree.restore_context tree fs.fs_context;
          Tracefile.iter_fshard m fs sink;
          (* The first shard is the true trace prefix, so its Algorithm-3
             folds are already on the sequential walker's path — run them
             now, overlapped with the other shards' walks, leaving that
             much less replay after the merge. Later shards must stay raw:
             their folds would start from the wrong prefix and be
             discarded. *)
          if fs.fs_index = 0 then Looptree.finalize tree;
          Obs.incr m_shards;
          (tree, tstats))
        cuts
    in
    merge_parts ~jobs parts
  end

(* Stream [produce]'s events into a temporary FORAYTR2 file, then analyze
   it by frame-index shards. The file is removed on every exit. *)
let via_frames ~shards ?jobs produce =
  let tmp = Filename.temp_file "foray" ".trace2" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let v = Tracefile.with_sink ~format:Tracefile.Binary2 tmp produce in
      let analysis =
        Span.with_span ~cat:"pipeline" "pipeline.replay" (fun () ->
            analyze_mapped ~shards ?jobs (Tracefile.map tmp))
      in
      (v, analysis))

let run ?(config = Interp.default_config) ?(thresholds = Filter.default)
    ?(shards = 1) ?jobs prog =
  match
    Span.with_span ~cat:"pipeline" "pipeline.sema" (fun () ->
        Minic.Sema.check prog)
  with
  | Error errs -> Error (sema_error errs)
  | Ok () -> (
      let instrumented, loop_kinds =
        Span.with_span ~cat:"pipeline" "pipeline.annotate" (fun () ->
            (Annotate.program prog, Annotate.loop_table prog))
      in
      let simulate sink =
        Span.with_span ~cat:"pipeline" "pipeline.simulate" (fun () ->
            Obs.time t_simulate (fun () -> Interp.run ~config instrumented ~sink))
      in
      match
        if shards <= 1 then
          let tree, tstats, sink = walker () in
          (simulate sink, (tree, tstats))
        else via_frames ~shards ?jobs simulate
      with
      | exception Interp.Runtime_error_at { msg; step } ->
          Error (Error.Runtime { loc = "simulate"; step; msg })
      | sim, (tree, tstats) ->
          let result =
            finish ~thresholds ~program:prog ~instrumented ~loop_kinds tree
              tstats sim
          in
          Ok { result; degraded = budget_degradations sim })

let run_source ?config ?thresholds ?shards ?jobs src =
  match
    Span.with_span ~cat:"pipeline" "pipeline.parse" (fun () ->
        Minic.Parser.program src)
  with
  | exception Minic.Parser.Error (msg, line) -> Error (Error.Parse { msg; line })
  | exception Minic.Lexer.Error (msg, line) -> Error (Error.Parse { msg; line })
  | prog -> run ?config ?thresholds ?shards ?jobs prog

(* Analyze a trace file end to end, picking the fastest correct path: a
   FORAYTR2 file goes through the mapped reader (and its frame-index
   sharder); anything else — or a v2 file whose frames turn out damaged —
   streams through the salvaging reader, into one walker or, for several
   shards, into a fresh FORAYTR2 file cut by its frame index. Both
   fallbacks build fresh trees, so events a failing mapped pass already
   delivered are never double-counted. *)
let analyze_trace ?(strict = false) ?(shards = 1) ?jobs path =
  let streamed () =
    let read, analysis =
      if shards <= 1 then
        let tree, tstats, sink = walker () in
        (Tracefile.read ~strict path sink, (tree, tstats))
      else via_frames ~shards ?jobs (Tracefile.read ~strict path)
    in
    Result.map (fun salvage -> (analysis, salvage)) read
  in
  if Tracefile.sniff path = Some Tracefile.Binary2 then
    match
      let m = Tracefile.map path in
      (analyze_mapped ~shards ?jobs m, Tracefile.mapped_events m)
    with
    | r, n -> Ok (r, Tracefile.clean_salvage n)
    | exception Tracefile.Corrupt _ -> streamed ()
  else streamed ()

let hints r = Hints.duplication_hints ~func_of_loop:r.func_of_loop r.tree

(* Every config field that can change the extracted model is folded into
   the key; [deadline_ms] is deliberately left out because it is a
   wall-clock bound, not a model parameter — two runs that both complete
   under different deadlines produce identical models, and degraded
   (budget-stopped) results must never be cached anyway. *)
let model_key ?(config = Interp.default_config)
    ?(thresholds = Filter.default) src =
  let descr =
    Printf.sprintf
      "scalars=%b steps=%d events=%s seed=%d nexec=%d nloc=%d"
      config.Interp.trace_scalars config.Interp.max_steps
      (match config.Interp.max_trace_events with
      | Some n -> string_of_int n
      | None -> "-")
      config.Interp.rand_seed thresholds.Filter.nexec thresholds.Filter.nloc
  in
  Digest.to_hex (Digest.string src) ^ ":" ^ Digest.to_hex (Digest.string descr)
