(* foraygen: command-line front end to the FORAY-GEN flow.

   Subcommands:
     list      - benchmarks and figure programs available by name
     extract   - run the pipeline, print the FORAY model (and hints)
     annotate  - print the checkpoint-instrumented program (Figure 4(b))
     trace     - print, save, convert or import the profile trace (Fig 4(c))
     tables    - print Tables I / II / III and the headline comparison
     spm       - reuse candidates, DSE sweep and transformed model
     verify    - per-reference model-replay verdicts with counterexamples
     metrics   - run the full flow with counters on, print/check them
     explain   - per-reference Algorithm-3 inference timelines
     serve     - forayd: concurrent analysis daemon with a model cache
     top       - live dashboard over a running forayd's metrics op

   Exit codes follow the documented contract (README "Exit and error
   codes"): 0 success, 3 success-but-degraded, 10-15 the typed taxonomy
   of Foray_core.Error, anything else cmdliner usage errors. *)

open Cmdliner
module Obs = Foray_obs.Obs
module Span = Foray_obs.Span
module Ferr = Foray_core.Error

let load_source = Foray_suite.Suite.load

(* Exit code for runs that finished but lost something (budget stop,
   salvaged trace): distinct from both success and the error taxonomy so
   scripts can branch on it. *)
let exit_degraded = 3

let fail_error ?(json = false) e =
  if json then prerr_endline (Ferr.to_json e)
  else Printf.eprintf "foraygen: %s\n" (Ferr.to_string e);
  Ferr.exit_code e

(* Run a subcommand body; exceptions the taxonomy recognizes become the
   documented exit codes instead of cmdliner's generic 125 backtrace. *)
let guard ?json f =
  match Ferr.catch f with Ok code -> code | Error e -> fail_error ?json e

(* Map the shortfalls of an otherwise successful run onto the exit-code
   contract: nothing lost -> 0; degraded -> notes on stderr and exit 3;
   degraded under --strict -> the corresponding typed error. *)
let finish_degraded ?(strict = false) ?(json = false) degraded =
  match degraded with
  | [] -> 0
  | d :: _ when strict ->
      fail_error ~json (Foray_core.Pipeline.error_of_degradation d)
  | ds ->
      List.iter
        (fun d ->
          if json then
            prerr_endline (Foray_core.Pipeline.degradation_to_json d)
          else
            Printf.eprintf "foraygen: %s\n"
              (Foray_core.Pipeline.degradation_to_string d))
        ds;
      exit_degraded

(* A positional PROGRAM argument may actually be a stored trace file, of
   any format: then the verbs run Steps 3-4 offline on the file. *)
let is_trace path = Foray_trace.Tracefile.sniff path <> None

let prog_arg =
  let doc =
    "Program to analyze: a benchmark name (jpeg, lame, susan, fft, gsm, \
     adpcm), a figure name (fig1, fig4a, fig7a, fig7b, fig9) or a MiniC \
     file path."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let nexec_arg =
  let doc = "Step 4 threshold: minimum executions of a reference." in
  Arg.(value & opt int 20 & info [ "nexec" ] ~doc)

let nloc_arg =
  let doc = "Step 4 threshold: minimum distinct locations of a reference." in
  Arg.(value & opt int 10 & info [ "nloc" ] ~doc)

let scalars_arg =
  let doc = "Trace named scalar accesses too (default true)." in
  Arg.(value & opt bool true & info [ "trace-scalars" ] ~doc)

let jobs_arg =
  let doc =
    "Run independent pipeline runs on $(docv) domains (default: the \
     recommended domain count; 1 = serial). Output is identical for any \
     value."
  in
  Arg.(
    value
    & opt int (Foray_util.Parallel.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let shards_arg =
  let doc =
    "Cut the trace into $(docv) checkpoint-aligned shards and analyze \
     them in parallel on a domain pool, merging the per-shard state. The \
     cuts come from a FORAYTR2 frame index: a program, or a text or v1 \
     trace, is first streamed into a temporary FORAYTR2 file. The printed \
     model is byte-identical to a sequential analysis for any shard \
     count."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let shard_jobs_arg =
  let doc =
    "Domains for sharded analysis (default: the shard count). Capped at \
     the machine's recommended domain count whatever the value, since \
     extra domains only slow the analysis down. Only meaningful together \
     with $(b,--shards)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let metrics_arg =
  let doc =
    "Collect internal counters during the run and write them as JSON to \
     $(docv). FORAY_OBS=1 in the environment enables collection without a \
     dump file; this flag takes precedence for where the dump goes."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Record hierarchical spans during the run and write them to $(docv): \
     Chrome trace-event JSON (load in Perfetto or chrome://tracing), or \
     folded flamegraph stacks when $(docv) ends in .folded. \
     FORAY_TRACE=FILE in the environment does the same for the whole \
     process; this flag takes precedence and resets the span ring first."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

(* Enable span tracing around [f] and export the ring to [path] afterwards,
   even when [f] raises — a crashed run keeps the timeline that led up to
   the crash. Mirrors [with_metrics] below. *)
let with_tracing path f =
  match path with
  | None -> f ()
  | Some path ->
      Span.reset ();
      Span.set_enabled true;
      let finish () =
        Span.set_enabled false;
        Span.write path;
        Printf.eprintf "trace written to %s (%d span(s), %d dropped)\n%!"
          path (Span.recorded ()) (Span.dropped ())
      in
      Fun.protect ~finally:finish f

(* Enable observability collection around [f] and dump the registry to
   [path] afterwards — even if [f] raises, so a crashed run still leaves
   its partial counters behind for inspection. *)
let with_metrics path f =
  match path with
  | None -> f ()
  | Some path ->
      Obs.reset ();
      Obs.set_enabled true;
      let finish () =
        Obs.set_enabled false;
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc (Obs.to_json ());
            output_char oc '\n');
        Printf.eprintf "metrics written to %s\n%!" path
      in
      Fun.protect ~finally:finish f

let strict_arg =
  let doc =
    "Fail fast with a typed error instead of degrading: corrupt trace \
     records become E_TRACE_CORRUPT and exhausted budgets become E_BUDGET, \
     rather than a partial model with exit code 3."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let json_errors_arg =
  let doc =
    "Print errors and degradation notes as one-line JSON objects on stderr."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let max_steps_arg =
  let doc =
    "Statement budget for the simulation; exhausting it stops the run \
     cleanly and the model covers the prefix seen (exit 3)."
  in
  Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc = "Wall-clock budget for the simulation, in milliseconds." in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let max_events_arg =
  let doc = "Budget on trace events emitted (accesses plus checkpoints)." in
  Arg.(
    value & opt (some int) None & info [ "max-trace-events" ] ~docv:"N" ~doc)

let config_of ?max_steps ?deadline_ms ?max_trace_events scalars =
  let d = Minic_sim.Interp.default_config in
  {
    d with
    trace_scalars = scalars;
    max_steps = Option.value max_steps ~default:d.Minic_sim.Interp.max_steps;
    deadline_ms;
    max_trace_events;
  }

(* Simulate a named program into a fresh FORAYTR2 trace file and hand the
   path to [k]; the temporary is removed afterwards. Exercises the whole
   write+read trace path rather than an in-memory sink. *)
let with_simulated_trace ~scalars src k =
  let p = Minic.Parser.program src in
  Minic.Sema.check_exn p;
  let instrumented = Foray_instrument.Annotate.program p in
  let tmp = Filename.temp_file "foraygen" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Foray_trace.Tracefile.with_sink ~format:Foray_trace.Tracefile.Binary2 tmp
        (fun sink ->
          ignore
            (Minic_sim.Interp.run ~config:(config_of scalars) instrumented
               ~sink));
      k tmp)

let run_pipeline src ~nexec ~nloc ~scalars =
  let thresholds = Foray_core.Filter.{ nexec; nloc } in
  match
    Foray_core.Pipeline.run_source ~config:(config_of scalars) ~thresholds src
  with
  | Ok o -> o.Foray_core.Pipeline.result
  | Error e -> Ferr.raise_error e

(* Steps 3-4 on a stored trace file: salvages damaged records by default,
   [strict] turns the first corrupt record into E_TRACE_CORRUPT. With
   [shards > 1] the stream is analyzed in parallel and merged — same
   model, bit for bit. FORAYTR2 files take the zero-copy mapped path
   (Pipeline.analyze_trace decides). *)
let model_of_trace_file ~strict ~nexec ~nloc ?(shards = 1) ?jobs path =
  Result.map
    (fun ((tree, _tstats), salvage) ->
      Foray_core.Looptree.flush_metrics tree;
      let thresholds = Foray_core.Filter.{ nexec; nloc } in
      (Foray_core.Model.of_tree ~thresholds tree, salvage))
    (Foray_core.Pipeline.analyze_trace ~strict ~shards ?jobs path)

let analyze_trace_file ~strict ~json ~nexec ~nloc ?shards ?jobs path =
  match model_of_trace_file ~strict ~nexec ~nloc ?shards ?jobs path with
  | Error c -> fail_error ~json (Foray_core.Pipeline.error_of_corruption c)
  | Ok (model, salvage) ->
      print_string (Foray_core.Model.to_c model);
      finish_degraded ~json (Foray_core.Pipeline.salvage_degradations salvage)

(* ---- list ----------------------------------------------------------- *)

let list_cmd =
  let run () =
    print_endline "benchmarks:";
    List.iter
      (fun (b : Foray_suite.Suite.bench) ->
        Printf.printf "  %-7s %4d lines  %s\n" b.name
          (Foray_suite.Suite.lines b) b.description)
      Foray_suite.Suite.all;
    print_endline "figures:";
    List.iter
      (fun (n, _) -> Printf.printf "  %s\n" n)
      Foray_suite.Figures.all;
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List available benchmarks and figure programs")
    Term.(const run $ const ())

(* ---- extract -------------------------------------------------------- *)

let extract_cmd =
  let run prog nexec nloc scalars show_hints metrics trace_out strict json
      max_steps deadline_ms max_events shards jobs =
    guard ~json (fun () ->
        if is_trace prog then
          (* A stored trace: skip simulation and run Steps 3-4 offline,
             salvaging damaged records unless --strict. *)
          with_tracing trace_out (fun () ->
              with_metrics metrics (fun () ->
                  analyze_trace_file ~strict ~json ~nexec ~nloc ~shards ?jobs
                    prog))
        else
          match load_source prog with
          | Error e -> fail_error ~json e
          | Ok src ->
              with_tracing trace_out (fun () ->
                  with_metrics metrics (fun () ->
                      let thresholds = Foray_core.Filter.{ nexec; nloc } in
                      let config =
                        config_of ?max_steps ?deadline_ms
                          ?max_trace_events:max_events scalars
                      in
                      (* --shards: simulate into a temporary FORAYTR2
                         file and analyze it in parallel instead of
                         online. *)
                      match
                        Foray_core.Pipeline.run_source ~config ~thresholds
                          ~shards ?jobs src
                      with
                      | Error e -> fail_error ~json e
                      | Ok { result = r; degraded } when strict && degraded <> []
                        ->
                          ignore r;
                          finish_degraded ~strict ~json degraded
                      | Ok { result = r; degraded } ->
                          print_string (Foray_core.Model.to_c r.model);
                          if show_hints then begin
                            print_newline ();
                            print_string
                              (Foray_core.Hints.to_string
                                 (Foray_core.Pipeline.hints r))
                          end;
                          finish_degraded ~json degraded)))
  in
  let hints_arg =
    Arg.(value & flag & info [ "hints" ] ~doc:"Also print duplication hints.")
  in
  Cmd.v
    (Cmd.info "extract"
       ~doc:"Run FORAY-GEN and print the extracted FORAY model")
    Term.(
      const run $ prog_arg $ nexec_arg $ nloc_arg $ scalars_arg $ hints_arg
      $ metrics_arg $ trace_out_arg $ strict_arg $ json_errors_arg
      $ max_steps_arg $ deadline_arg $ max_events_arg $ shards_arg
      $ shard_jobs_arg)

(* ---- annotate ------------------------------------------------------- *)

let annotate_cmd =
  let run prog =
    guard (fun () ->
        match load_source prog with
        | Error e -> fail_error e
        | Ok src ->
            let p = Minic.Parser.program src in
            print_string
              (Minic.Pretty.program (Foray_instrument.Annotate.program p));
            0)
  in
  Cmd.v
    (Cmd.info "annotate"
       ~doc:"Print the checkpoint-annotated program (Step 1)")
    Term.(const run $ prog_arg)

(* ---- trace ---------------------------------------------------------- *)

let trace_cmd =
  (* Convert an existing trace file to [target] format: read (salvaging if
     damaged), rewrite, report. The v1 -> v2 upgrade path. *)
  let convert_file ~src ~dst ~target =
    if not (Sys.file_exists src) then begin
      Printf.eprintf "foraygen trace --convert: no such trace file: %s\n" src;
      2
    end
    else
    match
      Foray_trace.Tracefile.with_sink ~format:target dst
        (Foray_trace.Tracefile.read src)
    with
    | Error c -> fail_error (Foray_core.Pipeline.error_of_corruption c)
    | Ok salvage ->
        Printf.printf "converted %d event(s): %s -> %s\n"
          salvage.Foray_trace.Tracefile.events src dst;
        finish_degraded (Foray_core.Pipeline.salvage_degradations salvage)
  in
  (* Import a foreign simulator log (the paper's plain "site addr kind"
     lines) into the pipeline's event stream: rewrite it at --out in
     --format, or print the normalized text form. Malformed lines are
     resynchronization points unless --strict. *)
  let import_file ~strict ~src ~out ~format ~limit =
    if not (Sys.file_exists src) then begin
      Printf.eprintf "foraygen trace --import: no such log file: %s\n" src;
      2
    end
    else
      match Foray_trace.Import.read ~strict src with
      | Error c -> fail_error (Foray_core.Pipeline.error_of_corruption c)
      | Ok (events, salvage) ->
          (match out with
          | Some dst ->
              Foray_trace.Tracefile.with_sink ~format dst (fun sink ->
                  Array.iter sink events);
              Printf.printf "imported %d event(s): %s -> %s\n"
                (Array.length events) src dst
          | None ->
              Array.iteri
                (fun i e ->
                  if i < limit then
                    print_endline (Foray_trace.Event.to_line e))
                events;
              if Array.length events > limit then
                Printf.printf "... (truncated at %d events)\n" limit);
          finish_degraded (Foray_core.Pipeline.salvage_degradations salvage)
  in
  (* Print the first [limit] events a sink receives; [finish] marks a
     listing that left events out. *)
  let printer limit =
    let seen = ref 0 in
    let sink e =
      if !seen < limit then print_endline (Foray_trace.Event.to_line e);
      incr seen
    in
    let finish () =
      if !seen > limit then
        Printf.printf "... (truncated at %d events)\n" limit
    in
    (sink, finish)
  in
  (* List a stored trace's events, salvaging if damaged (unless
     --strict) and reporting the damage as --convert does. *)
  let print_file ~strict ~src ~limit =
    let sink, finish = printer limit in
    match Foray_trace.Tracefile.read ~strict src sink with
    | Error c -> fail_error (Foray_core.Pipeline.error_of_corruption c)
    | Ok salvage ->
        finish ();
        finish_degraded (Foray_core.Pipeline.salvage_degradations salvage)
  in
  let run prog limit scalars out format convert import strict metrics =
    guard (fun () ->
        if import then import_file ~strict ~src:prog ~out ~format ~limit
        else if convert = None && is_trace prog then
          print_file ~strict ~src:prog ~limit
        else
        match convert with
        | Some target -> (
            match out with
            | None ->
                prerr_endline
                  "foraygen trace --convert needs --out FILE for the converted \
                   trace";
                2
            | Some dst -> convert_file ~src:prog ~dst ~target)
        | None -> (
        match load_source prog with
        | Error e -> fail_error e
        | Ok src ->
            with_metrics metrics (fun () ->
            let p = Minic.Parser.program src in
            Minic.Sema.check_exn p;
            let instrumented = Foray_instrument.Annotate.program p in
            match out with
            | Some path ->
                let n = ref 0 in
                Foray_trace.Tracefile.with_sink ~format path (fun sink ->
                    let sink e = incr n; sink e in
                    ignore
                      (Minic_sim.Interp.run ~config:(config_of scalars)
                         instrumented ~sink));
                Printf.printf "wrote %d events to %s\n" !n path;
                0
            | None ->
                let sink, finish = printer limit in
                ignore
                  (Minic_sim.Interp.run ~config:(config_of scalars)
                     instrumented ~sink);
                finish ();
                0)))
  in
  let limit_arg =
    Arg.(value & opt int 200 & info [ "limit" ] ~doc:"Maximum events to print.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~doc:"Write the full trace to this file instead.")
  in
  let format_conv =
    Arg.enum
      [
        ("text", Foray_trace.Tracefile.Text);
        ("binary", Foray_trace.Tracefile.Binary);
        ("v1", Foray_trace.Tracefile.Binary);
        ("v2", Foray_trace.Tracefile.Binary2);
        ("binary2", Foray_trace.Tracefile.Binary2);
      ]
  in
  let format_arg =
    Arg.(
      value
      & opt format_conv Foray_trace.Tracefile.Text
      & info [ "format" ]
          ~doc:"Trace file format: text, binary (alias v1) or v2.")
  in
  let convert_arg =
    Arg.(
      value
      & opt (some format_conv) None
      & info [ "convert" ] ~docv:"FORMAT"
          ~doc:
            "Treat PROGRAM as an existing trace file and rewrite it to \
             $(docv) (text, binary/v1 or v2) at --out; damaged records are \
             salvaged and reported.")
  in
  let import_arg =
    Arg.(
      value & flag
      & info [ "import" ]
          ~doc:
            "Treat PROGRAM as a foreign simulator log — one access per \
             line, $(i,site addr kind) in hex with optional width and \
             $(i,sys), checkpoint lines as $(i,loop ckind) — and convert \
             it to the pipeline's event stream at --out (in --format) or \
             to stdout. Malformed lines are resynchronization points \
             unless $(b,--strict).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print, save, convert or import the profile trace (Step 2)")
    Term.(
      const run $ prog_arg $ limit_arg $ scalars_arg $ out_arg $ format_arg
      $ convert_arg $ import_arg $ strict_arg $ metrics_arg)

(* ---- analyze (trace file -> model) ---------------------------------- *)

let analyze_cmd =
  let run target nexec nloc scalars metrics trace_out strict json shards jobs =
    guard ~json (fun () ->
        with_tracing trace_out (fun () ->
            with_metrics metrics (fun () ->
                if Sys.file_exists target then
                  analyze_trace_file ~strict ~json ~nexec ~nloc ~shards ?jobs
                    target
                else
                  match load_source target with
                  | Error e -> fail_error ~json e
                  | Ok src ->
                      (* A benchmark or figure name: simulate it to a temporary
                         binary trace first, then analyze that file. *)
                      with_simulated_trace ~scalars src (fun tmp ->
                          analyze_trace_file ~strict ~json ~nexec ~nloc ~shards
                            ?jobs tmp))))
  in
  let path_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:
            "Trace file (text or binary, auto-detected), or a \
             benchmark/figure name to simulate and analyze in one go. \
             Damaged records are salvaged by resynchronization unless \
             $(b,--strict).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run Steps 3-4 on a stored trace file and print the model")
    Term.(
      const run $ path_arg $ nexec_arg $ nloc_arg $ scalars_arg $ metrics_arg
      $ trace_out_arg $ strict_arg $ json_errors_arg $ shards_arg
      $ shard_jobs_arg)

(* ---- tree ------------------------------------------------------------ *)

let tree_cmd =
  let run prog show_all =
    guard (fun () ->
        match load_source prog with
        | Error e -> fail_error e
        | Ok src -> (
            match Foray_core.Pipeline.run_source src with
            | Error e -> fail_error e
            | Ok { result = r; degraded } ->
                print_string
                  (Foray_core.Treedump.render ~loop_kinds:r.loop_kinds
                     ~show_all r.tree);
                finish_degraded degraded))
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Include scalar references (hidden by default).")
  in
  Cmd.v
    (Cmd.info "tree"
       ~doc:"Print the reconstructed dynamic loop tree (Algorithm 2)")
    Term.(const run $ prog_arg $ all_arg)

(* ---- verify ----------------------------------------------------------- *)

module Verify = Foray_verify.Verify

(* Deliberately damage the extracted model before replay: add DELTA to
   the first reference's innermost coefficient (or to its constant term
   when no iterator survived). The verifier must then refute the model
   with a faithful counterexample — EXPERIMENTS.md walks through one. *)
let perturb_model delta (m : Foray_core.Model.t) =
  let hit = ref false in
  let mref (r : Foray_core.Model.mref) =
    if !hit then r
    else begin
      hit := true;
      match r.terms with
      | (c, lid) :: rest -> { r with terms = (c + delta, lid) :: rest }
      | [] -> { r with const = r.const + delta }
    end
  in
  let rec mloop (l : Foray_core.Model.mloop) =
    {
      l with
      Foray_core.Model.refs = List.map mref l.refs;
      subs = List.map mloop l.subs;
    }
  in
  { m with Foray_core.Model.loops = List.map mloop m.loops }

let verify_cmd =
  let run prog nexec nloc scalars shards jobs strict json perturb =
    guard ~json (fun () ->
        let thresholds = Foray_core.Filter.{ nexec; nloc } in
        (* Render the verdicts and map them onto the exit contract:
           0 all proved, 1 any divergence (printed counterexample),
           3 proved-but-degraded. *)
        let edit =
          match perturb with None -> Fun.id | Some d -> perturb_model d
        in
        let finish ?(degraded = []) rep =
          if json then print_endline (Verify.report_to_json rep)
          else print_string (Verify.report_to_string rep);
          if Verify.diverged rep > 0 then begin
            (match Verify.first_divergence rep with
            | Some (rv, cx) when not json ->
                Printf.eprintf "foraygen verify: %s diverges: %s\n"
                  (Foray_core.Model.array_name rv.Verify.mref.site)
                  (Verify.counterexample_to_string cx)
            | _ -> ());
            1
          end
          else finish_degraded ~strict ~json degraded
        in
        if is_trace prog then
          (* A stored trace: extract the model from it, then replay the
             same stream against the model. *)
          match
            Foray_core.Pipeline.analyze_trace ~strict ~shards ?jobs prog
          with
          | Error c ->
              fail_error ~json (Foray_core.Pipeline.error_of_corruption c)
          | Ok ((tree, _), salvage) ->
              (* replay the same salvaged stream, straight off the file *)
              let sink, report =
                Verify.sink (edit (Foray_core.Model.of_tree ~thresholds tree))
              in
              ignore (Foray_trace.Tracefile.read prog sink);
              finish
                ~degraded:(Foray_core.Pipeline.salvage_degradations salvage)
                (report ())
        else
          match load_source prog with
          | Error e -> fail_error ~json e
          | Ok src -> (
              (* extract online, then replay one more simulation *)
              match
                Verify.of_source ~config:(config_of scalars) ~thresholds
                  ~shards ?jobs ~edit src
              with
              | Error e -> fail_error ~json e
              | Ok (o, rep) -> finish ~degraded:o.Foray_core.Pipeline.degraded rep))
  in
  let perturb_arg =
    let doc =
      "Add $(docv) to the first reference's innermost coefficient (or its \
       constant term when it has none) before replaying — a deliberately \
       damaged model, to demonstrate the counterexample machinery."
    in
    Arg.(value & opt (some int) None & info [ "perturb" ] ~docv:"DELTA" ~doc)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Replay the extracted model against the recorded access stream \
          and render a verdict per reference: proved, or diverges with \
          the first-divergence counterexample (loop context, iteration \
          vector, predicted vs actual address). Exit 0 when every \
          reference proves, 1 on any divergence, 3 proved-but-degraded.")
    Term.(
      const run $ prog_arg $ nexec_arg $ nloc_arg $ scalars_arg $ shards_arg
      $ shard_jobs_arg $ strict_arg $ json_errors_arg $ perturb_arg)

(* ---- stability --------------------------------------------------------- *)

let stability_cmd =
  let run prog seeds jobs =
    guard (fun () ->
        match load_source prog with
        | Error e -> fail_error e
        | Ok src ->
            let prog = Minic.Parser.program src in
            let rep = Foray_core.Stability.study ~jobs ~seeds prog in
            print_string (Foray_core.Stability.to_string rep);
            0)
  in
  let seeds_arg =
    Arg.(
      value
      & opt (list int) [ 1; 42; 1337 ]
      & info [ "seeds" ] ~doc:"Input seeds to profile with (comma separated).")
  in
  Cmd.v
    (Cmd.info "stability"
       ~doc:
         "Compare models extracted under different profiling inputs \
          (the paper's future-work study)")
    Term.(const run $ prog_arg $ seeds_arg $ jobs_arg)

(* ---- compare ----------------------------------------------------------- *)

let compare_cmd =
  let run capacity jobs =
    let results =
      Foray_util.Parallel.map ~jobs
        (fun b -> Foray_report.Memcompare.run b ~capacity)
        Foray_suite.Suite.all
    in
    print_string (Foray_report.Memcompare.table ~capacity results);
    0
  in
  let cap_arg =
    Arg.(
      value & opt int 2048
      & info [ "capacity" ] ~doc:"On-chip capacity in bytes.")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Cache vs SPM-with-FORAY-buffers energy over the suite")
    Term.(const run $ cap_arg $ jobs_arg)

(* ---- tables --------------------------------------------------------- *)

let tables_cmd =
  let run nexec nloc jobs =
    let thresholds = Foray_core.Filter.{ nexec; nloc } in
    let reports = Foray_report.Report.report_all ~thresholds ~jobs () in
    print_string (Foray_report.Report.table1 reports);
    print_newline ();
    print_string (Foray_report.Report.table2 reports);
    print_newline ();
    print_string (Foray_report.Report.table3 reports);
    print_newline ();
    print_string (Foray_report.Report.headline reports);
    0
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Reproduce the paper's Tables I-III over the benchmark suite")
    Term.(const run $ nexec_arg $ nloc_arg $ jobs_arg)

(* ---- spm ------------------------------------------------------------ *)

let spm_cmd =
  let run prog nexec nloc size sizes transformed fuse strategy seed budget
      deadline_ms restarts explore_fusion jobs =
    guard (fun () ->
        match load_source prog with
        | Error e -> fail_error e
        | Ok src ->
        let r = run_pipeline src ~nexec ~nloc ~scalars:true in
        let cfg =
          {
            Foray_spm.Stochastic.default_config with
            seed;
            budget;
            deadline_ms;
            restarts;
            jobs = max 1 jobs;
          }
        in
        let strat =
          match strategy with
          | `Optimal -> Foray_spm.Dse.Optimal
          | `Greedy -> Foray_spm.Dse.Greedy
          | `Stochastic -> Foray_spm.Dse.Stochastic cfg
        in
        if explore_fusion && strategy <> `Stochastic then begin
          prerr_endline
            "foraygen: --explore-fusion searches the joint fusion space, \
             which only --strategy stochastic can; rerun with it";
          2
        end
        else begin
          let sweep_sizes =
            match (size, sizes) with
            | Some s, _ -> [ s ]
            | None, Some l -> l
            | None, None -> Foray_spm.Dse.default_sizes
          in
          let report_search s (sol : Foray_spm.Dse.solution) =
            Option.iter
              (fun st ->
                Format.eprintf "[%dB] %a" s Foray_spm.Stochastic.pp_stats st)
              sol.search
          in
          if explore_fusion then begin
            List.iter
              (fun s ->
                let sol =
                  Foray_spm.Dse.solve_fused r.model ~spm_bytes:s cfg
                in
                Format.printf "%a@." Foray_spm.Dse.pp_selection sol.selection;
                report_search s sol)
              sweep_sizes;
            0
          end
          else begin
            let cands = Foray_spm.Reuse.candidates ~fuse r.model in
            Printf.printf "%d buffer candidate(s)\n" (List.length cands);
            List.iter
              (fun c -> Format.printf "  %a@." Foray_spm.Reuse.pp c)
              cands;
            (* with the stochastic strategy the ensemble owns the pool;
               otherwise parallelize across sweep sizes *)
            let size_jobs =
              match strat with Foray_spm.Dse.Stochastic _ -> 1 | _ -> jobs
            in
            let sols =
              Foray_util.Parallel.map ~jobs:size_jobs
                (fun s ->
                  (s, Foray_spm.Dse.solve ~strategy:strat cands ~spm_bytes:s))
                sweep_sizes
            in
            List.iter
              (fun (s, (sol : Foray_spm.Dse.solution)) ->
                Format.printf "%a@." Foray_spm.Dse.pp_selection sol.selection;
                report_search s sol)
              sols;
            (match (size, transformed, sols) with
            | Some _, true, [ (_, sol) ] ->
                if fuse then
                  prerr_endline
                    "--transformed requires unfused buffers; rerun without \
                     --fuse"
                else print_string (Foray_spm.Transform.apply r.model sol.selection)
            | _ -> ());
            0
          end
        end)
  in
  let size_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "size" ] ~doc:"SPM size in bytes (default: sweep --sizes).")
  in
  let sizes_arg =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "sizes" ] ~docv:"LIST"
          ~doc:
            "Comma-separated SPM sweep sizes in bytes (default: 256,512,...,\
             16384).")
  in
  let transformed_arg =
    Arg.(
      value & flag
      & info [ "transformed" ]
          ~doc:"Print the buffer-transformed FORAY model (needs --size).")
  in
  let fuse_arg =
    Arg.(
      value & flag
      & info [ "fuse" ]
          ~doc:"Fuse same-stride overlapping references into shared buffers.")
  in
  let strategy_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("optimal", `Optimal);
               ("greedy", `Greedy);
               ("stochastic", `Stochastic);
             ])
          `Optimal
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Selection strategy: $(b,optimal) (exhaustive grouped knapsack), \
             $(b,greedy) (benefit density) or $(b,stochastic) (simulated \
             annealing; see --seed, --budget-proposals, --deadline-ms, \
             --restarts).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~doc:"PRNG seed for the stochastic strategy.")
  in
  let budget_arg =
    Arg.(
      value & opt int 20_000
      & info [ "budget-proposals" ]
          ~doc:"Total proposals for the stochastic ensemble.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ]
          ~doc:
            "Anytime cutoff for the stochastic search in milliseconds \
             (returns the best placement found so far).")
  in
  let restarts_arg =
    Arg.(
      value & opt int 4
      & info [ "restarts" ]
          ~doc:"Independent annealing chains in the stochastic ensemble.")
  in
  let explore_fusion_arg =
    Arg.(
      value & flag
      & info [ "explore-fusion" ]
          ~doc:
            "Search the joint fusion x placement space (every fusable \
             reference run may independently share one buffer); requires \
             --strategy stochastic — the configuration count is exponential \
             in the fusable runs, beyond exhaustive enumeration.")
  in
  Cmd.v
    (Cmd.info "spm"
       ~doc:"Phase II: SPM reuse analysis and design-space exploration")
    Term.(
      const run $ prog_arg $ nexec_arg $ nloc_arg $ size_arg $ sizes_arg
      $ transformed_arg $ fuse_arg $ strategy_arg $ seed_arg $ budget_arg
      $ deadline_arg $ restarts_arg $ explore_fusion_arg $ jobs_arg)

(* ---- metrics -------------------------------------------------------- *)

let metrics_cmd =
  let run prog nexec nloc scalars out check verbose openmetrics =
    if verbose then begin
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Info)
    end;
    guard (fun () ->
        match load_source prog with
        | Error e -> fail_error e
        | Ok src ->
        Obs.reset ();
        Obs.set_enabled true;
        (* the path [analyze <program>] takes, model printing aside *)
        with_simulated_trace ~scalars src (fun tmp ->
            match model_of_trace_file ~strict:false ~nexec ~nloc tmp with
            | Ok _ -> ()
            | Error c ->
                Ferr.raise_error (Foray_core.Pipeline.error_of_corruption c));
        Obs.set_enabled false;
        if openmetrics then print_string (Obs.to_openmetrics ())
        else print_string (Obs.to_table ());
        (match out with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                output_string oc (Obs.to_json ());
                output_char oc '\n');
            Printf.eprintf "metrics written to %s\n%!" path);
        if check then begin
          (* The counters every healthy end-to-end run must move. *)
          let required =
            [ "interp.steps"; "interp.accesses"; "trace.events_written";
              "trace.events_read"; "looptree.nodes"; "infer.refs_seen" ]
          in
          let missing =
            List.filter
              (fun name ->
                match Obs.value name with
                | Some v -> v <= 0
                | None -> true)
              required
          in
          if missing = [] then 0
          else begin
            Printf.eprintf "metrics check FAILED; missing or zero: %s\n"
              (String.concat ", " missing);
            1
          end
        end
        else 0)
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Also write the metrics as JSON to $(docv).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit non-zero unless every pipeline stage reported activity \
             (simulation, trace I/O, loop tree, inference).")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Print structured observability events to stderr.")
  in
  let openmetrics_arg =
    Arg.(
      value & flag
      & info [ "openmetrics" ]
          ~doc:
            "Print the registry in the Prometheus/OpenMetrics text \
             exposition format instead of the human-readable table.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run the full simulate-trace-analyze flow with counters enabled \
          and report them")
    Term.(
      const run $ prog_arg $ nexec_arg $ nloc_arg $ scalars_arg $ out_arg
      $ check_arg $ verbose_arg $ openmetrics_arg)

(* ---- explain -------------------------------------------------------- *)

let explain_cmd =
  let run prog nexec nloc ref_site json =
    guard (fun () ->
        match load_source prog with
        | Error e -> fail_error e
        | Ok src -> (
        let site =
          match ref_site with
          | None -> Ok None
          | Some s -> (
              let s =
                if String.length s > 2 && String.sub s 0 2 = "0x" then s
                else "0x" ^ s
              in
              match int_of_string_opt s with
              | Some n -> Ok (Some n)
              | None -> Error s)
        in
        match site with
        | Error s ->
            Printf.eprintf "not a hex site id: %s\n" s;
            1
        | Ok site ->
            let thresholds = Foray_core.Filter.{ nexec; nloc } in
            let t = Foray_report.Explain.run_source ~name:prog ~thresholds src in
            if json then print_endline (Foray_report.Explain.to_json ?site t)
            else print_string (Foray_report.Explain.render ?site t);
            0))
  in
  let ref_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ref" ] ~docv:"SITE"
          ~doc:
            "Restrict to one reference by its hex site id (as shown in the \
             model's array names, e.g. 4002a0).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Narrate Algorithm 3 per reference: how each coefficient was \
          solved, every misprediction and demotion, and the Step-4 verdict")
    Term.(
      const run $ prog_arg $ nexec_arg $ nloc_arg $ ref_arg $ json_arg)

(* ---- serve ----------------------------------------------------------- *)

module Serve = Foray_serve.Serve
module Sjson = Foray_serve.Json

let default_socket () =
  Filename.concat (Filename.get_temp_dir_name ()) "forayd.sock"

(* Counter value out of a [metrics] response. *)
let wire_counter resp name =
  match Sjson.member "metrics" resp with
  | Some m -> (
      match Sjson.member "counters" m with
      | Some c -> (
          match Sjson.member name c with Some (Sjson.Int i) -> i | _ -> 0)
      | None -> 0)
  | None -> 0

(* ---- top: live daemon dashboard -------------------------------------- *)

let jnum = function
  | Some (Sjson.Int i) -> float_of_int i
  | Some (Sjson.Float f) -> f
  | _ -> 0.0

let jint v = int_of_float (jnum v)

let window_stat j w name =
  jnum
    (Option.bind
       (Option.bind (Sjson.member "window" j) (Sjson.member w))
       (Sjson.member name))

let wire_gauge resp name =
  match Sjson.member "metrics" resp with
  | Some m -> (
      match Sjson.member "gauges" m with
      | Some g -> (
          match Sjson.member name g with Some (Sjson.Int i) -> i | _ -> 0)
      | None -> 0)
  | None -> 0

(* One metrics snapshot over the wire: raw response line (what
   [--json] prints) plus its parsed form. *)
let top_snapshot c =
  let raw = Serve.Client.request c "{\"op\": \"metrics\"}" in
  match Sjson.parse raw with
  | Ok j -> (raw, j)
  | Error msg -> failwith ("top: bad metrics response: " ^ msg)

let render_top j =
  let b = Buffer.create 1024 in
  let tm = Unix.localtime (Unix.gettimeofday ()) in
  Printf.bprintf b "\027[1mforayd top\027[0m  %02d:%02d:%02d\n\n"
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec;
  Printf.bprintf b "  \027[1m%-8s %9s %9s %9s %7s %7s\027[0m\n" "window"
    "rps" "p50 ms" "p99 ms" "hit%" "err%";
  List.iter
    (fun w ->
      Printf.bprintf b "  %-8s %9.1f %9d %9d %6.1f%% %6.1f%%\n" w
        (window_stat j w "rps")
        (jint
           (Option.bind
              (Option.bind (Sjson.member "window" j) (Sjson.member w))
              (Sjson.member "p50_ms")))
        (jint
           (Option.bind
              (Option.bind (Sjson.member "window" j) (Sjson.member w))
              (Sjson.member "p99_ms")))
        (100.0 *. window_stat j w "hit_rate")
        (100.0 *. window_stat j w "error_rate"))
    [ "10s"; "60s"; "300s" ];
  Printf.bprintf b
    "\n  cache: %d hits / %d misses lifetime, %d entries, %d KiB\n"
    (wire_counter j "serve.cache.hits")
    (wire_counter j "serve.cache.misses")
    (wire_gauge j "serve.cache.entries")
    (wire_gauge j "serve.cache.bytes" / 1024);
  Printf.bprintf b
    "  pool: %d busy, %d queued   conns: %d   gc: %d major kwords, %d \
     compactions\n"
    (wire_gauge j "serve.pool.busy")
    (wire_gauge j "serve.pool.pending")
    (wire_gauge j "serve.connections.active")
    (wire_gauge j "runtime.gc.major_words" / 1000)
    (wire_gauge j "runtime.gc.compactions");
  (match Sjson.member "slow" j with
  | Some (Sjson.Arr (_ :: _ as slow)) ->
      Printf.bprintf b "\n  \027[1mlast slow requests\027[0m\n";
      List.iter
        (fun e ->
          Printf.bprintf b "  rid %-6d %-10s %8.1f ms\n"
            (jint (Sjson.member "rid" e))
            (match Sjson.member "op" e with Some (Sjson.Str s) -> s | _ -> "?")
            (jnum (Sjson.member "ms" e)))
        slow
  | _ -> ());
  Buffer.contents b

let run_top ~socket ~interval ~once ~json =
  let c = Serve.Client.connect socket in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () ->
      let rec loop () =
        let raw, j = top_snapshot c in
        if json then print_endline raw
        else begin
          if not once then print_string "\027[2J\027[H";
          print_string (render_top j);
          flush stdout
        end;
        if once then 0
        else begin
          Unix.sleepf interval;
          loop ()
        end
      in
      loop ())

let serve_cmd =
  let run socket jobs cache_mb max_steps_cap access_log slow_ms json =
    guard ~json (fun () ->
        let socket = Option.value socket ~default:(default_socket ()) in
        let base = Serve.default_config ~socket_path:socket in
        let srv =
          Serve.start
            {
              base with
              Serve.jobs = (if jobs > 0 then jobs else base.Serve.jobs);
              cache_bytes = cache_mb * 1024 * 1024;
              max_steps_cap;
              access_log;
              slow_ms;
            }
        in
        Printf.eprintf "forayd: listening on %s\n%!" socket;
        Serve.wait srv;
        0)
  in
  let socket_arg =
    let doc =
      "Unix-domain socket to listen on (default: forayd.sock under the \
       temp directory). A stale socket file is replaced."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let jobs_arg =
    let doc = "Worker domains of the analysis pool (0 = one per core)." in
    Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let cache_mb_arg =
    let doc = "Model cache bound in MiB; 0 disables caching." in
    Arg.(value & opt int 64 & info [ "cache-mb" ] ~docv:"MB" ~doc)
  in
  let cap_arg =
    let doc = "Server-side ceiling clamped onto every request's max_steps." in
    Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N" ~doc)
  in
  let access_log_arg =
    let doc =
      "Append one JSON line per request (ts, rid, op, digest, cache \
       hit/miss, degradations, latency) to $(docv)."
    in
    Arg.(
      value & opt (some string) None & info [ "access-log" ] ~docv:"FILE" ~doc)
  in
  let slow_ms_arg =
    let doc =
      "Slow-request threshold: requests at or over $(docv) milliseconds \
       log their full span breakdown to the access log and appear in the \
       metrics op's slow list (and foraygen top)."
    in
    Arg.(value & opt (some int) None & info [ "slow-ms" ] ~docv:"MS" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run forayd: a daemon answering analyze/extract/spm/verify/metrics \
          requests over a Unix-domain socket (newline-delimited JSON), with \
          an LRU model cache and the documented E_* error taxonomy on the wire.")
    Term.(
      const run $ socket_arg $ jobs_arg $ cache_mb_arg $ cap_arg
      $ access_log_arg $ slow_ms_arg $ json_errors_arg)

let top_cmd =
  let run socket interval once json =
    guard (fun () ->
        let socket = Option.value socket ~default:(default_socket ()) in
        run_top ~socket ~interval ~once ~json)
  in
  let socket_arg =
    let doc = "Socket of the daemon to watch (default: forayd.sock)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let interval_arg =
    let doc = "Seconds between polls." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECS" ~doc)
  in
  let once_arg =
    let doc = "Print one snapshot and exit instead of refreshing." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let json_arg =
    let doc =
      "Print the raw metrics response (JSON, one line per poll) instead \
       of the ANSI view — for scripting, usually with $(b,--once)."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard for a running forayd: polls the daemon's metrics \
          op and renders sliding-window rps/p50/p99/hit-rate, pool and GC \
          gauges and the last slow requests.")
    Term.(const run $ socket_arg $ interval_arg $ once_arg $ json_arg)

(* ---- main ----------------------------------------------------------- *)

let () =
  Span.setup_env ();
  let doc =
    "FORAY-GEN: profile-based extraction of affine memory models \
     (reproduction of Issenin & Dutt, DATE 2005)"
  in
  let info = Cmd.info "foraygen" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; extract_cmd; annotate_cmd; trace_cmd; analyze_cmd;
            tree_cmd; verify_cmd; stability_cmd; compare_cmd;
            tables_cmd; spm_cmd; metrics_cmd; explain_cmd; serve_cmd; top_cmd ]))
