(* The paper's two-stage workflow with a stored trace, plus model
   verification:

   1. simulate the gsm benchmark, streaming the trace to a binary file
      (the simulator never holds the trace in memory);
   2. re-read the file and run Algorithms 2+3 over it;
   3. check the result matches the online (no-file) analysis;
   4. replay the trace against the model: prediction fidelity and
      per-reference verdicts;
   5. compare cache vs SPM energy for the same trace's array traffic.

   Run with: dune exec examples/trace_workflow.exe *)

(* Stream a stored trace into [sink], stopping at the first damage. *)
let read_strict path sink =
  match Foray_trace.Tracefile.read ~strict:true path sink with
  | Ok _ -> ()
  | Error c ->
      prerr_endline (Foray_core.Error.to_string (Foray_core.Pipeline.error_of_corruption c));
      exit 1

let banner title =
  Printf.printf "\n=== %s %s\n" title (String.make (60 - String.length title) '=')

let () =
  let bench = Option.get (Foray_suite.Suite.find "gsm") in
  let prog = Minic.Parser.program bench.source in
  Minic.Sema.check_exn prog;
  let instrumented = Foray_instrument.Annotate.program prog in
  let path = Filename.temp_file "gsm" ".trace" in

  banner "Stage 1: simulate, streaming the trace to disk";
  let file_sink, close =
    Foray_trace.Tracefile.sink_to_file ~format:Foray_trace.Tracefile.Binary
      path
  in
  let events = ref 0 in
  let sink e = incr events; file_sink e in
  let sim = Minic_sim.Interp.run instrumented ~sink in
  close ();
  let size =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    close_in ic;
    n
  in
  Printf.printf "simulated %d statements, wrote %d events (%d bytes, %.1f B/event)\n"
    sim.steps !events size
    (float_of_int size /. float_of_int !events);

  banner "Stage 2: analyze the stored trace";
  let tree = Foray_core.Looptree.create () in
  read_strict path (Foray_core.Looptree.sink tree);
  let loop_kinds = Foray_instrument.Annotate.loop_table prog in
  let model = Foray_core.Model.of_tree ~loop_kinds tree in
  Printf.printf "model: %d loops, %d references\n"
    (Foray_core.Model.n_loops model)
    (Foray_core.Model.n_refs model);

  banner "Stage 2b: the same analysis, sharded 4 ways across domains";
  (* A v1 file has no frame index: analyze_trace streams it into a
     temporary FORAYTR2 file and cuts that. *)
  let (sharded_tree, _), _salvage =
    match Foray_core.Pipeline.analyze_trace ~shards:4 path with
    | Ok x -> x
    | Error _ -> assert false (* salvage mode always returns Ok *)
  in
  let sharded_model = Foray_core.Model.of_tree ~loop_kinds sharded_tree in
  Printf.printf "4-shard model identical to the sequential one: %b\n"
    (Foray_core.Model.to_c sharded_model = Foray_core.Model.to_c model);

  banner "Stage 3: agreement with the online analysis";
  let online =
    match Foray_core.Pipeline.run prog with
    | Ok o -> o.Foray_core.Pipeline.result
    | Error e ->
        prerr_endline (Foray_core.Error.to_string e);
        exit (Foray_core.Error.exit_code e)
  in
  Printf.printf "identical models: %b\n"
    (Foray_core.Model.to_c online.model = Foray_core.Model.to_c model);

  banner "Stage 4: model fidelity (replay the trace against the model)";
  let vsink, finish = Foray_verify.Verify.sink model in
  read_strict path vsink;
  let rep = finish () in
  Printf.printf
    "covered %d accesses (%.1f%% of all), accuracy %.2f%%, %d/%d references \
     proved\n"
    rep.covered
    (100.0 *. float_of_int rep.covered
    /. float_of_int (rep.covered + rep.uncovered))
    (100.0 *. Foray_verify.Verify.accuracy rep)
    (Foray_verify.Verify.proved rep)
    (List.length rep.refs);

  banner "Stage 5: cache vs SPM on this workload (2 KiB)";
  let cmp = Foray_report.Memcompare.run bench ~capacity:2048 in
  Printf.printf
    "all-main %.0f nJ | cache %.0f nJ (%.0f%% hits) | SPM+buffers %.0f nJ\n"
    cmp.main_energy cmp.cache_energy
    (100.0 *. cmp.cache_hit_rate)
    cmp.spm_energy;
  Sys.remove path
