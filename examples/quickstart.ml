(* Quickstart: the complete FORAY-GEN flow on the paper's Figure 4 example.

   Reproduces, in order: the original program (Figure 4(a)), the
   checkpoint-annotated program (Figure 4(b)), the head of the profile
   trace (Figure 4(c)) and the extracted FORAY model (Figure 4(d)) with its
   [1*i_inner + 103*i_outer] index expression.

   Run with: dune exec examples/quickstart.exe *)

let banner title =
  Printf.printf "\n=== %s %s\n" title (String.make (60 - String.length title) '=')

(* The typed pipeline API returns failures as values; a demo's error
   policy is to print the error and exit with its documented code. *)
let or_die = function
  | Ok v -> v
  | Error e ->
      prerr_endline (Foray_core.Error.to_string e);
      exit (Foray_core.Error.exit_code e)

let () =
  let src = Foray_suite.Figures.fig4a in
  banner "Original program (Figure 4a)";
  print_string src;

  let prog = Minic.Parser.program src in
  Minic.Sema.check_exn prog;

  banner "Annotated program (Figure 4b)";
  print_string (Minic.Pretty.program (Foray_instrument.Annotate.program prog));

  banner "Profile trace, first 24 records (Figure 4c)";
  let records = ref 0 in
  let sink e =
    if !records < 24 then print_endline (Foray_trace.Event.to_line e);
    incr records
  in
  ignore
    (Minic_sim.Interp.run (Foray_instrument.Annotate.program prog) ~sink);
  Printf.printf "... (%d records total)\n" !records;

  banner "FORAY model (Figure 4d)";
  (* The example is tiny, so relax the paper's Nexec=20/Nloc=10 thresholds
     that target real workloads. *)
  let thresholds = Foray_core.Filter.{ nexec = 2; nloc = 2 } in
  let r =
    (or_die (Foray_core.Pipeline.run_source ~thresholds src))
      .Foray_core.Pipeline.result
  in
  print_string (Foray_core.Model.to_c r.model);

  banner "What the static baseline sees";
  let static = Foray_static.Baseline.analyze prog in
  Printf.printf
    "canonical for loops: %d of %d; statically analyzable references: %d\n"
    (List.length static.canonical_loops)
    (List.length static.total_loops)
    (List.length static.analyzable_refs);
  Printf.printf
    "FORAY-GEN recovered %d reference(s) the static analysis cannot see.\n"
    (Foray_core.Model.n_refs r.model
    - List.length static.analyzable_refs)
