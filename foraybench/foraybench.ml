(* foraybench: the end-to-end benchmark of FORAY-GEN.

   One workload, one process:
     foraybench --workload W --seed N --seconds S --trace 0|1 [--chrome F]
   prints every metric as "workload metric value unit", a "meta" line, and
   as its last line the JSON result {"correct", "attempted", "failed",
   "metrics"}. --trace 0 measures the end-to-end metrics; --trace 1 runs
   the separate decomposed run and reports the per-layer metrics (and
   writes its Chrome trace to F).

   All workloads, each in its own process so peak RSS is per workload:
     foraybench [--seed N] [--seconds S] [--trace 0|1] --out run.json
   Comparing two sets of such runs:
     foraybench compare A/*.json B/*.json [--benchmark BENCHMARK.json]
   The generator-and-checks smoke run (dune build @foraybench-smoke):
     foraybench smoke --benchmark BENCHMARK.json
   Regenerating the golden files under expected/:
     foraybench golden *)

let json_escape = Foray_core.Error.json_escape
let starts_with prefix s = String.starts_with ~prefix s

let read_trimmed path =
  try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with Sys_error _ -> None

(* The commit of the checkout, read from .git when there is one. *)
let commit () =
  match read_trimmed ".git/HEAD" with
  | Some head when starts_with "ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read_trimmed (Filename.concat ".git" ref_) with
      | Some c -> c
      | None ->
          Option.bind (read_trimmed ".git/packed-refs") (fun packed ->
              List.find_map
                (fun l ->
                  match String.split_on_char ' ' l with
                  | [ c; r ] when r = ref_ -> Some c
                  | _ -> None)
                (String.split_on_char '\n' packed))
          |> Option.value ~default:"unknown")
  | Some c -> c
  | None -> "unknown"

let metric_json (m : Metrics.metric) v =
  Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.name v m.unit_

let samples_json samples =
  String.concat ", "
    (List.map (fun (k, n) -> Printf.sprintf "\"%s\": %d" k n) samples)

(* Print one workload's result; returns whether it is correct. *)
let emit ~workload ~(cfg : Work.config) ~trace ~wall (o : Work.outcome) =
  let catalogue = if trace then Metrics.per_layer else Metrics.end_to_end in
  let missing = ref 0 in
  let values =
    List.map
      (fun (m : Metrics.metric) ->
        match List.assoc_opt m.name o.values with
        | Some v when Float.is_finite v -> (m, v)
        | _ ->
            Printf.eprintf "%s: metric %s was not measured\n%!" workload m.name;
            incr missing;
            (m, 0.0))
      catalogue
  in
  List.iter (fun n -> Printf.printf "# %s\n" n) o.notes;
  List.iter
    (fun ((m : Metrics.metric), v) ->
      Printf.printf "%s %s %.6g %s\n" workload m.name v m.unit_)
    values;
  let failed = o.failed + !missing in
  let correct = failed = 0 && o.attempted > 0 in
  Printf.printf
    "meta {\"workload\": \"%s\", \"seed\": %d, \"seconds\": %g, \"trace\": %d, \
     \"nproc\": %d, \"ocaml\": \"%s\", \"commit\": \"%s\", \"wall_s\": %.3f, \
     \"samples\": {%s}}\n"
    workload cfg.seed cfg.seconds (Bool.to_int trace) (Meter.nproc ())
    Sys.ocaml_version
    (json_escape (commit ()))
    wall (samples_json o.samples);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 o.attempted) failed
    (String.concat ", " (List.map (fun (m, v) -> metric_json m v) values));
  correct

let run_workload ~workload ~cfg ~trace =
  match List.assoc_opt workload Workloads.all with
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" workload
        (String.concat ", " (List.map fst Workloads.all));
      2
  | Some (run, traced) ->
      let o, wall =
        Meter.time (fun () -> if trace then traced cfg else run cfg)
      in
      if emit ~workload ~cfg ~trace ~wall o then 0 else 1

(* One workload in a child process: its output lines and whether it
   exited cleanly. *)
let child (cfg : Work.config) ~trace w =
  let args =
    [|
      Sys.executable_name; "--workload"; w; "--seed"; string_of_int cfg.seed;
      "--seconds"; Printf.sprintf "%g" cfg.seconds; "--trace";
      (if trace then "1" else "0");
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let lines =
    In_channel.input_all ic |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (lines, status = Unix.WEXITED 0)

(* All workloads, one child process each; the run JSON gathers each
   child's meta line and result. *)
let run_all ~(cfg : Work.config) ~trace ~out =
  let results =
    List.map
      (fun (w, _) ->
        let lines, ok = child cfg ~trace w in
        List.iter print_endline lines;
        let meta =
          List.find_map
            (fun l ->
              if starts_with "meta " l then
                Some (String.sub l 5 (String.length l - 5))
              else None)
            lines
        in
        let last = match List.rev lines with l :: _ -> l | [] -> "null" in
        (w, Option.value meta ~default:"null", last, ok))
      Workloads.all
  in
  let field f =
    String.concat ",\n    "
      (List.map
         (fun ((w, _, _, _) as r) -> Printf.sprintf "\"%s\": %s" w (f r))
         results)
  in
  Out_channel.with_open_bin out (fun oc ->
      Printf.fprintf oc
        "{\"meta\": {\"seed\": %d, \"seconds\": %g, \"trace\": %d, \"nproc\": \
         %d, \"ocaml\": \"%s\", \"commit\": \"%s\", \"workloads\": {\n    %s}},\n \
         \"workloads\": {\n    %s}}\n"
        cfg.seed cfg.seconds (Bool.to_int trace) (Meter.nproc ())
        Sys.ocaml_version
        (json_escape (commit ()))
        (field (fun (_, meta, _, _) -> meta))
        (field (fun (_, _, last, _) -> last)));
  if List.for_all (fun (_, _, _, ok) -> ok) results then 0 else 1

(* Golden values for expected/: printed, with a check that the models
   listed as seed-independent really are. *)
let golden () =
  let model ?config src =
    match Foray_core.Pipeline.run_source ?config src with
    | Ok o -> o.result.model
    | Error e -> failwith (Foray_core.Error.to_string e)
  in
  let source name = (Option.get (Foray_suite.Suite.find name)).source in
  print_endline "== expected/models.txt";
  List.iter
    (fun name ->
      let text seed =
        Foray_core.Model.to_c (model ~config:(W_extract.config seed) (source name))
      in
      if text 1 <> text 2 then failwith (name ^ ": model depends on the seed");
      Printf.printf "%s %s\n" name (Check.model_digest (text 1)))
    Check.seed_independent;
  print_endline "== expected/spm_optimal.txt";
  List.iter
    (fun (name, src) ->
      List.iter2
        (fun size s -> Printf.printf "%s@%d %s\n" name size s)
        Foray_spm.Dse.default_sizes
        (Check.optimal_savings (model src)))
    (W_spm.sources { Work.seed = 0; seconds = 0.0; small = false; chrome = None });
  0

let usage () =
  prerr_endline
    "usage: foraybench --workload W --seed N --seconds S --trace 0|1 [--chrome \
     FILE]\n\
    \       foraybench [--seed N] [--seconds S] [--trace 0|1] --out run.json\n\
    \       foraybench compare A/*.json B/*.json [--benchmark BENCHMARK.json]\n\
    \       foraybench smoke [--benchmark BENCHMARK.json]\n\
    \       foraybench golden";
  2

let run_options args =
  let known =
    [ "--workload"; "--seed"; "--seconds"; "--trace"; "--chrome"; "--out" ]
  in
  let rec opts acc = function
    | k :: v :: rest when List.mem k known -> opts ((k, v) :: acc) rest
    | [] -> Some acc
    | _ -> None
  in
  match opts [] args with
  | None -> usage ()
  | Some o -> (
      let get k d = Option.value (List.assoc_opt k o) ~default:d in
      match
        ( int_of_string_opt (get "--seed" "1"),
          float_of_string_opt (get "--seconds" "20"),
          get "--trace" "0" )
      with
      | Some seed, Some seconds, (("0" | "1") as t) -> (
          let cfg =
            {
              Work.seed;
              seconds;
              small = false;
              chrome = List.assoc_opt "--chrome" o;
            }
          in
          let trace = t = "1" in
          match (List.assoc_opt "--workload" o, List.assoc_opt "--out" o) with
          | Some workload, None -> run_workload ~workload ~cfg ~trace
          | None, Some out -> run_all ~cfg ~trace ~out
          | _ -> usage ())
      | _ -> usage ())

let () =
  (* exit through at_exit on SIGTERM/SIGINT, so a forked daemon is killed
     and reaped and the run directory removed; a write to a daemon that
     died is an EPIPE error on that request, not the end of the run *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | "compare" :: rest ->
        let rec split files bench = function
          | "--benchmark" :: b :: rest -> split files b rest
          | f :: rest -> split (f :: files) bench rest
          | [] -> (List.rev files, bench)
        in
        let files, benchmark = split [] "BENCHMARK.json" rest in
        Compare.run ~benchmark files
    | [ "golden" ] -> golden ()
    | [ "smoke" ] -> Smoke.run ~benchmark:"BENCHMARK.json"
    | [ "smoke"; "--benchmark"; benchmark ] -> Smoke.run ~benchmark
    | [ "smoke-one"; w; kind; "--benchmark"; benchmark ] ->
        Smoke.one ~benchmark w kind
    | args -> run_options args
  in
  exit code
