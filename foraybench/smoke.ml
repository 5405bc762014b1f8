(* `foraybench smoke`: every workload's generator and output checks on one
   small input, untimed, plus a traced run of each whose Chrome trace must
   validate; and BENCHMARK.json must declare exactly the metric catalogue
   (names, units, directions), so every name a run prints is declared.

   Each (workload, run or traced) pair runs in a child process of its
   own: a process that has started domains may no longer fork the daemon. *)

let fail = ref 0

let expect ok fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") msg;
      if not ok then incr fail)
    fmt

let declared benchmark =
  List.map (fun (_, name, _, _) -> name) (Compare.declared benchmark)

let check_catalogue benchmark =
  let decls = Compare.declared benchmark in
  let against section catalogue =
    let declared = List.filter (fun (s, _, _, _) -> s = section) decls in
    expect
      (List.length declared = List.length catalogue)
      "%s: %d declared, %d measured" section (List.length declared)
      (List.length catalogue);
    List.iter
      (fun (m : Metrics.metric) ->
        expect
          (List.exists
             (fun (_, name, unit_, (d : Compare.decl)) ->
               name = m.name && unit_ = m.unit_ && d.better = m.better)
             declared)
          "%s %s (%s, %s) declared" section m.name m.unit_
          (Metrics.better_name m.better))
      catalogue
  in
  against "end_to_end" Metrics.end_to_end;
  against "per_layer" Metrics.per_layer

(* One workload, one kind, in this process. *)
let one ~benchmark w kind =
  let declared = declared benchmark in
  let run, traced = List.assoc w Workloads.all in
  let cfg = { Work.seed = 1; seconds = 0.0; small = true; chrome = None } in
  let check catalogue (o : Work.outcome) =
    expect (o.attempted > 0 && o.failed = 0) "%s %s: %d ops, %d failed" w kind
      o.attempted o.failed;
    List.iter
      (fun (m : Metrics.metric) ->
        expect (List.mem_assoc m.name o.values) "%s %s measures %s" w kind m.name)
      catalogue;
    List.iter
      (fun (name, _) ->
        expect (List.mem name declared) "%s %s: %s is declared" w kind name)
      o.values
  in
  (if kind = "run" then check Metrics.end_to_end (run cfg)
   else
     let chrome = Meter.run_file (w ^ ".chrome.json") in
     check Metrics.per_layer (traced { cfg with chrome = Some chrome });
     expect
       (Result.is_ok (Foray_obs.Span.validate_chrome_file chrome))
       "%s chrome trace validates" w);
  if !fail = 0 then 0 else 1

let run ~benchmark =
  check_catalogue benchmark;
  List.iter
    (fun (w, _) ->
      List.iter
        (fun kind ->
          flush stdout;
          let pid =
            Unix.create_process Sys.executable_name
              [|
                Sys.executable_name; "smoke-one"; w; kind; "--benchmark"; benchmark;
              |]
              Unix.stdin Unix.stdout Unix.stderr
          in
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> expect false "%s %s exited with an error" w kind)
        [ "run"; "traced" ])
    Workloads.all;
  print_endline (if !fail = 0 then "smoke: all checks passed" else "smoke: FAILED");
  if !fail = 0 then 0 else 1
