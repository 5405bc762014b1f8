(* Span tracing tests: nesting and export shape of the Chrome trace JSON,
   folded-stack output, ring-buffer overwrite semantics, the disabled fast
   path, multi-domain tracks, and the validator's rejection cases. *)

module Span = Foray_obs.Span

(* Every test owns the global span ring for its duration. *)
let scoped f () =
  Span.reset ();
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.set_capacity Span.default_capacity)
    f

let contains hay needle =
  let n = String.length needle and hs = String.length hay in
  let rec go i = i + n <= hs && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let t_chrome_golden () =
  (* nested with_span calls must export as a valid, well-nested trace *)
  Span.with_span "outer" (fun () ->
      Span.with_span ~cat:"x" "inner_a" (fun () -> ());
      Span.with_span ~cat:"x" ~args:[ ("k", "v\"quoted\"") ] "inner_b"
        (fun () -> Span.instant "mark"));
  Alcotest.(check int) "four spans recorded" 4 (Span.recorded ());
  let js = Span.to_chrome_json () in
  (match Span.validate_chrome js with
  | Ok n ->
      (* 4 events + process_name + thread_name metadata *)
      Alcotest.(check bool) "at least 6 events" true (n >= 6)
  | Error e -> Alcotest.fail ("export did not validate: " ^ e));
  Alcotest.(check bool) "names exported" true
    (contains js "\"outer\"" && contains js "\"inner_a\"");
  Alcotest.(check bool) "args escaped" true (contains js "v\\\"quoted\\\"");
  Alcotest.(check bool) "instant phase present" true (contains js "\"ph\": \"i\"")

let t_leave_out_of_order () =
  (* leaving a parent before a child must still export a laminar trace:
     the child interval is clamped inside what the stack recorded *)
  let a = Span.enter "a" in
  let b = Span.enter "b" in
  Span.leave a;
  Span.leave b;
  match Span.validate_chrome (Span.to_chrome_json ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("not laminar: " ^ e)

let t_ring_drops_oldest () =
  Span.set_capacity 8;
  Span.set_enabled true;
  for i = 0 to 19 do
    Span.with_span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "ring holds capacity" 8 (Span.recorded ());
  Alcotest.(check int) "overflow counted" 12 (Span.dropped ());
  let js = Span.to_chrome_json () in
  Alcotest.(check bool) "oldest overwritten" false (contains js "\"s0\"");
  Alcotest.(check bool) "newest kept" true (contains js "\"s19\"");
  match Span.validate_chrome js with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("wrapped ring not valid: " ^ e)

let t_disabled_is_noop () =
  Span.set_enabled false;
  let s = Span.enter "off" in
  Span.leave s;
  Span.with_span "off2" (fun () -> ());
  Span.instant "off3";
  Alcotest.(check int) "nothing recorded" 0 (Span.recorded ());
  Alcotest.(check bool) "enter returns the null token" true (s == Span.null)

(* folded-stack lines are dropped below one self-microsecond, so give the
   span a measurable body *)
let spin () =
  for _ = 1 to 500_000 do
    ignore (Sys.opaque_identity ())
  done

let t_folded_stacks () =
  Span.with_span "root" (fun () -> Span.with_span "leaf" spin);
  let folded = Span.to_folded () in
  Alcotest.(check bool) "nested stack line" true
    (contains folded "domain0;root;leaf ");
  (* every line is "stack <int>" *)
  String.split_on_char '\n' folded
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match String.rindex_opt line ' ' with
         | None -> Alcotest.fail ("no value on line: " ^ line)
         | Some i ->
             let v = String.sub line (i + 1) (String.length line - i - 1) in
             Alcotest.(check bool) ("integer value on " ^ line) true
               (int_of_string_opt v <> None))

let t_multi_domain_tracks () =
  (* spans from a spawned domain land on their own track *)
  Span.with_span "main_side" (fun () ->
      let d =
        Domain.spawn (fun () ->
            Span.with_span "worker_side" (fun () -> ());
            (Domain.self () :> int))
      in
      ignore (Domain.join d));
  let js = Span.to_chrome_json () in
  (match Span.validate_chrome js with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("two-track export invalid: " ^ e));
  Alcotest.(check bool) "both spans exported" true
    (contains js "\"main_side\"" && contains js "\"worker_side\"")

let t_validator_rejects () =
  let bad = [ "", "empty"; "{", "truncated"; "[1, 2]", "not an object";
              "{\"traceEvents\": 3}", "traceEvents not an array";
              "{\"traceEvents\": [{\"ph\": \"X\"}]}", "event without name" ] in
  List.iter
    (fun (s, what) ->
      match Span.validate_chrome s with
      | Ok _ -> Alcotest.fail ("accepted " ^ what)
      | Error _ -> ())
    bad;
  (* overlapping (non-nested) spans on one track must be rejected *)
  let overlap =
    {|{"traceEvents": [
        {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0, "pid": 1, "tid": 0},
        {"name": "b", "ph": "X", "ts": 5.0, "dur": 10.0, "pid": 1, "tid": 0}]}|}
  in
  match Span.validate_chrome overlap with
  | Ok _ -> Alcotest.fail "accepted overlapping spans"
  | Error e ->
      Alcotest.(check bool) "mentions the overlap" true (contains e "overlap")

let t_write_formats () =
  Span.with_span "w" spin;
  let json_path = Filename.temp_file "foray_span" ".json" in
  let folded_path = Filename.temp_file "foray_span" ".folded" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ json_path; folded_path ])
    (fun () ->
      Span.write json_path;
      Span.write folded_path;
      (match Span.validate_chrome_file json_path with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("written file invalid: " ^ e));
      let read p = In_channel.with_open_bin p In_channel.input_all in
      Alcotest.(check bool) "folded file has the stack" true
        (contains (read folded_path) "domain0;w "))

let t_pipeline_spans () =
  (* a full pipeline run records the stage spans, nested and valid, and
     the file [Span.write] makes of it (as [--trace-out] does) validates *)
  ignore
    (Tutil.run_source
       ~thresholds:Foray_core.Filter.{ nexec = 2; nloc = 2 }
       Foray_suite.Figures.fig4a);
  let js = Span.to_chrome_json () in
  List.iter
    (fun stage ->
      Alcotest.(check bool) (stage ^ " present") true
        (contains js ("\"" ^ stage ^ "\"")))
    [ "pipeline.sema"; "pipeline.annotate"; "pipeline.simulate";
      "pipeline.analyze"; "interp.run"; "interp.resolve" ];
  Alcotest.(check bool) "loop spans present" true (contains js "\"loop");
  (match Span.validate_chrome js with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("pipeline trace invalid: " ^ e));
  let path = Filename.temp_file "foray_pipeline" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Span.write path;
      match Span.validate_chrome_file path with
      | Ok n -> Alcotest.(check bool) "written trace has events" true (n > 0)
      | Error e -> Alcotest.fail ("written pipeline trace invalid: " ^ e))

let tests =
  [
    Alcotest.test_case "chrome export golden" `Quick (scoped t_chrome_golden);
    Alcotest.test_case "out-of-order leave stays laminar" `Quick
      (scoped t_leave_out_of_order);
    Alcotest.test_case "ring drops oldest" `Quick (scoped t_ring_drops_oldest);
    Alcotest.test_case "disabled is no-op" `Quick (scoped t_disabled_is_noop);
    Alcotest.test_case "folded stacks" `Quick (scoped t_folded_stacks);
    Alcotest.test_case "multi-domain tracks" `Quick
      (scoped t_multi_domain_tracks);
    Alcotest.test_case "validator rejects malformed" `Quick
      (scoped t_validator_rejects);
    Alcotest.test_case "write picks format by suffix" `Quick
      (scoped t_write_formats);
    Alcotest.test_case "pipeline stage spans" `Quick (scoped t_pipeline_spans);
  ]
