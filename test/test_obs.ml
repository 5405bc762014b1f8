(* Observability registry tests: handle semantics, labels, histograms,
   JSON rendering, the disabled fast path, and an end-to-end smoke check
   that the pipeline's counters agree with its results. *)

module Obs = Foray_obs.Obs

(* Every test owns the global registry for its duration. *)
let scoped f () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let t_counter_basics () =
  let c = Obs.counter "t.hits" in
  Obs.incr c;
  Obs.add c 4;
  Alcotest.(check (option int)) "accumulates" (Some 5) (Obs.value "t.hits");
  Alcotest.(check (option int)) "unknown name" None (Obs.value "t.nope")

let t_disabled_is_noop () =
  let c = Obs.counter "t.off" in
  Obs.incr c;
  Obs.set_enabled false;
  Obs.incr c;
  Obs.incr c;
  Obs.set_enabled true;
  Alcotest.(check (option int)) "updates while off dropped" (Some 1)
    (Obs.value "t.off")

let t_same_name_same_cell () =
  let a = Obs.counter "t.shared" in
  let b = Obs.counter "t.shared" in
  Obs.incr a;
  Obs.incr b;
  Alcotest.(check (option int)) "one cell" (Some 2) (Obs.value "t.shared");
  (* registration is lazy, so the kind clash surfaces on first update *)
  Alcotest.(check bool) "kind clash rejected" true
    (try
       Obs.set (Obs.gauge "t.shared") 1;
       false
     with Invalid_argument _ -> true)

let t_labels_canonical () =
  (* label order must not matter; values are quoted *)
  let a = Obs.counter ~labels:[ ("b", "2"); ("a", "1") ] "t.lab" in
  let b = Obs.counter ~labels:[ ("a", "1"); ("b", "2") ] "t.lab" in
  Obs.incr a;
  Obs.incr b;
  Alcotest.(check (option int)) "canonical key" (Some 2)
    (Obs.value "t.lab{a=\"1\",b=\"2\"}")

let t_gauge_set_max () =
  let g = Obs.gauge "t.depth" in
  Obs.set_max g 3;
  Obs.set_max g 7;
  Obs.set_max g 5;
  Alcotest.(check (option int)) "high-water mark" (Some 7) (Obs.value "t.depth")

let t_reset_invalidates () =
  let c = Obs.counter "t.gen" in
  Obs.incr c;
  Obs.reset ();
  Alcotest.(check (option int)) "gone after reset" None (Obs.value "t.gen");
  (* a stale handle re-registers transparently *)
  Obs.incr c;
  Alcotest.(check (option int)) "handle survives reset" (Some 1)
    (Obs.value "t.gen")

let t_histogram_json () =
  let h = Obs.histogram ~bounds:[ 1; 4 ] "t.hist" in
  List.iter (Obs.observe h) [ 0; 1; 2; 4; 9 ];
  let js = Obs.to_json () in
  let contains needle =
    let n = String.length needle and hs = String.length js in
    let rec go i = i + n <= hs && (String.sub js i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "histogram serialized" true (contains "\"t.hist\"");
  Alcotest.(check bool) "count present" true (contains "\"count\": 5")

let t_timer () =
  let t = Obs.timer "t.span" in
  let v = Obs.time t (fun () -> 42) in
  Alcotest.(check int) "value passed through" 42 v;
  match Obs.timer_seconds "t.span" with
  | Some s -> Alcotest.(check bool) "non-negative" true (s >= 0.0)
  | None -> Alcotest.fail "timer not registered"

let t_timer_charges_on_raise () =
  (* a timed section that raises must still be charged its elapsed time *)
  let t = Obs.timer "t.raise" in
  (try Obs.time t (fun () -> failwith "boom") with Failure _ -> ());
  match Obs.timer_seconds "t.raise" with
  | Some s -> Alcotest.(check bool) "elapsed charged" true (s >= 0.0)
  | None -> Alcotest.fail "raising section left the timer unregistered"

let t_timer_reentrant () =
  (* nested time on the same timer: both sections charge, so the total is
     at least the inner section's share and nothing is lost or doubled
     into other cells *)
  let t = Obs.timer "t.nest" in
  let v =
    Obs.time t (fun () ->
        Obs.time t (fun () ->
            let t0 = Unix.gettimeofday () in
            while Unix.gettimeofday () -. t0 < 0.002 do
              ()
            done;
            17))
  in
  Alcotest.(check int) "value passes through nesting" 17 v;
  match Obs.timer_seconds "t.nest" with
  | Some s ->
      (* inner (>= 2ms) and outer (>= inner) both accumulate *)
      Alcotest.(check bool) "both sections charged" true (s >= 0.004)
  | None -> Alcotest.fail "timer not registered"

let t_pipeline_smoke () =
  (* the acceptance check: counters flushed by a full pipeline run agree
     with the result record the pipeline itself returns *)
  let r =
    Tutil.run_source
      ~thresholds:Foray_core.Filter.{ nexec = 2; nloc = 2 }
      Foray_suite.Figures.fig4a
  in
  Alcotest.(check (option int)) "interp.steps matches sim" (Some r.sim.steps)
    (Obs.value "interp.steps");
  Alcotest.(check (option int)) "one run" (Some 1) (Obs.value "interp.runs");
  Alcotest.(check (option int)) "loop tree nodes"
    (Some (Foray_core.Looptree.n_nodes r.tree))
    (Obs.value "looptree.nodes");
  Alcotest.(check (option int)) "no mismatches" (Some 0)
    (Obs.value "looptree.checkpoint_mismatches");
  (match Obs.value "infer.refs_seen" with
  | Some n -> Alcotest.(check bool) "inference saw refs" true (n > 0)
  | None -> Alcotest.fail "infer.refs_seen missing");
  match Obs.timer_seconds "pipeline.simulate" with
  | Some s -> Alcotest.(check bool) "simulate timed" true (s >= 0.0)
  | None -> Alcotest.fail "pipeline.simulate missing"

let t_label_value_escaping () =
  (* OpenMetrics-reserved characters in label values must be escaped in
     the canonical name (and hence in the exposition, which embeds it
     verbatim): backslash, double quote, newline. *)
  let c = Obs.counter ~labels:[ ("p", "a\"b\\c\nd") ] "t.esc" in
  Obs.incr c;
  Alcotest.(check (option int)) "escaped canonical key" (Some 1)
    (Obs.value "t.esc{p=\"a\\\"b\\\\c\\nd\"}");
  let om = Obs.to_openmetrics () in
  let contains needle =
    let n = String.length needle and hs = String.length om in
    let rec go i = i + n <= hs && (String.sub om i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "escaped in exposition" true
    (contains "t_esc_total{p=\"a\\\"b\\\\c\\nd\"} 1");
  Alcotest.(check bool) "raw newline never emitted" true
    (not (contains "b\\c\nd"))

let t_histogram_bounds_validated () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty bounds rejected" true
    (raises (fun () -> Obs.histogram ~bounds:[] "t.hb0"));
  Alcotest.(check bool) "descending bounds rejected" true
    (raises (fun () -> Obs.histogram ~bounds:[ 5; 1 ] "t.hb1"));
  Alcotest.(check bool) "duplicate bounds rejected" true
    (raises (fun () -> Obs.histogram ~bounds:[ 1; 3; 3 ] "t.hb2"));
  (* valid bounds still register and observe *)
  let h = Obs.histogram ~bounds:[ 1; 3 ] "t.hb3" in
  Obs.observe h 2;
  let om = Obs.to_openmetrics () in
  Alcotest.(check bool) "valid bounds accepted" true
    (String.length om > 0
    &&
    let needle = "t_hb3_count 1" in
    let n = String.length needle and hs = String.length om in
    let rec go i = i + n <= hs && (String.sub om i n = needle || go (i + 1)) in
    go 0)

let t_openmetrics_golden () =
  (* The full exposition for a fixed registry, byte for byte: family
     grouping with TYPE lines, _total counters, cumulative buckets with
     +Inf, _sum/_count, label escaping, the # EOF terminator. *)
  let e = Obs.counter ~labels:[ ("p", "a\"b\\c\nd") ] "esc" in
  Obs.incr e;
  let h = Obs.histogram ~bounds:[ 1; 5 ] "lat.ms" in
  List.iter (Obs.observe h) [ 0; 1; 2; 7 ];
  Obs.set (Obs.gauge "pool.size") 4;
  Obs.add (Obs.counter ~labels:[ ("op", "analyze") ] "serve.req") 3;
  Obs.incr (Obs.counter ~labels:[ ("op", "extract") ] "serve.req");
  let expected =
    "# TYPE esc counter\n"
    ^ "esc_total{p=\"a\\\"b\\\\c\\nd\"} 1\n"
    ^ "# TYPE lat_ms histogram\n" ^ "lat_ms_bucket{le=\"1\"} 2\n"
    ^ "lat_ms_bucket{le=\"5\"} 3\n" ^ "lat_ms_bucket{le=\"+Inf\"} 4\n"
    ^ "lat_ms_sum 10\n" ^ "lat_ms_count 4\n" ^ "# TYPE pool_size gauge\n"
    ^ "pool_size 4\n" ^ "# TYPE serve_req counter\n"
    ^ "serve_req_total{op=\"analyze\"} 3\n"
    ^ "serve_req_total{op=\"extract\"} 1\n" ^ "# EOF\n"
  in
  Alcotest.(check string) "golden exposition" expected (Obs.to_openmetrics ());
  (* ~extra splices before the terminator, newline-normalized *)
  let with_extra = Obs.to_openmetrics ~extra:"win_rps 2" () in
  Alcotest.(check bool) "extra precedes EOF" true
    (String.ends_with ~suffix:"win_rps 2\n# EOF\n" with_extra)

let t_trace_io_counters () =
  let path = Filename.temp_file "foray_obs" ".tr" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let events =
        [ Foray_trace.Event.Checkpoint
            { loop = 1; kind = Foray_trace.Event.Loop_enter };
          Foray_trace.Event.Access
            { site = 1; addr = 64; write = false; sys = false; width = 4 };
          Foray_trace.Event.Checkpoint
            { loop = 1; kind = Foray_trace.Event.Loop_exit }
        ]
      in
      Foray_trace.Tracefile.save ~format:Foray_trace.Tracefile.Binary path
        events;
      ignore (Tutil.load path);
      Alcotest.(check (option int)) "written" (Some 3)
        (Obs.value "trace.events_written");
      Alcotest.(check (option int)) "read back" (Some 3)
        (Obs.value "trace.events_read");
      match Obs.value "trace.bytes_written" with
      | Some n -> Alcotest.(check bool) "bytes counted" true (n > 0)
      | None -> Alcotest.fail "trace.bytes_written missing")

let tests =
  [
    Alcotest.test_case "counter basics" `Quick (scoped t_counter_basics);
    Alcotest.test_case "disabled is no-op" `Quick (scoped t_disabled_is_noop);
    Alcotest.test_case "same name same cell" `Quick (scoped t_same_name_same_cell);
    Alcotest.test_case "labels canonicalize" `Quick (scoped t_labels_canonical);
    Alcotest.test_case "gauge set_max" `Quick (scoped t_gauge_set_max);
    Alcotest.test_case "reset invalidates" `Quick (scoped t_reset_invalidates);
    Alcotest.test_case "histogram json" `Quick (scoped t_histogram_json);
    Alcotest.test_case "timer" `Quick (scoped t_timer);
    Alcotest.test_case "timer charges on raise" `Quick
      (scoped t_timer_charges_on_raise);
    Alcotest.test_case "timer re-entrant" `Quick (scoped t_timer_reentrant);
    Alcotest.test_case "label value escaping" `Quick
      (scoped t_label_value_escaping);
    Alcotest.test_case "histogram bounds validated" `Quick
      (scoped t_histogram_bounds_validated);
    Alcotest.test_case "openmetrics golden" `Quick (scoped t_openmetrics_golden);
    Alcotest.test_case "pipeline metrics smoke" `Quick (scoped t_pipeline_smoke);
    Alcotest.test_case "trace io counters" `Quick (scoped t_trace_io_counters);
  ]
