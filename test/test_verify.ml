(* Per-reference functional equivalence checking: the model-replay
   verifier (Foray_verify) and its generative differential campaign.

   The load-bearing property throughout: a model extracted from a trace
   must PROVE on that same trace — full-affine references from the
   model's absolute constant with no alignment, partial references with
   re-bases only where an excluded iterator moved — and any deliberate
   damage to the model must be refuted with a faithful counterexample
   (re-simulating the recorded iteration vector reproduces the recorded
   mismatch). *)

open Foray_core
module Verify = Foray_verify.Verify
module Progen = Foray_util.Progen
module Tracefile = Foray_trace.Tracefile

let th nexec nloc = Filter.{ nexec; nloc }

let run_offline = Tutil.run_offline

let verify_source ?thresholds ?shards src =
  let prog = Minic.Parser.program src in
  let r, trace = run_offline ?thresholds ?shards prog in
  (r, trace, Verify.verify r.Pipeline.model trace)

(* The same deliberate damage [foraygen verify --perturb] applies: DELTA
   onto the first reference's innermost coefficient, or its constant
   when no iterator survived. *)
let perturb delta (m : Model.t) =
  let hit = ref false in
  let mref (r : Model.mref) =
    if !hit then r
    else begin
      hit := true;
      match r.terms with
      | (c, lid) :: rest -> { r with terms = (c + delta, lid) :: rest }
      | [] -> { r with const = r.const + delta }
    end
  in
  let rec mloop (l : Model.mloop) =
    { l with Model.refs = List.map mref l.refs; subs = List.map mloop l.subs }
  in
  { m with Model.loops = List.map mloop m.loops }

let total_rebases (rep : Verify.report) =
  List.fold_left
    (fun acc (r : Verify.ref_verdict) -> acc + r.rebases)
    0 rep.refs

(* Write the stream to a trace file in [format] and read it back — the
   verifier must not care which wire format carried the events. *)
let roundtrip format events =
  let tmp = Filename.temp_file "foray_verify" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Tracefile.with_sink ~format tmp (fun sink -> List.iter sink events);
      let sink, back = Foray_trace.Event.collector () in
      match Tracefile.read tmp sink with
      | Ok _ -> back ()
      | Error _ -> Alcotest.fail "trace roundtrip failed")

(* The fidelity counts the verifier reports beside its verdicts: a proved
   reference mispredicts exactly at its re-bases, and a proved full-affine
   reference never re-bases. *)
let check_exact ~ctx (rep : Verify.report) =
  List.iter
    (fun (rv : Verify.ref_verdict) ->
      if Verify.(rv.verdict = Proved) then begin
        if rv.exact <> rv.checked - rv.rebases then
          Alcotest.failf "%s: site %x exact %d <> checked %d - rebases %d" ctx
            rv.mref.Model.site rv.exact rv.checked rv.rebases;
        if (not rv.mref.Model.partial) && rv.rebases <> 0 then
          Alcotest.failf "%s: proved full-affine ref re-based" ctx
      end)
    rep.refs

(* --- figures and benchmarks ------------------------------------------ *)

let t_fig4a_proves () =
  let _, _, rep = verify_source ~thresholds:(th 2 2) Foray_suite.Figures.fig4a in
  Alcotest.(check bool) "all proved" true (Verify.all_proved rep);
  Alcotest.(check int) "one reference" 1 (List.length rep.refs);
  Alcotest.(check int) "covers the six accesses" 6 rep.covered;
  Alcotest.(check int) "nothing diverged" 0 (Verify.diverged rep);
  Alcotest.(check bool) "scalars stay uncovered" true (rep.uncovered > 0)

let t_partial_rebases_prove () =
  (* fig7b's data-dependent offsets make partial references: they must
     still prove, re-basing exactly where an excluded iterator moved *)
  let _, _, rep =
    verify_source ~thresholds:(th 10 5) Foray_suite.Figures.fig7b
  in
  Alcotest.(check bool) "has partial refs" true
    (List.exists
       (fun (rv : Verify.ref_verdict) -> rv.mref.Model.partial)
       rep.refs);
  Alcotest.(check bool) "all proved" true (Verify.all_proved rep);
  Alcotest.(check bool) "partials re-based" true (total_rebases rep > 0);
  check_exact ~ctx:"fig7b" rep

let t_benchmarks_prove () =
  List.iter
    (fun (b : Foray_suite.Suite.bench) ->
      let _, _, rep = verify_source b.source in
      if not (Verify.all_proved rep) then begin
        match Verify.first_divergence rep with
        | Some (rv, cx) ->
            Alcotest.failf "%s: site %x diverges: %s" b.name
              rv.mref.Model.site
              (Verify.counterexample_to_string cx)
        | None -> assert false
      end;
      Alcotest.(check int) (b.name ^ " nothing unseen") 0 (Verify.unseen rep);
      Alcotest.(check bool) (b.name ^ " refs checked") true (rep.covered > 0);
      check_exact ~ctx:b.name rep)
    Foray_suite.Suite.all

(* --- boundary nests --------------------------------------------------- *)

let t_zero_trip_loop () =
  let src =
    "int A[64];\n\
     int B[64];\n\
     int main() {\n\
    \  int i;\n\
    \  int n;\n\
    \  n = 0;\n\
    \  for (i = 0; i < n; i++) { A[i] = i; }\n\
    \  for (i = 0; i < 8; i++) { B[i] = i; }\n\
    \  return 0;\n\
     }\n"
  in
  let _, _, rep = verify_source ~thresholds:(th 1 1) src in
  Alcotest.(check bool) "all proved" true (Verify.all_proved rep);
  Alcotest.(check bool) "B captured and checked" true
    (List.exists
       (fun (rv : Verify.ref_verdict) -> rv.checked = 8)
       rep.refs);
  check_exact ~ctx:"zero-trip" rep

let t_single_iteration_nest () =
  (* outer loop runs exactly once: the inner coefficient solves, the
     outer iterator never moves, and the reference must still prove *)
  let src =
    "int A[8];\n\
     int main() {\n\
    \  int i;\n\
    \  int j;\n\
    \  for (i = 0; i < 1; i++) {\n\
    \    for (j = 0; j < 8; j++) { A[i + j] = 7; }\n\
    \  }\n\
    \  return 0;\n\
     }\n"
  in
  let _, _, rep = verify_source ~thresholds:(th 1 1) src in
  Alcotest.(check bool) "all proved" true (Verify.all_proved rep);
  Alcotest.(check bool) "the eight executions were checked" true
    (List.exists
       (fun (rv : Verify.ref_verdict) -> rv.checked = 8)
       rep.refs);
  check_exact ~ctx:"single-iter" rep

let t_fully_degenerate_nest () =
  (* a 1x1 nest executes its reference once: no iterator ever solves, so
     Step 4 purges it (has_iterator) and verification is vacuous — no
     refs, everything uncovered, accuracy vacuously 1.0 *)
  let src =
    "int A[8];\n\
     int main() {\n\
    \  int i;\n\
    \  int j;\n\
    \  for (i = 0; i < 1; i++) {\n\
    \    for (j = 0; j < 1; j++) { A[i + j] = 7; }\n\
    \  }\n\
    \  return 0;\n\
     }\n"
  in
  let _, _, rep = verify_source ~thresholds:(th 1 1) src in
  Alcotest.(check int) "empty model" 0 (List.length rep.refs);
  Alcotest.(check bool) "vacuously proved" true (Verify.all_proved rep);
  Alcotest.(check int) "nothing covered" 0 rep.covered;
  Alcotest.(check int) "every access uncovered" rep.events rep.uncovered;
  Alcotest.(check (float 0.0)) "vacuous accuracy" 1.0 (Verify.accuracy rep);
  check_exact ~ctx:"degenerate" rep

let t_empty_stream_vacuous () =
  let prog = Minic.Parser.program Foray_suite.Figures.fig4a in
  let r, _ = run_offline ~thresholds:(th 2 2) prog in
  let rep = Verify.verify r.Pipeline.model [] in
  Alcotest.(check bool) "vacuously proved" true (Verify.all_proved rep);
  Alcotest.(check int) "every ref unseen" (List.length rep.refs)
    (Verify.unseen rep);
  Alcotest.(check int) "nothing covered" 0 rep.covered;
  Alcotest.(check int) "no events" 0 rep.events

(* --- one loop-context walker ------------------------------------------- *)

module Event = Foray_trace.Event
module Loopwalk = Foray_trace.Loopwalk

let ck loop kind = Event.Checkpoint { loop; kind }

let t_orphan_body_proves () =
  (* A salvaged or imported trace can open with a Body_enter whose
     Loop_enter was lost. Extraction starts that body at iteration -1 and
     so extracts A7[1004 + 4*i5]; the verifier must place every access in
     the same context and prove the model on its own trace. *)
  let trace =
    List.concat
      (List.init 30 (fun i ->
           [
             ck 5 Event.Body_enter;
             Event.Access
               { site = 7; addr = 1000 + (4 * i); write = false; sys = false;
                 width = 4 };
             ck 5 Event.Body_exit;
           ]))
    @ [ ck 5 Event.Loop_exit ]
  in
  let tree = Looptree.create () in
  List.iter (Looptree.sink tree) trace;
  Alcotest.(check int) "the orphan body is a mismatch" 1
    (Looptree.mismatches tree);
  let model = Model.of_tree tree in
  match Model.all_refs model with
  | [ (_, mref) ] ->
      Alcotest.(check int) "constant from iteration -1" 1004 mref.Model.const;
      let rep = Verify.verify model trace in
      (match Verify.first_divergence rep with
      | Some (_, cx) ->
          Alcotest.failf "diverges: %s" (Verify.counterexample_to_string cx)
      | None -> ());
      Alcotest.(check int) "every access checked" 30 rep.covered
  | refs -> Alcotest.failf "expected one reference, got %d" (List.length refs)

(* Loopwalk's stack after each checkpoint kind, from the stack
   [(1, 0); (2, 1)], for a loop id on the stack below the innermost
   frame, an absent one, and the root sentinel's 0: the resulting
   context, the mismatch count, and the frames closed (innermost first). *)
let t_loopwalk_transitions () =
  let cases =
    Event.
      [
        (Loop_enter, 1, [ (1, 0); (2, 1); (1, -1) ], 0, []);
        (Body_enter, 1, [ (1, 1) ], 0, [ (2, 1) ]);
        (Body_exit, 1, [ (1, 0) ], 0, [ (2, 1) ]);
        (Loop_exit, 1, [], 0, [ (2, 1); (1, 0) ]);
        (Loop_enter, 9, [ (1, 0); (2, 1); (9, -1) ], 0, []);
        (Body_enter, 9, [ (9, -1) ], 1, [ (2, 1); (1, 0) ]);
        (Body_exit, 9, [], 1, [ (2, 1); (1, 0) ]);
        (Loop_exit, 9, [], 1, [ (2, 1); (1, 0) ]);
        (Loop_enter, 0, [ (1, 0); (2, 1); (0, -1) ], 0, []);
        (Body_enter, 0, [], 0, [ (2, 1); (1, 0) ]);
        (Body_exit, 0, [], 0, [ (2, 1); (1, 0) ]);
        (* the sentinel is closed but never popped *)
        (Loop_exit, 0, [], 0, [ (2, 1); (1, 0); (0, -1) ]);
      ]
  in
  List.iter
    (fun (kind, lid, want_ctx, want_mismatches, want_closed) ->
      let name = Printf.sprintf "%s %d" (Event.string_of_ckind kind) lid in
      let closed = ref [] in
      let w =
        Loopwalk.create ~on_close:(fun c it -> closed := (c, it) :: !closed) ()
      in
      List.iter (Loopwalk.sink w)
        [ ck 1 Event.Loop_enter; ck 1 Event.Body_enter; ck 2 Event.Loop_enter;
          ck 2 Event.Body_enter; ck 2 Event.Body_enter ];
      Loopwalk.checkpoint w kind lid;
      Alcotest.(check (list (pair int int))) (name ^ ": stack") want_ctx
        (Loopwalk.context w);
      Alcotest.(check int) (name ^ ": depth") (List.length want_ctx)
        (Loopwalk.depth w);
      Alcotest.(check int) (name ^ ": mismatches") want_mismatches
        (Loopwalk.mismatches w);
      Alcotest.(check (list (pair int int))) (name ^ ": closed") want_closed
        (List.rev_map (fun (c, it) -> (Loopwalk.lid w c, it)) !closed);
      (* the context id names the whole loop-id path *)
      Alcotest.(check (list int)) (name ^ ": path") (List.map fst want_ctx)
        (Loopwalk.path w (Loopwalk.ctx w)))
    cases;
  (* a body of loop 0 at the root advances the sentinel's counter *)
  let w = Loopwalk.create () in
  Loopwalk.checkpoint w Event.Body_enter 0;
  Alcotest.(check int) "sentinel counter" 0 (Loopwalk.iter w);
  (* a restored walker continues exactly like the one it was cut from *)
  let a = Loopwalk.create () and b = Loopwalk.create () in
  List.iter (Loopwalk.sink a)
    [ ck 3 Event.Loop_enter; ck 3 Event.Body_enter; ck 4 Event.Loop_enter ];
  Loopwalk.restore b (Loopwalk.context a);
  List.iter
    (fun w ->
      List.iter (Loopwalk.sink w)
        [ ck 4 Event.Body_enter; ck 3 Event.Body_enter ])
    [ a; b ];
  Alcotest.(check (list (pair int int))) "restore" (Loopwalk.context a)
    (Loopwalk.context b)

(* --- determinism across analysis configurations ----------------------- *)

let t_seq_sharded_v1_v2_identical () =
  let b = Option.get (Foray_suite.Suite.find "adpcm") in
  let prog = Minic.Parser.program b.source in
  let r_seq, trace = run_offline prog in
  let r_par, trace_par = run_offline ~shards:4 ~jobs:2 prog in
  let base = Verify.report_to_json (Verify.verify r_seq.Pipeline.model trace) in
  let variants =
    [
      ("sharded model", Verify.verify r_par.Pipeline.model trace_par);
      ( "v1 roundtrip",
        Verify.verify r_seq.Pipeline.model (roundtrip Tracefile.Binary trace)
      );
      ( "v2 roundtrip",
        Verify.verify r_seq.Pipeline.model (roundtrip Tracefile.Binary2 trace)
      );
    ]
  in
  List.iter
    (fun (name, rep) ->
      Alcotest.(check string)
        (name ^ " verdicts byte-identical")
        base (Verify.report_to_json rep))
    variants

(* --- refutation: perturbed models must lose, faithfully ---------------- *)

let assert_faithful_divergences ctx (rep : Verify.report) =
  List.iter
    (fun (rv : Verify.ref_verdict) ->
      match rv.verdict with
      | Verify.Proved -> ()
      | Verify.Diverges cx ->
          if not (Verify.faithful rv.mref cx) then
            Alcotest.failf "%s: unfaithful counterexample: %s" ctx
              (Verify.counterexample_to_string cx);
          if cx.Verify.cx_event < 0 || cx.Verify.cx_event >= rep.events then
            Alcotest.failf "%s: counterexample event out of range" ctx;
          if cx.Verify.cx_exec < 0 || cx.Verify.cx_exec >= rv.checked then
            Alcotest.failf "%s: counterexample exec out of range" ctx)
    rep.refs

let t_perturbed_model_diverges () =
  let b = Option.get (Foray_suite.Suite.find "adpcm") in
  let prog = Minic.Parser.program b.source in
  let r, trace = run_offline prog in
  List.iter
    (fun delta ->
      let rep = Verify.verify (perturb delta r.Pipeline.model) trace in
      Alcotest.(check bool)
        (Printf.sprintf "delta %+d refuted" delta)
        true
        (Verify.diverged rep >= 1);
      assert_faithful_divergences "perturbed adpcm" rep)
    [ 4; -4; 1; 256 ]

let t_counterexample_renders () =
  let b = Option.get (Foray_suite.Suite.find "adpcm") in
  let prog = Minic.Parser.program b.source in
  let r, trace = run_offline prog in
  let rep = Verify.verify (perturb 8 r.Pipeline.model) trace in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  match Verify.first_divergence rep with
  | None -> Alcotest.fail "expected a divergence"
  | Some (_, cx) ->
      let s = Verify.counterexample_to_string cx in
      Alcotest.(check bool) "mentions predicted" true (contains s "predicted");
      let j = Verify.report_to_json rep in
      Alcotest.(check bool) "json carries the counterexample" true
        (contains j "\"counterexample\"")

(* --- the generative differential campaign ------------------------------ *)

type campaign_cfg = Seq | Shards of int | Wire_v1 | Wire_v2

let cfg_name = function
  | Seq -> "seq"
  | Shards n -> Printf.sprintf "shards=%d" n
  | Wire_v1 -> "v1"
  | Wire_v2 -> "v2"

let campaign_case (seed, nests, cfg) =
  let g = Progen.generate ~seed ~nests in
  let prog = Minic.Parser.program g.Progen.source in
  let r, trace =
    match cfg with
    | Shards n -> run_offline ~shards:n ~jobs:2 prog
    | Seq | Wire_v1 | Wire_v2 -> run_offline prog
  in
  let trace =
    match cfg with
    | Wire_v1 -> roundtrip Tracefile.Binary trace
    | Wire_v2 -> roundtrip Tracefile.Binary2 trace
    | Seq | Shards _ -> trace
  in
  let rep = Verify.verify r.Pipeline.model trace in
  (* 1. no oracle escapes: every reference proves on its own trace, and
     full-affine references prove without a single re-base *)
  if not (Verify.all_proved rep) then begin
    match Verify.first_divergence rep with
    | Some (rv, cx) ->
        QCheck2.Test.fail_reportf
          "seed %d nests %d %s: site %x diverges: %s\n%s" seed nests
          (cfg_name cfg) rv.Verify.mref.Model.site
          (Verify.counterexample_to_string cx)
          g.Progen.source
    | None -> assert false
  end;
  check_exact ~ctx:(Printf.sprintf "seed %d %s" seed (cfg_name cfg)) rep;
  true

let gen_campaign =
  let open QCheck2.Gen in
  let* seed = int_bound 999_999 in
  let* nests = int_range 1 4 in
  let* cfg = oneofl [ Seq; Shards 2; Shards 4; Wire_v1; Wire_v2 ] in
  return (seed, nests, cfg)

let print_campaign (seed, nests, cfg) =
  Printf.sprintf "seed=%d nests=%d cfg=%s" seed nests (cfg_name cfg)

let prop_campaign =
  QCheck2.Test.make
    ~name:"campaign: extract->verify proves on 220 random programs"
    ~count:220 ~print:print_campaign gen_campaign campaign_case

(* Differential refutation: damage the model, and the verifier must
   notice — with a counterexample whose re-simulation reproduces the
   mismatch. *)
let campaign_perturbed_case (seed, nests, delta) =
  let g = Progen.generate ~seed ~nests in
  let prog = Minic.Parser.program g.Progen.source in
  let r, trace = run_offline prog in
  let rep = Verify.verify (perturb delta r.Pipeline.model) trace in
  if Verify.diverged rep < 1 then
    QCheck2.Test.fail_reportf
      "seed %d nests %d delta %+d: damaged model still proves\n%s" seed nests
      delta g.Progen.source;
  assert_faithful_divergences
    (Printf.sprintf "seed %d delta %+d" seed delta)
    rep;
  true

let gen_perturbed =
  let open QCheck2.Gen in
  let* seed = int_bound 999_999 in
  let* nests = int_range 1 3 in
  let* mag = int_range 1 64 in
  let* sign = oneofl [ 1; -1 ] in
  return (seed, nests, mag * sign)

let print_perturbed (seed, nests, delta) =
  Printf.sprintf "seed=%d nests=%d delta=%+d" seed nests delta

let prop_campaign_perturbed =
  QCheck2.Test.make
    ~name:"campaign: damaged models are refuted with faithful \
           counterexamples"
    ~count:60 ~print:print_perturbed gen_perturbed campaign_perturbed_case

(* --- verification from source: the replay stops where extraction did -- *)

module Interp = Minic_sim.Interp

let progen_source seed =
  (Progen.generate ~seed ~nests:2).Progen.source

let instrumented_of src =
  let prog = Minic.Parser.program src in
  Minic.Sema.check_exn prog;
  Foray_instrument.Annotate.program prog

let budget_of (sim : Interp.result) =
  match sim.stopped with
  | Interp.Completed -> "completed"
  | Interp.Stopped b -> b.Interp.budget

(* The first pass under [config], then a re-run under the bound the
   verifier derives from it: the two event streams must be identical.
   Returns both runs' results. (Their step counts agree except at a
   deadline stop at admission: the replay's bound trips inside the first
   tick, which has already counted step 1.) *)
let check_replay_aligned ~what config instrumented =
  let sim, first = Tutil.run_to_trace ~config instrumented in
  let sim', replay =
    Tutil.run_to_trace ~config:(Verify.replay_config config sim) instrumented
  in
  if first <> replay then
    Alcotest.failf "%s: replay stream differs (%d vs %d events)" what
      (List.length first) (List.length replay);
  Alcotest.(check int) (what ^ ": accesses") sim.accesses sim'.accesses;
  (sim, sim')

let with_budget ?steps ?events ?deadline () =
  {
    Interp.default_config with
    max_steps = Option.value steps ~default:Interp.default_config.max_steps;
    max_trace_events = events;
    deadline_ms = deadline;
  }

let t_replay_stops_aligned () =
  for seed = 1 to 6 do
    let instrumented = instrumented_of (progen_source seed) in
    let full, trace = Tutil.run_to_trace instrumented in
    let n = List.length trace in
    List.iter
      (fun (what, config, budget) ->
        let what = Printf.sprintf "seed %d, %s" seed what in
        let sim, _ = check_replay_aligned ~what config instrumented in
        Alcotest.(check string) (what ^ ": stopped by") budget (budget_of sim))
      [
        ("no budget", Interp.default_config, "completed");
        ("max_steps", with_budget ~steps:(full.steps / 2) (), "max_steps");
        ("max_trace_events", with_budget ~events:(n / 2) (), "max_trace_events");
        ("deadline at admission", with_budget ~deadline:0 (), "deadline_ms");
      ]
  done

(* A deadline that trips at a periodic check: the Progen program's main
   runs forever, so only the wall clock stops it, at a step the replay
   must reach exactly. A run delayed past its deadline before the first
   statement stops at admission instead; that is retried. *)
let t_replay_deadline_periodic () =
  let src =
    Str.global_replace (Str.regexp_string "int main() {") "int body() {"
      (progen_source 4)
    ^ "\nint main() {\n  while (1) { body(); }\n  return 0;\n}\n"
  in
  let instrumented = instrumented_of src in
  let rec attempt k =
    let what = Printf.sprintf "periodic deadline, attempt %d" k in
    let sim, sim' =
      check_replay_aligned ~what (with_budget ~deadline:2 ()) instrumented
    in
    Alcotest.(check string) (what ^ ": stopped by") "deadline_ms"
      (budget_of sim);
    if sim.steps > 0 then
      Alcotest.(check int) (what ^ ": steps") sim.steps sim'.steps
    else
      if k < 10 then attempt (k + 1)
      else Alcotest.fail "every run stopped at admission"
  in
  attempt 1

(* The report from [Verify.of_source] equals [Verify.verify] over the
   first pass's collected events. *)
let t_of_source_equals_collected () =
  for seed = 1 to 6 do
    let src = progen_source seed in
    let full, trace = Tutil.run_to_trace (instrumented_of src) in
    List.iter
      (fun (what, config) ->
        let o, rep =
          match Verify.of_source ~config src with
          | Ok x -> x
          | Error e -> Tutil.fail_error e
        in
        let r, events =
          Tutil.run_offline ~config (Minic.Parser.program src)
        in
        Alcotest.(check string)
          (Printf.sprintf "seed %d, %s: model" seed what)
          (Model.to_c r.Pipeline.model)
          (Model.to_c o.Pipeline.result.Pipeline.model);
        Alcotest.(check string)
          (Printf.sprintf "seed %d, %s: report" seed what)
          (Verify.report_to_json (Verify.verify r.Pipeline.model events))
          (Verify.report_to_json rep))
      [
        ("no budget", Interp.default_config);
        ("max_steps", with_budget ~steps:(full.steps / 2) ());
        ("max_trace_events", with_budget ~events:(List.length trace / 2) ());
        ("deadline at admission", with_budget ~deadline:0 ());
      ]
  done

let tests =
  [
    Alcotest.test_case "fig4a proves" `Quick t_fig4a_proves;
    Alcotest.test_case "fig7b partials prove with rebases" `Quick
      t_partial_rebases_prove;
    Alcotest.test_case "all six benchmarks prove" `Slow t_benchmarks_prove;
    Alcotest.test_case "zero-trip loop" `Quick t_zero_trip_loop;
    Alcotest.test_case "single-iteration nest" `Quick t_single_iteration_nest;
    Alcotest.test_case "fully degenerate 1x1 nest is purged" `Quick
      t_fully_degenerate_nest;
    Alcotest.test_case "empty stream is vacuous" `Quick t_empty_stream_vacuous;
    Alcotest.test_case "orphan body_enter proves on its own trace" `Quick
      t_orphan_body_proves;
    Alcotest.test_case "loopwalk transitions" `Quick t_loopwalk_transitions;
    Alcotest.test_case "verdicts identical across seq/sharded x v1/v2" `Quick
      t_seq_sharded_v1_v2_identical;
    Alcotest.test_case "perturbed model diverges faithfully" `Quick
      t_perturbed_model_diverges;
    Alcotest.test_case "counterexample rendering" `Quick
      t_counterexample_renders;
    Alcotest.test_case "replay stops where the first pass stopped" `Quick
      t_replay_stops_aligned;
    Alcotest.test_case "replay aligned after a periodic deadline" `Quick
      t_replay_deadline_periodic;
    Alcotest.test_case "of_source = verify over the collected run" `Quick
      t_of_source_equals_collected;
QCheck_alcotest.to_alcotest prop_campaign;
    QCheck_alcotest.to_alcotest prop_campaign_perturbed;
  ]
