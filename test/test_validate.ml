(* Model fidelity: replaying the extraction trace through the model's
   predictions and counting how many addresses each reference predicts
   exactly. The verifier reports these counts beside its verdicts. *)

open Foray_core
module Verify = Foray_verify.Verify

let th nexec nloc = Filter.{ nexec; nloc }

let replay ?thresholds src =
  let prog = Minic.Parser.program src in
  let r, trace = Tutil.run_offline ?thresholds prog in
  (r, Verify.verify r.model trace)

let t_full_affine_exact () =
  (* a model extracted from a trace predicts that same trace perfectly
     when every reference is fully affine *)
  let _, rep = replay ~thresholds:(th 2 2) Foray_suite.Figures.fig4a in
  Alcotest.(check (float 0.0001)) "100% exact" 1.0 (Verify.accuracy rep);
  Alcotest.(check int) "covers the six accesses" 6 rep.covered;
  Alcotest.(check bool) "everything else is outside the model" true
    (rep.uncovered > 0)

let t_partial_rebases () =
  (* fig7b's data-dependent offsets force one re-base per outer change *)
  let _, rep = replay ~thresholds:(th 10 5) Foray_suite.Figures.fig7b in
  let partial =
    List.filter (fun (rv : Verify.ref_verdict) -> rv.mref.partial) rep.refs
  in
  Alcotest.(check bool) "has partial refs" true (partial <> []);
  List.iter
    (fun (rv : Verify.ref_verdict) ->
      (* ten calls, first aligned, so at most 9 rebases; still mostly
         exact inside each call *)
      Alcotest.(check bool) "rebases bounded" true (rv.rebases <= 9);
      Alcotest.(check bool) "mostly exact" true
        (float_of_int rv.exact > 0.85 *. float_of_int rv.checked))
    partial

let t_overall_suite () =
  (* across the suite the model should predict nearly all covered accesses;
     only partial refs re-base *)
  List.iter
    (fun (b : Foray_suite.Suite.bench) ->
      let r, rep = replay b.source in
      Alcotest.(check bool)
        (b.name ^ " accuracy > 95%")
        true
        (Verify.accuracy rep > 0.95);
      (* coverage equals the model's share of accesses *)
      Alcotest.(check int)
        (b.name ^ " covered = model accesses")
        (Model.accesses r.model) rep.covered)
    Foray_suite.Suite.all

let t_empty_model () =
  let rep = Verify.verify Model.{ loops = []; sites = [] } [] in
  Alcotest.(check bool) "empty model proves" true (Verify.all_proved rep);
  Alcotest.(check int) "no refs" 0 (List.length rep.refs);
  Alcotest.(check (float 0.0)) "vacuous accuracy" 1.0 (Verify.accuracy rep);
  Alcotest.(check int) "nothing covered" 0 rep.covered

let tests =
  [
    Alcotest.test_case "full affine predicts exactly" `Quick
      t_full_affine_exact;
    Alcotest.test_case "partial refs re-base" `Quick t_partial_rebases;
    Alcotest.test_case "suite accuracy" `Slow t_overall_suite;
    Alcotest.test_case "empty model" `Quick t_empty_model;
  ]
