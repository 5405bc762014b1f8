(* Output checks whose references do not come from the code under test's
   own claim of success: planted coefficients, golden digests, re-simulated
   verification, and orderings that must hold between strategies. *)

open Foray_core
module Dse = Foray_spm.Dse
module Reuse = Foray_spm.Reuse

(* Byte coefficients of every model reference, innermost first, as a
   sorted multiset. *)
let terms model =
  Model.all_refs model
  |> List.map (fun (_, (mr : Model.mref)) -> List.map fst mr.terms)
  |> List.sort compare

let planted_ok model planted = terms model = List.sort compare planted

let progen_planted (g : Foray_util.Progen.t) =
  List.map (fun (p : Foray_util.Progen.planted) -> p.terms) g.planted

(* Optimal savings at the default sizes, as the wire renders them. *)
let optimal_savings model =
  let cands = Reuse.candidates model in
  List.map
    (fun size ->
      Printf.sprintf "%.3f"
        (Dse.solve ~strategy:Dse.Optimal cands ~spm_bytes:size).selection
          .saving_pct)
    Dse.default_sizes

(* Re-simulate [source] with the model's verifier as the only sink:
   every reference must prove on a fresh run. Returns the report and the
   number of trace events the run produced. *)
let resimulate_verify ?config source model =
  let prog = Minic.Parser.program source in
  Minic.Sema.check_exn prog;
  let instrumented = Foray_instrument.Annotate.program prog in
  let vsink, finish = Foray_verify.Verify.sink model in
  let events = ref 0 in
  let _ =
    Minic_sim.Interp.run ?config instrumented ~sink:(fun e ->
        incr events;
        vsink e)
  in
  (finish (), !events)

let golden_lines text =
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | [ k; v ] -> Some (k, v)
         | _ -> None)

(* Golden model digests, "<program> <md5 of Model.to_c>", for the suite
   programs whose models do not depend on the [mc_rand] seed. *)
let golden_models = golden_lines Expected.models

(* Golden optimal savings, "<program>@<bytes> <saving %.3f>". *)
let golden_spm = golden_lines Expected.spm_optimal

let model_digest text = Digest.to_hex (Digest.string text)

(* The suite's seed-independent programs: their models and optimal
   savings are the same whatever [rand_seed] is. *)
let seed_independent = [ "susan"; "fft"; "gsm"; "adpcm" ]
