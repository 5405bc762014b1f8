(* extract-suite: the paper's evaluation set through the `foraygen extract`
   path. Each pass runs the six suite programs through Pipeline.run_source
   (online extraction: the simulator feeding Looptree and Tstats) in a
   seed-shuffled order, with [mc_rand] seeded from the seed. Set-up is one
   untimed warm-up pass, so heap growth of the first extraction is not
   timed. Checks: every pass yields the same model per program, an untimed
   Verify.sink re-simulation proves every reference, and the programs whose
   models do not depend on the seed match golden digests. *)

open Foray_core
module Suite = Foray_suite.Suite
module Interp = Minic_sim.Interp

let config seed = { Interp.default_config with rand_seed = seed }

let benches (cfg : Work.config) =
  if cfg.small then [ Option.get (Suite.find "adpcm") ] else Suite.all

(* The first model the passes saw of a program; every later pass must
   reproduce it. *)
type seen = { text : string; model : Model.t }

let pass (cfg : Work.config) tr o seen p =
  let config = config cfg.seed in
  let order =
    Meter.shuffle (Foray_util.Prng.create ((cfg.seed * 31) + p)) (benches cfg)
  in
  List.iter
    (fun (b : Suite.bench) ->
      Work.op o tr ("extract." ^ b.name) (fun () ->
          match Pipeline.run_source ~config b.source with
          | Ok { result; degraded = [] } -> (
              let text = Model.to_c result.model in
              match Hashtbl.find_opt seen b.name with
              | None ->
                  Hashtbl.add seen b.name { text; model = result.model };
                  true
              | Some s -> String.equal s.text text)
          | Ok _ | Error _ -> false))
    order

(* Untimed checks of one program's output. *)
let check (cfg : Work.config) o (b : Suite.bench) s =
  let rep, events =
    Check.resimulate_verify ~config:(config cfg.seed) b.source s.model
  in
  let golden =
    match List.assoc_opt b.name Check.golden_models with
    | Some digest -> String.equal digest (Check.model_digest s.text)
    | None -> not (List.mem b.name Check.seed_independent)
  in
  let ok = Foray_verify.Verify.all_proved rep && golden in
  let med =
    Meter.median (Array.of_list (Work.class_latencies o ("extract." ^ b.name)))
    /. 1000.0
  in
  ( ok,
    Printf.sprintf
      "extract.%s.median_s %.4f (%d events, %.0f events/s, %d refs proved%s)"
      b.name med events
      (float_of_int events /. med)
      (Foray_verify.Verify.proved rep)
      (if ok then "" else ", CHECK FAILED") )

let run (cfg : Work.config) : Work.outcome =
  let (), setup_s =
    Work.repeat_setup cfg (fun () ->
        pass cfg None (Work.ops ()) (Hashtbl.create 8) (-1))
  in
  let o = Work.ops () and seen = Hashtbl.create 8 in
  let wall_s = Work.passes cfg (pass cfg None o seen) in
  let values, samples =
    Work.batch_metrics ~setup_s ~wall_s ~peak_rss_mb:(Meter.self_peak_rss_mb ()) o
  in
  (* a program that fails a check fails every one of its ops *)
  let failed, notes =
    List.fold_left
      (fun (failed, notes) (b : Suite.bench) ->
        match Hashtbl.find_opt seen b.name with
        | None -> (failed, (b.name ^ ": no model") :: notes)
        | Some s ->
            let ok, note = check cfg o b s in
            let ops = List.length (Work.class_latencies o ("extract." ^ b.name)) in
            ((if ok then failed else failed + ops), note :: notes))
      (o.bad, []) (benches cfg)
  in
  {
    values;
    samples;
    attempted = o.n;
    failed = min o.n failed;
    notes = List.rev notes;
  }

let traced (cfg : Work.config) =
  let programs =
    List.map
      (fun (b : Suite.bench) ->
        { Layers.name = b.name; source = b.source; config = config cfg.seed })
      (benches cfg)
  in
  Traced.run cfg
    ~decompose:(fun t a ->
      Traced.layers_only
        ("where online extraction goes, per program (sink-stack differences):"
        :: List.map (Layers.online t a) programs))
    ~pass:(fun tr o -> pass cfg tr o (Hashtbl.create 8) 0)
