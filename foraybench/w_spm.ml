(* spm-explore: Phase II alone, with no simulator or walker work. Set-up
   extracts the models of the six suite programs (default configuration,
   so the models are the same for every seed) and of a 16-stencil fusion
   program. Each pass runs, per model, Reuse.candidates and then Dse.solve
   with Optimal, Greedy and Stochastic at the seven default sizes, plus
   Dse.solve_fused on the stencil model with a fixed proposal budget and
   no deadline; the stochastic seed is drawn from the seed and the pass.
   Every call is one op. Checks: energy(optimal) <= energy(stochastic) <=
   energy(greedy) at every size, golden optimal savings, and a fused
   placement no worse than all-main-memory. *)

open Foray_core
module Dse = Foray_spm.Dse
module Reuse = Foray_spm.Reuse
module Stochastic = Foray_spm.Stochastic
module Suite = Foray_suite.Suite

(* K disjoint 3-tap stencil loops: each contributes one fusable cluster,
   so the joint fusion x placement space has 2^K configurations. *)
let stencil_source k =
  let b = Buffer.create 1024 in
  for a = 0 to k - 1 do
    Printf.bprintf b "int A%d[256];\n" a
  done;
  Buffer.add_string b "int s;\nint main() {\n  int i;\n";
  for a = 0 to k - 1 do
    Printf.bprintf b
      "  for (i = 0; i < 253; i++) { s += A%d[i] + A%d[i + 1] + A%d[i + 2]; }\n"
      a a a
  done;
  Buffer.add_string b "  return 0;\n}\n";
  Buffer.contents b

let stencil = ("stencil16", stencil_source 16)

let sources (cfg : Work.config) =
  if cfg.small then [ ("adpcm", (Option.get (Suite.find "adpcm")).source); stencil ]
  else List.map (fun (b : Suite.bench) -> (b.name, b.source)) Suite.all @ [ stencil ]

let extract (cfg : Work.config) =
  List.map
    (fun (name, src) ->
      match Pipeline.run_source src with
      | Ok o -> (name, o.result.model)
      | Error e -> failwith (name ^ ": " ^ Error.to_string e))
    (sources cfg)

let eps a = 1e-9 *. Float.abs a

let pass (cfg : Work.config) tr o models p =
  let seed = (cfg.seed * 1000) + p in
  List.iter
    (fun (name, model) ->
      let cands = ref [] in
      Work.op o tr ("spm.candidates." ^ name) (fun () ->
          cands := Reuse.candidates model;
          true);
      let energy = Hashtbl.create 8 in
      List.iter
        (fun (label, strategy) ->
          List.iter
            (fun size ->
              Work.op o tr (Printf.sprintf "spm.%s.%s@%d" label name size) (fun () ->
                  let sol = Dse.solve ~strategy !cands ~spm_bytes:size in
                  let e = sol.selection.energy_opt in
                  Hashtbl.replace energy (label, size) e;
                  match label with
                  | "optimal" -> (
                      let key = Printf.sprintf "%s@%d" name size in
                      List.assoc_opt key Check.golden_spm
                      = Some (Printf.sprintf "%.3f" sol.selection.saving_pct))
                  | "stochastic" ->
                      Hashtbl.find energy ("optimal", size) <= e +. eps e
                  | _ ->
                      Hashtbl.find energy ("stochastic", size)
                      <= e +. eps e))
            Dse.default_sizes)
        [
          ("optimal", Dse.Optimal);
          ("stochastic", Dse.Stochastic { Stochastic.default_config with seed });
          ("greedy", Dse.Greedy);
        ];
      if name = fst stencil then
        Work.op o tr "spm.fused.stencil16" (fun () ->
            let sol =
              Dse.solve_fused model ~spm_bytes:4096 (Layers.fused_config seed)
            in
            sol.selection.energy_opt <= sol.selection.energy_base))
    models

let run (cfg : Work.config) : Work.outcome =
  let models, setup_s = Work.repeat_setup cfg (fun () -> extract cfg) in
  let o = Work.ops () in
  let wall_s = Work.passes cfg (pass cfg None o models) in
  let values, samples =
    Work.batch_metrics ~setup_s ~wall_s ~peak_rss_mb:(Meter.self_peak_rss_mb ()) o
  in
  {
    values;
    samples;
    attempted = o.n;
    failed = o.bad;
    notes = [ Printf.sprintf "%d ops over %d models" o.n (List.length models) ];
  }

let traced (cfg : Work.config) =
  let models = extract cfg in
  Traced.run cfg
    ~decompose:(fun t a ->
      List.iter
        (fun ((name, _) as m) ->
          Layers.phase2 t a ~seed:(cfg.seed * 1000) ~fused:(name = fst stencil) m)
        models;
      Traced.layers_only [])
    ~pass:(fun tr o -> pass cfg tr o models 0)
