(* analyze-wide: offline analysis with no simulator in the loop, on
   programs whose footprint sets are large (Wide). Set-up generates the
   programs and records each to a FORAYTR2 trace. A sweep then, per
   program, runs Pipeline.analyze_trace sequentially, again sharded over
   n = min(nproc, 4) shards and domains, and Verify.sink over the mapped
   trace; each of the three is one op. Checks: sequential and sharded
   models are byte-identical and stable across sweeps, the model shows
   exactly the planted coefficients, and every reference proves. *)

open Foray_core
module Interp = Minic_sim.Interp
module Tracefile = Foray_trace.Tracefile

type recorded = {
  w : Wide.t;
  path : string;
  loop_kinds : (int * string) list;
  events : int;
}

let programs (cfg : Work.config) =
  if cfg.small then [ Wide.generate ~seed:cfg.seed ~n:(1 lsl 11) 0 ]
  else Wide.all ~seed:cfg.seed

let record (w : Wide.t) =
  let prog = Minic.Parser.program w.source in
  Minic.Sema.check_exn prog;
  let instrumented = Foray_instrument.Annotate.program prog in
  let path = Meter.run_file (w.name ^ ".trace2") in
  let events = ref 0 in
  Tracefile.with_sink ~format:Tracefile.Binary2 path (fun sink ->
      ignore
        (Interp.run instrumented ~sink:(fun e ->
             incr events;
             sink e)));
  {
    w;
    path;
    loop_kinds = Foray_instrument.Annotate.loop_table prog;
    events = !events;
  }

let model_of r = function
  | Ok ((tree, _), _) -> Some (Model.of_tree ~loop_kinds:r.loop_kinds tree)
  | Error _ -> None

type seen = { text : string; model : Model.t }

let sweep tr o recs (seen : (string, seen) Hashtbl.t) =
  let n = Layers.shards () in
  List.iter
    (fun r ->
      let name = r.w.name in
      let same text =
        match Hashtbl.find_opt seen name with
        | Some s -> String.equal s.text text
        | None -> false
      in
      Work.op o tr ("analyze.seq." ^ name) (fun () ->
          match model_of r (Pipeline.analyze_trace r.path) with
          | Some m ->
              let text = Model.to_c m in
              if not (Hashtbl.mem seen name) then
                Hashtbl.add seen name { text; model = m };
              same text
          | None -> false);
      Work.op o tr ("analyze.sharded." ^ name) (fun () ->
          match model_of r (Pipeline.analyze_trace ~shards:n ~jobs:n r.path) with
          | Some m -> same (Model.to_c m)
          | None -> false);
      Work.op o tr ("verify." ^ name) (fun () ->
          match Hashtbl.find_opt seen name with
          | None -> false
          | Some s ->
              let vsink, finish = Foray_verify.Verify.sink s.model in
              Tracefile.iter_mapped (Tracefile.map r.path) vsink;
              Foray_verify.Verify.all_proved (finish ())))
    recs

let run (cfg : Work.config) : Work.outcome =
  let recs, setup_s =
    Work.repeat_setup cfg (fun () -> List.map record (programs cfg))
  in
  let o = Work.ops () and seen = Hashtbl.create 4 in
  let wall_s = Work.passes cfg (fun _ -> sweep None o recs seen) in
  let values, samples =
    Work.batch_metrics ~setup_s ~wall_s ~peak_rss_mb:(Meter.self_peak_rss_mb ()) o
  in
  let sweeps = o.n / (3 * List.length recs) in
  let failed, notes =
    List.fold_left
      (fun (failed, notes) r ->
        let ok =
          match Hashtbl.find_opt seen r.w.name with
          | Some s -> Check.planted_ok s.model r.w.planted
          | None -> false
        in
        ( (if ok then failed else failed + (3 * sweeps)),
          Printf.sprintf "%s: %d events, planted coefficients %s" r.w.name r.events
            (if ok then "recovered" else "NOT RECOVERED")
          :: notes ))
      (o.bad, []) recs
  in
  {
    values;
    samples;
    attempted = o.n;
    failed = min o.n failed;
    notes = List.rev notes;
  }

let traced (cfg : Work.config) =
  let ws = programs cfg in
  let recs = List.map record ws in
  Traced.run cfg
    ~decompose:(fun t a ->
      Traced.layers_only
        ("where stored-trace analysis goes, per program (sink-stack differences):"
        :: List.map
             (fun (w : Wide.t) ->
               Layers.stored t a
                 { name = w.name; source = w.source; config = Interp.default_config })
             ws))
    ~pass:(fun tr o -> sweep tr o recs (Hashtbl.create 4))
