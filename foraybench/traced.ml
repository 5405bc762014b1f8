(* The traced run of a workload (--trace 1): a separate, decomposed run
   that yields the per-layer metrics. End-to-end metrics never come from
   here. In order:
   1. the workload decomposes its own work into layers: its programs
      through the layers its ops use (Layers), and for serve-mixed its own
      traffic against the daemon;
   2. two passes of the workload's ops untraced and two with a span per op,
      whose wall-time ratio is the tracing overhead.
   Every per-layer metric is printed on every workload; those of a layer
   the workload does not use read 0. Self time is a span's duration minus
   what its child spans cover. *)

type decomposed = {
  values : (string * float) list;  (** per-layer metrics beyond Layers.values *)
  sent : int;  (** checked ops behind [values] *)
  bad : int;  (** of which failed *)
  rows : string list;  (** the per-program table, heading first *)
}

let layers_only rows = { values = []; sent = 0; bad = 0; rows }

(* Spans that only group others; their self time is unattributed glue. *)
let grouping name = String.starts_with ~prefix:"program:" name

let run (cfg : Work.config) ~(decompose : Tracer.t -> Layers.acc -> decomposed)
    ~(pass : Tracer.t option -> Work.ops -> unit) : Work.outcome =
  let t = Tracer.create () in
  let a = Layers.acc () in
  let t0 = Meter.now () in
  let d = decompose t a in
  (* untraced, traced, traced, untraced: the order cancels a linear drift
     (caches warming, heap growing) between the passes *)
  let plain = Work.ops () and traced = Work.ops () in
  let untraced_pass () =
    Tracer.with_span t "overhead.untraced" (fun () ->
        snd (Meter.time (fun () -> pass None plain)))
  in
  let traced_pass () = snd (Meter.time (fun () -> pass (Some t) traced)) in
  let u1 = untraced_pass () in
  let t1 = traced_pass () in
  let t2 = traced_pass () in
  let plain_s = u1 +. untraced_pass () and traced_s = t1 +. t2 in
  let wall = Meter.now () -. t0 in
  let self = Tracer.self_by_name t in
  let attributed =
    List.fold_left
      (fun acc (name, s) -> if grouping name then acc else acc +. s)
      0.0 self
  in
  let coverage = 100.0 *. attributed /. wall in
  let chrome = Tracer.to_chrome t in
  let chrome_ok =
    match Foray_obs.Span.validate_chrome chrome with
    | Ok _ -> true
    | Error msg ->
        Printf.eprintf "chrome trace invalid: %s\n%!" msg;
        false
  in
  Option.iter
    (fun path -> Out_channel.with_open_bin path (fun oc -> output_string oc chrome))
    cfg.chrome;
  let layer = Layers.values t a in
  let measured =
    layer @ d.values
    @ [
        ("trace_overhead_pct", 100.0 *. (traced_s -. plain_s) /. plain_s);
        ("trace.span_coverage_pct", coverage);
      ]
  in
  let programs = int_of_float (Layers.get a "programs") in
  let samples name =
    if List.mem_assoc name layer then programs
    else if List.mem_assoc name d.values then d.sent
    else if name = "trace_overhead_pct" then traced.n
    else if name = "trace.span_coverage_pct" then 1
    else 0
  in
  let values =
    List.map
      (fun (m : Metrics.metric) ->
        (m.name, Option.value (List.assoc_opt m.name measured) ~default:0.0))
      Metrics.per_layer
  in
  let top =
    List.sort (fun (_, a) (_, b) -> compare b a) self
    |> List.filteri (fun i _ -> i < 15)
    |> List.map (fun (name, s) ->
           Printf.sprintf "self %-24s %9.4f s  %5.1f%%" name s (100.0 *. s /. wall))
  in
  {
    Work.values;
    samples = List.map (fun (name, _) -> (name, samples name)) values;
    attempted = d.sent + plain.n + traced.n;
    failed =
      d.bad + plain.bad + traced.bad
      + (if coverage < 90.0 then 1 else 0)
      + if chrome_ok then 0 else 1;
    notes =
      d.rows
      @ Printf.sprintf "traced run: %.2f s wall, %d spans, %.1f%% attributed"
          wall (List.length (Tracer.spans t)) coverage
        :: top;
  }
