(* What a workload run hands back, and the end-to-end metrics every
   workload derives the same way from its set-up times and op latencies. *)

type outcome = {
  values : (string * float) list;  (** metric name -> value *)
  samples : (string * int) list;  (** metric name -> samples behind it *)
  attempted : int;
  failed : int;  (** ops that errored or whose output failed a check *)
  notes : string list;  (** human-readable lines printed before the metrics *)
}

type config = {
  seed : int;
  seconds : float;  (** length of the timed window *)
  small : bool;  (** smoke size: small inputs, one pass, no timing goal *)
  chrome : string option;  (** where a traced run writes its Chrome trace *)
}

(* [repeat_setup cfg ?discard f] runs the set-up [f] several times, so one
   slow repetition does not decide setup_s: at least three times, then
   again while the repetitions so far took under three seconds, at most
   nine times (once in smoke size). Every result but the last goes to
   [discard]; returns the last result and the time of each repetition. *)
let repeat_setup cfg ?(discard = ignore) f =
  let times = ref [] and last = ref None in
  let more () =
    let n = List.length !times in
    if cfg.small then n < 1
    else n < 3 || (n < 9 && List.fold_left ( +. ) 0.0 !times < 3.0)
  in
  while more () do
    (* drop the previous repetition's inputs before building the next, so
       peak memory is one set-up's worth *)
    Option.iter discard !last;
    last := None;
    let v, dt = Meter.time f in
    times := dt :: !times;
    last := Some v
  done;
  (Option.get !last, Array.of_list (List.rev !times))

(* Closed loop over passes: start another pass while, at the pace of the
   last one, it would end no later than half a pass after the window.
   Whole passes only, so every run sees the same mix of ops. Returns the
   wall time of all passes. *)
let passes cfg f =
  let t0 = Meter.now () in
  let deadline = t0 +. cfg.seconds in
  let rec go p =
    let s = Meter.now () in
    f p;
    let e = Meter.now () in
    if (not cfg.small) && e +. ((e -. s) /. 2.0) < deadline then go (p + 1)
  in
  go 0;
  Meter.now () -. t0

(* The ops of one run. Every op belongs to a class (one program, one kind
   of call), and every pass runs each class once. *)
type ops = {
  mutable recs : (string * float) list;  (** class, latency in ms *)
  mutable n : int;
  mutable bad : int;
}

let ops () = { recs = []; n = 0; bad = 0 }

(* [op o tr cls f]: time one op of class [cls] (a span of its own when
   tracing); [f] returns whether its output passed the inline checks. An
   op that raises counts as failed. *)
let op o tr cls f =
  let guarded () =
    try f ()
    with e ->
      Printf.eprintf "op %s failed: %s\n%!" cls (Printexc.to_string e);
      false
  in
  let ok, dt = Meter.time (fun () -> Tracer.span tr ~op:o.n cls guarded) in
  o.recs <- (cls, dt *. 1000.0) :: o.recs;
  o.n <- o.n + 1;
  if not ok then o.bad <- o.bad + 1

(* Latencies of one class, in run order. *)
let class_latencies o cls =
  List.rev (List.filter_map (fun (c, ms) -> if c = cls then Some ms else None) o.recs)

(* The end-to-end metrics every workload reports: the median set-up time,
   ops completed per second of the timed window [wall_s], the median and
   90th percentile over the latency of every op, and peak RSS. *)
let metrics ~setup_s ~wall_s ~peak_rss_mb lat_ms =
  let n = Array.length lat_ms in
  ( [
      ("setup_s", Meter.median setup_s);
      ("ops_per_s", float_of_int n /. wall_s);
      ("op_p50_ms", Meter.median lat_ms);
      ("op_p90_ms", Meter.percentile lat_ms 0.9);
      ("peak_rss_mb", peak_rss_mb);
    ],
    [
      ("setup_s", Array.length setup_s);
      ("ops_per_s", n);
      ("op_p50_ms", n);
      ("op_p90_ms", n);
      ("peak_rss_mb", 1);
    ] )

(* The same for a batch workload, from its ops. *)
let batch_metrics ~setup_s ~wall_s ~peak_rss_mb o =
  metrics ~setup_s ~wall_s ~peak_rss_mb (Array.of_list (List.map snd o.recs))
