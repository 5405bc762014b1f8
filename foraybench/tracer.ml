(* The benchmark's own span recorder. Spans are kept in memory and written
   out when the run ends; each records its name, interval, parent, the op
   it belongs to, and the GC's minor/major word counters at both
   boundaries. The recorder lives in the benchmark, around calls into the
   system's public functions: nothing inside the system is instrumented.
   Single-domain: spans nest by a stack, so every span's children lie
   inside it and do not overlap. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a top-level span *)
  op : int;  (** -1 when the span belongs to no op *)
  t0 : float;  (** seconds since the recorder was created *)
  mutable t1 : float;
  minor0 : float;
  major0 : float;
  alloc0 : float;
  mutable minor1 : float;
  mutable major1 : float;
  mutable alloc1 : float;
}

type t = {
  epoch : float;
  mutable done_ : span list;  (** completed, most recent first *)
  mutable stack : span list;
  mutable next : int;
}

let create () = { epoch = Meter.now (); done_ = []; stack = []; next = 0 }

let counters () =
  let minor, promoted, major = Gc.counters () in
  (minor, major, minor +. major -. promoted)

let with_span t ?(op = -1) name f =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let minor0, major0, alloc0 = counters () in
  let s =
    {
      id = t.next;
      name;
      parent;
      op;
      t0 = Meter.now () -. t.epoch;
      t1 = nan;
      minor0;
      major0;
      alloc0;
      minor1 = nan;
      major1 = nan;
      alloc1 = nan;
    }
  in
  t.next <- t.next + 1;
  t.stack <- s :: t.stack;
  let close () =
    s.t1 <- Meter.now () -. t.epoch;
    let minor1, major1, alloc1 = counters () in
    s.minor1 <- minor1;
    s.major1 <- major1;
    s.alloc1 <- alloc1;
    t.stack <- List.tl t.stack;
    t.done_ <- s :: t.done_
  in
  Fun.protect ~finally:close f

(* [span tr name f]: [f ()] inside a span when tracing, bare otherwise. *)
let span tr ?op name f =
  match tr with None -> f () | Some t -> with_span t ?op name f

let spans t = List.rev t.done_
let dur s = s.t1 -. s.t0
let alloc_words s = s.alloc1 -. s.alloc0

(* The span that completed last. *)
let last t = List.hd t.done_

(* Self time: the span's duration minus what its child spans cover.
   Children of one span never overlap (one stack), so that is the sum of
   their durations. *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    t.done_;
  List.map
    (fun s ->
      (s, dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0))
    (spans t)

(* Self seconds per span name, summed over every span of that name. *)
let self_by_name t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name
        (self +. Option.value (Hashtbl.find_opt tbl s.name) ~default:0.0))
    (self_times t);
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

(* Total seconds of every span with [name]. *)
let total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. dur s else acc)
    0.0 t.done_

let total_alloc t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. alloc_words s else acc)
    0.0 t.done_

let json_escape = Foray_core.Error.json_escape

(* Chrome trace-event JSON ("X" complete events, microseconds), loadable in
   Perfetto; GC counters ride along as args. *)
let to_chrome t =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\": [";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\": \"%s\", \"cat\": \"foraybench\", \"ph\": \"X\", \"ts\": \
         %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": {\"span\": %d, \
         \"parent\": %d, \"op\": %d, \"minor_words\": %.0f, \"major_words\": \
         %.0f, \"alloc_words\": %.0f}}"
        (json_escape s.name) (s.t0 *. 1e6) (dur s *. 1e6) s.id s.parent s.op
        (s.minor1 -. s.minor0) (s.major1 -. s.major0) (alloc_words s))
    (spans t);
  Buffer.add_string b "], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents b
