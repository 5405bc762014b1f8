module Obs = Foray_obs.Obs
module Span = Foray_obs.Span

type format = Text | Binary | Binary2

exception Corrupt of string

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some (Printf.sprintf "Tracefile.Corrupt(%S)" msg)
    | _ -> None)

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let magic = "FORAYTR1"
let magic2 = "FORAYTR2"

(* Each FORAYTR2 frame opens with its own 4-byte marker so a salvaging
   reader can resynchronize on frame boundaries; 0xf7 keeps it out of
   7-bit varint payload bytes most of the time. *)
let frame_magic = "\xf7FR2"

let default_frame_events = 8192

(* metrics: stream-level totals; zero-cost unless Obs collection is on *)
let m_events_written = Obs.counter "trace.events_written"
let m_bytes_written = Obs.counter "trace.bytes_written"
let m_flushes = Obs.counter "trace.flushes"
let m_events_read = Obs.counter "trace.events_read"
let m_frames_written = Obs.counter "trace.frames_written"
let m_frames_read = Obs.counter "trace.frames_read"
let m_bytes_mapped = Obs.counter "trace.bytes_mapped"

(* --- varints --------------------------------------------------------- *)

(* [n] as an unsigned 63-bit value: at most nine 7-bit groups. *)
let write_uvarint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let write_varint buf n =
  if n < 0 then invalid_arg "Tracefile: negative varint";
  write_uvarint buf n

(* Address deltas are signed; zigzag folds the sign into bit 0 so small
   negative strides stay one byte. Both directions work modulo 2^63: the
   zigzag of any delta is an unsigned 63-bit value ([write_uvarint] writes
   it in at most 9 bytes), and [prev + unzigzag z] wraps back to the
   exact address. *)
let zigzag d = (d lsl 1) lxor (d asr 62)
let unzigzag v = (v lsr 1) lxor (-(v land 1))

let add_u32 buf n =
  Buffer.add_char buf (Char.unsafe_chr (n land 0xff));
  Buffer.add_char buf (Char.unsafe_chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.unsafe_chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.unsafe_chr ((n lsr 24) land 0xff))

(* --- binary records (v1) --------------------------------------------- *)

(* tags: 0 = checkpoint, 1 = read, 2 = write; access flags bit0 = sys *)

let ckind_code = function
  | Event.Loop_enter -> 0
  | Event.Body_enter -> 1
  | Event.Body_exit -> 2
  | Event.Loop_exit -> 3

let encode buf = function
  | Event.Checkpoint { loop; kind } ->
      write_varint buf 0;
      write_varint buf (ckind_code kind);
      write_varint buf loop
  | Event.Access { site; addr; write; sys; width } ->
      write_varint buf (if write then 2 else 1);
      write_varint buf (if sys then 1 else 0);
      write_varint buf site;
      write_varint buf addr;
      write_varint buf width

(* --- writers ---------------------------------------------------------- *)

(* Events accumulate in one persistent buffer that is blitted to the
   channel only when it passes [chunk] bytes — no per-event string
   allocation and no per-event channel call. [close] flushes the tail. *)
let chunk = 64 * 1024

let sink_to_file ?(frame_events = default_frame_events) ~format path =
  if frame_events < 1 then invalid_arg "Tracefile: frame_events must be >= 1";
  let oc = Out_channel.open_bin path in
  let closed = ref false in
  let close_channel () =
    if not !closed then begin
      closed := true;
      Out_channel.close oc
    end
  in
  (try
     match format with
     | Binary -> Out_channel.output_string oc magic
     | Binary2 -> Out_channel.output_string oc magic2
     | Text -> ()
   with e ->
     close_channel ();
     raise e);
  let buf = Buffer.create (2 * chunk) in
  let flush () =
    Obs.add m_bytes_written (Buffer.length buf);
    Obs.incr m_flushes;
    if Span.enabled () then
      Span.instant ~cat:"trace" "trace.flush"
        ~args:[ ("bytes", string_of_int (Buffer.length buf)) ];
    Buffer.output_buffer oc buf;
    Buffer.clear buf
  in
  match format with
  | Text | Binary ->
      let sink e =
        if !closed then invalid_arg "Tracefile: sink used after close";
        (* If encoding or the channel write fails mid-event, flush the whole
           records buffered so far (dropping the partial one) and release the
           channel instead of leaking it. *)
        let mark = Buffer.length buf in
        try
          (match format with
          | Text ->
              Buffer.add_string buf (Event.to_line e);
              Buffer.add_char buf '\n'
          | Binary | Binary2 -> encode buf e);
          Obs.incr m_events_written;
          if Buffer.length buf >= chunk then flush ()
        with ex ->
          Buffer.truncate buf mark;
          (try flush () with _ -> ());
          close_channel ();
          raise ex
      in
      ( sink,
        fun () ->
          if not !closed then begin
            (try flush ()
             with e ->
               close_channel ();
               raise e);
            close_channel ()
          end )
  | Binary2 ->
      (* Frame encoder. Records, the per-frame site dictionary and the
         per-site previous addresses build up incrementally (dictionary
         indices are assigned in insertion order, so record bytes can be
         emitted the moment an event arrives); the fixed-width header is
         known only at flush time, when counts are final. A frame flushes
         early on a checkpoint once it holds [frame_events] events — that
         frame boundary is then checkpoint-aligned and usable as a shard
         cut — and unconditionally at 4x that size so checkpoint-free
         access bursts cannot grow a frame without bound. Each frame
         header carries the loop context before its first event. *)
      let walker = Loopwalk.create () in
      let records = Buffer.create chunk in
      let dict = Buffer.create 256 in
      let tbl = Hashtbl.create 64 in
      let prev = ref (Array.make 16 0) in
      let nsites = ref 0 in
      let nevents = ref 0 in
      let first_ck = ref false in
      let ctx = ref [] in
      let hard_limit = 4 * frame_events in
      let site_index site =
        match Hashtbl.find_opt tbl site with
        | Some i -> i
        | None ->
            let i = !nsites in
            Hashtbl.replace tbl site i;
            if i >= Array.length !prev then begin
              let a = Array.make (2 * Array.length !prev) 0 in
              Array.blit !prev 0 a 0 (Array.length !prev);
              prev := a
            end;
            !prev.(i) <- 0;
            nsites := i + 1;
            write_varint dict site;
            i
      in
      let flush_frame () =
        if !nevents > 0 then begin
          let cbuf = Buffer.create 64 in
          let n_ctx = List.length !ctx in
          List.iter
            (fun (lid, it) ->
              write_varint cbuf lid;
              write_varint cbuf (it + 1))
            !ctx;
          let body_len =
            Buffer.length cbuf + Buffer.length dict + Buffer.length records
          in
          Buffer.add_string buf frame_magic;
          add_u32 buf body_len;
          add_u32 buf !nevents;
          add_u32 buf n_ctx;
          add_u32 buf !nsites;
          add_u32 buf (if !first_ck then 1 else 0);
          Buffer.add_buffer buf cbuf;
          Buffer.add_buffer buf dict;
          Buffer.add_buffer buf records;
          Obs.incr m_frames_written;
          Buffer.clear records;
          Buffer.clear dict;
          Hashtbl.reset tbl;
          nsites := 0;
          nevents := 0;
          first_ck := false;
          ctx := [];
          if Buffer.length buf >= chunk then flush ()
        end
      in
      let encode2 e =
        (* validate first: nothing below can raise, so a failing event
           never leaves half a record in the frame *)
        (match Event.invalid e with
        | Some k -> invalid_arg ("Tracefile: " ^ k)
        | None -> ());
        match e with
        | Event.Checkpoint { loop; kind } ->
            let k = ckind_code kind in
            if loop < 15 then
              Buffer.add_char records (Char.chr ((loop lsl 4) lor (k lsl 2)))
            else begin
              Buffer.add_char records (Char.chr ((15 lsl 4) lor (k lsl 2)));
              write_varint records loop
            end
        | Event.Access { site; addr; write; sys; width } ->
            let tag = if write then 2 else 1 in
            let wcode = match width with 1 -> 1 | 4 -> 2 | 8 -> 3 | _ -> 0 in
            let si = site_index site in
            let d = addr - !prev.(si) in
            let z = zigzag d in
            let sfield = if si < 7 then si else 7 in
            let head =
              tag lor (if sys then 4 else 0) lor (wcode lsl 3) lor (sfield lsl 5)
            in
            Buffer.add_char records (Char.chr head);
            if wcode = 0 then write_varint records width;
            if sfield = 7 then write_varint records si;
            !prev.(si) <- addr;
            write_uvarint records z
      in
      let sink e =
        if !closed then invalid_arg "Tracefile: sink used after close";
        (match e with
        | Event.Checkpoint _ when !nevents >= frame_events -> flush_frame ()
        | _ when !nevents >= hard_limit -> flush_frame ()
        | _ -> ());
        try
          if !nevents = 0 then begin
            ctx := Loopwalk.context walker;
            first_ck := (match e with Event.Checkpoint _ -> true | _ -> false)
          end;
          encode2 e;
          nevents := !nevents + 1;
          Obs.incr m_events_written;
          Loopwalk.sink walker e
        with ex ->
          (try
             flush_frame ();
             flush ()
           with _ -> ());
          close_channel ();
          raise ex
      in
      ( sink,
        fun () ->
          if not !closed then begin
            (try
               flush_frame ();
               flush ()
             with e ->
               close_channel ();
               raise e);
            close_channel ()
          end )

let save ?frame_events ~format path events =
  let sink, close = sink_to_file ?frame_events ~format path in
  Fun.protect ~finally:close (fun () -> List.iter sink events)

let with_sink ?frame_events ~format path k =
  let sink, close = sink_to_file ?frame_events ~format path in
  Fun.protect ~finally:close (fun () -> k sink)

(* --- reading: one decoder per format, over a read-only mapping ---------- *)

(* Every reader decodes straight out of the file's pages: nothing is read
   into the heap, and a salvaging resync can retry at any byte offset. *)
type mapping =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Damage met while decoding: byte offset and kind. Salvage resyncs past
   it, strict mode returns it, the mapped reader raises it as {!Corrupt}. *)
exception Damage of int * string

let damage off kind = raise (Damage (off, kind))

let corrupt_of_damage f =
  try f () with Damage (off, kind) -> corrupt "%s at byte %d" kind off

(* The descriptor closes at once; the pages stay mapped until the array
   is collected. Failures surface as [Sys_error], like a channel open. *)
let map_file path =
  let sys_error e = raise (Sys_error (path ^ ": " ^ Unix.error_message e)) in
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) -> sys_error e
  | fd -> (
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      try
        let size = (Unix.fstat fd).Unix.st_size in
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |])
      with Unix.Unix_error (e, _, _) -> sys_error e)

let has_prefix (buf : mapping) prefix =
  let n = String.length prefix in
  Bigarray.Array1.dim buf >= n
  &&
  let rec go i = i = n || (Bigarray.Array1.get buf i = prefix.[i] && go (i + 1)) in
  go 0

let format_of buf =
  if has_prefix buf magic then Some Binary
  else if has_prefix buf magic2 then Some Binary2
  else if has_prefix buf "Checkpoint:" || has_prefix buf "Instr:" then Some Text
  else None

let sniff path =
  match map_file path with buf -> format_of buf | exception Sys_error _ -> None

(* Bounds-checked varint at [p] below [limit]: the value and the offset
   after it. Damage is reported at [at]. Nine 7-bit groups (shift 56)
   cover every value [write_uvarint] produces; a tenth continuation byte
   can only come from corrupted input. *)
let varint_at (buf : mapping) ~at p limit =
  let rec go q shift acc =
    if q >= limit then damage at "varint truncated"
    else
      let b = Char.code (Bigarray.Array1.unsafe_get buf q) in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then (acc, q + 1)
      else if shift >= 56 then damage at "varint longer than 9 bytes"
      else go (q + 1) (shift + 7) acc
  in
  go p 0 0

(* A 9-byte varint or a 16-digit hex field can carry bit 62, so damaged
   input can decode to an event with a negative field: every decoder
   treats it as a bad record, like any other. *)
let checked at e =
  match Event.invalid e with Some kind -> damage at kind | None -> e

let ckinds = [| Event.Loop_enter; Event.Body_enter; Event.Body_exit; Event.Loop_exit |]

(* --- FORAYTR1 ---------------------------------------------------------- *)

(* The v1 record at [pos]: the event and the offset after it. *)
let decode_v1 (buf : mapping) len pos =
  let varint p = varint_at buf ~at:pos p len in
  let tag, p = varint pos in
  match tag with
  | 0 ->
      let kind, p = varint p in
      if kind < 0 || kind > 3 then
        damage pos (Printf.sprintf "bad checkpoint kind %d" kind);
      let loop, p = varint p in
      (checked pos (Event.Checkpoint { loop; kind = ckinds.(kind) }), p)
  | 1 | 2 ->
      let sys, p = varint p in
      let site, p = varint p in
      let addr, p = varint p in
      let width, p = varint p in
      ( checked pos
          (Event.Access { site; addr; write = tag = 2; sys = sys = 1; width }),
        p )
  | n -> damage pos (Printf.sprintf "bad record tag %d" n)

(* --- FORAYTR2 ---------------------------------------------------------- *)

type v2_frame = {
  f_start : int;
  f_payload : int;
  f_end : int;
  f_events : int;
  f_before : int;
  f_ctx : (int * int) list;
  f_sites : int array;
  f_cuttable : bool;
}

let get_u32 (buf : mapping) pos =
  Char.code (Bigarray.Array1.get buf pos)
  lor (Char.code (Bigarray.Array1.get buf (pos + 1)) lsl 8)
  lor (Char.code (Bigarray.Array1.get buf (pos + 2)) lsl 16)
  lor (Char.code (Bigarray.Array1.get buf (pos + 3)) lsl 24)

let frame_magic_at (buf : mapping) pos =
  Bigarray.Array1.get buf pos = '\xf7'
  && Bigarray.Array1.get buf (pos + 1) = 'F'
  && Bigarray.Array1.get buf (pos + 2) = 'R'
  && Bigarray.Array1.get buf (pos + 3) = '2'

(* The frame header at [p], checked against the mapped length: its
   window, loop context and site dictionary. The frame index of {!map}
   and the salvage walk both parse headers here. Every allocation is
   bounded by the validated [body_len], so a hostile header cannot blow
   up before a check trips. *)
let frame_header (buf : mapping) p ~before =
  let size = Bigarray.Array1.dim buf in
  if p + 24 > size then damage p "truncated frame header";
  if not (frame_magic_at buf p) then damage p "bad frame magic";
  let body_len = get_u32 buf (p + 4) in
  let n_events = get_u32 buf (p + 8) in
  let n_ctx = get_u32 buf (p + 12) in
  let n_sites = get_u32 buf (p + 16) in
  let flags = get_u32 buf (p + 20) in
  let fend = p + 24 + body_len in
  if fend > size then damage p "frame body truncated";
  if n_ctx * 2 > body_len then damage p "oversized context";
  if n_sites > body_len then damage p "oversized dictionary";
  if n_events > body_len then damage p "oversized event count";
  let q = ref (p + 24) in
  let varint () =
    let v, next = varint_at buf ~at:!q !q fend in
    q := next;
    v
  in
  let ctx = ref [] in
  for _ = 1 to n_ctx do
    let lid = varint () in
    let it1 = varint () in
    ctx := (lid, it1 - 1) :: !ctx
  done;
  let sites = Array.make n_sites 0 in
  for i = 0 to n_sites - 1 do
    sites.(i) <- varint ()
  done;
  {
    f_start = p;
    f_payload = !q;
    f_end = fend;
    f_events = n_events;
    f_before = before;
    f_ctx = List.rev !ctx;
    f_sites = sites;
    f_cuttable = flags land 1 = 1;
  }

(* The only FORAYTR2 record decoder. Unchecked byte access is bounded:
   every read first tests the cursor against [f_end], which
   {!frame_header} proved lies inside the mapping. Unchecked array access
   is bounded too: a dictionary index is tested against both ends before
   it reaches [prev] or [sites], since an escaped index is a varint that
   damaged input can make negative. Events reach [sink] as
   they decode, so a frame that dies halfway has delivered its prefix. A
   sign test guards [checked], which names the damage: calling it on
   every event costs a third of the decode rate. *)
let decode_frame (buf : mapping) f (sink : Event.sink) =
  let limit = f.f_end in
  let sites = f.f_sites in
  let nsites = Array.length sites in
  let prev = Array.make (max nsites 1) 0 in
  let pos = ref f.f_payload in
  let rec varint_slow p shift acc =
    if p >= limit then damage !pos "varint truncated"
    else begin
      let b = Char.code (Bigarray.Array1.unsafe_get buf p) in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then begin
        pos := p + 1;
        acc
      end
      else if shift >= 56 then damage !pos "varint longer than 9 bytes"
      else varint_slow (p + 1) (shift + 7) acc
    end
  in
  let varint () =
    let p = !pos in
    if p >= limit then damage p "varint truncated"
    else begin
      let b = Char.code (Bigarray.Array1.unsafe_get buf p) in
      if b < 0x80 then begin
        pos := p + 1;
        b
      end
      else varint_slow (p + 1) 7 (b land 0x7f)
    end
  in
  let count = ref 0 in
  (try
  while !pos < limit do
    let at = !pos in
    let head = Char.code (Bigarray.Array1.unsafe_get buf at) in
    pos := at + 1;
    let tag = head land 3 in
    if tag = 0 then begin
      let kind = Array.unsafe_get ckinds ((head lsr 2) land 3) in
      let loop = (head lsr 4) land 0xf in
      let loop = if loop = 15 then varint () else loop in
      incr count;
      let e = Event.Checkpoint { loop; kind } in
      if loop < 0 then ignore (checked at e);
      sink e
    end
    else if tag = 3 then damage at "bad record tag"
    else begin
      let sys = head land 4 <> 0 in
      let width =
        match (head lsr 3) land 3 with 0 -> varint () | 1 -> 1 | 2 -> 4 | _ -> 8
      in
      let si = (head lsr 5) land 7 in
      let si = if si = 7 then varint () else si in
      if si < 0 || si >= nsites then damage at "site index outside dictionary";
      let addr = Array.unsafe_get prev si + unzigzag (varint ()) in
      Array.unsafe_set prev si addr;
      incr count;
      let site = Array.unsafe_get sites si in
      let e = Event.Access { site; addr; write = tag = 2; sys; width } in
      if site lor addr lor width < 0 then ignore (checked at e);
      sink e
    end
  done
  with e ->
    Obs.add m_events_read !count;
    raise e);
  Obs.add m_events_read !count;
  if !count <> f.f_events then
    damage f.f_start
      (Printf.sprintf "frame claims %d event(s), decoded %d" f.f_events !count);
  Obs.incr m_frames_read

(* --- zero-copy mapped reader (v2) -------------------------------------- *)

type mapped = { m_buf : mapping; m_frames : v2_frame array; m_events : int }

let mapped_events m = m.m_events

(* One linear pass over the headers builds the frame index. *)
let map path =
  let buf = map_file path in
  if format_of buf <> Some Binary2 then corrupt "not a FORAYTR2 file";
  let size = Bigarray.Array1.dim buf in
  Obs.add m_bytes_mapped size;
  let frames = ref [] in
  let before = ref 0 in
  let pos = ref (String.length magic2) in
  corrupt_of_damage (fun () ->
      while !pos < size do
        let f = frame_header buf !pos ~before:!before in
        frames := f :: !frames;
        before := !before + f.f_events;
        pos := f.f_end
      done);
  { m_buf = buf; m_frames = Array.of_list (List.rev !frames); m_events = !before }

let iter_mapped m (sink : Event.sink) =
  corrupt_of_damage (fun () ->
      Array.iter (fun f -> decode_frame m.m_buf f sink) m.m_frames)

(* --- frame-index sharding (v2) ----------------------------------------- *)

type fshard = {
  fs_index : int;
  fs_frame : int;
  fs_frames : int;
  fs_events : int;
  fs_context : (int * int) list;
}

let frame_shards ~n m =
  if n < 1 then invalid_arg "Tracefile.frame_shards: n must be >= 1";
  let total = m.m_events in
  let nf = Array.length m.m_frames in
  let cuts = ref [] in
  let next = ref 1 in
  for j = 1 to nf - 1 do
    let f = m.m_frames.(j) in
    if !next < n && f.f_cuttable && f.f_before >= !next * total / n then begin
      cuts := j :: !cuts;
      while !next < n && f.f_before >= !next * total / n do
        incr next
      done
    end
  done;
  let starts = Array.of_list (0 :: List.rev !cuts) in
  let events_before j = if j < nf then m.m_frames.(j).f_before else total in
  Array.to_list
    (Array.mapi
       (fun i s ->
         let stop =
           if i + 1 < Array.length starts then starts.(i + 1) else nf
         in
         {
           fs_index = i;
           fs_frame = s;
           fs_frames = stop - s;
           fs_events = events_before stop - events_before s;
           fs_context = (if s < nf then m.m_frames.(s).f_ctx else []);
         })
       starts)

let iter_fshard m fs (sink : Event.sink) =
  corrupt_of_damage (fun () ->
      for j = fs.fs_frame to fs.fs_frame + fs.fs_frames - 1 do
        decode_frame m.m_buf m.m_frames.(j) sink
      done)

(* --- the reader: salvaging or strict ----------------------------------- *)

(* [read] treats a trace as evidence to be recovered: on a bad record it
   scans forward to the next byte position where a record decodes again
   (for v2, to the next frame marker), counts the gap, and keeps going —
   the analyzers downstream already tolerate partial information (partial
   affine forms, threshold purging), so a damaged trace yields a
   best-effort model instead of nothing. [~strict:true] stops at the
   first damage and returns it as a typed value, never an exception. *)

type corruption = { offset : int; kind : string; events_before : int }

type salvage = {
  events : int;
  resyncs : int;
  bytes_skipped : int;
  truncated_tail : bool;
  first_errors : (int * string) list;
}

let clean_salvage events =
  {
    events;
    resyncs = 0;
    bytes_skipped = 0;
    truncated_tail = false;
    first_errors = [];
  }

let max_recorded_errors = 8

let outcome ~stop ~events ~resyncs ~skipped ~truncated ~errors =
  match stop with
  | Some c -> Error c
  | None ->
      Ok
        {
          events;
          resyncs;
          bytes_skipped = skipped;
          truncated_tail = truncated;
          first_errors = List.rev errors;
        }

(* The walk both binary formats share. [step pos deliver] decodes from
   [pos] and returns where the next unit starts, raising {!Damage};
   [resync off] names where decoding may resume after damage at [off]
   ([None]: nowhere before the end of the file). *)
let salvage_walk ~strict buf ~start ~step ~resync (sink : Event.sink) =
  let len = Bigarray.Array1.dim buf in
  let events = ref 0 in
  let deliver e =
    incr events;
    sink e
  in
  let pos = ref start in
  let resyncs = ref 0 and skipped = ref 0 and truncated = ref false in
  let errors = ref [] and stop = ref None in
  while !stop = None && !pos < len do
    match step !pos deliver with
    | next -> pos := next
    | exception Damage (off, kind) ->
        if strict then
          stop := Some { offset = off; kind; events_before = !events }
        else begin
          if List.length !errors < max_recorded_errors then
            errors := (off, kind) :: !errors;
          match resync off with
          | Some q ->
              incr resyncs;
              skipped := !skipped + (q - off);
              if q >= len then truncated := true;
              pos := q
          | None ->
              truncated := true;
              skipped := !skipped + (len - off);
              pos := len
        end
  done;
  outcome ~stop:!stop ~events:!events ~resyncs:!resyncs ~skipped:!skipped
    ~truncated:!truncated ~errors:!errors

(* v1 resyncs at the next byte where a whole record decodes. *)
let read_v1 ~strict buf sink =
  let len = Bigarray.Array1.dim buf in
  let step pos deliver =
    let e, next = decode_v1 buf len pos in
    deliver e;
    Obs.incr m_events_read;
    next
  in
  let rec decodes_at q =
    if q >= len then q
    else
      match decode_v1 buf len q with
      | _ -> q
      | exception Damage _ -> decodes_at (q + 1)
  in
  salvage_walk ~strict buf ~start:(String.length magic) ~step
    ~resync:(fun off -> Some (decodes_at (off + 1)))
    sink

(* v2 resyncs at the next frame marker. *)
let read_v2 ~strict buf sink =
  let last = Bigarray.Array1.dim buf - 4 in
  let rec marker_at q =
    if q > last then None
    else if frame_magic_at buf q then Some q
    else marker_at (q + 1)
  in
  let step pos deliver =
    let f = frame_header buf pos ~before:0 in
    decode_frame buf f deliver;
    f.f_end
  in
  salvage_walk ~strict buf ~start:(String.length magic2) ~step
    ~resync:(fun off -> marker_at (off + 1))
    sink

(* Text is line-based: a run of bad lines is one resync, and blank lines
   neither deliver nor end a run. Lines are cut as
   [String.split_on_char '\n'] would cut the file. *)
let read_text ~strict (buf : mapping) (sink : Event.sink) =
  let len = Bigarray.Array1.dim buf in
  let events = ref 0 and resyncs = ref 0 and skipped = ref 0 in
  let errors = ref [] and stop = ref None in
  let in_gap = ref false in
  let start = ref 0 in
  while !stop = None && !start <= len do
    let line_off = !start in
    let nl = ref line_off in
    while !nl < len && Bigarray.Array1.unsafe_get buf !nl <> '\n' do
      incr nl
    done;
    let n = !nl - line_off in
    let b = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get buf (line_off + i))
    done;
    let line = Bytes.unsafe_to_string b in
    start := !nl + 1;
    let bad kind =
      if strict then
        stop := Some { offset = line_off; kind; events_before = !events }
      else begin
        if List.length !errors < max_recorded_errors then
          errors := (line_off, kind) :: !errors;
        if not !in_gap then incr resyncs;
        in_gap := true;
        skipped := !skipped + n + 1
      end
    in
    if String.trim line <> "" then
      match Event.of_line line with
      | Error kind -> bad kind
      | Ok e -> (
          match Event.invalid e with
          | Some kind -> bad kind
          | None ->
              in_gap := false;
              sink e;
              Obs.incr m_events_read;
              incr events)
  done;
  outcome ~stop:!stop ~events:!events ~resyncs:!resyncs ~skipped:!skipped
    ~truncated:false ~errors:!errors

let read ?(strict = false) path (sink : Event.sink) =
  Span.with_span ~cat:"trace" "trace.read"
    ~args:[ ("path", Filename.basename path) ]
  @@ fun () ->
  let buf = map_file path in
  match format_of buf with
  | Some Binary -> read_v1 ~strict buf sink
  | Some Binary2 -> read_v2 ~strict buf sink
  | Some Text | None -> read_text ~strict buf sink

let salvage_to_string (s : salvage) =
  Printf.sprintf
    "%d event(s) salvaged, %d resync(s), %d byte(s) skipped%s" s.events
    s.resyncs s.bytes_skipped
    (if s.truncated_tail then ", truncated tail" else "")
