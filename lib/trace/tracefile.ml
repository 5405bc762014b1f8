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

exception Eof

let read_byte ic =
  match In_channel.input_char ic with
  | Some c -> Char.code c
  | None -> raise Eof

(* Nine 7-bit groups (shift 56) already cover every value [write_uvarint]
   can produce from a 63-bit int; a tenth continuation byte
   would shift by 63, where [lsl] is unspecified, so it can only come from
   corrupted input. *)
let rec varint_rest ic shift acc =
  let b = read_byte ic in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc
  else if shift >= 56 then corrupt "varint longer than 9 bytes"
  else varint_rest ic (shift + 7) acc

let read_varint ic =
  let b = read_byte ic in
  let acc = b land 0x7f in
  if b land 0x80 = 0 then acc else varint_rest ic 7 acc

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

let ckind_of_code = function
  | 0 -> Event.Loop_enter
  | 1 -> Event.Body_enter
  | 2 -> Event.Body_exit
  | 3 -> Event.Loop_exit
  | n -> corrupt "bad checkpoint kind %d" n

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

let decode_body ic tag =
  match tag with
  | 0 ->
      let kind = ckind_of_code (read_varint ic) in
      let loop = read_varint ic in
      Event.Checkpoint { loop; kind }
  | 1 | 2 ->
      let sys = read_varint ic = 1 in
      let site = read_varint ic in
      let addr = read_varint ic in
      let width = read_varint ic in
      Event.Access { site; addr; write = tag = 2; sys; width }
  | n -> corrupt "bad record tag %d" n

(* [None] only at a clean record boundary; Eof anywhere inside a record is
   data loss and must not decode as a short-but-successful stream. *)
let decode_opt ic =
  match In_channel.input_char ic with
  | None -> None
  | Some c ->
      let e =
        try
          let b = Char.code c in
          let tag = if b land 0x80 = 0 then b else varint_rest ic 7 (b land 0x7f) in
          decode_body ic tag
        with Eof -> corrupt "binary trace truncated mid-record"
      in
      Some e

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

(* --- zero-copy mapped reader (v2) -------------------------------------- *)

type v2_frame = {
  f_payload : int;
  f_end : int;
  f_events : int;
  f_before : int;
  f_ctx : (int * int) list;
  f_sites : int array;
  f_cuttable : bool;
}

type mapped = {
  m_buf : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
  m_frames : v2_frame array;
  m_events : int;
}

let mapped_events m = m.m_events

(* Safe-access varint used by the (cold) frame-index pass. *)
let bva buf pos limit =
  let rec go p shift acc =
    if p >= limit then corrupt "v2 frame: truncated varint"
    else
      let b = Char.code (Bigarray.Array1.get buf p) in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then (acc, p + 1)
      else if shift >= 56 then corrupt "varint longer than 9 bytes"
      else go (p + 1) (shift + 7) acc
  in
  go pos 0 0

let get_u32 buf pos =
  Char.code (Bigarray.Array1.get buf pos)
  lor (Char.code (Bigarray.Array1.get buf (pos + 1)) lsl 8)
  lor (Char.code (Bigarray.Array1.get buf (pos + 2)) lsl 16)
  lor (Char.code (Bigarray.Array1.get buf (pos + 3)) lsl 24)

let frame_magic_at buf pos =
  Bigarray.Array1.get buf pos = '\xf7'
  && Bigarray.Array1.get buf (pos + 1) = 'F'
  && Bigarray.Array1.get buf (pos + 2) = 'R'
  && Bigarray.Array1.get buf (pos + 3) = '2'

(* One linear pass over the headers builds the frame index: every frame
   window is validated against the mapped length here, which is what lets
   the per-record decode below use unchecked byte access — its cursor can
   never leave [f_payload, f_end) without tripping a bounds test against
   an already-trusted limit. *)
let map path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let size =
    match (Unix.fstat fd).Unix.st_size with
    | s -> s
    | exception e ->
        Unix.close fd;
        raise e
  in
  if size < String.length magic2 then begin
    Unix.close fd;
    corrupt "not a FORAYTR2 file (too short)"
  end;
  let g =
    match Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |] with
    | g ->
        Unix.close fd;
        g
    | exception e ->
        Unix.close fd;
        raise e
  in
  let buf = Bigarray.array1_of_genarray g in
  let head = String.init (String.length magic2) (Bigarray.Array1.get buf) in
  if head <> magic2 then corrupt "not a FORAYTR2 file (bad magic)";
  Obs.add m_bytes_mapped size;
  let frames = ref [] in
  let before = ref 0 in
  let pos = ref (String.length magic2) in
  while !pos < size do
    let p = !pos in
    if p + 24 > size then corrupt "truncated frame header at byte %d" p;
    if not (frame_magic_at buf p) then corrupt "bad frame magic at byte %d" p;
    let body_len = get_u32 buf (p + 4) in
    let n_events = get_u32 buf (p + 8) in
    let n_ctx = get_u32 buf (p + 12) in
    let n_sites = get_u32 buf (p + 16) in
    let flags = get_u32 buf (p + 20) in
    let fend = p + 24 + body_len in
    if fend > size then corrupt "frame at byte %d truncated (%d body bytes)" p body_len;
    if n_ctx * 2 > body_len then corrupt "frame at byte %d: oversized context" p;
    if n_sites > body_len then corrupt "frame at byte %d: oversized dictionary" p;
    if n_events > body_len then corrupt "frame at byte %d: oversized event count" p;
    let q = ref (p + 24) in
    let ctx = ref [] in
    for _ = 1 to n_ctx do
      let lid, q1 = bva buf !q fend in
      let it1, q2 = bva buf q1 fend in
      ctx := (lid, it1 - 1) :: !ctx;
      q := q2
    done;
    let sites = Array.make (max n_sites 1) 0 in
    for i = 0 to n_sites - 1 do
      let site, q1 = bva buf !q fend in
      sites.(i) <- site;
      q := q1
    done;
    frames :=
      {
        f_payload = !q;
        f_end = fend;
        f_events = n_events;
        f_before = !before;
        f_ctx = List.rev !ctx;
        f_sites = (if n_sites = 0 then [||] else sites);
        f_cuttable = flags land 1 = 1;
      }
      :: !frames;
    before := !before + n_events;
    pos := fend
  done;
  {
    m_buf = buf;
    m_frames = Array.of_list (List.rev !frames);
    m_events = !before;
  }

let decode_frame m f (sink : Event.sink) =
  let buf = m.m_buf in
  let limit = f.f_end in
  let sites = f.f_sites in
  let nsites = Array.length sites in
  let prev = Array.make (if nsites = 0 then 1 else nsites) 0 in
  let pos = ref f.f_payload in
  (* Unchecked byte access is bounded: every read first tests the cursor
     against [limit], which [map] proved lies inside the mapping. *)
  let rec varint_slow p shift acc =
    if p >= limit then corrupt "v2 frame: truncated varint"
    else begin
      let b = Char.code (Bigarray.Array1.unsafe_get buf p) in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then begin
        pos := p + 1;
        acc
      end
      else if shift >= 56 then corrupt "varint longer than 9 bytes"
      else varint_slow (p + 1) (shift + 7) acc
    end
  in
  let varint () =
    let p = !pos in
    if p >= limit then corrupt "v2 frame: truncated varint"
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
  while !pos < limit do
    let head = Char.code (Bigarray.Array1.unsafe_get buf !pos) in
    incr pos;
    let tag = head land 3 in
    if tag = 0 then begin
      let kind = ckind_of_code ((head lsr 2) land 3) in
      let loop = (head lsr 4) land 0xf in
      let loop = if loop = 15 then varint () else loop in
      incr count;
      sink (Event.Checkpoint { loop; kind })
    end
    else if tag = 3 then corrupt "v2 frame: bad record tag"
    else begin
      let sys = head land 4 <> 0 in
      let width =
        match (head lsr 3) land 3 with 0 -> varint () | 1 -> 1 | 2 -> 4 | _ -> 8
      in
      let si = (head lsr 5) land 7 in
      let si = if si = 7 then varint () else si in
      if si >= nsites then
        corrupt "v2 frame: site index %d outside dictionary of %d" si nsites;
      let delta = unzigzag (varint ()) in
      let addr = Array.unsafe_get prev si + delta in
      if addr < 0 then corrupt "v2 frame: negative address";
      Array.unsafe_set prev si addr;
      incr count;
      sink
        (Event.Access
           { site = Array.unsafe_get sites si; addr; write = tag = 2; sys; width })
    end
  done;
  if !count <> f.f_events then
    corrupt "v2 frame: %d record(s) decoded, header claims %d" !count f.f_events;
  Obs.incr m_frames_read;
  Obs.add m_events_read f.f_events

let iter_mapped m (sink : Event.sink) =
  Array.iter (fun f -> decode_frame m f sink) m.m_frames

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
  for j = fs.fs_frame to fs.fs_frame + fs.fs_frames - 1 do
    decode_frame m m.m_frames.(j) sink
  done

(* --- readers ---------------------------------------------------------- *)

let is_binary2 path =
  match In_channel.open_bin path with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect
        ~finally:(fun () -> In_channel.close ic)
        (fun () ->
          match In_channel.really_input_string ic (String.length magic2) with
          | Some head -> head = magic2
          | None -> false)

let with_reader path k =
  let ic = In_channel.open_bin path in
  Fun.protect ~finally:(fun () -> In_channel.close ic) (fun () ->
      match In_channel.really_input_string ic (String.length magic) with
      | Some head when head = magic -> k (`Binary ic)
      | Some head when head = magic2 -> k `Binary2
      | _ ->
          In_channel.seek ic 0L;
          k (`Text ic))

let fold path f init =
  Span.with_span ~cat:"trace" "trace.read"
    ~args:[ ("path", Filename.basename path) ]
  @@ fun () ->
  with_reader path (function
    | `Binary2 ->
        let m = map path in
        let acc = ref init in
        iter_mapped m (fun e -> acc := f !acc e);
        !acc
    | `Binary ic ->
        let acc = ref init in
        let continue = ref true in
        while !continue do
          match decode_opt ic with
          | None -> continue := false
          | Some e ->
              Obs.incr m_events_read;
              acc := f !acc e
        done;
        !acc
    | `Text ic ->
        let acc = ref init in
        let lineno = ref 0 in
        let continue = ref true in
        while !continue do
          match In_channel.input_line ic with
          | None -> continue := false
          | Some line ->
              Stdlib.incr lineno;
              if String.trim line <> "" then begin
                let e =
                  match Event.of_line line with
                  | Ok e -> e
                  | Error msg -> corrupt "line %d: %s" !lineno msg
                in
                Obs.incr m_events_read;
                acc := f !acc e
              end
        done;
        !acc)

let iter path (sink : Event.sink) = fold path (fun () e -> sink e) ()

let load path = List.rev (fold path (fun acc e -> e :: acc) [])

(* --- salvaging reader -------------------------------------------------- *)

(* The readers above are fail-fast: the first malformed record raises
   {!Corrupt}. [read] instead treats a trace as evidence to be recovered:
   on a bad record it scans forward to the next byte position where a
   record decodes again (for v2, to the next frame marker), counts the
   gap, and keeps going — the analyzers downstream already tolerate
   partial information (partial affine forms, threshold purging), so a
   damaged trace yields a best-effort model instead of nothing.
   [~strict:true] restores fail-fast behaviour but as a typed value, never
   an exception. *)

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

(* String-based binary record decoder, so resynchronization can retry at
   an arbitrary byte offset (the channel decoder above cannot rewind). *)

let decode_varint_at s pos =
  let len = String.length s in
  let rec go p shift acc =
    if p >= len then Error "varint truncated"
    else
      let b = Char.code (String.unsafe_get s p) in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then Ok (acc, p + 1)
      else if shift >= 56 then Error "varint longer than 9 bytes"
      else go (p + 1) (shift + 7) acc
  in
  go pos 0 0

(* A 9-byte varint or a 16-digit hex field can carry bit 62, so damaged
   input can decode to an event with a negative field: every salvaging
   reader treats it as a bad record, like any other. *)
let check e = match Event.invalid e with None -> Ok e | Some k -> Error k

let decode_event_at s pos =
  let ( let* ) = Result.bind in
  let* tag, pos = decode_varint_at s pos in
  match tag with
  | 0 ->
      let* kind, pos = decode_varint_at s pos in
      let* kind =
        match kind with
        | 0 -> Ok Event.Loop_enter
        | 1 -> Ok Event.Body_enter
        | 2 -> Ok Event.Body_exit
        | 3 -> Ok Event.Loop_exit
        | n -> Error (Printf.sprintf "bad checkpoint kind %d" n)
      in
      let* loop, pos = decode_varint_at s pos in
      let* e = check (Event.Checkpoint { loop; kind }) in
      Ok (e, pos)
  | 1 | 2 ->
      let* sys, pos = decode_varint_at s pos in
      let* site, pos = decode_varint_at s pos in
      let* addr, pos = decode_varint_at s pos in
      let* width, pos = decode_varint_at s pos in
      let* e =
        check
          (Event.Access { site; addr; write = tag = 2; sys = sys = 1; width })
      in
      Ok (e, pos)
  | n -> Error (Printf.sprintf "bad record tag %d" n)

let read_all path =
  let ic = In_channel.open_bin path in
  Fun.protect
    ~finally:(fun () -> In_channel.close ic)
    (fun () -> In_channel.input_all ic)

let read_binary_salvage ~strict s (sink : Event.sink) =
  let len = String.length s in
  let pos = ref (String.length magic) in
  let events = ref 0 in
  let resyncs = ref 0 in
  let skipped = ref 0 in
  let truncated = ref false in
  let errors = ref [] in
  let stop = ref None in
  while !stop = None && !pos < len do
    match decode_event_at s !pos with
    | Ok (e, next) ->
        sink e;
        Obs.incr m_events_read;
        incr events;
        pos := next
    | Error kind ->
        if strict then
          stop := Some { offset = !pos; kind; events_before = !events }
        else begin
          if List.length !errors < max_recorded_errors then
            errors := (!pos, kind) :: !errors;
          let gap_start = !pos in
          Stdlib.incr pos;
          let continue = ref true in
          while !continue && !pos < len do
            match decode_event_at s !pos with
            | Ok _ -> continue := false
            | Error _ -> Stdlib.incr pos
          done;
          if !pos >= len then truncated := true;
          Stdlib.incr resyncs;
          skipped := !skipped + (!pos - gap_start)
        end
  done;
  match !stop with
  | Some c -> Error c
  | None ->
      Ok
        {
          events = !events;
          resyncs = !resyncs;
          bytes_skipped = !skipped;
          truncated_tail = !truncated;
          first_errors = List.rev !errors;
        }

(* --- v2 salvage: frame-by-frame with frame-marker resync --------------- *)

exception Fail2 of int * string

let fail2 off fmt = Printf.ksprintf (fun s -> raise (Fail2 (off, s))) fmt

let get_u32_s s pos =
  Char.code (String.unsafe_get s pos)
  lor (Char.code (String.unsafe_get s (pos + 1)) lsl 8)
  lor (Char.code (String.unsafe_get s (pos + 2)) lsl 16)
  lor (Char.code (String.unsafe_get s (pos + 3)) lsl 24)

let rec find_frame_magic s from =
  let len = String.length s in
  if from >= len then None
  else
    match String.index_from_opt s from '\xf7' with
    | None -> None
    | Some i ->
        if
          i + 4 <= len
          && s.[i + 1] = 'F'
          && s.[i + 2] = 'R'
          && s.[i + 3] = '2'
        then Some i
        else find_frame_magic s (i + 1)

(* Decode one frame at [pos], delivering events as they decode (a frame
   that dies halfway still contributed its prefix — salvage counts what
   reached the sink). Returns the frame end; raises {!Fail2} on damage.
   Every allocation is bounded by the validated [body_len], so a hostile
   header cannot make salvage blow up before the decode loop trips. *)
let salvage_v2_frame s pos (sink : Event.sink) events =
  let len = String.length s in
  if pos + 24 > len then fail2 pos "truncated frame header";
  if
    not
      (String.unsafe_get s pos = '\xf7'
      && s.[pos + 1] = 'F'
      && s.[pos + 2] = 'R'
      && s.[pos + 3] = '2')
  then fail2 pos "bad frame magic";
  let body_len = get_u32_s s (pos + 4) in
  let n_events = get_u32_s s (pos + 8) in
  let n_ctx = get_u32_s s (pos + 12) in
  let n_sites = get_u32_s s (pos + 16) in
  let fend = pos + 24 + body_len in
  if fend > len then fail2 pos "frame body truncated";
  if n_ctx * 2 > body_len then fail2 pos "oversized context";
  if n_sites > body_len then fail2 pos "oversized dictionary";
  if n_events > body_len then fail2 pos "oversized event count";
  let p = ref (pos + 24) in
  let varint () =
    let rec go q shift acc =
      if q >= fend then fail2 !p "varint truncated"
      else
        let b = Char.code (String.unsafe_get s q) in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 = 0 then begin
          p := q + 1;
          acc
        end
        else if shift >= 56 then fail2 !p "varint longer than 9 bytes"
        else go (q + 1) (shift + 7) acc
    in
    go !p 0 0
  in
  for _ = 1 to n_ctx do
    ignore (varint ());
    ignore (varint ())
  done;
  let sites = Array.make (max n_sites 1) 0 in
  for i = 0 to n_sites - 1 do
    sites.(i) <- varint ()
  done;
  let prev = Array.make (max n_sites 1) 0 in
  let count = ref 0 in
  let deliver at e =
    (match Event.invalid e with Some kind -> fail2 at "%s" kind | None -> ());
    sink e;
    Obs.incr m_events_read;
    Stdlib.incr events;
    Stdlib.incr count
  in
  while !p < fend do
    let at = !p in
    let head = Char.code (String.unsafe_get s !p) in
    Stdlib.incr p;
    let tag = head land 3 in
    if tag = 0 then begin
      let kind =
        match (head lsr 2) land 3 with
        | 0 -> Event.Loop_enter
        | 1 -> Event.Body_enter
        | 2 -> Event.Body_exit
        | _ -> Event.Loop_exit
      in
      let loop = (head lsr 4) land 0xf in
      let loop = if loop = 15 then varint () else loop in
      deliver at (Event.Checkpoint { loop; kind })
    end
    else if tag = 3 then fail2 at "bad record tag"
    else begin
      let sys = head land 4 <> 0 in
      let width =
        match (head lsr 3) land 3 with 0 -> varint () | 1 -> 1 | 2 -> 4 | _ -> 8
      in
      let si = (head lsr 5) land 7 in
      let si = if si = 7 then varint () else si in
      if si >= n_sites then fail2 at "site index outside dictionary";
      let delta = unzigzag (varint ()) in
      let addr = prev.(si) + delta in
      prev.(si) <- addr;
      deliver at
        (Event.Access { site = sites.(si); addr; write = tag = 2; sys; width })
    end
  done;
  if !count <> n_events then
    fail2 pos "frame claims %d event(s), decoded %d" n_events !count;
  fend

let read_binary2_salvage ~strict s (sink : Event.sink) =
  let len = String.length s in
  let pos = ref (String.length magic2) in
  let events = ref 0 in
  let resyncs = ref 0 in
  let skipped = ref 0 in
  let truncated = ref false in
  let errors = ref [] in
  let stop = ref None in
  while !stop = None && !pos < len do
    match salvage_v2_frame s !pos sink events with
    | fend -> pos := fend
    | exception Fail2 (off, kind) ->
        if strict then
          stop := Some { offset = off; kind; events_before = !events }
        else begin
          if List.length !errors < max_recorded_errors then
            errors := (off, kind) :: !errors;
          (match find_frame_magic s (off + 1) with
          | Some q ->
              Stdlib.incr resyncs;
              skipped := !skipped + (q - off);
              pos := q
          | None ->
              truncated := true;
              skipped := !skipped + (len - off);
              pos := len)
        end
  done;
  match !stop with
  | Some c -> Error c
  | None ->
      Ok
        {
          events = !events;
          resyncs = !resyncs;
          bytes_skipped = !skipped;
          truncated_tail = !truncated;
          first_errors = List.rev !errors;
        }

let read_text_salvage ~strict s (sink : Event.sink) =
  let events = ref 0 in
  let resyncs = ref 0 in
  let skipped = ref 0 in
  let errors = ref [] in
  let stop = ref None in
  let in_gap = ref false in
  let offset = ref 0 in
  let lines = String.split_on_char '\n' s in
  List.iter
    (fun line ->
      let line_off = !offset in
      offset := !offset + String.length line + 1;
      if !stop = None && String.trim line <> "" then
        match Result.bind (Event.of_line line) check with
        | Ok e ->
            in_gap := false;
            sink e;
            Obs.incr m_events_read;
            incr events
        | Error kind ->
            if strict then
              stop := Some { offset = line_off; kind; events_before = !events }
            else begin
              if List.length !errors < max_recorded_errors then
                errors := (line_off, kind) :: !errors;
              if not !in_gap then Stdlib.incr resyncs;
              in_gap := true;
              skipped := !skipped + String.length line + 1
            end)
    lines;
  match !stop with
  | Some c -> Error c
  | None ->
      Ok
        {
          events = !events;
          resyncs = !resyncs;
          bytes_skipped = !skipped;
          truncated_tail = false;
          first_errors = List.rev !errors;
        }

let read ?(strict = false) path (sink : Event.sink) =
  Span.with_span ~cat:"trace" "trace.read_salvage"
    ~args:[ ("path", Filename.basename path) ]
  @@ fun () ->
  let s = read_all path in
  let has m =
    String.length s >= String.length m && String.sub s 0 (String.length m) = m
  in
  if has magic then read_binary_salvage ~strict s sink
  else if has magic2 then read_binary2_salvage ~strict s sink
  else read_text_salvage ~strict s sink

let salvage_to_string (s : salvage) =
  Printf.sprintf
    "%d event(s) salvaged, %d resync(s), %d byte(s) skipped%s" s.events
    s.resyncs s.bytes_skipped
    (if s.truncated_tail then ", truncated tail" else "")
