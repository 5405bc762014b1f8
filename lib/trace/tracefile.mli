(** Trace files: persisting the profile for offline analysis.

    The paper's flow stores the (typically large) trace on disk between the
    simulator and the analyzer, unless the online mode is used. Three
    on-disk formats:

    - {b Text}: one {!Event.to_line} record per line — the human-readable
      Figure 4(c) format;
    - {b Binary}: a ["FORAYTR1"] magic followed by tag-byte +
      LEB128-varint records, roughly 4-6x smaller than text;
    - {b Binary2}: a ["FORAYTR2"] magic followed by fixed-header batch
      frames — per-frame site dictionaries, one-byte record heads and
      zigzag-delta-encoded addresses — built for zero-copy reading: the
      whole file is [Unix.map_file]'d and decoded straight out of the
      mapping ({!map}/{!iter_mapped}), and the frame index doubles as the
      shard cutter ({!frame_shards}), so no event array is ever
      materialized.

    Each format has exactly one decoder, and every reader runs it over a
    read-only [Unix.map_file] mapping of the file: nothing is loaded into
    the heap. Binary records decode in place and text is copied one line
    at a time, so a reader's memory is bounded by the longest text line,
    not by the file size.
    {!read} detects the format from the magic and either salvages damaged
    content or, with [~strict:true], returns the first damage as a value
    — a binary stream may only end at a record boundary, so a file chopped
    mid-record never passes as a shorter trace. The mapped v2 reader
    ({!map}, {!iter_mapped}, {!iter_fshard}) raises {!Corrupt} instead.

    When {!Foray_obs.Obs} collection is enabled, readers and writers
    report [trace.events_written], [trace.bytes_written], [trace.flushes],
    [trace.events_read], and for the v2 format [trace.frames_written],
    [trace.frames_read] and [trace.bytes_mapped]. *)

type format = Text | Binary | Binary2

(** A damaged FORAYTR2 file met by the mapped reader: a damaged frame
    header, a bad record, a record with a negative field, or a frame
    whose records contradict its header. The message names the damage
    kind and its byte offset. *)
exception Corrupt of string

(** [save ~format path events] writes a whole trace. The file is closed
    (buffered complete records flushed) even if serialization raises.
    [?frame_events] sets the v2 frame-flush target (default 8192 events;
    ignored by the other formats) — frames flush early at the first
    checkpoint past the target, so smaller values force more
    checkpoint-aligned cut points for testing. *)
val save : ?frame_events:int -> format:format -> string -> Event.event list -> unit

(** [sink_to_file ~format path] opens a streaming writer. The returned
    sink appends events; call the close function when done (also flushes;
    idempotent). If the sink itself raises mid-event, it flushes the
    complete records buffered so far, closes the channel and re-raises —
    the channel is never leaked. Prefer {!with_sink} when the event
    producer may raise. *)
val sink_to_file :
  ?frame_events:int -> format:format -> string -> Event.sink * (unit -> unit)

(** [with_sink ~format path k] passes a streaming sink to [k] and
    guarantees flush-and-close on any exit, including exceptions raised by
    the event producer. *)
val with_sink :
  ?frame_events:int -> format:format -> string -> (Event.sink -> 'a) -> 'a

(** [sniff path] names the format of a stored trace: [Binary] and
    [Binary2] from the magic, [Text] when the file opens with a
    [Checkpoint:] or [Instr:] record. [None] for anything else, including
    a missing or unreadable file. *)
val sniff : string -> format option

(** {1 Zero-copy mapped reader (v2)}

    A FORAYTR2 file decodes fastest through its frame index: {!map}
    validates every frame window against the file length once, and the
    frame decoder's hot varint loop then runs on unchecked byte loads
    bounded by those windows. Nothing is copied — events are synthesized straight off the
    page cache into the sink. *)

(** An open mapping plus its validated frame index. The mapping lives
    until the value is collected; it is safe to share read-only across
    domains, so shard workers decode disjoint frame windows in parallel. *)
type mapped

(** [map path] maps a FORAYTR2 file and builds its frame index, checking
    every frame header, context and dictionary. Reports
    [trace.bytes_mapped].
    @raise Corrupt if [path] is not a well-formed FORAYTR2 file. *)
val map : string -> mapped

(** Total events in the mapping (sum of frame headers). *)
val mapped_events : mapped -> int

(** [iter_mapped m sink] decodes every frame in order — the sequential
    read. Reports [trace.frames_read] per whole frame and
    [trace.events_read] per event delivered, a damaged frame's prefix
    included. The salvaging {!read} counts v2 frames and events the same
    way.
    @raise Corrupt if a record is damaged or a frame body contradicts its
    validated header; the events before it have reached [sink]. *)
val iter_mapped : mapped -> Event.sink -> unit

(** A shard of whole frames: decode with {!iter_fshard} after restoring
    [fs_context] into a fresh mergeable walker. *)
type fshard = {
  fs_index : int;  (** 0-based shard number, in trace order *)
  fs_frame : int;  (** index of the shard's first frame *)
  fs_frames : int;  (** number of frames in the shard *)
  fs_events : int;  (** events across those frames *)
  fs_context : (int * int) list;
      (** [(lid, iter)] loop stack at the shard's first event, outermost
          first: the loops entered before this shard and still open, with
          their current iteration counters (-1: entered, body not yet
          begun) — {!Loopwalk.context} at the cut, as the v2 encoder
          stamped it in the frame header *)
}

(** [frame_shards ~n m] cuts the mapping into at most [n] contiguous
    frame runs covering it exactly, using only the frame index — no event
    decode. This is the only shard cutter: a trace in any other format is
    first streamed into a FORAYTR2 file. Every shard after the first
    starts at a cuttable frame (one whose first record is a checkpoint)
    at-or-after its balanced boundary, so a checkpoint-poor trace yields
    fewer shards. Analyzing the shards independently and merging
    ([Looptree.merge], [Tstats.merge]) is bit-equivalent to
    {!iter_mapped}.
    @raise Invalid_argument if [n < 1]. *)
val frame_shards : n:int -> mapped -> fshard list

(** [iter_fshard m fs sink] decodes one shard's frames into [sink].
    @raise Corrupt like {!iter_mapped}. *)
val iter_fshard : mapped -> fshard -> Event.sink -> unit

(** {1 Reading any format}

    {!read} recovers what it can: on a corrupt record it scans forward to
    the next decodable record — for v2, to the next frame marker — counts
    the gap, and keeps feeding the sink, so a damaged trace still yields a
    best-effort partial model. [~strict:true] is the fail-fast reader: it
    stops at the first damage. This module is the only place that decides
    corrupt-handling policy; {!Event.of_line} merely reports. *)

(** First unrecoverable corruption in strict mode: byte [offset], damage
    [kind], events decoded before it. *)
type corruption = { offset : int; kind : string; events_before : int }

type salvage = {
  events : int;  (** events delivered to the sink *)
  resyncs : int;  (** corrupt regions skipped over *)
  bytes_skipped : int;
  truncated_tail : bool;  (** a corrupt region ran to end-of-file *)
  first_errors : (int * string) list;  (** first few (offset, kind) *)
}

(** A fully intact read: [events] delivered, nothing skipped. *)
val clean_salvage : int -> salvage

(** [read ?strict path sink] streams [path] into [sink]: FORAYTR1 or
    FORAYTR2 by the magic, anything else as text. Default salvage mode
    always returns [Ok]; [~strict:true] stops at the first corrupt record
    and returns it as a value — this API never raises {!Corrupt}.
    @raise Sys_error if [path] cannot be opened or mapped. *)
val read : ?strict:bool -> string -> Event.sink -> (salvage, corruption) result

(** One-line summary of salvage statistics. *)
val salvage_to_string : salvage -> string
