(** Profile trace events (Step 2 of Algorithm 1).

    A trace is the sequence of records the instruction-set simulator writes:
    one record per memory access — the static reference id (the simulated
    "instruction address"), the accessed address, direction and width — and
    one record per executed checkpoint. This mirrors Figure 4(c) of the
    paper, extended with access width, a system-library flag and explicit
    loop-exit checkpoints.

    The trace module is independent of the MiniC front end so that the
    analyzer can consume traces from any producer. *)

(** Checkpoint kinds. [Loop_enter] precedes a loop, [Body_enter] opens an
    iteration, [Body_exit] closes it, [Loop_exit] follows the loop. *)
type ckind = Loop_enter | Body_enter | Body_exit | Loop_exit

type access = {
  site : int;  (** static reference id ("instruction address") *)
  addr : int;  (** accessed byte address *)
  write : bool;
  sys : bool;  (** performed inside a system-library routine *)
  width : int;  (** bytes touched, starting at [addr] *)
}

type event =
  | Checkpoint of { loop : int; kind : ckind }
  | Access of access

(** A consumer of events. The simulator pushes events into sinks, so the
    whole FORAY-GEN analysis can run online without storing the trace
    (constant space, as in §4 of the paper). *)
type sink = event -> unit

(** A sink that discards everything. *)
val null_sink : sink

(** [tee a b] duplicates every event into both sinks. *)
val tee : sink -> sink -> sink

(** [collector ()] is a sink plus a function returning everything seen so
    far, in order. *)
val collector : unit -> sink * (unit -> event list)

(** {1 Text serialization (Figure 4(c) style)} *)

(** One line per event, e.g.
    ["Checkpoint: 12 loop_enter"] and
    ["Instr: 4002a0 addr: 7fff5934 wr 1"] (hex site and address, [rd]/[wr],
    width, optional trailing [sys]). *)
val to_line : event -> string

(** [invalid e] names the first negative field of [e] — loop id, site,
    address or width — or is [None]. The simulator never emits one, and
    FORAYTR2 cannot encode one, so a salvaging reader treats an event it
    decoded with such a field as a bad record. *)
val invalid : event -> string option

(** Parses one line. Never raises: a malformed line is [Error reason].
    Only {!Tracefile} decides whether that is fatal (strict mode) or a
    resynchronization point (salvage mode). *)
val of_line : string -> (event, string) result

(** Renders a whole trace. *)
val to_string : event list -> string

(** Parses a whole trace (blank lines ignored). [Error] names the first
    malformed record (1-based) and why. *)
val of_string : string -> (event list, string) result

val string_of_ckind : ckind -> string
val ckind_of_string : string -> (ckind, string) result
val equal : event -> event -> bool
val pp : Format.formatter -> event -> unit
