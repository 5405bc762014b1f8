(** Deterministic fault injection for robustness testing.

    Mutates raw byte strings (trace files, usually) in reproducible ways so
    a campaign can assert that every consumer of damaged input returns a
    typed error or a degraded-but-valid result — never an escaped
    exception. All randomness comes from {!Foray_util.Prng}, so a failing
    case is re-runnable from its seed alone.

    This module is deliberately ignorant of trace formats and pipelines:
    it only knows bytes and a caller-supplied [run] callback. *)

(** One kind of damage. [Stall] leaves the bytes intact — it models a
    wedged producer, and callers are expected to run it under a tight
    resource budget instead. *)
type kind =
  | Bit_flip  (** flip one random bit *)
  | Truncate  (** drop a random-length tail *)
  | Duplicate_span  (** splice a copy of a random span back in *)
  | Insert_garbage  (** insert 1-16 random bytes at a random offset *)
  | Zero_span  (** overwrite a random span with zero bytes *)
  | Stall  (** identity mutation; exercise budgets, not parsing *)

(** All kinds, in campaign round-robin order. *)
val all : kind list

val name : kind -> string

(** [apply prng kind bytes] returns the mutated copy. Total for every
    input including the empty string (where most kinds degenerate to the
    identity). *)
val apply : Foray_util.Prng.t -> kind -> string -> string

(** What one mutated input did to the system under test, as judged by the
    campaign's [run] callback. *)
type verdict =
  | Clean  (** consumed fully, nothing lost *)
  | Degraded  (** partial result with an honest account of the damage *)
  | Typed_failure  (** rejected with a typed, documented error *)
  | Escaped of string  (** an exception crossed the API boundary: a bug *)

type report = {
  runs : int;
  clean : int;
  degraded : int;
  typed : int;
  escaped : (int * kind * string) list;
      (** (run index, kind, exception) for every escape *)
  per_kind : (kind * int) list;  (** mutations attempted per kind *)
}

(** [campaign ~seed ~runs ~bytes ~run] mutates [bytes] [runs] times,
    cycling through {!all} kinds, and feeds each mutant to [run]. Any
    exception [run] lets through is recorded as {!Escaped} — the campaign
    itself never raises. Deterministic in [seed]. *)
val campaign :
  seed:int -> runs:int -> bytes:string -> run:(kind -> string -> verdict) ->
  report

(** Multi-line human-readable rendering of a report. *)
val report_to_string : report -> string
