(** Hierarchical span tracing: a bounded, process-global timeline of what
    the pipeline spent its wall-clock on, loadable in Perfetto.

    Where {!Obs} answers "how many / how long in total", spans answer
    "when, in what order, nested under what": each span is one named
    interval with a category, free-form arguments and an implicit position
    in the per-domain call stack. The pipeline stages (parse, annotate,
    simulate, analyze), the interpreter's loop-checkpoint stream, trace
    file I/O, the cache simulator and every {!Foray_util.Parallel} worker
    record into the same ring, so one export shows the whole run — with
    one track per OCaml domain.

    {b Bounded memory.} Completed spans land in a fixed-capacity ring
    (default {!default_capacity}); once full, the oldest spans are
    overwritten and {!dropped} counts them. A long simulation therefore
    keeps the {e tail} of its timeline, which is what you want when a run
    is slow at the end.

    {b Zero cost when disabled.} {!enter} is a single atomic load when
    tracing is off; no allocation, no clock read. The interpreter caches
    the flag once per run, so the hot loop does not even pay the load.

    {b Exports.}
    - {!to_chrome_json}: Chrome trace-event JSON (an object with a
      [traceEvents] array of ["ph": "X"] complete events plus thread-name
      metadata). Load it in {{:https://ui.perfetto.dev}Perfetto} or
      [chrome://tracing].
    - {!to_folded}: folded-stack text ([domain0;pipeline.run;simulate 1234]
      lines, values in self-microseconds) for
      {{:https://github.com/brendangregg/FlameGraph}flamegraph.pl}.

    {b Activation.} Programmatically via {!set_enabled}, per-verb via the
    CLI's [--trace-out FILE], or for a whole process via the [FORAY_TRACE]
    environment variable (see {!setup_env}). *)

(** {1 Enabling} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** Forget all recorded spans and the drop count; the time origin of
    subsequent spans is rebased to now. *)
val reset : unit -> unit

(** 65536 completed spans (a few MB at most). *)
val default_capacity : int

(** Resize the ring (and {!reset} it). Raises [Invalid_argument] on
    non-positive capacities. *)
val set_capacity : int -> unit

(** {1 Recording} *)

(** A live span token returned by {!enter}. Tokens are affine: pass each
    one to {!leave} exactly once, on the domain that created it. *)
type span

(** The no-op token ({!enter} returns it while disabled; {!leave} ignores
    it). *)
val null : span

(** [enter ?cat ?args name] opens a span nested under the domain's current
    innermost open span. [cat] groups spans in trace viewers (defaults to
    ["foray"]). *)
val enter :
  ?cat:string -> ?args:(string * string) list -> string -> span

(** Close the span: records one completed interval into the ring. *)
val leave : span -> unit

(** [with_span ?cat ?args name f] runs [f ()] inside a span; the span is
    closed even when [f] raises. *)
val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** [instant ?cat ?args name] records a zero-duration marker on the
    current domain's track. *)
val instant : ?cat:string -> ?args:(string * string) list -> string -> unit

(** {1 Inspection} *)

(** Completed spans currently held by the ring. *)
val recorded : unit -> int

(** Spans overwritten because the ring was full. *)
val dropped : unit -> int

(** {1 Export} *)

(** Chrome trace-event JSON; see the module preamble. Deterministic given
    the ring contents; no trailing newline. *)
val to_chrome_json : unit -> string

(** Folded-stack text: one [stack value\n] line per distinct stack with
    nonzero self-time (microseconds), stacks prefixed by their domain
    track and sorted. *)
val to_folded : unit -> string

(** [write path] exports the ring to [path]: folded-stack text when
    [path] ends in [.folded], Chrome trace JSON otherwise. *)
val write : string -> unit

(** {1 Validation}

    A structural checker for the Chrome export, used by the test suite
    and foraybench: the string must parse as JSON, carry a
    [traceEvents] array whose members have the required fields, and the
    ["X"] events of each track must be properly nested (any two spans on a
    track either disjoint or contained). *)

(** [validate_chrome s] returns the number of trace events on success. *)
val validate_chrome : string -> (int, string) result

(** [validate_chrome_file path] reads and validates [path]. *)
val validate_chrome_file : string -> (int, string) result

(** {1 Request-scoped collection}

    The daemon runs each request's heavy analysis as one task on a
    {!Foray_util.Parallel} pool worker. A worker domain executes a single
    task at a time, so the completed spans recorded on that domain's tid
    within the task's time window belong to exactly one request.
    {!collect} cuts that slice out of the ring and rebuilds the call
    forest, powering the daemon's ["trace": true] inline responses and
    [--slow-ms] breakdown logging. *)

(** One reconstructed span and its nested children (chronological). *)
type node = {
  n_name : string;
  n_cat : string;
  n_ts_us : float;  (** start, microseconds since the ring epoch *)
  n_dur_us : float;
  n_args : (string * string) list;
  n_children : node list;
}

(** The calling domain's tid as recorded in span entries. *)
val current_tid : unit -> int

(** Microseconds since the ring epoch — the clock span timestamps use.
    Sample before/after a pool task to bound its window for {!collect}. *)
val now_us : unit -> float

(** [collect ~tid ~t0 ~t1 ()] — the forest of completed spans recorded on
    [tid] whose intervals fall inside [[t0, t1]] (µs since epoch), oldest
    first. At most [max_nodes] (default 512) spans are kept; the second
    component counts those cut. Instants are excluded. *)
val collect :
  ?max_nodes:int -> tid:int -> t0:float -> t1:float -> unit ->
  node list * int

(** One node as a JSON object
    [{"name": ..., "cat": ..., "dur_us": ..., "args": {..}?,
    "children": [..]?}]. *)
val node_to_json : node -> string

(** {1 Environment activation}

    [setup_env ()] reads the process environment once (idempotent):

    - [FORAY_OBS=1] (or [true]) enables {!Obs} metric collection for the
      whole process; [FORAY_OBS=path.json] additionally writes the final
      {!Obs.to_json} dump to that path at exit. A per-verb [--metrics
      FILE] flag takes precedence for where the dump goes — the env var
      then only keeps collection on.
    - [FORAY_TRACE=out.json] enables span tracing and writes the Chrome
      (or, for [.folded] paths, folded-stack) export at exit. A per-verb
      [--trace-out FILE] flag takes precedence: it resets the ring and
      writes its own file; the env export still happens at exit with
      whatever the ring then holds. *)
val setup_env : unit -> unit
