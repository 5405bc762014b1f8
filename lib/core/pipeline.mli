(** The end-to-end FORAY-GEN flow (Algorithm 1).

    [Source -> parse -> sema -> annotate (Step 1) -> simulate (Step 2,
    online analysis = Steps 3.1/3.2) -> purge (Step 4) -> FORAY model],
    with trace statistics collected on the side for Table III.

    The flow is {e total}: {!run}, {!run_source} and {!run_offline} return
    every failure as a typed {!Error.t} and every recoverable shortfall as
    a {!degradation} attached to a still-useful partial result — mirroring
    the paper's own tolerance of partial affine forms. Budget exhaustion
    in the simulator ({!Minic_sim.Interp.config} [max_steps],
    [deadline_ms], [max_trace_events]) stops simulation cleanly and the
    analyzers finish on the events seen so far.

    The analysis consumes the simulator's event stream directly (online
    mode); {!run_offline} instead materializes the trace and replays it,
    which the tests use to show both modes agree. *)

type result = {
  program : Minic.Ast.program;  (** the pristine parse *)
  instrumented : Minic.Ast.program;
  tree : Looptree.t;
  model : Model.t;
  tstats : Foray_trace.Tstats.t;  (** per-site totals over the whole trace *)
  sim : Minic_sim.Interp.result;
  loop_kinds : (int * string) list;  (** loop id -> for/while/do *)
  func_of_loop : int -> string option;
  thresholds : Filter.thresholds;
}

(** Ways a successful run can be less than complete. The model is still
    valid over the events that were seen; these records say what was
    missed and how much. *)
type degradation =
  | Degraded_budget of {
      budget : string;  (** "max_steps" | "deadline_ms" | "max_trace_events" *)
      limit : int;
      spent : int;
      events_seen : int;  (** accesses the analyzers did consume *)
    }
  | Degraded_corrupt of {
      offset : int;  (** byte offset of the first corrupt region *)
      kind : string;
      salvaged : int;  (** events recovered and analyzed *)
      resyncs : int;
      bytes_skipped : int;
    }

val degradation_to_string : degradation -> string

(** JSON object mirroring {!degradation_to_string}. *)
val degradation_to_json : degradation -> string

(** The degradation a salvaged read deserves: one [Degraded_corrupt]
    naming the first damage, or [[]] when the stream came back whole. *)
val salvage_degradations : Foray_trace.Tracefile.salvage -> degradation list

(** A degradation as the typed error it becomes under [--strict]:
    [E_BUDGET] or [E_TRACE_CORRUPT]. *)
val error_of_degradation : degradation -> Error.t

(** A strict read's first corruption as [E_TRACE_CORRUPT]. *)
val error_of_corruption : Foray_trace.Tracefile.corruption -> Error.t

type outcome = { result : result; degraded : degradation list }

(** [run ?config ?thresholds prog] executes the full flow on a parsed
    program. Total: semantic and runtime failures come back as
    [Error]; budget exhaustion yields [Ok] with [Degraded_budget]. *)
val run :
  ?config:Minic_sim.Interp.config ->
  ?thresholds:Filter.thresholds ->
  Minic.Ast.program ->
  (outcome, Error.t) Stdlib.result

(** [run_source ?config ?thresholds src] parses and runs; lexer and parser
    failures become [Error (Parse _)]. *)
val run_source :
  ?config:Minic_sim.Interp.config ->
  ?thresholds:Filter.thresholds ->
  string ->
  (outcome, Error.t) Stdlib.result

(** Offline variant: simulate to a stored trace, then analyze the trace —
    sequentially by default, or cut into [shards] checkpoint-aligned
    shards analyzed on [jobs] domains ([jobs] defaults to [shards] capped at the domain count) and
    merged; see {!analyze_events}. Returns the outcome and the trace. *)
val run_offline :
  ?config:Minic_sim.Interp.config ->
  ?thresholds:Filter.thresholds ->
  ?shards:int ->
  ?jobs:int ->
  Minic.Ast.program ->
  (outcome * Foray_trace.Event.event list, Error.t) Stdlib.result

(** {1 Sharded trace analysis}

    [analyze_events ~shards ~jobs events] runs Algorithms 2–3 and the
    trace statistics over a stored event stream. With [shards <= 1]
    (default) this is the plain sequential walk. With [shards = n > 1]
    the stream is cut by {!Foray_trace.Tracefile.shards} into at most [n]
    context-complete chunks, each analyzed by its own mergeable walker on
    a [jobs]-wide domain pool (default: [shards] capped at the available domain count), and the per-shard
    states folded with [Looptree.merge] / [Tstats.merge]; the deferred
    Algorithm-3 folds are then replayed in trace order
    ([Looptree.finalize]), which makes the result {e bit-identical} to the
    sequential walk — the differential suite in [test/test_shard.ml]
    checks exactly this. Per-shard work is traced under [shard.analyze]
    spans; merging under the [pipeline.shard_merge] timer and the
    [pipeline.shards_analyzed] counter. *)
val analyze_events :
  ?shards:int ->
  ?jobs:int ->
  Foray_trace.Event.event array ->
  Looptree.t * Foray_trace.Tstats.t

(** [analyze_mapped ~shards ~jobs m] is {!analyze_events} for a mapped
    FORAYTR2 file: shard cut points come from the frame index
    ({!Foray_trace.Tracefile.frame_shards}) and each worker decodes its
    mmap'd frame window directly into its walker — no event array is ever
    materialized. Bit-identical to the sequential walk, like
    {!analyze_events}.
    @raise Foray_trace.Tracefile.Corrupt if a frame body is damaged. *)
val analyze_mapped :
  ?shards:int ->
  ?jobs:int ->
  Foray_trace.Tracefile.mapped ->
  Looptree.t * Foray_trace.Tstats.t

(** [analyze_trace ?strict ?shards ?jobs path] analyzes a trace file end
    to end by the fastest correct path: FORAYTR2 files go through
    {!analyze_mapped} (clean salvage on success); other formats — and v2
    files whose frames turn out damaged — go through the salvaging
    event-array reader and {!analyze_events}, rebuilding fresh state so
    nothing is double-counted. Never raises: salvage statistics or (under
    [~strict]) the first corruption come back as values. *)
val analyze_trace :
  ?strict:bool ->
  ?shards:int ->
  ?jobs:int ->
  string ->
  ( (Looptree.t * Foray_trace.Tstats.t) * Foray_trace.Tracefile.salvage,
    Foray_trace.Tracefile.corruption )
  Stdlib.result

(** Duplication hints for the analyzed program (Figure 9). *)
val hints : result -> Hints.hint list

(** [model_key ?config ?thresholds src] is a stable cache key over
    [(source digest, analysis config)]: equal keys guarantee {!run_source}
    produces byte-identical models. Every model-determining config field
    participates ([trace_scalars], [max_steps], [max_trace_events],
    [rand_seed], the Step-4 thresholds); [deadline_ms] does not, because a
    wall-clock bound never changes a run that completes — callers caching
    by this key must simply refuse to cache degraded outcomes. The daemon
    ([Foray_serve]) keys its model cache with exactly this. *)
val model_key :
  ?config:Minic_sim.Interp.config ->
  ?thresholds:Filter.thresholds ->
  string ->
  string

(** Map each loop id to the name of the function containing it. *)
val loop_functions : Minic.Ast.program -> (int * string) list
