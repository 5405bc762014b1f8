(** The end-to-end FORAY-GEN flow (Algorithm 1).

    [Source -> parse -> sema -> annotate (Step 1) -> simulate (Step 2,
    online analysis = Steps 3.1/3.2) -> purge (Step 4) -> FORAY model],
    with trace statistics collected on the side for Table III.

    The flow is {e total}: {!run} and {!run_source} return
    every failure as a typed {!Error.t} and every recoverable shortfall as
    a {!degradation} attached to a still-useful partial result — mirroring
    the paper's own tolerance of partial affine forms. Budget exhaustion
    in the simulator ({!Minic_sim.Interp.config} [max_steps],
    [deadline_ms], [max_trace_events]) stops simulation cleanly and the
    analyzers finish on the events seen so far.

    The analysis consumes the simulator's event stream directly (online
    mode). No run is ever held in memory as an event list: a sharded run
    streams into a temporary FORAYTR2 file, and the file's frame index
    ({!Foray_trace.Tracefile.frame_shards}) is the only shard cutter. *)

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

(** [run ?config ?thresholds ?shards ?jobs prog] executes the full flow
    on a parsed program. Total: semantic and runtime failures come back
    as [Error]; budget exhaustion yields [Ok] with [Degraded_budget].
    With [shards > 1] the simulator streams into a temporary FORAYTR2
    file instead of the walker, and {!analyze_mapped} analyzes the file
    in [shards] pieces on [jobs] domains; the file is removed afterwards
    and the result is bit-identical to the online run. *)
val run :
  ?config:Minic_sim.Interp.config ->
  ?thresholds:Filter.thresholds ->
  ?shards:int ->
  ?jobs:int ->
  Minic.Ast.program ->
  (outcome, Error.t) Stdlib.result

(** [run_source ?config ?thresholds ?shards ?jobs src] parses and runs;
    lexer and parser failures become [Error (Parse _)]. *)
val run_source :
  ?config:Minic_sim.Interp.config ->
  ?thresholds:Filter.thresholds ->
  ?shards:int ->
  ?jobs:int ->
  string ->
  (outcome, Error.t) Stdlib.result

(** {1 Sharded trace analysis} *)

(** [analyze_mapped ~shards ~jobs m] runs Algorithms 2–3 and the trace
    statistics over a mapped FORAYTR2 file. With [shards <= 1] (default)
    this is the plain sequential walk. With [shards = n > 1] the frame
    index ({!Foray_trace.Tracefile.frame_shards}) cuts the file into at
    most [n] context-complete runs of frames; each worker decodes its
    mmap'd frame window directly into its own mergeable walker, on
    [jobs] domains (default [shards]; capped at
    {!Foray_util.Parallel.default_jobs} in every case). The per-shard
    states are folded with [Looptree.merge] / [Tstats.merge] and the
    deferred Algorithm-3 folds replayed in trace order
    ([Looptree.finalize]), which makes the result {e bit-identical} to the
    sequential walk — the differential suite in [test/test_shard.ml]
    checks exactly this. Per-shard work is traced under [shard.analyze]
    spans; merging under the [pipeline.shard_merge] timer and the
    [pipeline.shards_analyzed] counter.
    @raise Foray_trace.Tracefile.Corrupt if a frame body is damaged. *)
val analyze_mapped :
  ?shards:int ->
  ?jobs:int ->
  Foray_trace.Tracefile.mapped ->
  Looptree.t * Foray_trace.Tstats.t

(** [analyze_trace ?strict ?shards ?jobs path] analyzes a trace file end
    to end by the fastest correct path. A clean FORAYTR2 file goes
    through {!analyze_mapped}. Other formats — and v2 files whose frames
    turn out damaged — stream through the salvaging reader
    ({!Foray_trace.Tracefile.read}): into one walker when [shards <= 1],
    otherwise into a temporary FORAYTR2 file that {!analyze_mapped} then
    cuts (FORAYTR2 encodes every event the salvaging reader delivers).
    Either way fresh state is built, so nothing is double-counted.
    Never raises: salvage statistics or (under [~strict]) the first
    corruption come back as values. *)
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
