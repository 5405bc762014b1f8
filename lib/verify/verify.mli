(** Per-reference functional equivalence checking: replay an extracted
    FORAY model against the recorded access stream and prove — or refute
    with a counterexample — that each reference's affine expression
    reproduces the program's addresses.

    Each model reference gets a {e verdict}, in the
    functional-equivalence-checking direction of Shashidhar et al.; the
    per-reference [exact] counts and {!accuracy} give the fidelity ratio
    beside it.

    {b Verdict semantics.} The verifier walks the trace with
    {!Foray_trace.Loopwalk} — the walker extraction itself uses — so it
    places each access in the same loop context Algorithm 2 did,
    attributes it to the model reference at the same (loop path, site),
    and checks the model's prediction:

    - {e Full affine} references ([partial = false]) must reproduce every
      access from the model's absolute constant term alone — no alignment,
      no rebasing. By construction of Algorithm 3 (each coefficient solve
      re-bases the constant consistently with the whole prefix) the final
      expression predicts the extraction trace exactly, so any mismatch is
      a real divergence.
    - {e Partial} references ([m < depth]) cover only the innermost [m]
      iterators; their base is established at the reference's first
      execution (not counted) and may legitimately re-base at an execution
      where some {e excluded} iterator (position >= [m], innermost first)
      changed since the reference's previous execution — Algorithm 3's
      sticky-set demotion guarantees the excluded iterator at position [m]
      changed at every extraction-time misprediction, so on the extraction
      trace every re-base is of this form. A mismatch while {e no}
      excluded iterator changed refutes the model: the affine window
      [0..m-1] failed on its own ground.

    A reference that never executes in the stream is vacuously [Proved]
    with [checked = 0] (and counted by {!unseen}); accesses outside the
    model (purged by Step 4) are counted as {!type-report.uncovered}, not
    as divergences.

    Verdicts are a pure function of (model, event stream), so sequential
    and sharded analyses of the same trace — which produce byte-identical
    models — yield byte-identical reports. *)

type counterexample = {
  cx_site : int;
  cx_path : int list;  (** enclosing loop ids, outermost first *)
  cx_iters : (int * int) list;
      (** (loop id, iteration) pairs, innermost first — the full dynamic
          context of the failing access *)
  cx_base : int;  (** constant term in effect at the failure *)
  cx_predicted : int;
  cx_actual : int;
  cx_exec : int;  (** 0-based execution ordinal of this reference *)
  cx_event : int;  (** 0-based position in the access stream *)
}

type verdict = Proved | Diverges of counterexample

type ref_verdict = {
  mref : Foray_core.Model.mref;
  path : int list;  (** enclosing loop ids, outermost first *)
  checked : int;  (** accesses attributed to this reference *)
  exact : int;
      (** accesses the expression predicted with the base in effect —
          [checked - rebases] for a proved reference *)
  rebases : int;  (** legitimate partial-reference re-bases *)
  verdict : verdict;
}

type report = {
  refs : ref_verdict list;  (** sorted by (path, site) *)
  covered : int;  (** accesses attributed to some model reference *)
  uncovered : int;  (** accesses outside the model (Step-4 purged) *)
  events : int;  (** total accesses in the stream *)
}

(** References with [verdict = Proved]. *)
val proved : report -> int

(** References with [verdict = Diverges _]. *)
val diverged : report -> int

(** [Proved] references that never executed ([checked = 0]). *)
val unseen : report -> int

val all_proved : report -> bool

(** Prediction accuracy over covered accesses: summed [exact] over summed
    [checked] (1.0 when nothing was checked). A measure of how much
    behaviour the model abstracts away: full affine references predict
    every access, partial references miss once per re-base. *)
val accuracy : report -> float

(** First diverging reference in report order, with its counterexample. *)
val first_divergence : report -> (ref_verdict * counterexample) option

(** [verify model events] walks the stream once and renders the verdicts. *)
val verify :
  Foray_core.Model.t -> Foray_trace.Event.event list -> report

(** Sink-based variant for online verification; call the returned closure
    after the run to obtain the report. *)
val sink :
  Foray_core.Model.t -> Foray_trace.Event.sink * (unit -> report)

(** {1 Verification from source}

    No run is stored: the model is extracted online, then the program is
    simulated once more straight into {!sink}. The simulator is
    deterministic, so the second pass sees the first pass's stream. *)

(** [replay_config config sim] is the config under which a re-run of the
    program stops at the same event as the run that produced [sim] under
    [config]: [config] without its deadline, and — when the deadline
    stopped that run at step [n] — [max_steps = n - 1], which trips at the
    same tick. *)
val replay_config :
  Minic_sim.Interp.config -> Minic_sim.Interp.result -> Minic_sim.Interp.config

(** [of_source ?config ?thresholds ?shards ?jobs ?edit src] runs
    {!Foray_core.Pipeline.run_source}, then re-simulates the instrumented
    program under {!replay_config} into {!sink} over [edit model]
    ([edit] defaults to the identity; [foraygen verify --perturb] damages
    the model there). The replay is timed under the [verify.replay]
    timer and span. Errors are the pipeline's. *)
val of_source :
  ?config:Minic_sim.Interp.config ->
  ?thresholds:Foray_core.Filter.thresholds ->
  ?shards:int ->
  ?jobs:int ->
  ?edit:(Foray_core.Model.t -> Foray_core.Model.t) ->
  string ->
  (Foray_core.Pipeline.outcome * report, Foray_core.Error.t) result

(** {1 Counterexample re-simulation}

    A counterexample must be {e faithful}: re-evaluating the reference's
    affine expression at the recorded iteration vector with the recorded
    base must reproduce the recorded prediction, and that prediction must
    differ from the recorded actual address. The generative campaign
    asserts this for every divergence it finds. *)

(** [predict_at mref ~base ~iters] evaluates [base + sum c*i] over the
    reference's included terms, reading iterator values from [iters]
    (innermost occurrence first; absent loop ids read as 0). *)
val predict_at :
  Foray_core.Model.mref -> base:int -> iters:(int * int) list -> int

(** [faithful mref cx] re-simulates [cx] against [mref]'s expression. *)
val faithful : Foray_core.Model.mref -> counterexample -> bool

(** {1 Rendering} *)

val verdict_name : verdict -> string
val counterexample_to_string : counterexample -> string
val counterexample_to_json : counterexample -> string

(** One line per reference plus a summary tail (reference counts, then
    coverage and {!accuracy}); deterministic, so equal reports render
    byte-identically. *)
val report_to_string : report -> string

(** JSON object: ["refs"] array (verdicts, expressions, counterexamples),
    ["proved"]/["diverged"]/["unseen"] counts, stream coverage. *)
val report_to_json : report -> string
