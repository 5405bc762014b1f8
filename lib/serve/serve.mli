(** [forayd]: a long-running FORAY-GEN analysis service.

    The daemon listens on a Unix-domain socket and speaks a
    newline-delimited JSON protocol: each request is one JSON object on
    one line, each response one JSON object on one line, many requests per
    connection. Connections are handled by lightweight threads (so the
    daemon always stays responsive to cheap requests) while the actual
    simulate-and-analyze work is dispatched onto a persistent
    {!Foray_util.Parallel.pool} of domains.

    {b Compute ops.} Four ops run analysis work. They share one request
    path, so everything in this paragraph holds for each of them.
    - {e Addressing.} The input is a suite ["program"] name or an inline
      ["source"] (source wins); [spm] and [verify] also take, in their
      place, a ["digest"] that an earlier response of this daemon
      reported (an unknown digest is [E_NOT_FOUND]); [analyze], [extract] and [verify] also take a
      stored ["trace"] file path, which then wins, with ["shards"] and
      ["jobs"] for the sharded analysis. No input is [E_BAD_REQUEST].
    - {e Budgets.} ["max_steps"] (clamped to [config.max_steps_cap]),
      ["deadline_ms"] and ["max_trace_events"] feed
      {!Minic_sim.Interp.config}; exhaustion degrades the result, it does
      not fail it. ["nexec"]/["nloc"] set the Step-4 thresholds and
      ["trace_scalars"] the tracer.
    - {e Cache.} Results are cached by the input's key (see {b Model
      cache}); ["cache": false] bypasses the lookup and the insert. The
      response's ["cached"] field says whether it was a hit.
    - {e Strict.} ["strict": true] turns a degraded result into its typed
      error ([E_BUDGET], [E_TRACE_CORRUPT]) and reads traces fail-fast.
    - {e Inline trace.} ["trace": true] returns the request's span tree
      as the ["trace"] field (see {b Request telemetry}).

    The ops:
    - ["analyze"] — the FORAY model plus run statistics ([n_refs],
      [n_loops], [steps], [accesses], [events]).
    - ["extract"] — the model only (the CLI [extract] analogue); shares
      cache entries with [analyze].
    - ["spm"] — Phase II buffer selection (the CLI [spm] analogue): derive
      buffer candidates and solve the placement for one capacity
      (["spm_bytes"]) or a sweep (["sizes"] array; default 256..16384).
      ["strategy"] is ["optimal"] (default), ["greedy"] or ["stochastic"]
      ({!Foray_spm.Dse.solve}); the stochastic knobs are ["seed"],
      ["budget_proposals"], ["restarts"], and ["deadline_ms"] doubles as
      the anytime cutoff. The response carries the source ["digest"], the
      ["strategy"] and a ["results"] array (one selection per size, with
      a ["search"] statistics object under the stochastic strategy).
    - ["verify"] — per-reference model-replay verification (the CLI
      [verify] analogue, {!Foray_verify.Verify}): extract the model, then
      replay the recorded access stream against it and render a verdict
      per reference — [proved], or [diverges] with the first-divergence
      counterexample. The response carries the input ["digest"] and the
      {!Foray_verify.Verify.report_to_json} object as ["verify"].

    {b Other ops.}
    - ["metrics"] — the process metrics registry
      ({!Foray_obs.Obs.to_json}) plus a ["window"] object (the
      {!Foray_obs.Window} 10s/60s/300s sliding stats) and a ["slow"]
      array (the last requests over the [--slow-ms] threshold). Runtime
      gauges ([runtime.gc.*], [serve.pool.*],
      [serve.connections.active]) are sampled at this scrape.
    - ["metrics_text"] — the same registry rendered as Prometheus /
      OpenMetrics text ({!Foray_obs.Obs.to_openmetrics}, window gauges
      included), returned as the ["text"] string field.
    - ["ping"] — liveness probe.
    - ["shutdown"] — reply, then stop accepting, drain connections, join
      the pool and remove the socket.

    {b Request telemetry.} Every request is assigned a [rid] (echoed in
    the response and in all telemetry). ["trace": true] on a compute op
    returns the request's reconstructed span tree inline as the
    ["trace"] field — a synthetic ["request"] root whose
    [dur_us] is the same latency the response's ["ms"] field and the
    access log report, with the pool task's spans as children. With
    [config.access_log] set, each request appends one JSONL line (ts,
    rid, op, source digest, cache hit/miss, degradations, steps,
    latency); requests at or over [config.slow_ms] additionally log
    their full span breakdown and are remembered for the [metrics] op's
    ["slow"] array. Every request also lands in the sliding
    {!Foray_obs.Window}.

    {b Failure taxonomy.} Every failure maps onto {!Foray_core.Error.t}
    and is returned as [{"status": "error", "error": {...}}] with the same
    [E_*] codes and JSON shape as the CLI; recoverable shortfalls come
    back as [{"status": "ok", "degraded": [...]}] with the pipeline's
    degradation provenance. Protocol violations (bad JSON, unknown op,
    mistyped field, a request line over {!max_line_bytes}) are
    [E_BAD_REQUEST].

    {b Model cache.} Results are cached in a byte-bounded {!Lru}, so
    repeat traffic is served from memory without re-simulating. A source
    input is keyed by {!Foray_core.Pipeline.model_key} (source digest ×
    analysis config), a stored trace by its content digest × the Step-4
    thresholds. [analyze] and [extract] share entries; [verify] prefixes
    the key, and [spm] extends it with the spm configuration (sizes,
    strategy, seed, budget, restarts, deadline). Sources are remembered
    by digest so later requests can readdress them. Degraded results are
    never cached. Hits/misses/evictions are counted under
    [serve.cache.*]. *)

type config = {
  socket_path : string;
  jobs : int;  (** worker domains of the analysis pool *)
  cache_bytes : int;  (** model-cache bound; [0] disables caching *)
  max_steps_cap : int option;
      (** server-side ceiling clamped onto every request's [max_steps] *)
  access_log : string option;
      (** append one JSONL line per request to this path *)
  slow_ms : int option;
      (** requests at/over this latency log their span breakdown and are
          kept for the [metrics] op's ["slow"] array *)
}

(** [jobs = Parallel.default_jobs ()], 64 MiB cache, no step cap, no
    access log, no slow threshold. *)
val default_config : socket_path:string -> config

type server

(** [start config] binds the socket (replacing a stale file), spawns the
    pool and an acceptor domain, and returns immediately. Metrics
    collection ({!Foray_obs.Obs.set_enabled}) and span tracing
    ({!Foray_obs.Span.set_enabled}) are switched on so the [serve.*]
    counters, the [metrics]/[metrics_text] ops and per-request traces
    are live. *)
val start : config -> server

(** Block until the server has fully stopped (shutdown request received,
    connections drained, pool joined, socket removed). *)
val wait : server -> unit

(** [run config] is [wait (start config)]: the blocking form behind
    [foraygen serve]. *)
val run : config -> unit

(** The bound socket path. *)
val socket_path : server -> string

(** A fresh short path under the temp directory, safe for
    [sun_path]-length limits. *)
val temp_socket_path : unit -> string

(** The longest request line the daemon reads (16 MiB, newline excluded).
    A longer line is answered with [E_BAD_REQUEST] and the connection is
    closed. *)
val max_line_bytes : int

(** {1 Client side} *)

module Client : sig
  type t

  val connect : string -> t

  (** [request t line] sends one request line and blocks for the response
      line. @raise Failure if the server hangs up mid-request. *)
  val request : t -> string -> string

  (** [rpc t fields] builds a one-line JSON object from
      [(key, literal-value)] pairs (values must already be valid JSON
      literals, e.g. ["\"jpeg\""] or ["20"]), sends it, and parses the
      response. *)
  val rpc : t -> (string * string) list -> Json.t

  val close : t -> unit

  (** Connect, send [{"op": "shutdown"}], await the reply, close. *)
  val shutdown : string -> unit
end
