module Ferr = Foray_core.Error
module Pipeline = Foray_core.Pipeline
module Filter = Foray_core.Filter
module Model = Foray_core.Model
module Obs = Foray_obs.Obs
module Span = Foray_obs.Span
module Window = Foray_obs.Window
module Parallel = Foray_util.Parallel
module Interp = Minic_sim.Interp
module Dse = Foray_spm.Dse
module Stochastic = Foray_spm.Stochastic
module Verify = Foray_verify.Verify

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)

let m_requests op = Obs.counter ~labels:[ ("op", op) ] "serve.requests"
let m_errors = lazy (Obs.counter "serve.errors")
let m_connections = lazy (Obs.counter "serve.connections")
let m_cache_hits = lazy (Obs.counter "serve.cache.hits")
let m_cache_misses = lazy (Obs.counter "serve.cache.misses")
let m_cache_evictions = lazy (Obs.counter "serve.cache.evictions")
let m_cache_entries = lazy (Obs.gauge "serve.cache.entries")
let m_cache_bytes = lazy (Obs.gauge "serve.cache.bytes")

let m_request_ms =
  lazy
    (Obs.histogram
       ~bounds:[ 1; 2; 5; 10; 20; 50; 100; 200; 500; 1000; 2000; 5000 ]
       "serve.request_ms")

(* Runtime gauges, sampled at scrape time (the metrics / metrics_text
   ops) rather than continuously — a scrape sees the state it asked
   about, and an idle daemon costs nothing. *)
let m_gc_major_words = lazy (Obs.gauge "runtime.gc.major_words")
let m_gc_compactions = lazy (Obs.gauge "runtime.gc.compactions")
let m_gc_heap_words = lazy (Obs.gauge "runtime.gc.heap_words")
let m_pool_pending = lazy (Obs.gauge "serve.pool.pending")
let m_pool_busy = lazy (Obs.gauge "serve.pool.busy")
let m_conn_active = lazy (Obs.gauge "serve.connections.active")
let m_slow_requests = lazy (Obs.counter "serve.slow_requests")

(* ------------------------------------------------------------------ *)
(* Configuration and server state                                     *)

type config = {
  socket_path : string;
  jobs : int;
  cache_bytes : int;
  max_steps_cap : int option;
  access_log : string option;
  slow_ms : int option;
}

let default_config ~socket_path =
  {
    socket_path;
    jobs = Parallel.default_jobs ();
    cache_bytes = 64 * 1024 * 1024;
    max_steps_cap = None;
    access_log = None;
    slow_ms = None;
  }

(* The cached product of one compute op: its principal text (the model's
   C text, the rendered spm results array or the rendered verify report)
   plus the run statistics analyze reports, in response order. Each op's
   [render] picks what its response shows, so [analyze] and [extract]
   share entries and a cached response is byte-identical to the uncached
   one. *)
type value = { v_text : string; v_stats : (string * int) list }

(* One slot of the daemon cache. Op results and raw sources (so requests
   can address a program by the digest an earlier request reported) share
   the one byte-bounded LRU; key prefixes keep the namespaces disjoint. *)
type entry = Value of value | Source of string

let entry_bytes key = function
  | Value { v_text = s; _ } | Source s ->
      String.length s + String.length key + 128

(* Remembered for [top] and the [metrics] op: the last few requests that
   crossed the slow threshold. *)
type slow_entry = {
  sl_rid : int;
  sl_op : string;
  sl_ms : float;
  sl_ts : float; (* epoch seconds at completion *)
}

let slow_keep = 16

type server = {
  s_cfg : config;
  s_fd : Unix.file_descr;
  s_pool : Parallel.pool;
  s_cache : entry Lru.t;
  s_cache_mutex : Mutex.t;
  s_stop : bool Atomic.t;
  s_conn_mutex : Mutex.t;
  s_conn_cond : Condition.t;
  mutable s_active : int;
  mutable s_acceptor : unit Domain.t option;
  s_window : Window.t;
  s_rid : int Atomic.t;
  s_log : out_channel option;
  s_log_mutex : Mutex.t;
  s_slow : slow_entry Queue.t; (* newest at the back, <= slow_keep *)
  s_slow_mutex : Mutex.t;
}

let socket_path srv = srv.s_cfg.socket_path

let temp_counter = Atomic.make 0

let temp_socket_path () =
  (* sun_path is ~108 bytes; keep the name short and under the temp dir. *)
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "forayd-%d-%d.sock" (Unix.getpid ())
       (Atomic.fetch_and_add temp_counter 1))

(* ------------------------------------------------------------------ *)
(* Line-oriented socket IO                                            *)

let max_line_bytes = 16 * 1024 * 1024

exception Line_too_long

(* A hand-rolled buffered reader over [Unix.read]. Channels
   ([in_channel]/[out_channel] pairs over one fd) are avoided on purpose:
   closing either channel closes the shared fd, and with connection
   threads racing a shutdown drain that invites double-close/fd-reuse
   bugs. Bytes read past a newline wait in [r_chunk] between [r_pos] and
   [r_len]; a line under assembly grows in [r_line], so reading is linear
   in the line length. *)
type reader = {
  r_fd : Unix.file_descr;
  r_chunk : bytes;
  mutable r_pos : int;
  mutable r_len : int;
  r_line : Buffer.t;
  r_max : int; (* longest line accepted; longer raises [Line_too_long] *)
  mutable r_eof : bool;
}

let make_reader ?(max = max_int) fd =
  {
    r_fd = fd;
    r_chunk = Bytes.create 65536;
    r_pos = 0;
    r_len = 0;
    r_line = Buffer.create 256;
    r_max = max;
    r_eof = false;
  }

let read_line r =
  Buffer.clear r.r_line;
  let rec newline i =
    if i >= r.r_len then None
    else if Bytes.unsafe_get r.r_chunk i = '\n' then Some i
    else newline (i + 1)
  in
  let rec go () =
    let stop = newline r.r_pos in
    let upto = match stop with Some i -> i | None -> r.r_len in
    Buffer.add_subbytes r.r_line r.r_chunk r.r_pos (upto - r.r_pos);
    if Buffer.length r.r_line > r.r_max then raise Line_too_long;
    match stop with
    | Some i ->
        r.r_pos <- i + 1;
        Some (Buffer.contents r.r_line)
    | None when r.r_eof ->
        r.r_pos <- r.r_len;
        (* final line without a trailing newline *)
        if Buffer.length r.r_line = 0 then None
        else Some (Buffer.contents r.r_line)
    | None ->
        let n = Unix.read r.r_fd r.r_chunk 0 (Bytes.length r.r_chunk) in
        r.r_pos <- 0;
        r.r_len <- n;
        if n = 0 then r.r_eof <- true;
        go ()
  in
  go ()

let write_line fd line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd data !off (len - !off)
  done

(* ------------------------------------------------------------------ *)
(* Request telemetry and the model cache                              *)

let render_id j =
  match Json.member "id" j with
  | Some (Json.Int i) -> string_of_int i
  | Some (Json.Str s) -> Printf.sprintf "\"%s\"" (Ferr.json_escape s)
  | _ -> "null"

(* The window of one request's pool task: the worker domain's span tid
   and the [t0, t1] interval (µs since the span epoch) its spans lie in. *)
type span_window = { sw_tid : int; sw_t0 : float; sw_t1 : float }

(* The inline trace of a request: a synthetic "request" root whose
   duration is the connection-measured latency (the same number the
   access log reports), with the pool task's reconstructed span forest as
   children. Cache hits never touched the pool, so their tree is just the
   root. *)
let trace_tree ~rid ~op ~dt_ms sw =
  let children, cut =
    match sw with
    | None -> ([], 0)
    | Some { sw_tid; sw_t0; sw_t1 } ->
        Span.collect ~tid:sw_tid ~t0:sw_t0 ~t1:sw_t1 ()
  in
  let args =
    [ ("rid", string_of_int rid); ("op", op) ]
    @ if cut > 0 then [ ("spans_cut", string_of_int cut) ] else []
  in
  {
    Span.n_name = "request";
    n_cat = "serve";
    n_ts_us = (match sw with Some s -> s.sw_t0 | None -> 0.0);
    n_dur_us = dt_ms *. 1000.0;
    n_args = args;
    n_children = children;
  }

let render_error ~id ~rid ~dt_ms e =
  Printf.sprintf
    "{\"id\": %s, \"rid\": %d, \"status\": \"error\", \"error\": %s, \
     \"ms\": %.3f}"
    id rid (Ferr.to_json e) dt_ms

(* [~count:false] is for bookkeeping probes (a [Source] lookup), which
   must not skew the client-visible hit/miss counters. *)
let cache_find ?(count = true) srv key =
  Mutex.lock srv.s_cache_mutex;
  let hit = Lru.find srv.s_cache key in
  Mutex.unlock srv.s_cache_mutex;
  if count then
    Obs.incr
      (Lazy.force (if Option.is_none hit then m_cache_misses else m_cache_hits));
  hit

let cache_add srv key e =
  let bytes = entry_bytes key e in
  Mutex.lock srv.s_cache_mutex;
  let evicted = Lru.add srv.s_cache ~key ~bytes e in
  let entries = Lru.entries srv.s_cache and total = Lru.bytes srv.s_cache in
  Mutex.unlock srv.s_cache_mutex;
  Obs.add (Lazy.force m_cache_evictions) evicted;
  Obs.set (Lazy.force m_cache_entries) entries;
  Obs.set (Lazy.force m_cache_bytes) total

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)

(* The fields every compute op shares: addressing, budgets, thresholds
   and the cache/strict/trace switches. *)
type request = {
  rq_program : string option;
  rq_source : string option;
  rq_trace : string option;
  rq_want_trace : bool; (* "trace": true — inline span tree in response *)
  rq_config : Interp.config;
  rq_thresholds : Filter.thresholds;
  rq_cache : bool;
  rq_strict : bool;
  rq_shards : int;
  rq_jobs : int option;
}

let field f k j = Result.map_error (fun msg -> Ferr.Bad_request { msg }) (f k j)

let parse_request srv j =
  let ( let* ) = Result.bind in
  let* program = field Json.str_field "program" j in
  let* source = field Json.str_field "source" j in
  (* "trace" is overloaded by JSON type: a string is a stored-trace path
     (analyze this file), a bool asks for the request's own span tree
     inline in the response. *)
  let* trace, want_trace =
    match Json.member "trace" j with
    | None | Some Json.Null -> Ok (None, false)
    | Some (Json.Str s) -> Ok (Some s, false)
    | Some (Json.Bool b) -> Ok (None, b)
    | Some _ ->
        Error
          (Ferr.Bad_request
             { msg = "field \"trace\": expected a string path or a bool" })
  in
  let* max_steps = field Json.int_field "max_steps" j in
  let* deadline_ms = field Json.int_field "deadline_ms" j in
  let* max_trace_events = field Json.int_field "max_trace_events" j in
  let* nexec = field Json.int_field "nexec" j in
  let* nloc = field Json.int_field "nloc" j in
  let* trace_scalars = field Json.bool_field "trace_scalars" j in
  let* use_cache = field Json.bool_field "cache" j in
  let* strict = field Json.bool_field "strict" j in
  let* shards = field Json.int_field "shards" j in
  let* jobs = field Json.int_field "jobs" j in
  let base = Interp.default_config in
  let max_steps =
    let requested = Option.value max_steps ~default:base.Interp.max_steps in
    match srv.s_cfg.max_steps_cap with
    | Some cap -> min requested cap
    | None -> requested
  in
  let config =
    {
      base with
      Interp.trace_scalars =
        Option.value trace_scalars ~default:base.Interp.trace_scalars;
      max_steps;
      deadline_ms =
        (match deadline_ms with Some _ -> deadline_ms | None -> base.Interp.deadline_ms);
      max_trace_events =
        (match max_trace_events with
        | Some _ -> max_trace_events
        | None -> base.Interp.max_trace_events);
    }
  in
  let thresholds =
    {
      Filter.nexec = Option.value nexec ~default:Filter.default.Filter.nexec;
      nloc = Option.value nloc ~default:Filter.default.Filter.nloc;
    }
  in
  Ok
    {
      rq_program = program;
      rq_source = source;
      rq_trace = trace;
      rq_want_trace = want_trace;
      rq_config = config;
      rq_thresholds = thresholds;
      rq_cache = Option.value use_cache ~default:true;
      rq_strict = Option.value strict ~default:false;
      rq_shards = Option.value shards ~default:1;
      rq_jobs = jobs;
    }

(* ------------------------------------------------------------------ *)
(* Compute ops                                                        *)

type computed = (value * Pipeline.degradation list, Ferr.t) result

(* One compute op as data. The driver ([run_op]) owns everything else:
   input addressing, the source digest, caching, pool dispatch, the
   strict check and the response head and tail.
   - [parse] reads the op's own fields, after the shared ones;
   - [key] extends the input's base key (the model key of a source, or
     trace digest x thresholds) into this op's cache key;
   - [compute] runs on the domain pool over a program source, and
     [compute_trace], when the op accepts a stored ["trace"] path, over
     that file;
   - [by_digest] says whether a remembered ["digest"] addresses a source;
   - [render] writes the op's response fields between ["cached"] and
     ["degraded"]. *)
type 'p op = {
  name : string;
  by_digest : bool;
  parse : Json.t -> request -> ('p, Ferr.t) result;
  key : 'p -> string -> string;
  compute : 'p -> request -> string -> computed;
  compute_trace : ('p -> request -> string -> computed) option;
  render : 'p -> Buffer.t -> digest:string -> value -> unit;
}

type any_op = Op : 'p op -> any_op

let model_value model ~steps ~accesses ~events =
  {
    v_text = Model.to_c model;
    v_stats =
      [
        ("n_refs", Model.n_refs model);
        ("n_loops", Model.n_loops model);
        ("steps", steps);
        ("accesses", accesses);
        ("events", events);
      ];
  }

let analyze_source rq src =
  Result.map
    (fun { Pipeline.result = r; degraded } ->
      ( model_value r.Pipeline.model ~steps:r.Pipeline.sim.Interp.steps
          ~accesses:r.Pipeline.sim.Interp.accesses
          ~events:(Foray_trace.Tstats.total_accesses r.Pipeline.tstats),
        degraded ))
    (Pipeline.run_source ~config:rq.rq_config ~thresholds:rq.rq_thresholds src)

(* Steps 3-4 over a stored trace (optionally sharded), then [k] on the
   model; a salvaged read degrades the result. *)
let with_stored_model rq path k =
  match
    Pipeline.analyze_trace ~strict:rq.rq_strict ~shards:rq.rq_shards
      ?jobs:rq.rq_jobs path
  with
  | Error c -> Error (Pipeline.error_of_corruption c)
  | Ok ((tree, tstats), salvage) ->
      let model = Model.of_tree ~thresholds:rq.rq_thresholds tree in
      Ok (k model tstats salvage, Pipeline.salvage_degradations salvage)

let analyze_stored rq path =
  with_stored_model rq path (fun model tstats salvage ->
      model_value model ~steps:0
        ~accesses:(Foray_trace.Tstats.total_accesses tstats)
        ~events:salvage.Foray_trace.Tracefile.events)

let analyze_op ~name ~stats =
  {
    name;
    by_digest = false;
    parse = (fun _ _ -> Ok ());
    key = (fun () base -> base);
    compute = (fun () -> analyze_source);
    compute_trace = Some (fun () -> analyze_stored);
    render =
      (fun () b ~digest:_ v ->
        Printf.bprintf b ", \"model\": \"%s\"" (Ferr.json_escape v.v_text);
        if stats then
          List.iter
            (fun (k, n) -> Printf.bprintf b ", \"%s\": %d" k n)
            v.v_stats);
  }

(* The spm op: Phase II buffer selection over the extracted model. *)
type spm_params = {
  sp_strategy_s : string;
  sp_strategy : Dse.strategy;
  sp_sizes : int list;
  sp_cfg : Stochastic.config;
}

let parse_spm j rq =
  let ( let* ) = Result.bind in
  let* strategy_s = field Json.str_field "strategy" j in
  let strategy_s = Option.value strategy_s ~default:"optimal" in
  let* seed = field Json.int_field "seed" j in
  let* budget = field Json.int_field "budget_proposals" j in
  let* restarts = field Json.int_field "restarts" j in
  let* spm_bytes = field Json.int_field "spm_bytes" j in
  let* sizes_rq =
    match Json.member "sizes" j with
    | None | Some Json.Null -> Ok None
    | Some (Json.Arr l) -> (
        match
          List.map (function Json.Int i when i > 0 -> i | _ -> raise Exit) l
        with
        | sizes -> Ok (Some sizes)
        | exception Exit ->
            Error
              (Ferr.Bad_request
                 { msg = "field \"sizes\": expected positive integers" }))
    | Some _ ->
        Error
          (Ferr.Bad_request
             { msg = "field \"sizes\": expected an array of integers" })
  in
  let* sizes =
    match (spm_bytes, sizes_rq) with
    | Some b, _ when b > 0 -> Ok [ b ]
    | Some _, _ ->
        Error (Ferr.Bad_request { msg = "field \"spm_bytes\": must be > 0" })
    | None, Some [] ->
        Error (Ferr.Bad_request { msg = "field \"sizes\": must be non-empty" })
    | None, Some l -> Ok l
    | None, None -> Ok Dse.default_sizes
  in
  let d = Stochastic.default_config in
  let cfg =
    {
      d with
      seed = Option.value seed ~default:d.seed;
      budget = Option.value budget ~default:d.budget;
      restarts = Option.value restarts ~default:d.restarts;
      (* the request's deadline_ms budget doubles as the search's anytime
         cutoff; the ensemble stays serial — the pool's domains belong to
         concurrent requests *)
      deadline_ms = rq.rq_config.Interp.deadline_ms;
      jobs = 1;
    }
  in
  let* strategy =
    match strategy_s with
    | "optimal" -> Ok Dse.Optimal
    | "greedy" -> Ok Dse.Greedy
    | "stochastic" -> Ok (Dse.Stochastic cfg)
    | s ->
        Error
          (Ferr.Bad_request
             {
               msg =
                 Printf.sprintf
                   "field \"strategy\": unknown strategy %S (expected \
                    optimal, greedy or stochastic)"
                   s;
             })
  in
  Ok
    { sp_strategy_s = strategy_s; sp_strategy = strategy; sp_sizes = sizes;
      sp_cfg = cfg }

(* Equal keys must imply equal (deterministic) results, so everything
   that steers the search is in — including the deadline, which is the
   one machine-dependent knob. *)
let spm_key p base =
  let cfg = p.sp_cfg in
  Printf.sprintf "spm:%s:%s:%s:%d:%d:%d:%s" base
    (String.concat "," (List.map string_of_int p.sp_sizes))
    p.sp_strategy_s cfg.Stochastic.seed cfg.budget cfg.restarts
    (match cfg.deadline_ms with Some ms -> string_of_int ms | None -> "-")

let spm_results_json sols =
  let sol_json (size, (sol : Dse.solution)) =
    let sel = sol.Dse.selection in
    let buf = Buffer.create 160 in
    Printf.bprintf buf
      "{\"spm_bytes\": %d, \"buffers\": %d, \"used_bytes\": %d, \
       \"energy_base_nj\": %.3f, \"energy_opt_nj\": %.3f, \"saving_pct\": \
       %.3f"
      size (List.length sel.chosen) sel.used_bytes sel.energy_base
      sel.energy_opt sel.saving_pct;
    (match sol.Dse.search with
    | None -> ()
    | Some st ->
        Printf.bprintf buf
          ", \"search\": {\"proposals\": %d, \"accepted\": %d, \
           \"improved\": %d, \"restarts\": %d, \"stopped\": \"%s\"}"
          st.Stochastic.proposals st.accepted st.improved st.restarts
          (Stochastic.stop_name st.stopped));
    Buffer.add_char buf '}';
    Buffer.contents buf
  in
  "[" ^ String.concat ", " (List.map sol_json sols) ^ "]"

let spm_source p rq src =
  Result.map
    (fun o ->
      let cands = Foray_spm.Reuse.candidates o.Pipeline.result.Pipeline.model in
      let sols =
        List.map
          (fun s -> (s, Dse.solve ~strategy:p.sp_strategy cands ~spm_bytes:s))
          p.sp_sizes
      in
      ({ v_text = spm_results_json sols; v_stats = [] }, o.Pipeline.degraded))
    (Pipeline.run_source ~config:rq.rq_config ~thresholds:rq.rq_thresholds src)

(* The verify op: per-reference model-replay verdicts, over a second
   simulation rather than a stored run. *)
let verify_source rq src =
  Result.map
    (fun ((o : Pipeline.outcome), rep) ->
      ({ v_text = Verify.report_to_json rep; v_stats = [] }, o.degraded))
    (Verify.of_source ~config:rq.rq_config ~thresholds:rq.rq_thresholds src)

(* A stored trace is verified against the model extracted from it, by
   replaying the same salvaged stream straight off the file. *)
let verify_stored rq path =
  with_stored_model rq path (fun model _ _ ->
      let vsink, finish = Verify.sink model in
      ignore (Foray_trace.Tracefile.read path vsink);
      { v_text = Verify.report_to_json (finish ()); v_stats = [] })

let render_digest b digest =
  Printf.bprintf b ", \"digest\": \"%s\"" (Ferr.json_escape digest)

let ops =
  [
    Op (analyze_op ~name:"analyze" ~stats:true);
    Op (analyze_op ~name:"extract" ~stats:false);
    Op
      {
        name = "spm";
        by_digest = true;
        parse = parse_spm;
        key = spm_key;
        compute = spm_source;
        compute_trace = None;
        render =
          (fun p b ~digest v ->
            render_digest b digest;
            Printf.bprintf b ", \"strategy\": \"%s\", \"results\": %s"
              (Ferr.json_escape p.sp_strategy_s)
              v.v_text);
      };
    Op
      {
        name = "verify";
        by_digest = true;
        parse = (fun _ _ -> Ok ());
        key = (fun () base -> "verify:" ^ base);
        compute = (fun () -> verify_source);
        compute_trace = Some (fun () -> verify_stored);
        render =
          (fun () b ~digest v ->
            render_digest b digest;
            Printf.bprintf b ", \"verify\": %s" v.v_text);
      };
  ]

(* ------------------------------------------------------------------ *)
(* The compute-op driver                                              *)

(* Run [f] on the domain pool inside a rid-tagged span, capturing the
   worker's tid and time window. A pool worker executes one task at a
   time, so every completed span on that tid within [t0, t1] belongs to
   this request — which is what lets [Span.collect] cut the request's
   tree out of the process-global ring without per-request plumbing. *)
let pool_run srv ~rid ~op f =
  Parallel.await
    (Parallel.async srv.s_pool (fun () ->
         let tid = Span.current_tid () in
         let t0 = Span.now_us () in
         let v =
           Span.with_span ~cat:"serve"
             ~args:[ ("rid", string_of_int rid); ("op", op) ]
             "serve.request" f
         in
         let t1 = Span.now_us () in
         (v, { sw_tid = tid; sw_t0 = t0; sw_t1 = t1 })))

(* The program source a request names: inline ["source"], a suite
   ["program"], or (for ops that allow it) a ["digest"] an earlier request
   reported. *)
let request_source srv o rq j =
  let ( let* ) = Result.bind in
  let* digest =
    if o.by_digest then field Json.str_field "digest" j else Ok None
  in
  match (rq.rq_source, rq.rq_program, digest) with
  | Some s, _, _ -> Ok s
  | None, Some name, _ -> Foray_suite.Suite.load name
  | None, None, Some d -> (
      match cache_find ~count:false srv ("src:" ^ d) with
      | Some (Source s) -> Ok s
      | _ -> Error (Ferr.Not_found_program { name = "digest:" ^ d }))
  | None, None, None ->
      let names =
        [ "\"program\""; "\"source\"" ]
        @ (if o.by_digest then [ "\"digest\"" ] else [])
        @ if o.compute_trace <> None then [ "\"trace\"" ] else []
      in
      let rec commas = function
        | [ a; b ] -> a ^ " or " ^ b
        | a :: rest -> a ^ ", " ^ commas rest
        | [] -> ""
      in
      Error
        (Ferr.Bad_request
           { msg = Printf.sprintf "%s needs %s" o.name (commas names) })

(* Resolve the request's input into its digest, its base cache key and the
   op's body bound to it. Sources are remembered under their digest. *)
let resolve srv o rq j p =
  match (rq.rq_trace, o.compute_trace) with
  | Some path, Some compute_trace -> (
      let missing = Error (Ferr.Not_found_program { name = path }) in
      if not (Sys.file_exists path) then missing
      else
        match Digest.to_hex (Digest.file path) with
        | exception Sys_error _ -> missing
        | digest ->
            let t = rq.rq_thresholds in
            Ok
              ( digest,
                Printf.sprintf "trace:%s:%d:%d" digest t.Filter.nexec
                  t.Filter.nloc,
                fun () -> compute_trace p rq path ))
  | _ ->
      Result.map
        (fun src ->
          let digest = Digest.to_hex (Digest.string src) in
          if rq.rq_cache then cache_add srv ("src:" ^ digest) (Source src);
          ( digest,
            Pipeline.model_key ~config:rq.rq_config
              ~thresholds:rq.rq_thresholds src,
            fun () -> o.compute p rq src ))
        (request_source srv o rq j)

(* What one dispatched request hands back to the accounting wrapper: a
   response renderer (latency-parameterized, so the reported [ms], the
   access-log latency and an inline trace root all quote the same
   number) plus everything the window/log need. *)
type handled = {
  h_render : dt_ms:float -> string;
  h_wind_down : bool;
  h_op : string;
  h_kind : Window.kind;
  h_digest : string option;
  h_cached : bool option;
  h_degraded : Pipeline.degradation list;
  h_steps : int;
  h_err : string option; (* stable E_* code *)
  h_sw : span_window option;
}

let handled ?(wind = false) ?(kind = Window.Uncached) ?digest ?cached
    ?(degraded = []) ?(steps = 0) ?err ?sw ~op render =
  {
    h_render = render;
    h_wind_down = wind;
    h_op = op;
    h_kind = kind;
    h_digest = digest;
    h_cached = cached;
    h_degraded = degraded;
    h_steps = steps;
    h_err = err;
    h_sw = sw;
  }

let error_handled ~rid ~id ~op e =
  Obs.incr (Lazy.force m_errors);
  handled ~op ~kind:Window.Error ~err:(Ferr.code e) (fun ~dt_ms ->
      render_error ~id ~rid ~dt_ms e)

(* One compute request end to end: only complete (non-degraded) results
   enter the cache, so a hit can always claim [degraded: []]. *)
let run_op srv o j ~rid ~id =
  let ( let* ) = Result.bind in
  let outcome =
    let* rq = parse_request srv j in
    let* p = o.parse j rq in
    let* digest, base, compute = resolve srv o rq j p in
    let key = o.key p base in
    match if rq.rq_cache then cache_find srv key else None with
    | Some (Value v) -> Ok (rq, p, digest, v, true, [], None)
    | _ -> (
        match pool_run srv ~rid ~op:o.name compute with
        | Error e, _ -> Error e
        | Ok (_, d :: _), _ when rq.rq_strict ->
            Error (Pipeline.error_of_degradation d)
        | Ok (v, degraded), sw ->
            if rq.rq_cache && degraded = [] then cache_add srv key (Value v);
            Ok (rq, p, digest, v, false, degraded, Some sw))
  in
  match outcome with
  | Error e -> error_handled ~rid ~id ~op:o.name e
  | Ok (rq, p, digest, v, cached, degraded, sw) ->
      let kind =
        if cached then Window.Hit
        else if rq.rq_cache then Window.Miss
        else Window.Uncached
      in
      let steps = Option.value (List.assoc_opt "steps" v.v_stats) ~default:0 in
      handled ~op:o.name ~kind ~digest ~cached ~degraded ~steps ?sw
        (fun ~dt_ms ->
          let b = Buffer.create (String.length v.v_text + 256) in
          Printf.bprintf b
            "{\"id\": %s, \"rid\": %d, \"status\": \"ok\", \"op\": \"%s\", \
             \"cached\": %b"
            id rid o.name cached;
          o.render p b ~digest v;
          Printf.bprintf b ", \"degraded\": [%s]"
            (String.concat ", "
               (List.map Pipeline.degradation_to_json degraded));
          if rq.rq_want_trace then
            Printf.bprintf b ", \"trace\": %s"
              (Span.node_to_json (trace_tree ~rid ~op:o.name ~dt_ms sw));
          Printf.bprintf b ", \"ms\": %.3f}" dt_ms;
          Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Per-request accounting: runtime gauges, window, access log, slow   *)

let sample_runtime_gauges srv =
  let g = Gc.quick_stat () in
  Obs.set (Lazy.force m_gc_major_words) (int_of_float g.Gc.major_words);
  Obs.set (Lazy.force m_gc_compactions) g.Gc.compactions;
  Obs.set (Lazy.force m_gc_heap_words) g.Gc.heap_words;
  Obs.set (Lazy.force m_pool_pending) (Parallel.pool_pending srv.s_pool);
  Obs.set (Lazy.force m_pool_busy) (Parallel.pool_busy srv.s_pool);
  Mutex.lock srv.s_conn_mutex;
  let active = srv.s_active in
  Mutex.unlock srv.s_conn_mutex;
  Obs.set (Lazy.force m_conn_active) active

let slow_to_json e =
  Printf.sprintf "{\"rid\": %d, \"op\": \"%s\", \"ms\": %.3f, \"ts\": %.3f}"
    e.sl_rid (Ferr.json_escape e.sl_op) e.sl_ms e.sl_ts

let slow_snapshot srv =
  Mutex.lock srv.s_slow_mutex;
  let l = List.of_seq (Queue.to_seq srv.s_slow) in
  Mutex.unlock srv.s_slow_mutex;
  l

let slow_push srv e =
  Mutex.lock srv.s_slow_mutex;
  Queue.push e srv.s_slow;
  while Queue.length srv.s_slow > slow_keep do
    ignore (Queue.pop srv.s_slow)
  done;
  Mutex.unlock srv.s_slow_mutex

(* One JSONL access-log line per request. Absent fields are omitted, not
   nulled, so lines stay grep-friendly; [spans] (the full breakdown) only
   appears on slow requests. *)
let log_request srv ~rid ~dt_ms ~slow_spans h =
  match srv.s_log with
  | None -> ()
  | Some oc ->
      let buf = Buffer.create 256 in
      Printf.bprintf buf
        "{\"ts\": %.3f, \"rid\": %d, \"op\": \"%s\", \"status\": \"%s\""
        (Unix.gettimeofday ()) rid (Ferr.json_escape h.h_op)
        (match h.h_err with None -> "ok" | Some _ -> "error");
      (match h.h_err with
      | Some code -> Printf.bprintf buf ", \"error\": \"%s\"" code
      | None -> ());
      (match h.h_digest with
      | Some d ->
          Printf.bprintf buf ", \"digest\": \"%s\"" (Ferr.json_escape d)
      | None -> ());
      (match h.h_cached with
      | Some b -> Printf.bprintf buf ", \"cached\": %b" b
      | None -> ());
      if h.h_degraded <> [] then
        Printf.bprintf buf ", \"degraded\": [%s]"
          (String.concat ", "
             (List.map Pipeline.degradation_to_json h.h_degraded));
      if h.h_steps > 0 then Printf.bprintf buf ", \"steps\": %d" h.h_steps;
      Printf.bprintf buf ", \"ms\": %.3f" dt_ms;
      (match slow_spans with
      | Some node ->
          Printf.bprintf buf ", \"slow\": true, \"spans\": %s"
            (Span.node_to_json node)
      | None -> ());
      Buffer.add_char buf '}';
      Mutex.lock srv.s_log_mutex;
      output_string oc (Buffer.contents buf);
      output_char oc '\n';
      flush oc;
      Mutex.unlock srv.s_log_mutex

let dispatch srv ~rid parsed =
  let error ~id ~op e = error_handled ~rid ~id ~op e in
  match parsed with
  | Error msg -> error ~id:"null" ~op:"parse" (Ferr.Bad_request { msg })
  | Ok j -> (
      let id = render_id j in
      let simple ~op ?wind fields =
        handled ~op ?wind (fun ~dt_ms ->
            Printf.sprintf
              "{\"id\": %s, \"rid\": %d, \"status\": \"ok\", \"op\": \"%s\"%s, \
               \"ms\": %.3f}"
              id rid op fields dt_ms)
      in
      match Json.str_field "op" j with
      | Error msg -> error ~id ~op:"parse" (Ferr.Bad_request { msg })
      | Ok None ->
          error ~id ~op:"parse" (Ferr.Bad_request { msg = "missing \"op\"" })
      | Ok (Some op) -> (
          Obs.incr (m_requests op);
          match op with
          | "ping" -> simple ~op ""
          | "metrics" ->
              sample_runtime_gauges srv;
              simple ~op
                (Printf.sprintf
                   ", \"metrics\": %s, \"window\": %s, \"slow\": [%s]"
                   (Obs.to_json ())
                   (Window.all_to_json srv.s_window)
                   (String.concat ", "
                      (List.map slow_to_json (slow_snapshot srv))))
          | "metrics_text" ->
              sample_runtime_gauges srv;
              let text =
                Obs.to_openmetrics
                  ~extra:(Window.to_openmetrics srv.s_window)
                  ()
              in
              simple ~op
                (Printf.sprintf ", \"text\": \"%s\"" (Ferr.json_escape text))
          | "shutdown" ->
              Atomic.set srv.s_stop true;
              simple ~op ~wind:true ""
          | _ -> (
              match List.find_opt (fun (Op o) -> o.name = op) ops with
              | None ->
                  error ~id ~op
                    (Ferr.Bad_request
                       { msg = Printf.sprintf "unknown op %S" op })
              | Some (Op o) -> (
                  (* a worker exception that escaped the taxonomy must
                     never kill the daemon — or poison other clients *)
                  try run_op srv o j ~rid ~id
                  with e ->
                    error ~id ~op
                      (match Ferr.of_exn e with
                      | Some fe -> fe
                      | None ->
                          Ferr.Runtime
                            {
                              loc = "serve";
                              step = -1;
                              msg = Printexc.to_string e;
                            })))))

(* One parsed request line in, one response line out. Returns the
   response and whether the connection (or the whole server) should wind
   down. *)
let handle_line srv parsed =
  let rid = Atomic.fetch_and_add srv.s_rid 1 in
  let t0 = Unix.gettimeofday () in
  let h = dispatch srv ~rid parsed in
  let dt_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  Obs.observe (Lazy.force m_request_ms) (int_of_float dt_ms);
  Window.record srv.s_window h.h_kind (int_of_float dt_ms);
  let slow_spans =
    match srv.s_cfg.slow_ms with
    | Some thr when dt_ms >= float_of_int thr ->
        Obs.incr (Lazy.force m_slow_requests);
        slow_push srv
          {
            sl_rid = rid;
            sl_op = h.h_op;
            sl_ms = dt_ms;
            sl_ts = Unix.gettimeofday ();
          };
        Some (trace_tree ~rid ~op:h.h_op ~dt_ms h.h_sw)
    | _ -> None
  in
  log_request srv ~rid ~dt_ms ~slow_spans h;
  (h.h_render ~dt_ms, h.h_wind_down)

(* Wake the acceptor blocked in [Unix.accept]: connect to ourselves and
   hang up. Done after every shutdown reply, by the connection thread. *)
let poke srv =
  match Unix.socket PF_UNIX SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.connect fd (ADDR_UNIX srv.s_cfg.socket_path)
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let serve_connection srv fd =
  let reader = make_reader ~max:max_line_bytes fd in
  let rec loop () =
    match read_line reader with
    | None -> ()
    | Some line when String.trim line = "" -> loop ()
    | Some line ->
        let resp, wind_down = handle_line srv (Json.parse line) in
        write_line fd resp;
        if wind_down then poke srv else loop ()
    | exception Line_too_long ->
        (* the rest of the line cannot be framed: answer, then hang up *)
        let msg =
          Printf.sprintf "request line longer than %d bytes" max_line_bytes
        in
        write_line fd (fst (handle_line srv (Error msg)))
  in
  (* a client hanging up mid-request or mid-response is its own problem *)
  try loop () with Unix.Unix_error _ -> ()

let accept_loop srv =
  let rec loop () =
    if Atomic.get srv.s_stop then ()
    else
      match Unix.accept srv.s_fd with
      | exception Unix.Unix_error (EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ ->
          (* out of descriptors (EMFILE/ENFILE) or an aborted handshake:
             the listener is still good, so back off and keep serving *)
          Unix.sleepf 0.01;
          loop ()
      | cfd, _ ->
          if Atomic.get srv.s_stop then (
            (try Unix.close cfd with Unix.Unix_error _ -> ()))
          else begin
            Obs.incr (Lazy.force m_connections);
            Mutex.lock srv.s_conn_mutex;
            srv.s_active <- srv.s_active + 1;
            Mutex.unlock srv.s_conn_mutex;
            ignore
              (Thread.create
                 (fun () ->
                   Fun.protect
                     ~finally:(fun () ->
                       (try Unix.close cfd with Unix.Unix_error _ -> ());
                       Mutex.lock srv.s_conn_mutex;
                       srv.s_active <- srv.s_active - 1;
                       Condition.broadcast srv.s_conn_cond;
                       Mutex.unlock srv.s_conn_mutex)
                     (fun () -> serve_connection srv cfd))
                 ());
            loop ()
          end
  in
  loop ();
  (* drain in-flight connections before tearing anything down *)
  Mutex.lock srv.s_conn_mutex;
  while srv.s_active > 0 do
    Condition.wait srv.s_conn_cond srv.s_conn_mutex
  done;
  Mutex.unlock srv.s_conn_mutex;
  Parallel.shutdown_pool srv.s_pool;
  (match srv.s_log with
  | Some oc -> ( try close_out oc with Sys_error _ -> ())
  | None -> ());
  (try Unix.close srv.s_fd with Unix.Unix_error _ -> ());
  try Unix.unlink srv.s_cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ()

let remove_stale path =
  match Unix.lstat path with
  | exception Unix.Unix_error (ENOENT, _, _) -> ()
  | { Unix.st_kind = S_SOCK; _ } -> Unix.unlink path
  | _ ->
      Ferr.raise_error
        (Ferr.Bad_request
           { msg = Printf.sprintf "%s exists and is not a socket" path })

let start cfg =
  if cfg.jobs < 1 then invalid_arg "Serve.start: jobs must be >= 1";
  Obs.set_enabled true;
  (* spans feed the per-request trees ("trace": true, --slow-ms); the
     ring overwrites its oldest entries, so leaving this on is bounded *)
  Span.set_enabled true;
  (* a client vanishing mid-response must be an EPIPE error, not a kill *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  remove_stale cfg.socket_path;
  let log =
    match cfg.access_log with
    | None -> None
    | Some path ->
        Some (open_out_gen [ Open_append; Open_creat ] 0o644 path)
  in
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (match Unix.bind fd (ADDR_UNIX cfg.socket_path) with
  | () -> ()
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (match log with
      | Some oc -> ( try close_out oc with Sys_error _ -> ())
      | None -> ());
      raise e);
  Unix.listen fd 64;
  let srv =
    {
      s_cfg = cfg;
      s_fd = fd;
      s_pool = Parallel.create_pool ~jobs:cfg.jobs ();
      s_cache = Lru.create ~max_bytes:cfg.cache_bytes;
      s_cache_mutex = Mutex.create ();
      s_stop = Atomic.make false;
      s_conn_mutex = Mutex.create ();
      s_conn_cond = Condition.create ();
      s_active = 0;
      s_acceptor = None;
      s_window = Window.create ();
      s_rid = Atomic.make 1;
      s_log = log;
      s_log_mutex = Mutex.create ();
      s_slow = Queue.create ();
      s_slow_mutex = Mutex.create ();
    }
  in
  srv.s_acceptor <- Some (Domain.spawn (fun () -> accept_loop srv));
  srv

let wait srv =
  match srv.s_acceptor with Some d -> Domain.join d | None -> ()

let run cfg = wait (start cfg)

(* ------------------------------------------------------------------ *)
(* Client                                                             *)

module Client = struct
  type t = { c_fd : Unix.file_descr; c_reader : reader }

  let connect path =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    (match Unix.connect fd (ADDR_UNIX path) with
    | () -> ()
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e);
    { c_fd = fd; c_reader = make_reader fd }

  let request t line =
    write_line t.c_fd line;
    match read_line t.c_reader with
    | Some resp -> resp
    | None -> failwith "Serve.Client.request: server closed the connection"

  let rpc t fields =
    let line =
      "{"
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> Printf.sprintf "\"%s\": %s" (Ferr.json_escape k) v)
             fields)
      ^ "}"
    in
    match Json.parse (request t line) with
    | Ok j -> j
    | Error msg -> failwith ("Serve.Client.rpc: bad response JSON: " ^ msg)

  let close t = try Unix.close t.c_fd with Unix.Unix_error _ -> ()

  let shutdown path =
    let t = connect path in
    Fun.protect
      ~finally:(fun () -> close t)
      (fun () -> ignore (request t "{\"op\": \"shutdown\"}"))
end
