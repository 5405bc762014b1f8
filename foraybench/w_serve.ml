(* serve-mixed: the daemon path. Two client connections from this process
   run a closed loop against a forayd child:
   - 50% extract over a Zipf-drawn pool of 64 generated programs, so
     repeats hit the model cache;
   - 20% analyze of programs never sent before, which always miss;
   - 15% spm and 15% verify of programs already sent: half by digest of a
     pool program (cache hits once warm), half resending one of this
     client's fresh programs (always computed).
   Fresh programs go out with "cache": false. The cache then holds the
   pool's entries only, so the daemon's memory does not grow with the
   number of requests a run manages to send. Then come burst rounds: both
   clients send the same new program behind a barrier, the only traffic
   merged cold starts could speed up. Every reply is checked afterwards
   against a local run of the same source and, for generated programs,
   against the planted coefficients. *)

open Foray_core
module Json = Foray_serve.Json
module Client = Foray_serve.Serve.Client
module Progen = Foray_util.Progen
module Prng = Foray_util.Prng

let pool = 64
let nests = 4
let clients = 2
let burst_rounds = 100

(* Program ids: 0..pool-1 the Zipf pool, then fresh programs in order of
   first use, and [burst_base + r] for burst round [r]. *)
let burst_base = 1_000_000
let program ~seed id = Progen.generate ~seed:((seed * 1_000_003) + id) ~nests

let zipf_cdf =
  lazy
    (let w = Array.init pool (fun r -> 1.0 /. float_of_int (r + 1)) in
     let total = Array.fold_left ( +. ) 0.0 w in
     let acc = ref 0.0 in
     Array.map
       (fun x ->
         acc := !acc +. (x /. total);
         !acc)
       w)

let zipf rng =
  let cdf = Lazy.force zipf_cdf in
  let u = float_of_int (Prng.int rng 1_000_000) /. 1e6 in
  let rec find i = if i >= pool - 1 || cdf.(i) >= u then i else find (i + 1) in
  find 0

type reply = {
  op : string;
  src : int;  (** program id *)
  ms : float;
  json : Json.t option;
}

let digest source = Digest.to_hex (Digest.string source)
let str = Daemon.str

let req ~trace fields =
  Daemon.request_line (if trace then fields @ [ ("trace", "true") ] else fields)

(* A two-party-or-more barrier for the burst rounds. *)
type barrier = {
  m : Mutex.t;
  c : Condition.t;
  parties : int;
  mutable waiting : int;
  mutable gen : int;
}

let barrier parties =
  { m = Mutex.create (); c = Condition.create (); parties; waiting = 0; gen = 0 }

let await b =
  Mutex.lock b.m;
  let g = b.gen in
  b.waiting <- b.waiting + 1;
  if b.waiting = b.parties then begin
    b.waiting <- 0;
    b.gen <- g + 1;
    Condition.broadcast b.c
  end
  else
    while b.gen = g do
      Condition.wait b.c b.m
    done;
  Mutex.unlock b.m

type drive = {
  replies : reply list;
  pairs_ms : float array;
      (** per burst round: both requests, first send to last reply *)
  wall_s : float;
}

(* Run [clients] domains, one connection each: client [ci] runs
   [script ci conn] (its replies, in order), then [rounds] lock-step burst
   rounds sending [burst r]. Domains rather than threads, so one client
   parsing a reply never holds up the other's. Nothing escapes a client,
   so a failing one cannot leave the other stuck at the barrier; its
   requests just fail. *)
let drive (d : Daemon.t) ~script ~rounds ~burst =
  let b = barrier clients in
  let logs = Array.make clients [] in
  let spans = Array.make_matrix clients rounds (0.0, 0.0) in
  let body ci =
    let conn = try Some (Client.connect d.socket) with Unix.Unix_error _ -> None in
    let call line =
      match conn with Some c -> Daemon.call c line | None -> (None, 0.0)
    in
    let log = try script ci call with e ->
      Printf.eprintf "client %d: %s\n%!" ci (Printexc.to_string e);
      []
    in
    let blog = ref [] in
    for r = 0 to rounds - 1 do
      await b;
      let t0 = Meter.now () in
      let op, src, line = burst r in
      let json, ms = call line in
      spans.(ci).(r) <- (t0, Meter.now ());
      blog := { op; src; ms; json } :: !blog
    done;
    Option.iter Client.close conn;
    logs.(ci) <- log @ List.rev !blog
  in
  let t0 = Meter.now () in
  List.init clients (fun ci -> Domain.spawn (fun () -> body ci))
  |> List.iter Domain.join;
  let wall_s = Meter.now () -. t0 in
  let pairs_ms =
    Array.init rounds (fun r ->
        let s = Array.fold_left (fun a row -> min a (fst row.(r))) infinity spans in
        let e = Array.fold_left (fun a row -> max a (snd row.(r))) 0.0 spans in
        (e -. s) *. 1000.0)
  in
  { replies = List.concat (Array.to_list logs); pairs_ms; wall_s }

(* The mixed closed loop of one client: until [stop n] says so. *)
let mixed_script ~seed ~trace ~fresh ~stop ci call =
  let rng = Prng.create ((seed * 31) + ci) in
  let sources = Hashtbl.create 256 in
  let source id =
    match Hashtbl.find_opt sources id with
    | Some s -> s
    | None ->
        let s = (program ~seed id).Progen.source in
        Hashtbl.add sources id s;
        s
  in
  let sent = ref [||] and n_sent = ref 0 in
  let remember id =
    if !n_sent = Array.length !sent then
      sent := Array.append !sent (Array.make (max 16 !n_sent) 0);
    !sent.(!n_sent) <- id;
    incr n_sent
  in
  let rec loop n acc =
    if stop n then List.rev acc
    else
      let u = Prng.int rng 100 in
      let uncached id = [ ("source", str (source id)); ("cache", "false") ] in
      let op, id, fields =
        if u < 50 then
          let id = zipf rng in
          ("extract", id, [ ("source", str (source id)) ])
        else if u < 70 then begin
          let id = pool + Atomic.fetch_and_add fresh 1 in
          remember id;
          ("analyze", id, uncached id)
        end
        else
          let op = if u < 85 then "spm" else "verify" in
          if !n_sent = 0 || Prng.bool rng then
            let id = zipf rng in
            (op, id, [ ("digest", str (digest (source id))) ])
          else
            let id = !sent.(Prng.int rng !n_sent) in
            (op, id, uncached id)
      in
      let json, ms = call (req ~trace (("op", str op) :: fields)) in
      loop (n + 1) ({ op; src = id; ms; json } :: acc)
  in
  loop 0 []

(* What a correct reply for a source must carry, computed locally with the
   daemon's default configuration. *)
type expect = { model : string; n_refs : int; savings : string list; planted : bool }

(* [savings] only when an spm reply needs them: they cost seven solves. *)
let expectation ?planted ~savings source =
  match Pipeline.run_source source with
  | Ok { result; degraded = [] } ->
      let m = result.model in
      Some
        {
          model = Model.to_c m;
          n_refs = Model.n_refs m;
          savings = (if savings then Check.optimal_savings m else []);
          planted =
            (match planted with Some p -> Check.planted_ok m p | None -> true);
        }
  | _ -> None

let wire_savings j =
  match Json.member "results" j with
  | Some (Json.Arr l) ->
      List.map
        (fun r ->
          match Daemon.num_member "saving_pct" r with
          | Some f -> Printf.sprintf "%.3f" f
          | None -> "?")
        l
  | _ -> []

let reply_ok e r =
  match (r.json, e) with
  | Some j, Some e when Daemon.ok r.json -> (
      e.planted
      &&
      match r.op with
      | "extract" | "analyze" -> Daemon.str_member "model" j = Some e.model
      | "spm" -> wire_savings j = e.savings
      | "verify" -> (
          match Json.member "verify" j with
          | Some v ->
              Daemon.num_member "diverged" v = Some 0.0
              && Daemon.num_member "proved" v = Some (float_of_int e.n_refs)
          | None -> false)
      | _ -> false)
  | _ -> false

(* Failed replies. Each distinct source is run locally once; the local
   runs are spread over the CPUs, after the traffic has stopped. *)
let failures ~expect_of replies =
  let need = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      let spm =
        r.op = "spm" || Option.value (Hashtbl.find_opt need r.src) ~default:false
      in
      Hashtbl.replace need r.src spm)
    replies;
  let expected = Hashtbl.create 1024 in
  List.iter
    (fun (id, e) -> Hashtbl.replace expected id e)
    (Foray_util.Parallel.map ~jobs:(Meter.nproc ())
       (fun (id, savings) -> (id, expect_of ~savings id))
       (List.of_seq (Hashtbl.to_seq need)));
  List.fold_left
    (fun bad r -> if reply_ok (Hashtbl.find expected r.src) r then bad else bad + 1)
    0 replies

let progen_expect ~seed ~savings id =
  let g = program ~seed id in
  expectation ~planted:(Check.progen_planted g) ~savings g.source

(* ---- per-layer serving metrics ------------------------------------- *)

let cached r =
  match r.json with
  | Some j -> Json.member "cached" j = Some (Json.Bool true)
  | None -> false

let rec nodes name (j : Json.t) =
  let here =
    if Daemon.str_member "name" j = Some name then [ j ] else []
  in
  match Json.member "children" j with
  | Some (Json.Arr l) -> here @ List.concat_map (nodes name) l
  | _ -> here

let dur_ms j = Option.value (Daemon.num_member "dur_us" j) ~default:0.0 /. 1000.0

let sum_ms names tree =
  List.fold_left
    (fun acc n -> List.fold_left (fun a j -> a +. dur_ms j) acc (nodes n tree))
    0.0 names

let front_end = [ "pipeline.parse"; "pipeline.sema"; "pipeline.annotate" ]

let layer_values (d : Daemon.t) ~before (dr : drive) =
  let hits0, misses0, tasks0 = before in
  let hits = Daemon.counter d "serve.cache.hits" - hits0 in
  let misses = Daemon.counter d "serve.cache.misses" - misses0 in
  let tasks = Daemon.counter d "parallel.pool.tasks" - tasks0 in
  let lat p =
    Array.of_list
      (List.filter_map (fun r -> if p r then Some r.ms else None) dr.replies)
  in
  let computes r = r.op = "extract" || r.op = "analyze" in
  let pct p q =
    let a = lat p in
    if Array.length a = 0 then 0.0 else Meter.percentile a q
  in
  let med p = pct p 0.5 in
  let miss_trees =
    List.filter_map
      (fun r ->
        if computes r && not (cached r) then Option.bind r.json (Json.member "trace")
        else None)
      dr.replies
  in
  let tree_median f =
    match miss_trees with
    | [] -> 0.0
    | l -> Meter.median (Array.of_list (List.map f l))
  in
  [
    ("serve.hit.p50_ms", med (fun r -> computes r && cached r));
    ("serve.hit.p99_ms", pct (fun r -> computes r && cached r) 0.99);
    ("serve.miss.p50_ms", med (fun r -> computes r && not (cached r)));
    ("serve.miss.p99_ms", pct (fun r -> computes r && not (cached r)) 0.99);
    ("serve.spm.p50_ms", med (fun r -> r.op = "spm"));
    ("serve.spm.p99_ms", pct (fun r -> r.op = "spm") 0.99);
    ("serve.verify.p50_ms", med (fun r -> r.op = "verify"));
    ("serve.verify.p99_ms", pct (fun r -> r.op = "verify") 0.99);
    ( "serve.burst_pair_ms",
      if Array.length dr.pairs_ms = 0 then 0.0 else Meter.median dr.pairs_ms );
    ( "serve.cache_hit_ratio",
      if hits + misses > 0 then float_of_int hits /. float_of_int (hits + misses)
      else 0.0 );
    ("serve.computations", float_of_int tasks);
    ( "serve.parse_ms",
      tree_median (sum_ms front_end) );
    ("serve.simulate_ms", tree_median (sum_ms [ "pipeline.simulate" ]));
    (* the pool task after simulation (Step 4 and the model), taken as a
       difference: the daemon keeps only a request's first 512 spans by
       start time, so on large programs pipeline.analyze itself is cut *)
    ( "serve.analyze_ms",
      tree_median (fun t ->
          sum_ms [ "serve.request" ] t
          -. sum_ms ("pipeline.simulate" :: front_end) t) );
    (* the part of a miss spent outside the pool task: dispatch, cache,
       queueing for a worker and rendering the reply *)
    ( "serve.render_ms",
      tree_median (fun t -> dur_ms t -. sum_ms [ "serve.request" ] t) );
  ]

let counters_now d =
  ( Daemon.counter d "serve.cache.hits",
    Daemon.counter d "serve.cache.misses",
    Daemon.counter d "parallel.pool.tasks" )

(* ---- the workload --------------------------------------------------- *)

let warm (d : Daemon.t) ~seed =
  let c = Client.connect d.socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      for id = 0 to pool - 1 do
        let src = (program ~seed id).Progen.source in
        let json, _ =
          Daemon.call c
            (req ~trace:false [ ("op", str "extract"); ("source", str src) ])
        in
        if not (Daemon.ok json) then failwith "serve-mixed: warm-up request failed"
      done)

let burst_req ~seed ~trace r =
  let id = burst_base + r in
  ( "extract",
    id,
    req ~trace
      [ ("op", str "extract"); ("source", str (program ~seed id).Progen.source) ]
  )

let traffic (d : Daemon.t) (cfg : Work.config) ~trace ~seconds ~rounds =
  let fresh = Atomic.make 0 in
  let deadline = Meter.now () +. seconds in
  let stop n = if cfg.small then n >= 20 else Meter.now () >= deadline in
  drive d
    ~script:(mixed_script ~seed:cfg.seed ~trace ~fresh ~stop)
    ~rounds
    ~burst:(burst_req ~seed:cfg.seed ~trace)

let run (cfg : Work.config) : Work.outcome =
  let d, setup_s =
    Work.repeat_setup cfg ~discard:Daemon.stop (fun () ->
        let d = Daemon.start () in
        warm d ~seed:cfg.seed;
        d)
  in
  let dr =
    traffic d cfg ~trace:false ~seconds:cfg.seconds
      ~rounds:(if cfg.small then 2 else burst_rounds)
  in
  let rss = Daemon.peak_rss_mb d in
  Daemon.stop d;
  let failed = failures ~expect_of:(progen_expect ~seed:cfg.seed) dr.replies in
  let lat_ms = Array.of_list (List.map (fun r -> r.ms) dr.replies) in
  let values, samples =
    Work.metrics ~setup_s ~wall_s:dr.wall_s ~peak_rss_mb:rss lat_ms
  in
  let count op = List.length (List.filter (fun r -> r.op = op) dr.replies) in
  {
    values;
    samples;
    attempted = Array.length lat_ms;
    failed;
    notes =
      [
        Printf.sprintf
          "requests: %d extract, %d analyze, %d spm, %d verify over %d clients \
           (%d in burst rounds)"
          (count "extract") (count "analyze") (count "spm") (count "verify")
          clients (clients * Array.length dr.pairs_ms);
      ];
  }

(* The decomposed run of serve-mixed: its own traffic for a shortened
   window, every request asking for its span tree, and the checks of the
   replies; the online layers of the first pool programs, which is what
   the daemon runs on a miss; and, for the tracing overhead, passes of
   uncached extracts of the pool. *)
let traced (cfg : Work.config) =
  let d = Daemon.start () in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      warm d ~seed:cfg.seed;
      let programs =
        List.init (if cfg.small then 2 else 8) (fun id ->
            {
              Layers.name = Printf.sprintf "progen%d" id;
              source = (program ~seed:cfg.seed id).Progen.source;
              config = Minic_sim.Interp.default_config;
            })
      in
      let lines =
        List.init (if cfg.small then 2 else pool) (fun id ->
            req ~trace:false
              [
                ("op", str "extract");
                ("source", str (program ~seed:cfg.seed id).Progen.source);
                ("cache", "false");
              ])
      in
      let pass tr o =
        let c = Client.connect d.socket in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            List.iter
              (fun line ->
                Work.op o tr "serve.extract" (fun () ->
                    Daemon.ok (fst (Daemon.call c line))))
              lines)
      in
      let decompose t a =
        let before = counters_now d in
        let dr =
          Tracer.with_span t "serve.traffic" (fun () ->
              traffic d cfg ~trace:true
                ~seconds:(Float.min cfg.seconds 5.0)
                ~rounds:(if cfg.small then 1 else 20))
        in
        let values = layer_values d ~before dr in
        let bad =
          Tracer.with_span t "check.replies" (fun () ->
              failures ~expect_of:(progen_expect ~seed:cfg.seed) dr.replies)
        in
        {
          Traced.values;
          sent = List.length dr.replies;
          bad;
          rows =
            "where a miss's online extraction goes, per pool program \
             (sink-stack differences):"
            :: List.map (Layers.online t a) programs;
        }
      in
      Traced.run cfg ~decompose ~pass)
