(* Foray_serve: the forayd daemon, its wire protocol, the model cache and
   the client-isolation guarantees — plus unit coverage of the JSON reader
   and the byte-bounded LRU it is built on. *)

module Serve = Foray_serve.Serve
module Json = Foray_serve.Json
module Lru = Foray_serve.Lru
module Parallel = Foray_util.Parallel

(* ---- Lru ------------------------------------------------------------- *)

let t_lru_basics () =
  let l = Lru.create ~max_bytes:100 in
  Alcotest.(check int) "fresh cache empty" 0 (Lru.entries l);
  ignore (Lru.add l ~key:"a" ~bytes:40 1);
  ignore (Lru.add l ~key:"b" ~bytes:40 2);
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find l "a");
  Alcotest.(check (option int)) "find b" (Some 2) (Lru.find l "b");
  Alcotest.(check (option int)) "miss" None (Lru.find l "c");
  Alcotest.(check int) "bytes tracked" 80 (Lru.bytes l)

let t_lru_evicts_lru_end () =
  let l = Lru.create ~max_bytes:100 in
  ignore (Lru.add l ~key:"a" ~bytes:40 1);
  ignore (Lru.add l ~key:"b" ~bytes:40 2);
  (* touch "a" so "b" is the LRU entry when "c" overflows the bound *)
  ignore (Lru.find l "a");
  let evicted = Lru.add l ~key:"c" ~bytes:40 3 in
  Alcotest.(check int) "one eviction" 1 evicted;
  Alcotest.(check (option int)) "b evicted" None (Lru.find l "b");
  Alcotest.(check (option int)) "a kept (recently used)" (Some 1)
    (Lru.find l "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Lru.find l "c")

let t_lru_replace_and_bounds () =
  let l = Lru.create ~max_bytes:100 in
  ignore (Lru.add l ~key:"a" ~bytes:60 1);
  let ev = Lru.add l ~key:"a" ~bytes:30 2 in
  Alcotest.(check int) "replacement is not an eviction" 0 ev;
  Alcotest.(check (option int)) "replaced value" (Some 2) (Lru.find l "a");
  Alcotest.(check int) "bytes re-accounted" 30 (Lru.bytes l);
  (* an entry bigger than the whole cache is refused outright *)
  let ev = Lru.add l ~key:"huge" ~bytes:101 3 in
  Alcotest.(check int) "oversized refused, nothing evicted" 0 ev;
  Alcotest.(check (option int)) "oversized absent" None (Lru.find l "huge");
  (* max_bytes = 0 disables caching entirely *)
  let off = Lru.create ~max_bytes:0 in
  ignore (Lru.add off ~key:"x" ~bytes:0 1);
  Alcotest.(check (option int)) "disabled cache stores nothing" None
    (Lru.find off "x")

(* ---- Json ------------------------------------------------------------ *)

let t_json_values () =
  let ok s = match Json.parse s with Ok v -> v | Error e -> Alcotest.fail e in
  Alcotest.(check bool) "object with scalars" true
    (ok "{\"a\": 1, \"b\": -2.5, \"c\": true, \"d\": null, \"e\": \"x\"}"
    = Json.Obj
        [ ("a", Json.Int 1); ("b", Json.Float (-2.5)); ("c", Json.Bool true);
          ("d", Json.Null); ("e", Json.Str "x") ]);
  Alcotest.(check bool) "nested arrays" true
    (ok "[1, [2, 3], {\"k\": []}]"
    = Json.Arr
        [ Json.Int 1; Json.Arr [ Json.Int 2; Json.Int 3 ];
          Json.Obj [ ("k", Json.Arr []) ] ]);
  Alcotest.(check bool) "string escapes" true
    (ok "\"a\\n\\\"b\\\"\\u0041\"" = Json.Str "a\n\"b\"A")

let t_json_errors () =
  let bad s =
    match Json.parse s with Ok _ -> Alcotest.failf "parsed %S" s | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "{\"a\": }";
  bad "[1, 2,]";
  bad "tru";
  bad "1 2";
  bad "{\"a\": 1} trailing";
  (* \u takes exactly four hex digits: no OCaml-literal underscores *)
  bad "\"\\u4_1_\"";
  bad "\"\\u_041\""

let t_json_fields () =
  let j =
    match Json.parse "{\"s\": \"x\", \"i\": 7, \"b\": false, \"n\": null}" with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "str present" true (Json.str_field "s" j = Ok (Some "x"));
  Alcotest.(check bool) "int present" true (Json.int_field "i" j = Ok (Some 7));
  Alcotest.(check bool) "bool present" true
    (Json.bool_field "b" j = Ok (Some false));
  Alcotest.(check bool) "null reads as absent" true
    (Json.int_field "n" j = Ok None);
  Alcotest.(check bool) "absent is None" true (Json.str_field "z" j = Ok None);
  Alcotest.(check bool) "mistyped is Error" true
    (match Json.int_field "s" j with Error _ -> true | Ok _ -> false)

(* ---- daemon helpers -------------------------------------------------- *)

let with_daemon ?(jobs = 2) ?(cache_bytes = 64 * 1024 * 1024) f =
  let path = Serve.temp_socket_path () in
  let cfg =
    { (Serve.default_config ~socket_path:path) with Serve.jobs; cache_bytes }
  in
  let srv = Serve.start cfg in
  Fun.protect
    ~finally:(fun () ->
      (try Serve.Client.shutdown path with _ -> ());
      Serve.wait srv;
      Foray_obs.Obs.set_enabled false;
      Foray_obs.Span.set_enabled false)
    (fun () -> f path)

let status j =
  match Json.member "status" j with Some (Json.Str s) -> s | _ -> "?"

let err_code j =
  match Json.member "error" j with
  | Some e -> (
      match Json.member "error" e with Some (Json.Str c) -> c | _ -> "?")
  | None -> "?"

let model j =
  match Json.member "model" j with Some (Json.Str m) -> m | _ -> ""

let cached j =
  match Json.member "cached" j with Some (Json.Bool b) -> b | _ -> false

let degraded j =
  match Json.member "degraded" j with Some (Json.Arr l) -> l | _ -> []

let degraded_budget_names j =
  List.filter_map
    (fun d ->
      match Json.member "budget" d with Some (Json.Str b) -> Some b | _ -> None)
    (degraded j)

(* ---- protocol and error taxonomy ------------------------------------- *)

let t_ping_and_shutdown () =
  with_daemon (fun path ->
      let c = Serve.Client.connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let j = Serve.Client.rpc c [ ("op", "\"ping\""); ("id", "42") ] in
          Alcotest.(check string) "ping ok" "ok" (status j);
          Alcotest.(check bool) "id echoed" true
            (Json.member "id" j = Some (Json.Int 42))))

let t_bad_requests () =
  with_daemon (fun path ->
      let c = Serve.Client.connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let resp line =
            match Json.parse (Serve.Client.request c line) with
            | Ok j -> j
            | Error e -> Alcotest.failf "response not JSON: %s" e
          in
          (* not JSON at all *)
          let j = resp "this is not json" in
          Alcotest.(check string) "garbage -> error" "error" (status j);
          Alcotest.(check string) "garbage -> E_BAD_REQUEST" "E_BAD_REQUEST"
            (err_code j);
          (* valid JSON, no op *)
          let j = resp "{\"id\": 1}" in
          Alcotest.(check string) "missing op" "E_BAD_REQUEST" (err_code j);
          (* unknown op *)
          let j = resp "{\"op\": \"frobnicate\"}" in
          Alcotest.(check string) "unknown op" "E_BAD_REQUEST" (err_code j);
          (* mistyped field *)
          let j = resp "{\"op\": \"analyze\", \"program\": \"adpcm\", \"max_steps\": \"lots\"}" in
          Alcotest.(check string) "mistyped field" "E_BAD_REQUEST" (err_code j);
          (* analyze with no target *)
          let j = resp "{\"op\": \"analyze\"}" in
          Alcotest.(check string) "no target" "E_BAD_REQUEST" (err_code j);
          (* unknown program name -> the pipeline's own taxonomy *)
          let j = resp "{\"op\": \"analyze\", \"program\": \"nonesuch\"}" in
          Alcotest.(check string) "unknown program" "E_NOT_FOUND" (err_code j);
          (* inline source that cannot parse *)
          let j = resp "{\"op\": \"analyze\", \"source\": \"int main( {\"}" in
          Alcotest.(check string) "bad source" "E_PARSE" (err_code j);
          (* the daemon survived all of the above *)
          let j = resp "{\"op\": \"ping\"}" in
          Alcotest.(check string) "still alive" "ok" (status j)))

(* ---- model cache ------------------------------------------------------ *)

let t_cache_hit_identical_model () =
  with_daemon (fun path ->
      let c = Serve.Client.connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let analyze () =
            Serve.Client.rpc c
              [ ("op", "\"analyze\""); ("program", "\"fig4a\"") ]
          in
          let cold = analyze () in
          Alcotest.(check string) "cold ok" "ok" (status cold);
          Alcotest.(check bool) "cold is a miss" false (cached cold);
          Alcotest.(check bool) "cold has a model" true (model cold <> "");
          let warm = analyze () in
          Alcotest.(check bool) "warm is a hit" true (cached warm);
          Alcotest.(check string) "cached model byte-identical" (model cold)
            (model warm);
          (* extract shares the cache entry and the exact model bytes *)
          let ex =
            Serve.Client.rpc c
              [ ("op", "\"extract\""); ("program", "\"fig4a\"") ]
          in
          Alcotest.(check bool) "extract hits the same entry" true (cached ex);
          Alcotest.(check string) "extract model identical" (model cold)
            (model ex);
          (* cache-bypassed responses still carry the same model *)
          let nc =
            Serve.Client.rpc c
              [ ("op", "\"analyze\""); ("program", "\"fig4a\"");
                ("cache", "false") ]
          in
          Alcotest.(check bool) "bypass is uncached" false (cached nc);
          Alcotest.(check string) "bypass model identical" (model cold)
            (model nc);
          (* different thresholds are a different key, not a stale hit *)
          let other =
            Serve.Client.rpc c
              [ ("op", "\"analyze\""); ("program", "\"fig4a\"");
                ("nexec", "1"); ("nloc", "1") ]
          in
          Alcotest.(check bool) "different config misses" false (cached other)))

let t_degraded_never_cached () =
  with_daemon (fun path ->
      let c = Serve.Client.connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let req () =
            Serve.Client.rpc c
              [ ("op", "\"analyze\""); ("program", "\"adpcm\"");
                ("max_steps", "40") ]
          in
          let a = req () in
          Alcotest.(check string) "budget stop still ok" "ok" (status a);
          Alcotest.(check bool) "degraded recorded" true (degraded a <> []);
          Alcotest.(check (list string)) "budget named"
            [ "max_steps" ]
            (degraded_budget_names a);
          let b = req () in
          Alcotest.(check bool) "degraded result was not cached" false
            (cached b)))

(* ---- budgets and strictness over the wire ----------------------------- *)

let t_deadline_admission_over_wire () =
  (* deadline_ms = 0 must degrade (or error under strict) even though the
     programs here are far shorter than the periodic check interval. *)
  with_daemon (fun path ->
      let c = Serve.Client.connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let j =
            Serve.Client.rpc c
              [ ("op", "\"analyze\""); ("program", "\"fig4a\"");
                ("deadline_ms", "0") ]
          in
          Alcotest.(check string) "expired deadline degrades" "ok" (status j);
          Alcotest.(check (list string)) "deadline named"
            [ "deadline_ms" ]
            (degraded_budget_names j);
          let j =
            Serve.Client.rpc c
              [ ("op", "\"analyze\""); ("program", "\"fig4a\"");
                ("deadline_ms", "0"); ("strict", "true") ]
          in
          Alcotest.(check string) "strict turns it into E_BUDGET" "E_BUDGET"
            (err_code j)))

(* ---- concurrency and isolation ---------------------------------------- *)

let t_concurrent_mixed_workload () =
  (* 6 client domains, each its own connection, each issuing a mixed
     analyze/extract stream over three programs. Every response must be
     well-formed, successful, and carry the same model bytes per
     (program) as every other client saw. The checks run on the main
     domain: Alcotest's output is not safe to share across domains. *)
  with_daemon ~jobs:2 (fun path ->
      let programs = [| "adpcm"; "fig4a"; "fig7a" |] in
      let replies =
        Parallel.map ~jobs:6
          (fun ci ->
            let c = Serve.Client.connect path in
            Fun.protect
              ~finally:(fun () -> Serve.Client.close c)
              (fun () ->
                List.init 6 (fun i ->
                    let prog = programs.((ci + i) mod 3) in
                    let op = if i mod 2 = 0 then "analyze" else "extract" in
                    ( ci,
                      i,
                      prog,
                      Serve.Client.rpc c
                        [ ("op", Printf.sprintf "\"%s\"" op);
                          ("program", Printf.sprintf "\"%s\"" prog) ] ))))
          (List.init 6 Fun.id)
      in
      let per_client =
        List.map
          (List.map (fun (ci, i, prog, j) ->
               Alcotest.(check string)
                 (Printf.sprintf "client %d req %d ok" ci i)
                 "ok" (status j);
               Alcotest.(check bool)
                 (Printf.sprintf "client %d req %d has model" ci i)
                 true
                 (model j <> "");
               Alcotest.(check bool)
                 (Printf.sprintf "client %d req %d not degraded" ci i)
                 true
                 (degraded j = []);
               (prog, model j)))
          replies
      in
      (* cross-client agreement: one model per program, regardless of who
         asked, in what order, and whether the cache answered *)
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (prog, m) ->
          match Hashtbl.find_opt tbl prog with
          | None -> Hashtbl.add tbl prog m
          | Some m' ->
              Alcotest.(check string)
                (Printf.sprintf "every client sees one %s model" prog)
                m' m)
        (List.concat per_client))

let t_client_failures_isolated () =
  (* Three concurrent clients: one exhausts budgets (strict, so it gets
     E_BUDGET errors), one analyzes a corrupt trace file, one runs clean
     requests. The failing clients must never poison the clean one, and
     the daemon must still answer afterwards. *)
  with_daemon ~jobs:2 (fun path ->
      let corrupt = Filename.temp_file "foray_serve_corrupt" ".trace" in
      let oc = open_out_bin corrupt in
      output_string oc "FORAYTR1\n\xde\xad\xbe\xef not a real record stream";
      close_out oc;
      Fun.protect
        ~finally:(fun () -> try Sys.remove corrupt with Sys_error _ -> ())
        (fun () ->
          let rounds = 4 in
          let request role =
            match role with
            | 0 ->
                (* budget exhaustion, strict: a typed error *)
                [ ("op", "\"analyze\""); ("program", "\"adpcm\"");
                  ("max_steps", "40"); ("strict", "true"); ("cache", "false") ]
            | 1 ->
                (* corrupt trace: error or salvaged-degraded, but always a
                   well-formed response *)
                [ ("op", "\"analyze\"");
                  ( "trace",
                    Printf.sprintf "\"%s\""
                      (Foray_core.Error.json_escape corrupt) );
                  ("strict", "true"); ("cache", "false") ]
            | _ ->
                (* the clean client must stay clean *)
                [ ("op", "\"analyze\""); ("program", "\"fig4a\"") ]
          in
          (* the checks run on the main domain: Alcotest's output is not
             safe to share across domains *)
          let replies =
            Parallel.map ~jobs:3
              (fun role ->
                let c = Serve.Client.connect path in
                Fun.protect
                  ~finally:(fun () -> Serve.Client.close c)
                  (fun () ->
                    List.init rounds (fun _ ->
                        (role, Serve.Client.rpc c (request role)))))
              [ 0; 1; 2 ]
          in
          Alcotest.(check int) "all rounds ran" (3 * rounds)
            (List.length (List.concat replies));
          List.iter
            (fun (role, j) ->
              match role with
              | 0 ->
                  Alcotest.(check string) "strict budget -> E_BUDGET"
                    "E_BUDGET" (err_code j)
              | 1 ->
                  Alcotest.(check bool)
                    "corrupt trace -> typed error or degraded ok" true
                    (err_code j = "E_TRACE_CORRUPT"
                    || (status j = "ok" && degraded j <> []))
              | _ ->
                  Alcotest.(check string) "clean client ok" "ok" (status j);
                  Alcotest.(check bool) "clean client not degraded" true
                    (degraded j = []))
            (List.concat replies);
          (* daemon is still healthy after the mixed failure traffic *)
          let c = Serve.Client.connect path in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () ->
              let j =
                Serve.Client.rpc c
                  [ ("op", "\"analyze\""); ("program", "\"fig4a\"") ]
              in
              Alcotest.(check string) "daemon alive and correct" "ok"
                (status j);
              Alcotest.(check bool) "and serving from cache" true (cached j))))

(* ---- request telemetry ------------------------------------------------ *)

let contains hay needle =
  let n = String.length needle and hs = String.length hay in
  let rec go i = i + n <= hs && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let jfloat = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let t_rid_and_ms () =
  (* every response carries a request id and its latency *)
  with_daemon (fun path ->
      let c = Serve.Client.connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let rid j =
            match Json.member "rid" j with
            | Some (Json.Int r) -> r
            | _ -> Alcotest.fail "rid missing"
          in
          let a = Serve.Client.rpc c [ ("op", "\"ping\"") ] in
          let b = Serve.Client.rpc c [ ("op", "\"ping\"") ] in
          Alcotest.(check bool) "rids advance" true (rid b > rid a);
          match jfloat (Json.member "ms" a) with
          | Some ms -> Alcotest.(check bool) "ms non-negative" true (ms >= 0.0)
          | None -> Alcotest.fail "ms missing"))

let t_metrics_text_op () =
  with_daemon (fun path ->
      let c = Serve.Client.connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let j =
            Serve.Client.rpc c
              [ ("op", "\"analyze\""); ("program", "\"fig4a\"") ]
          in
          Alcotest.(check string) "analyze ok" "ok" (status j);
          let m = Serve.Client.rpc c [ ("op", "\"metrics_text\"") ] in
          Alcotest.(check string) "metrics_text ok" "ok" (status m);
          let text =
            match Json.member "text" m with
            | Some (Json.Str t) -> t
            | _ -> Alcotest.fail "text field missing"
          in
          Alcotest.(check bool) "counter family" true
            (contains text "# TYPE serve_requests counter");
          Alcotest.(check bool) "labeled series" true
            (contains text "serve_requests_total{op=\"analyze\"}");
          Alcotest.(check bool) "latency histogram" true
            (contains text "serve_request_ms_bucket{le=\"+Inf\"}");
          Alcotest.(check bool) "window gauges spliced" true
            (contains text "foray_window_rps{window=\"10s\"}");
          Alcotest.(check bool) "runtime gauges sampled" true
            (contains text "runtime_gc_major_words");
          Alcotest.(check bool) "terminated" true
            (String.ends_with ~suffix:"# EOF\n" text)))

let t_inline_trace_tree () =
  (* "trace": true returns the request's span tree; the synthetic root's
     duration is the same latency the "ms" field reports. *)
  with_daemon (fun path ->
      let c = Serve.Client.connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let j =
            Serve.Client.rpc c
              [ ("op", "\"analyze\""); ("program", "\"fig4a\"");
                ("cache", "false"); ("trace", "true") ]
          in
          Alcotest.(check string) "traced analyze ok" "ok" (status j);
          let tr =
            match Json.member "trace" j with
            | Some t -> t
            | None -> Alcotest.fail "trace field missing"
          in
          (match Json.member "name" tr with
          | Some (Json.Str "request") -> ()
          | _ -> Alcotest.fail "root is not the synthetic request node");
          let ms =
            match jfloat (Json.member "ms" j) with
            | Some v -> v
            | None -> Alcotest.fail "ms missing"
          in
          let dur =
            match jfloat (Json.member "dur_us" tr) with
            | Some v -> v
            | None -> Alcotest.fail "root dur_us missing"
          in
          let want = ms *. 1000.0 in
          Alcotest.(check bool) "root duration equals response latency" true
            (Float.abs (dur -. want) <= Float.max 1000.0 (0.05 *. want));
          (match Json.member "children" tr with
          | Some (Json.Arr (_ :: _)) -> ()
          | _ -> Alcotest.fail "trace tree has no children");
          (* untraced requests carry no trace field *)
          let plain =
            Serve.Client.rpc c [ ("op", "\"analyze\""); ("program", "\"fig4a\"") ]
          in
          Alcotest.(check bool) "no trace unless asked" true
            (Json.member "trace" plain = None)))

let t_window_in_metrics () =
  with_daemon (fun path ->
      let c = Serve.Client.connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let analyze () =
            ignore
              (Serve.Client.rpc c
                 [ ("op", "\"analyze\""); ("program", "\"fig4a\"") ])
          in
          analyze ();
          analyze ();
          analyze ();
          let m = Serve.Client.rpc c [ ("op", "\"metrics\"") ] in
          let win10 =
            match Json.member "window" m with
            | Some w -> (
                match Json.member "10s" w with
                | Some s -> s
                | None -> Alcotest.fail "10s window missing")
            | None -> Alcotest.fail "window object missing"
          in
          (match Json.member "requests" win10 with
          | Some (Json.Int n) ->
              Alcotest.(check bool) "window counted the soak" true (n >= 3)
          | _ -> Alcotest.fail "window requests missing");
          (match jfloat (Json.member "rps" win10) with
          | Some r -> Alcotest.(check bool) "rps positive" true (r > 0.0)
          | None -> Alcotest.fail "window rps missing");
          (match jfloat (Json.member "hit_rate" win10) with
          | Some hr ->
              (* 1 miss then 2 hits of the same key *)
              Alcotest.(check bool) "hit rate reflects cache" true (hr > 0.0)
          | None -> Alcotest.fail "window hit_rate missing");
          match Json.member "slow" m with
          | Some (Json.Arr _) -> ()
          | _ -> Alcotest.fail "slow array missing"))

let t_access_log_and_slow () =
  (* with an access log and slow_ms = 0, every request appends one JSONL
     line and qualifies as slow, so lines carry the span breakdown *)
  let path = Serve.temp_socket_path () in
  let log = Filename.temp_file "foray_test_access" ".jsonl" in
  let cfg =
    {
      (Serve.default_config ~socket_path:path) with
      Serve.jobs = 1;
      access_log = Some log;
      slow_ms = Some 0;
    }
  in
  let srv = Serve.start cfg in
  Fun.protect
    ~finally:(fun () ->
      (try Serve.Client.shutdown path with _ -> ());
      Serve.wait srv;
      Foray_obs.Obs.set_enabled false;
      Foray_obs.Span.set_enabled false;
      try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      let c = Serve.Client.connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          ignore (Serve.Client.rpc c [ ("op", "\"ping\"") ]);
          let j =
            Serve.Client.rpc c
              [ ("op", "\"analyze\""); ("program", "\"fig4a\"");
                ("cache", "false") ]
          in
          Alcotest.(check string) "analyze ok" "ok" (status j));
      (* the log is flushed per line; read it back without shutdown *)
      let ic = open_in log in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check bool) "one line per request" true
        (List.length lines >= 2);
      List.iter
        (fun line ->
          match Json.parse line with
          | Ok entry ->
              Alcotest.(check bool) "line has rid" true
                (Json.member "rid" entry <> None);
              Alcotest.(check bool) "line has latency" true
                (jfloat (Json.member "ms" entry) <> None);
              Alcotest.(check bool) "line flagged slow" true
                (Json.member "slow" entry = Some (Json.Bool true))
          | Error e -> Alcotest.failf "access-log line not JSON: %s" e)
        lines;
      (* the analyze line carries its span breakdown and cache outcome *)
      Alcotest.(check bool) "slow line has spans" true
        (List.exists (fun l -> contains l "\"spans\"") lines);
      Alcotest.(check bool) "analyze line logged its op" true
        (List.exists (fun l -> contains l "\"op\": \"analyze\"") lines))

(* ---- the spm op ------------------------------------------------------- *)

let t_spm_op () =
  with_daemon (fun path ->
      let c = Serve.Client.connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let resp line =
            match Json.parse (Serve.Client.request c line) with
            | Ok j -> j
            | Error e -> Alcotest.failf "response not JSON: %s" e
          in
          let results j =
            match Json.member "results" j with
            | Some (Json.Arr l) -> l
            | _ -> Alcotest.fail "spm response without results array"
          in
          (* a single-capacity optimal solve *)
          let j =
            resp "{\"op\": \"spm\", \"program\": \"fig4a\", \"spm_bytes\": 512}"
          in
          Alcotest.(check string) "spm ok" "ok" (status j);
          Alcotest.(check bool) "one result for one size" true
            (List.length (results j) = 1);
          let digest =
            match Json.member "digest" j with
            | Some (Json.Str d) -> d
            | _ -> Alcotest.fail "spm response without digest"
          in
          (* stochastic sweep over explicit sizes, then a cached repeat *)
          let stoch =
            "{\"op\": \"spm\", \"program\": \"fig4a\", \"sizes\": [256, \
             1024], \"strategy\": \"stochastic\", \"seed\": 7, \
             \"budget_proposals\": 4000}"
          in
          let cold = resp stoch in
          Alcotest.(check string) "stochastic ok" "ok" (status cold);
          Alcotest.(check bool) "stochastic not cached cold" false
            (cached cold);
          Alcotest.(check bool) "one result per size" true
            (List.length (results cold) = 2);
          List.iter
            (fun r ->
              Alcotest.(check bool) "stochastic result carries search stats"
                true
                (Json.member "search" r <> None))
            (results cold);
          let warm = resp stoch in
          Alcotest.(check bool) "repeat served from cache" true (cached warm);
          Alcotest.(check bool) "cached body identical" true
            (results cold = results warm);
          (* a different spm configuration is a different cache key *)
          let other =
            resp
              "{\"op\": \"spm\", \"program\": \"fig4a\", \"sizes\": [256, \
               1024], \"strategy\": \"optimal\"}"
          in
          Alcotest.(check bool) "other strategy not cached" false
            (cached other);
          (* readdress the analyzed model by digest alone *)
          let by_digest =
            resp
              (Printf.sprintf
                 "{\"op\": \"spm\", \"digest\": \"%s\", \"spm_bytes\": 512}"
                 digest)
          in
          Alcotest.(check string) "digest readdress ok" "ok" (status by_digest);
          (* failure taxonomy: all on the closed error set *)
          let j = resp "{\"op\": \"spm\", \"spm_bytes\": 512}" in
          Alcotest.(check string) "no target" "E_BAD_REQUEST" (err_code j);
          let j =
            resp
              "{\"op\": \"spm\", \"program\": \"fig4a\", \"strategy\": \
               \"lucky\"}"
          in
          Alcotest.(check string) "unknown strategy" "E_BAD_REQUEST"
            (err_code j);
          let j =
            resp "{\"op\": \"spm\", \"program\": \"fig4a\", \"sizes\": [0]}"
          in
          Alcotest.(check string) "non-positive size" "E_BAD_REQUEST"
            (err_code j);
          let j =
            resp
              "{\"op\": \"spm\", \"digest\": \"deadbeef\", \"spm_bytes\": 512}"
          in
          Alcotest.(check string) "unknown digest" "E_NOT_FOUND" (err_code j);
          (* the daemon survived all of the above *)
          let j = resp "{\"op\": \"ping\"}" in
          Alcotest.(check string) "still alive" "ok" (status j)))

(* ---- stored traces and verify over the wire ---------------------------- *)

module Pipeline = Foray_core.Pipeline
module Model = Foray_core.Model
module Tracefile = Foray_trace.Tracefile
module Verify = Foray_verify.Verify

let jstr s = Printf.sprintf "\"%s\"" (Foray_core.Error.json_escape s)

(* fig4a is the paper's small figure nest; at the default Step-4
   thresholds its only reference is purged, so verify runs at 1/1. *)
let fig4a_thresholds = Foray_core.Filter.{ nexec = 1; nloc = 1 }

(* [program]'s recorded trace written once per format to temp files. *)
let with_trace_files program formats f =
  let src =
    match Foray_suite.Suite.load program with
    | Ok s -> s
    | Error e -> Alcotest.fail (Foray_core.Error.to_string e)
  in
  let _, events = Tutil.run_offline (Minic.Parser.program src) in
  let paths =
    List.map
      (fun format ->
        let p = Filename.temp_file "foray_serve_trace" ".trace" in
        Tracefile.save ~format p events;
        p)
      formats
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () -> f paths)

let parse_json s =
  match Json.parse s with Ok j -> j | Error e -> Alcotest.failf "JSON: %s" e

(* The wire "jobs" field is outside input: above the hardware domain
   count it is capped, like the CLI's -j. *)
let t_wire_jobs_capped () =
  let n = Parallel.default_jobs () + 2 in
  let src =
    (Foray_util.Progen.generate ~seed:3 ~nests:3).Foray_util.Progen.source
  in
  let _, events = Tutil.run_offline (Minic.Parser.program src) in
  let tpath = Filename.temp_file "foray_serve_jobs" ".trace2" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tpath with Sys_error _ -> ())
    (fun () ->
      Tracefile.save ~frame_events:4 ~format:Tracefile.Binary2 tpath events;
      with_daemon (fun path ->
          Foray_obs.Obs.reset ();
          let c = Serve.Client.connect path in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () ->
              let j =
                Serve.Client.rpc c
                  [ ("op", "\"analyze\""); ("trace", jstr tpath);
                    ("shards", string_of_int n); ("jobs", string_of_int n);
                    ("cache", "false") ]
              in
              Alcotest.(check string) "sharded analyze ok" "ok" (status j));
          Tutil.check_domains_capped "wire analyze"))

let t_analyze_trace_path () =
  (* analyze by "trace" path: the wire model is the local stored-trace
     analysis, on v1 and v2 files, sequential and sharded *)
  with_trace_files "adpcm" [ Tracefile.Binary; Tracefile.Binary2 ]
    (fun paths ->
      with_daemon (fun path ->
          let c = Serve.Client.connect path in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () ->
              List.iter
                (fun tpath ->
                  let local =
                    match Pipeline.analyze_trace tpath with
                    | Ok ((tree, _), _) -> Model.to_c (Model.of_tree tree)
                    | Error _ -> Alcotest.fail "local trace analysis failed"
                  in
                  List.iter
                    (fun shards ->
                      let j =
                        Serve.Client.rpc c
                          [ ("op", "\"analyze\""); ("trace", jstr tpath);
                            ("shards", string_of_int shards);
                            ("cache", "false") ]
                      in
                      Alcotest.(check string)
                        (Printf.sprintf "shards %d ok" shards)
                        "ok" (status j);
                      Alcotest.(check string)
                        (Printf.sprintf "shards %d wire model = local" shards)
                        local (model j))
                    [ 1; 4 ];
                  let rq () =
                    Serve.Client.rpc c
                      [ ("op", "\"analyze\""); ("trace", jstr tpath) ]
                  in
                  let cold = rq () in
                  let warm = rq () in
                  Alcotest.(check bool) "trace cold is a miss" false
                    (cached cold);
                  Alcotest.(check bool) "trace warm is a hit" true
                    (cached warm);
                  Alcotest.(check string) "trace warm model identical"
                    (model cold) (model warm))
                paths)))

let t_verify_op () =
  (* verify by program, by digest and by "trace" path: the "verify" field
     is the local report; warm repeats are cached and identical *)
  let src =
    match Foray_suite.Suite.load "fig4a" with
    | Ok s -> s
    | Error e -> Alcotest.fail (Foray_core.Error.to_string e)
  in
  let m, events =
    Tutil.run_offline ~thresholds:fig4a_thresholds (Minic.Parser.program src)
  in
  let local_report = Verify.verify m.Pipeline.model events in
  let local = parse_json (Verify.report_to_json local_report) in
  Alcotest.(check bool) "local report proves" true
    (Verify.all_proved local_report && Verify.proved local_report > 0);
  let verify_field j =
    match Json.member "verify" j with
    | Some v -> v
    | None -> Alcotest.fail "verify response without a verify field"
  in
  with_trace_files "fig4a" [ Tracefile.Binary ] (fun tpaths ->
      let tpath = List.hd tpaths in
      let local_trace =
        match Pipeline.analyze_trace tpath with
        | Ok ((tree, _), _) ->
            let model = Model.of_tree ~thresholds:fig4a_thresholds tree in
            parse_json
              (Verify.report_to_json
                 (Verify.verify model (Tutil.load tpath)))
        | Error _ -> Alcotest.fail "local trace analysis failed"
      in
      with_daemon (fun path ->
          let c = Serve.Client.connect path in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () ->
              let rq addr =
                Serve.Client.rpc c
                  ([ ("op", "\"verify\""); ("nexec", "1"); ("nloc", "1") ]
                  @ addr)
              in
              let check_pair what addr want =
                let cold = rq addr in
                Alcotest.(check string) (what ^ " ok") "ok" (status cold);
                Alcotest.(check bool) (what ^ " cold is a miss") false
                  (cached cold);
                Alcotest.(check bool) (what ^ " wire report = local") true
                  (verify_field cold = want);
                let warm = rq addr in
                Alcotest.(check bool) (what ^ " warm is a hit") true
                  (cached warm);
                Alcotest.(check bool) (what ^ " warm report identical") true
                  (verify_field warm = verify_field cold);
                cold
              in
              let by_prog =
                check_pair "program" [ ("program", "\"fig4a\"") ] local
              in
              let digest =
                match Json.member "digest" by_prog with
                | Some (Json.Str d) -> d
                | _ -> Alcotest.fail "verify response without digest"
              in
              let by_digest = rq [ ("digest", jstr digest) ] in
              Alcotest.(check string) "digest ok" "ok" (status by_digest);
              Alcotest.(check bool) "digest shares the program's entry" true
                (cached by_digest);
              Alcotest.(check bool) "digest wire report = local" true
                (verify_field by_digest = local);
              ignore
                (check_pair "trace" [ ("trace", jstr tpath) ] local_trace))))

let t_inline_trace_spm_verify () =
  (* "trace": true is honoured by every compute op, not only analyze *)
  with_daemon (fun path ->
      let c = Serve.Client.connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          List.iter
            (fun (op, extra) ->
              let j =
                Serve.Client.rpc c
                  ([ ("op", jstr op); ("program", "\"fig4a\"");
                     ("cache", "false"); ("trace", "true") ]
                  @ extra)
              in
              Alcotest.(check string) (op ^ " traced ok") "ok" (status j);
              let tr =
                match Json.member "trace" j with
                | Some t -> t
                | None -> Alcotest.failf "%s: trace field missing" op
              in
              Alcotest.(check bool) (op ^ " root is the request node") true
                (Json.member "name" tr = Some (Json.Str "request"));
              let ms = Option.get (jfloat (Json.member "ms" j)) in
              let dur = Option.get (jfloat (Json.member "dur_us" tr)) in
              Alcotest.(check bool) (op ^ " root duration = latency") true
                (Float.abs (dur -. (ms *. 1000.0))
                <= Float.max 1000.0 (0.05 *. ms *. 1000.0));
              (match Json.member "children" tr with
              | Some (Json.Arr (_ :: _)) -> ()
              | _ -> Alcotest.failf "%s: trace tree has no children" op);
              let plain =
                Serve.Client.rpc c
                  ([ ("op", jstr op); ("program", "\"fig4a\"") ] @ extra)
              in
              Alcotest.(check bool) (op ^ " no trace unless asked") true
                (Json.member "trace" plain = None))
            [ ("spm", [ ("spm_bytes", "512") ]);
              ("verify", [ ("nexec", "1"); ("nloc", "1") ]) ]))

let t_telemetry_counters_and_log () =
  (* the cache hit is visible in the metrics counters, the window's slow
     list and the access log; the exposition carries every serve family *)
  let path = Serve.temp_socket_path () in
  let log = Filename.temp_file "foray_test_access" ".jsonl" in
  let cfg =
    {
      (Serve.default_config ~socket_path:path) with
      Serve.jobs = 1;
      access_log = Some log;
      slow_ms = Some 0;
    }
  in
  let srv = Serve.start cfg in
  Fun.protect
    ~finally:(fun () ->
      (try Serve.Client.shutdown path with _ -> ());
      Serve.wait srv;
      Foray_obs.Obs.set_enabled false;
      Foray_obs.Span.set_enabled false;
      try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      let c = Serve.Client.connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let analyze () =
            ignore
              (Serve.Client.rpc c
                 [ ("op", "\"analyze\""); ("program", "\"fig4a\"") ])
          in
          analyze ();
          analyze ();
          let m = Serve.Client.rpc c [ ("op", "\"metrics\"") ] in
          let counter name =
            match
              Option.bind (Json.member "metrics" m) (fun ms ->
                  Option.bind (Json.member "counters" ms) (Json.member name))
            with
            | Some (Json.Int i) -> i
            | _ -> 0
          in
          Alcotest.(check bool) "hit counted" true
            (counter "serve.cache.hits" >= 1);
          Alcotest.(check bool) "miss counted" true
            (counter "serve.cache.misses" >= 1);
          (match Json.member "slow" m with
          | Some (Json.Arr (_ :: _)) -> ()
          | _ -> Alcotest.fail "slow list empty at slow_ms 0");
          let text =
            match
              Json.member "text"
                (Serve.Client.rpc c [ ("op", "\"metrics_text\"") ])
            with
            | Some (Json.Str t) -> t
            | _ -> Alcotest.fail "text field missing"
          in
          List.iter
            (fun needle ->
              Alcotest.(check bool) ("exposition has " ^ needle) true
                (contains text needle))
            [ "# TYPE serve_request_ms histogram"; "serve_request_ms_sum";
              "serve_request_ms_count"; "serve_pool_busy" ]);
      let lines = In_channel.with_open_text log In_channel.input_lines in
      Alcotest.(check bool) "access log shows the miss" true
        (List.exists (fun l -> contains l "\"cached\": false") lines);
      Alcotest.(check bool) "access log shows the hit" true
        (List.exists (fun l -> contains l "\"cached\": true") lines))

let t_accept_survives_emfile () =
  (* The in-process daemon shares this process's descriptor table. Run it
     out of descriptors while a client connects, then give them back: the
     acceptor must back off and keep serving, not shut the daemon down. *)
  with_daemon (fun path ->
      let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      let hoard = ref [] in
      let release () =
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          !hoard;
        hoard := []
      in
      Fun.protect
        ~finally:(fun () ->
          release ();
          Unix.close null)
        (fun () ->
          let rec fill n =
            if n < 1 lsl 21 then
              match Unix.dup null with
              | fd ->
                  hoard := fd :: !hoard;
                  fill (n + 1)
              | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) -> ()
          in
          fill 0;
          (* one descriptor for the client's socket, none for the accept *)
          (match !hoard with
          | fd :: rest ->
              Unix.close fd;
              hoard := rest
          | [] -> ());
          let c = Serve.Client.connect path in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () ->
              Unix.sleepf 0.2;
              release ();
              let j = Serve.Client.rpc c [ ("op", "\"ping\"") ] in
              Alcotest.(check string) "client served once descriptors return"
                "ok" (status j));
          let c = Serve.Client.connect path in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () ->
              let j = Serve.Client.rpc c [ ("op", "\"ping\"") ] in
              Alcotest.(check string) "fresh connection served" "ok"
                (status j))))

let t_overlong_line () =
  (* a request line over the fixed limit gets a typed error and a hang-up;
     the daemon keeps serving other connections *)
  with_daemon (fun path ->
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (ADDR_UNIX path);
          (* a daemon that never hangs up fails the test, not hangs it *)
          Unix.setsockopt_float fd SO_RCVTIMEO 30.0;
          let send s =
            let b = Bytes.unsafe_of_string s in
            let rec go off =
              if off < Bytes.length b then
                go (off + Unix.write fd b off (Bytes.length b - off))
            in
            go 0
          in
          let pad = String.make 65536 ' ' in
          (try
             send "{\"op\": \"ping\"";
             for _ = 0 to (Serve.max_line_bytes / 65536) + 1 do
               send pad
             done;
             send "}\n"
           with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ());
          (* everything up to the hang-up: one response line *)
          let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
          let rec drain () =
            match Unix.read fd chunk 0 4096 with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                drain ()
            | exception Unix.Unix_error (ECONNRESET, _, _) -> ()
          in
          drain ();
          match String.split_on_char '\n' (Buffer.contents buf) with
          | [ line; "" ] ->
              let j = parse_json line in
              Alcotest.(check string) "over-long line is E_BAD_REQUEST"
                "E_BAD_REQUEST" (err_code j)
          | _ ->
              Alcotest.failf "expected one response line, got %S"
                (Buffer.contents buf));
      let c = Serve.Client.connect path in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let j = Serve.Client.rpc c [ ("op", "\"ping\"") ] in
          Alcotest.(check string) "daemon still serving" "ok" (status j)))

let t_shutdown_removes_socket () =
  let path = Serve.temp_socket_path () in
  let cfg = { (Serve.default_config ~socket_path:path) with Serve.jobs = 1 } in
  let srv = Serve.start cfg in
  Serve.Client.shutdown path;
  Serve.wait srv;
  Foray_obs.Obs.set_enabled false;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

let tests =
  [
    Alcotest.test_case "lru basics" `Quick t_lru_basics;
    Alcotest.test_case "lru evicts LRU end" `Quick t_lru_evicts_lru_end;
    Alcotest.test_case "lru replace and bounds" `Quick t_lru_replace_and_bounds;
    Alcotest.test_case "json values" `Quick t_json_values;
    Alcotest.test_case "json errors" `Quick t_json_errors;
    Alcotest.test_case "json field accessors" `Quick t_json_fields;
    Alcotest.test_case "ping and id echo" `Quick t_ping_and_shutdown;
    Alcotest.test_case "bad requests are E_BAD_REQUEST" `Quick t_bad_requests;
    Alcotest.test_case "cache hit returns identical model" `Quick
      t_cache_hit_identical_model;
    Alcotest.test_case "degraded results never cached" `Quick
      t_degraded_never_cached;
    Alcotest.test_case "deadline admission over the wire" `Quick
      t_deadline_admission_over_wire;
    Alcotest.test_case "concurrent mixed workload" `Slow
      t_concurrent_mixed_workload;
    Alcotest.test_case "client failures isolated" `Slow
      t_client_failures_isolated;
    Alcotest.test_case "rid and ms on every response" `Quick t_rid_and_ms;
    Alcotest.test_case "metrics_text exposition" `Quick t_metrics_text_op;
    Alcotest.test_case "inline trace tree" `Quick t_inline_trace_tree;
    Alcotest.test_case "window stats in metrics op" `Quick t_window_in_metrics;
    Alcotest.test_case "access log and slow breakdown" `Quick
      t_access_log_and_slow;
    Alcotest.test_case "spm op over the wire" `Quick t_spm_op;
    Alcotest.test_case "analyze by trace path, v1 and v2, sharded" `Quick
      t_analyze_trace_path;
    Alcotest.test_case "wire jobs capped at the domain count" `Quick
      t_wire_jobs_capped;
    Alcotest.test_case "verify by program, digest and trace path" `Quick
      t_verify_op;
    Alcotest.test_case "inline trace tree on spm and verify" `Quick
      t_inline_trace_spm_verify;
    Alcotest.test_case "cache counters, exposition and access log" `Quick
      t_telemetry_counters_and_log;
    Alcotest.test_case "accept survives descriptor exhaustion" `Quick
      t_accept_survives_emfile;
    Alcotest.test_case "over-long request line" `Quick t_overlong_line;
    Alcotest.test_case "shutdown removes socket" `Quick
      t_shutdown_removes_socket;
  ]
