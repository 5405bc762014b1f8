(* Golden-output generator for the byte-identity gate.

   [golden.exe GROUP] prints, for every program of GROUP, the outputs the
   analysis promises to keep byte-identical across refactors:
   - the FORAY model ([Model.to_c]);
   - the Step-4 verdict of every loop-tree reference;
   - the verify report from source ([Verify.report_to_json]);
   - the md5 of the program's FORAYTR2 trace bytes;
   - the 4-shard model and verdicts, as digests.
   The [budget] group adds verify reports for runs cut short by
   [max_steps] and [max_trace_events]; the [salvage] group pins what the
   salvaging trace reader makes of every fault-injected mutant.

   The dune rules beside this file diff each group against its
   [.expected] file in [runtest]. An expected file changes only through
   [dune promote], in a change that says which file moved and why. *)

open Foray_core
module Verify = Foray_verify.Verify
module Tracefile = Foray_trace.Tracefile
module Interp = Minic_sim.Interp

let th nexec nloc = Filter.{ nexec; nloc }
let md5 s = Digest.to_hex (Digest.string s)

let ok = function
  | Ok v -> v
  | Error e ->
      prerr_endline ("golden: " ^ Error.to_string e);
      exit 1

let verdicts thresholds tree =
  Looptree.refs tree
  |> List.map (fun ((n : Looptree.node), (ri : Looptree.refinfo)) ->
         (Looptree.path n, Affine.site ri.aff, Filter.verdict thresholds ri))
  |> List.sort compare
  |> List.map (fun (path, site, (kept, reason)) ->
         Printf.sprintf "[%s] %x %s"
           (String.concat ">" (List.map string_of_int path))
           site
           (match reason with
           | _ when kept -> "kept"
           | Some r -> "purged: " ^ Provenance.reason_to_string r
           | None -> "purged"))
  |> String.concat "\n"

(* Extraction plus verification from source, through the product path:
   the outcome of the extraction and the report of the verifier. *)
let verify_source ?config ~thresholds src =
  ok (Verify.of_source ?config ~thresholds src)

(* The model and verdicts of a 4-shard analysis, as the CLI's
   [extract --shards 4] computes them. *)
let sharded ~thresholds src =
  let o = ok (Pipeline.run_source ~thresholds ~shards:4 ~jobs:2 src) in
  let r = o.Pipeline.result in
  (Model.to_c r.Pipeline.model, verdicts thresholds r.Pipeline.tree)

(* Simulate into a FORAYTR2 file; its md5 and event count. *)
let trace_md5 src =
  let prog = Minic.Parser.program src in
  let instrumented = Foray_instrument.Annotate.program prog in
  let tmp = Filename.temp_file "golden" ".trace2" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let n = ref 0 in
      Tracefile.with_sink ~format:Tracefile.Binary2 tmp (fun sink ->
          ignore
            (Interp.run instrumented ~sink:(fun e ->
                 incr n;
                 sink e)));
      (Digest.to_hex (Digest.file tmp), !n))

(* A verify report with one reference per line, so a failing diff points
   at the reference that moved. *)
let report_lines rep =
  Str.global_replace (Str.regexp_string "}, {\"site\"") "},\n{\"site\""
    (Verify.report_to_json rep)

let degraded (o : Pipeline.outcome) =
  String.concat "\n" (List.map Pipeline.degradation_to_json o.degraded)

(* Everything, as text: the suite and the figures. *)
let full ~thresholds (name, src) =
  let o, rep = verify_source ~thresholds src in
  let r = o.Pipeline.result in
  let tmd5, n = trace_md5 src in
  let smodel, sverdicts = sharded ~thresholds src in
  Printf.printf "== %s\n-- model\n%s-- step-4 verdicts\n%s\n-- verify\n%s\n"
    name (Model.to_c r.model) (verdicts thresholds r.tree) (report_lines rep);
  Printf.printf "-- degraded\n%s\n" (degraded o);
  Printf.printf "-- FORAYTR2 md5 %s (%d events)\n" tmd5 n;
  Printf.printf "-- 4-shard model md5 %s, verdicts md5 %s\n" (md5 smodel)
    (md5 sverdicts)

(* One line of digests per program: the Progen seeds. *)
let brief ~thresholds (name, src) =
  let o, rep = verify_source ~thresholds src in
  let r = o.Pipeline.result in
  let model = Model.to_c r.model in
  let tmd5, n = trace_md5 src in
  let smodel, sverdicts = sharded ~thresholds src in
  Printf.printf
    "%s refs=%d proved=%d events=%d model=%s verdicts=%s verify=%s \
     trace=%s shard-model=%s shard-verdicts=%s\n"
    name (Model.n_refs r.model) (Verify.proved rep) n (md5 model)
    (md5 (verdicts thresholds r.tree))
    (md5 (Verify.report_to_json rep))
    tmd5 (md5 smodel) (md5 sverdicts)

(* Verify reports of runs a budget stopped early. *)
let budget ~thresholds (name, src) (what, config) =
  let o, rep = verify_source ~config ~thresholds src in
  Printf.printf "== %s %s\n-- model md5 %s\n-- verify\n%s\n-- degraded\n%s\n"
    name what
    (md5 (Model.to_c o.result.model))
    (report_lines rep) (degraded o)

let suite name = (name, ok (Foray_suite.Suite.load name))

let progen lo hi =
  List.init (hi - lo + 1) (fun i ->
      let seed = lo + i in
      let g = Foray_util.Progen.generate ~seed ~nests:(1 + (seed mod 3)) in
      (Printf.sprintf "progen-%d" seed, g.Foray_util.Progen.source))

(* The salvaging reader over damaged traces. Each campaign replays the
   mutants of one fault campaign (same bytes, seed and run count as
   test/test_faults.ml, plus a text campaign); every mutant except a
   [Stall] prints one line: the salvage record, the strict verdict and
   an md5 of the events salvage delivered. *)
let salvage_campaign ~name ~format ~seed ~runs events =
  let tmp = Filename.temp_file "golden" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Tracefile.save ~format tmp events;
      let bytes = In_channel.with_open_bin tmp In_channel.input_all in
      let i = ref (-1) in
      let run kind mutant =
        incr i;
        if kind <> Faultinject.Stall then begin
          Out_channel.with_open_bin tmp (fun oc ->
              Out_channel.output_string oc mutant);
          let b = Buffer.create 4096 in
          let s =
            match
              Tracefile.read tmp (fun e ->
                  Buffer.add_string b (Foray_trace.Event.to_line e);
                  Buffer.add_char b '\n')
            with
            | Ok s -> s
            | Error _ -> failwith "salvage mode returned Error"
          in
          let strict =
            match Tracefile.read ~strict:true tmp ignore with
            | Ok _ -> "ok"
            | Error c ->
                Printf.sprintf "%d %S before=%d" c.offset c.kind
                  c.events_before
          in
          Printf.printf
            "%s %d %s events=%d resyncs=%d skipped=%d tail=%b errors=[%s] \
             strict=%s md5=%s\n"
            name !i (Faultinject.name kind) s.events s.resyncs s.bytes_skipped
            s.truncated_tail
            (String.concat "; "
               (List.map (fun (o, k) -> Printf.sprintf "%d %S" o k)
                  s.first_errors))
            strict (md5 (Buffer.contents b))
        end;
        Faultinject.Clean
      in
      let report = Faultinject.campaign ~seed ~runs ~bytes ~run in
      match report.Faultinject.escaped with
      | [] -> ()
      | (i, _, e) :: _ -> failwith (Printf.sprintf "%s run %d: %s" name i e))

(* test/test_faults.ml's synthetic trace: eight one-iteration loops. *)
let synthetic_trace =
  let open Foray_trace.Event in
  List.concat
    (List.init 8 (fun i ->
         [ Checkpoint { loop = 1; kind = Loop_enter };
           Checkpoint { loop = 1; kind = Body_enter };
           Access
             { site = 0x42; addr = 0x1000 + (4 * i); write = i mod 2 = 0;
               sys = false; width = 4 };
           Checkpoint { loop = 1; kind = Body_exit };
           Checkpoint { loop = 1; kind = Loop_exit } ]))

let fig4a_trace () =
  let prog = Minic.Parser.program Foray_suite.Figures.fig4a in
  let sink, get = Foray_trace.Event.collector () in
  ignore (Interp.run (Foray_instrument.Annotate.program prog) ~sink);
  get ()

let salvage () =
  let fig4a = fig4a_trace () in
  salvage_campaign ~name:"fig4a-v1" ~format:Tracefile.Binary ~seed:42 ~runs:500
    fig4a;
  salvage_campaign ~name:"fig4a-text" ~format:Tracefile.Text ~seed:42
    ~runs:500 fig4a;
  salvage_campaign ~name:"synthetic-v1" ~format:Tracefile.Binary ~seed:7
    ~runs:600 synthetic_trace;
  salvage_campaign ~name:"synthetic-v2" ~format:Tracefile.Binary2 ~seed:7
    ~runs:600 synthetic_trace

let steps n = { Interp.default_config with max_steps = n }
let events n = { Interp.default_config with max_trace_events = Some n }

let () =
  match Sys.argv with
  | [| _; "figures" |] ->
      List.iter (full ~thresholds:(th 2 2)) Foray_suite.Figures.all
  | [| _; "progen"; lo; hi |] ->
      List.iter
        (brief ~thresholds:Filter.default)
        (progen (int_of_string lo) (int_of_string hi))
  | [| _; "budget" |] ->
      List.iter
        (fun (prog, stop) -> budget ~thresholds:Filter.default prog stop)
        [
          (suite "gsm", ("max_steps=100000", steps 100_000));
          (suite "gsm", ("max_trace_events=50000", events 50_000));
          (suite "adpcm", ("max_steps=5000", steps 5_000));
          (suite "adpcm", ("max_trace_events=3000", events 3_000));
          (List.hd (progen 7 7), ("max_steps=300", steps 300));
          (List.hd (progen 8 8), ("max_trace_events=600", events 600));
        ]
  | [| _; "salvage" |] -> salvage ()
  | [| _; name |] -> full ~thresholds:Filter.default (suite name)
  | _ ->
      prerr_endline "usage: golden.exe (PROGRAM | figures | budget | salvage | progen LO HI)";
      exit 2
