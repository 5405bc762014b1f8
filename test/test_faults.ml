(* Fault-injection and totality properties.

   The contract under test: no input — however damaged — escapes the
   trace/analysis layers as an exception. Damaged traces either salvage
   into a degraded-but-valid model or come back as a typed error value.
   All mutations are deterministic (Foray_util.Prng), so any failure here
   replays from its seed. *)

open Foray_trace
module FI = Faultinject

let ev_ck loop kind = Event.Checkpoint { loop; kind }

let ev_acc ?(write = false) ?(sys = false) ?(width = 4) site addr =
  Event.Access { site; addr; write; sys; width }

(* --- generators ------------------------------------------------------ *)

let gen_ckind =
  QCheck2.Gen.oneofl
    [ Event.Loop_enter; Event.Body_enter; Event.Body_exit; Event.Loop_exit ]

let gen_event =
  let open QCheck2.Gen in
  oneof
    [
      (let* loop = int_bound 100_000 in
       let* kind = gen_ckind in
       return (ev_ck loop kind));
      (let* site = int_bound 0xfff_ffff in
       let* addr = int_bound 0xffff_ffff in
       let* write = bool in
       let* sys = bool in
       let* width = oneofl [ 1; 2; 4; 8 ] in
       return (ev_acc ~write ~sys ~width site addr));
    ]

let gen_trace = QCheck2.Gen.(list_size (int_range 0 64) gen_event)

(* --- properties ------------------------------------------------------ *)

let prop_line_roundtrip =
  QCheck2.Test.make ~name:"event text line round-trips" ~count:500 gen_event
    (fun e ->
      match Event.of_line (Event.to_line e) with
      | Ok e2 -> Event.equal e e2
      | Error _ -> false)

let prop_ckind_roundtrip =
  QCheck2.Test.make ~name:"ckind name round-trips" ~count:50 gen_ckind
    (fun k ->
      match Event.ckind_of_string (Event.string_of_ckind k) with
      | Ok k2 -> k = k2
      | Error _ -> false)

let prop_trace_string_roundtrip =
  QCheck2.Test.make ~name:"trace text round-trips" ~count:200 gen_trace
    (fun events ->
      match Event.of_string (Event.to_string events) with
      | Ok back -> List.length back = List.length events
                   && List.for_all2 Event.equal events back
      | Error _ -> false)

(* Write a trace, mutate the file bytes, read it back in salvage mode:
   the read must return a value (never raise) and can only deliver events
   — [salvage.events] — it actually decoded, so for pure truncation
   salvaged <= written, and a clean file salvages completely. *)
let with_trace_file ~format events k =
  let tmp = Filename.temp_file "foray-faults" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Tracefile.save ~format tmp events;
      k tmp)

let read_salvage path =
  let n = ref 0 in
  match Tracefile.read path (fun _ -> incr n) with
  | Ok s ->
      assert (s.Tracefile.events = !n);
      Ok s
  | Error _ as e -> e

let overwrite path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

let prop_clean_salvage format name =
  QCheck2.Test.make ~name ~count:100 gen_trace (fun events ->
      with_trace_file ~format events (fun tmp ->
          match read_salvage tmp with
          | Ok s ->
              s.Tracefile.events = List.length events
              && s.resyncs = 0 && s.bytes_skipped = 0
              && not s.truncated_tail
          | Error _ -> false))

let prop_clean_salvage_binary =
  prop_clean_salvage Tracefile.Binary "intact binary trace salvages fully"

let prop_clean_salvage_binary2 =
  prop_clean_salvage Tracefile.Binary2 "intact v2 trace salvages fully"

let prop_clean_salvage_text =
  prop_clean_salvage Tracefile.Text "intact text trace salvages fully"

let gen_trace_and_cut =
  let open QCheck2.Gen in
  let* events = list_size (int_range 1 64) gen_event in
  let* cut = float_bound_inclusive 1.0 in
  return (events, cut)

let prop_truncation_salvage =
  QCheck2.Test.make ~name:"truncated binary trace: salvaged <= written"
    ~count:200 gen_trace_and_cut (fun (events, cut) ->
      with_trace_file ~format:Tracefile.Binary events (fun tmp ->
          let bytes = In_channel.with_open_bin tmp In_channel.input_all in
          let keep = int_of_float (cut *. float_of_int (String.length bytes)) in
          overwrite tmp (String.sub bytes 0 keep);
          match read_salvage tmp with
          | Ok s -> s.Tracefile.events <= List.length events
          | Error _ -> false))

let prop_truncation_salvage_v2 =
  QCheck2.Test.make ~name:"truncated v2 trace: salvaged <= written" ~count:200
    gen_trace_and_cut (fun (events, cut) ->
      with_trace_file ~format:Tracefile.Binary2 events (fun tmp ->
          let bytes = In_channel.with_open_bin tmp In_channel.input_all in
          let keep = int_of_float (cut *. float_of_int (String.length bytes)) in
          overwrite tmp (String.sub bytes 0 keep);
          match read_salvage tmp with
          | Ok s -> s.Tracefile.events <= List.length events
          | Error _ -> false))

(* The totality property at the center of the harness: every mutation
   kind, applied to a real trace, must produce either a full read, a
   salvage, or (under strict) a typed corruption value. The campaign
   callback also drives the downstream analyzers so an escape anywhere in
   trace->tree->model fails the test. [Stall] leaves the bytes intact;
   given the [program] the trace came from, it models a wedged producer
   instead: the live pipeline under a 64-step budget must stop cleanly. *)
let campaign_total ~format ~seed ~runs ?program events () =
  with_trace_file ~format events (fun tmp ->
      let bytes = In_channel.with_open_bin tmp In_channel.input_all in
      let analyze_mutant mutant =
        overwrite tmp mutant;
        let tree = Foray_core.Looptree.create () in
        match Tracefile.read tmp (Foray_core.Looptree.sink tree) with
        | Error _ -> FI.Typed_failure
        | Ok s ->
            Foray_core.Looptree.flush_metrics tree;
            ignore
              (Foray_core.Model.of_tree
                 ~thresholds:Foray_core.Filter.{ nexec = 1; nloc = 1 }
                 tree);
            (* strict mode on the same mutant must also be exception-free *)
            let strict_ok =
              match Tracefile.read ~strict:true tmp (fun _ -> ()) with
              | Ok _ | Error _ -> true
            in
            if not strict_ok then FI.Escaped "strict read"
            else if s.Tracefile.resyncs = 0 && not s.truncated_tail then
              FI.Clean
            else FI.Degraded
      in
      let stalled_producer prog =
        let config = { Minic_sim.Interp.default_config with max_steps = 64 } in
        match Foray_core.Pipeline.run ~config prog with
        | Ok { degraded = []; _ } -> FI.Clean
        | Ok _ -> FI.Degraded
        | Error _ -> FI.Typed_failure
      in
      let run kind mutant =
        match (kind, program) with
        | FI.Stall, Some prog -> stalled_producer prog
        | _ -> analyze_mutant mutant
      in
      let report = FI.campaign ~seed ~runs ~bytes ~run in
      print_string (FI.report_to_string report);
      Alcotest.(check int) "runs" runs report.FI.runs;
      (match report.FI.escaped with
      | [] -> ()
      | (i, k, e) :: _ ->
          Alcotest.failf "escape at run %d (%s): %s" i (FI.name k) e);
      (* every mutation kind was exercised *)
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (FI.name k ^ " exercised")
            true
            (List.assoc k report.FI.per_kind >= runs / 6))
        FI.all)

let synthetic_trace =
  List.concat
    (List.init 8 (fun i ->
         [ ev_ck 1 Event.Loop_enter; ev_ck 1 Event.Body_enter;
           ev_acc 0x42 (0x1000 + (4 * i)) ~write:(i mod 2 = 0);
           ev_ck 1 Event.Body_exit; ev_ck 1 Event.Loop_exit ]))

(* The fig4a campaigns: its simulated trace, stored as [format], 500
   mutants, seed 42. *)
let fig4a_campaign format () =
  let prog = Minic.Parser.program Foray_suite.Figures.fig4a in
  Minic.Sema.check_exn prog;
  let _, events = Tutil.run_to_trace (Foray_instrument.Annotate.program prog) in
  campaign_total ~format ~seed:42 ~runs:500 ~program:prog events ()

let t_campaign_deterministic () =
  let bytes = "FORAYTR1\x01\x00\x42\x80\x20\x04" in
  let digest report =
    (report.FI.clean, report.FI.degraded, report.FI.typed,
     List.length report.FI.escaped)
  in
  let run _ mutant =
    if String.length mutant mod 3 = 0 then FI.Clean
    else if String.length mutant mod 3 = 1 then FI.Degraded
    else FI.Typed_failure
  in
  let a = FI.campaign ~seed:123 ~runs:60 ~bytes ~run in
  let b = FI.campaign ~seed:123 ~runs:60 ~bytes ~run in
  Alcotest.(check bool) "same seed, same campaign" true (digest a = digest b)

let t_apply_total_on_empty () =
  let prng = Foray_util.Prng.create 1 in
  List.iter
    (fun k -> Alcotest.(check string) (FI.name k) "" (FI.apply prng k ""))
    FI.all

let t_campaign_catches_escapes () =
  let report =
    FI.campaign ~seed:1 ~runs:6 ~bytes:"abcdef" ~run:(fun _ _ ->
        failwith "deliberate")
  in
  Alcotest.(check int) "all recorded as escapes" 6
    (List.length report.FI.escaped)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_line_roundtrip;
    QCheck_alcotest.to_alcotest prop_ckind_roundtrip;
    QCheck_alcotest.to_alcotest prop_trace_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_clean_salvage_binary;
    QCheck_alcotest.to_alcotest prop_clean_salvage_binary2;
    QCheck_alcotest.to_alcotest prop_clean_salvage_text;
    QCheck_alcotest.to_alcotest prop_truncation_salvage;
    QCheck_alcotest.to_alcotest prop_truncation_salvage_v2;
    Alcotest.test_case "campaign is total over 600 mutants" `Slow
      (campaign_total ~format:Tracefile.Binary ~seed:7 ~runs:600
         synthetic_trace);
    Alcotest.test_case "campaign is total over 600 v2 mutants" `Slow
      (campaign_total ~format:Tracefile.Binary2 ~seed:7 ~runs:600
         synthetic_trace);
    Alcotest.test_case "campaign is total over 500 fig4a mutants" `Slow
      (fig4a_campaign Tracefile.Binary);
    Alcotest.test_case "campaign is total over 500 text fig4a mutants" `Slow
      (fig4a_campaign Tracefile.Text);
    Alcotest.test_case "campaign deterministic in seed" `Quick
      t_campaign_deterministic;
    Alcotest.test_case "mutations total on empty input" `Quick
      t_apply_total_on_empty;
    Alcotest.test_case "campaign catches callback escapes" `Quick
      t_campaign_catches_escapes;
  ]
