(* Foreign trace-log import (Foray_trace.Import): the paper-style
   "site addr kind" plain-text adapter, its salvage-mode error handling,
   and its composition with the offline analysis pipeline. *)

module Event = Foray_trace.Event
module Import = Foray_trace.Import
module Tracefile = Foray_trace.Tracefile

let with_log lines k =
  let tmp = Filename.temp_file "foray_import" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out tmp in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      k tmp)

let read_ok ?strict path =
  match Import.read ?strict path with
  | Ok (events, salvage) -> (events, salvage)
  | Error c ->
      Alcotest.failf "unexpected corruption at byte %d: %s"
        c.Tracefile.offset c.Tracefile.kind

(* --- line grammar ----------------------------------------------------- *)

let t_parse_accesses () =
  let cases =
    [
      ( "a0 10000000 r",
        Event.Access
          { site = 0xa0; addr = 0x10000000; write = false; sys = false;
            width = 4 } );
      ( "A0 10000004 rd 2",
        Event.Access
          { site = 0xa0; addr = 0x10000004; write = false; sys = false;
            width = 2 } );
      ( "0xa1 0x10000100 write 4 sys",
        Event.Access
          { site = 0xa1; addr = 0x10000100; write = true; sys = true;
            width = 4 } );
      ( "a1 10000104 w",
        Event.Access
          { site = 0xa1; addr = 0x10000104; write = true; sys = false;
            width = 4 } );
      ("7 loop_enter", Event.Checkpoint { loop = 7; kind = Event.Loop_enter });
      ("7 body_exit", Event.Checkpoint { loop = 7; kind = Event.Body_exit });
    ]
  in
  List.iter
    (fun (line, want) ->
      match Import.parse_line line with
      | Ok (Some got) when got = want -> ()
      | Ok (Some _) -> Alcotest.failf "wrong event for %S" line
      | Ok None -> Alcotest.failf "line %S ignored" line
      | Error e -> Alcotest.failf "line %S rejected: %s" line e)
    cases

let t_parse_ignores_and_rejects () =
  List.iter
    (fun line ->
      match Import.parse_line line with
      | Ok None -> ()
      | _ -> Alcotest.failf "expected %S to be ignored" line)
    [ ""; "   "; "# a comment"; "\t" ];
  List.iter
    (fun line ->
      match Import.parse_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected %S to be rejected" line)
    [
      "lonely";
      "xyz loop_enter";
      "7 loop_sideways";
      "zz 10000000 r";
      "a0 zz r";
      "a0 10000000 sideways";
      "a0 10000000 r 4 sys junk";
    ]

(* --- whole-file reads -------------------------------------------------- *)

let clean_log =
  [
    "# simulator log";
    "7 loop_enter";
    "7 body_enter";
    "a0 10000000 r";
    "a1 10000100 w";
    "7 body_exit";
    "7 body_enter";
    "a0 10000004 r";
    "a1 10000104 w";
    "7 body_exit";
    "7 loop_exit";
  ]

let t_read_clean () =
  with_log clean_log (fun path ->
      let events, salvage = read_ok path in
      Alcotest.(check int) "event count" 10 (Array.length events);
      Alcotest.(check int) "no resyncs" 0 salvage.Tracefile.resyncs;
      Alcotest.(check int) "salvage count" 10 salvage.Tracefile.events;
      match events.(2) with
      | Event.Access { site; addr; write; _ } ->
          Alcotest.(check int) "site" 0xa0 site;
          Alcotest.(check int) "addr" 0x10000000 addr;
          Alcotest.(check bool) "read" false write
      | _ -> Alcotest.fail "expected an access")

let t_salvage_counts_runs () =
  (* two maximal bad runs: 3 lines + 1 line -> 2 resyncs, and the good
     events around them all survive *)
  let log =
    [ "a0 10000000 r"; "bad one"; "bad two"; "bad three"; "a0 10000004 r";
      "lonely"; "a0 10000008 r" ]
  in
  with_log log (fun path ->
      let events, salvage = read_ok path in
      Alcotest.(check int) "events" 3 (Array.length events);
      Alcotest.(check int) "resyncs" 2 salvage.Tracefile.resyncs;
      Alcotest.(check bool) "bytes skipped" true
        (salvage.Tracefile.bytes_skipped > 0);
      Alcotest.(check bool) "errors sampled" true
        (List.length salvage.Tracefile.first_errors >= 2))

let t_first_errors_capped () =
  let log =
    List.concat_map
      (fun i -> [ Printf.sprintf "a0 %x r" i; "junk junk junk junk junk" ])
      [ 0x1000; 0x1004; 0x1008; 0x100c; 0x1010; 0x1014; 0x1018; 0x101c ]
  in
  with_log log (fun path ->
      let _, salvage = read_ok path in
      Alcotest.(check int) "resyncs" 8 salvage.Tracefile.resyncs;
      Alcotest.(check int) "first_errors capped at 5" 5
        (List.length salvage.Tracefile.first_errors))

let t_strict_stops_at_first_bad_line () =
  let log = [ "a0 10000000 r"; "garbage here also"; "a0 10000004 r" ] in
  with_log log (fun path ->
      match Import.read ~strict:true path with
      | Ok _ -> Alcotest.fail "strict read accepted a damaged log"
      | Error c ->
          Alcotest.(check int) "events before" 1 c.Tracefile.events_before;
          Alcotest.(check int) "offset of the bad line"
            (String.length "a0 10000000 r\n")
            c.Tracefile.offset)

(* --- composition with the pipeline ------------------------------------ *)

let t_imported_log_analyzes () =
  (* a 3-iteration loop walking two arrays with stride 4: Steps 3-4 over
     the imported stream must recover both coefficients, and the model
     must then verify against the very same stream *)
  let log =
    [
      "7 loop_enter"; "7 body_enter"; "a0 10000000 r"; "a1 10000100 w";
      "7 body_exit"; "7 body_enter"; "a0 10000004 r"; "a1 10000104 w";
      "7 body_exit"; "7 body_enter"; "a0 10000008 r"; "a1 10000108 w";
      "7 body_exit"; "7 loop_exit";
    ]
  in
  with_log log (fun path ->
      let events, _ = read_ok path in
      let tree = Foray_core.Looptree.create () in
      Array.iter (Foray_core.Looptree.sink tree) events;
      let thresholds = Foray_core.Filter.{ nexec = 1; nloc = 1 } in
      let model = Foray_core.Model.of_tree ~thresholds tree in
      let coeffs =
        Foray_core.Model.all_refs model
        |> List.map (fun (_, (mr : Foray_core.Model.mref)) ->
               List.map fst mr.terms)
        |> List.sort compare
      in
      Alcotest.(check (list (list int))) "both strides recovered"
        [ [ 4 ]; [ 4 ] ] coeffs;
      let rep =
        Foray_verify.Verify.verify model (Array.to_list events)
      in
      Alcotest.(check bool) "imported model proves" true
        (Foray_verify.Verify.all_proved rep))

let tests =
  [
    Alcotest.test_case "access and checkpoint lines parse" `Quick
      t_parse_accesses;
    Alcotest.test_case "comments ignored, junk rejected" `Quick
      t_parse_ignores_and_rejects;
    Alcotest.test_case "clean log reads whole" `Quick t_read_clean;
    Alcotest.test_case "salvage counts maximal bad runs" `Quick
      t_salvage_counts_runs;
    Alcotest.test_case "first errors sampled, capped" `Quick
      t_first_errors_capped;
    Alcotest.test_case "strict stops at the first bad line" `Quick
      t_strict_stops_at_first_bad_line;
    Alcotest.test_case "imported log analyzes and verifies" `Quick
      t_imported_log_analyzes;
  ]
