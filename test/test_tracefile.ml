(* Trace file persistence tests: both formats, streaming, auto-detection. *)

open Foray_trace

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let sample_trace () =
  let prog = Minic.Parser.program Foray_suite.Figures.fig4a in
  let instrumented = Foray_instrument.Annotate.program prog in
  let sink, get = Event.collector () in
  let _ = Minic_sim.Interp.run instrumented ~sink in
  get ()

let t_roundtrip_text () =
  let trace = sample_trace () in
  let path = tmp "foray_text.tr" in
  Tracefile.save ~format:Tracefile.Text path trace;
  let back = Tutil.load path in
  Alcotest.(check int) "length" (List.length trace) (List.length back);
  List.iter2 (fun a b -> if not (Event.equal a b) then Alcotest.fail "event") trace back

let t_roundtrip_binary () =
  let trace = sample_trace () in
  let path = tmp "foray_bin.tr" in
  Tracefile.save ~format:Tracefile.Binary path trace;
  let back = Tutil.load path in
  Alcotest.(check int) "length" (List.length trace) (List.length back);
  List.iter2 (fun a b -> if not (Event.equal a b) then Alcotest.fail "event") trace back

let t_binary_smaller () =
  let trace = sample_trace () in
  let pt = tmp "foray_sz_t.tr" and pb = tmp "foray_sz_b.tr" in
  Tracefile.save ~format:Tracefile.Text pt trace;
  Tracefile.save ~format:Tracefile.Binary pb trace;
  let size p =
    let ic = open_in_bin p in
    let n = in_channel_length ic in
    close_in ic;
    n
  in
  Alcotest.(check bool) "binary smaller than text" true (size pb < size pt)

let t_streaming_fold () =
  let trace = sample_trace () in
  let path = tmp "foray_fold.tr" in
  Tracefile.save ~format:Tracefile.Binary path trace;
  let n = ref 0 in
  ignore (Tracefile.read ~strict:true path (fun _ -> incr n));
  let n = !n in
  Alcotest.(check int) "fold counts all" (List.length trace) n

let t_sink_to_file_streaming () =
  let path = tmp "foray_stream.tr" in
  let sink, close = Tracefile.sink_to_file ~format:Tracefile.Binary path in
  let prog = Minic.Parser.program Foray_suite.Figures.fig4a in
  let instrumented = Foray_instrument.Annotate.program prog in
  let _ = Minic_sim.Interp.run instrumented ~sink in
  close ();
  let back = Tutil.load path in
  Alcotest.(check int) "same as direct collection" 87 (List.length back)

let t_analysis_from_file_matches () =
  (* simulator -> file -> analyzer == online *)
  let prog = Minic.Parser.program Foray_suite.Figures.fig1 in
  let r, trace = Tutil.run_offline prog in
  let path = tmp "foray_match.tr" in
  Tracefile.save ~format:Tracefile.Binary path trace;
  let tree = Foray_core.Looptree.create () in
  ignore (Tracefile.read ~strict:true path (Foray_core.Looptree.sink tree));
  let model =
    Foray_core.Model.of_tree ~loop_kinds:r.loop_kinds tree
  in
  Alcotest.(check string) "same model"
    (Foray_core.Model.to_c r.model)
    (Foray_core.Model.to_c model)

let t_empty_file () =
  let path = tmp "foray_empty.tr" in
  let oc = open_out path in
  close_out oc;
  Alcotest.(check int) "empty file, empty trace" 0
    (List.length (Tutil.load path))

let expect_corrupt what path =
  match Tutil.read_strict path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (what ^ ": expected a corruption")

(* A damaged FORAYTR2 file also fails the mapped reader with [Corrupt],
   which strict analysis turns into an [Error] by way of the salvaging
   reader it falls back to. *)
let expect_mapped_corrupt what path =
  (match Tracefile.iter_mapped (Tracefile.map path) Event.null_sink with
  | () -> Alcotest.failf "%s: the mapped reader accepted it" what
  | exception Tracefile.Corrupt _ -> ());
  match Foray_core.Pipeline.analyze_trace ~strict:true path with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: strict analysis accepted it" what

let t_corrupt_binary () =
  let path = tmp "foray_corrupt.tr" in
  let oc = open_out_bin path in
  output_string oc "FORAYTR1";
  output_string oc "\x09";
  (* bad tag *)
  close_out oc;
  expect_corrupt "bad tag" path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let t_truncated_binary () =
  (* chopping 1 or 2 bytes always cuts the final record mid-body (the
     smallest record, a checkpoint, is 3 bytes), which must surface as
     Corrupt rather than a silently shorter trace *)
  let trace = sample_trace () in
  let whole = tmp "foray_trunc_src.tr" in
  Tracefile.save ~format:Tracefile.Binary whole trace;
  let bytes = read_file whole in
  List.iter
    (fun chop ->
      let path = tmp (Printf.sprintf "foray_trunc_%d.tr" chop) in
      write_file path (String.sub bytes 0 (String.length bytes - chop));
      expect_corrupt
        (Printf.sprintf "chopped %d byte(s)" chop)
        path)
    [ 1; 2 ]

let t_truncated_header () =
  (* EOF while still inside the first record's body *)
  let path = tmp "foray_trunc_hdr.tr" in
  write_file path "FORAYTR1\x00";
  (* checkpoint tag with no kind/loop *)
  expect_corrupt "mid-record eof" path

let t_oversized_varint () =
  (* ten continuation bytes would shift past bit 62: reject, don't wrap *)
  let path = tmp "foray_bigvarint.tr" in
  write_file path ("FORAYTR1\x00" ^ String.make 10 '\xff');
  expect_corrupt "oversized varint" path

let t_bitflipped_magic () =
  (* a damaged magic demotes the file to the text reader, which must then
     reject the binary payload instead of decoding garbage *)
  let trace = sample_trace () in
  let src = tmp "foray_flip_src.tr" in
  Tracefile.save ~format:Tracefile.Binary src trace;
  let bytes = Bytes.of_string (read_file src) in
  Bytes.set bytes 0 (Char.chr (Char.code (Bytes.get bytes 0) lxor 1));
  let path = tmp "foray_flip.tr" in
  write_file path (Bytes.to_string bytes);
  expect_corrupt "flipped magic" path

let t_corrupt_text_line () =
  let path = tmp "foray_badline.tr" in
  write_file path "Checkpoint: 1 loop_enter\nthis is not a trace record\n";
  expect_corrupt "bad text line" path

let t_varint_values () =
  (* exercise multi-byte varints through large addresses *)
  let big =
    [ Event.Access
        { site = 0x0f00_ffff; addr = 0x7fff_fff7; write = true; sys = true;
          width = 8 };
      Event.Checkpoint { loop = 1_000_000; kind = Event.Body_exit } ]
  in
  let path = tmp "foray_big.tr" in
  Tracefile.save ~format:Tracefile.Binary path big;
  let back = Tutil.load path in
  List.iter2
    (fun a b -> if not (Event.equal a b) then Alcotest.fail "big values")
    big back

(* ---- FORAYTR2 (v2 frame format) ------------------------------------- *)

let check_equal_traces what a b =
  Alcotest.(check int) (what ^ ": length") (List.length a) (List.length b);
  List.iter2
    (fun x y -> if not (Event.equal x y) then Alcotest.fail (what ^ ": event"))
    a b

let t_roundtrip_v2 () =
  let trace = sample_trace () in
  let path = tmp "foray_v2.tr" in
  Tracefile.save ~format:Tracefile.Binary2 path trace;
  Alcotest.(check bool) "sniffed as v2" true (Tracefile.sniff path = Some Tracefile.Binary2);
  check_equal_traces "v2 round-trip" trace (Tutil.load path)

let t_v2_smaller_than_v1 () =
  let trace = sample_trace () in
  let p1 = tmp "foray_sz_v1.tr" and p2 = tmp "foray_sz_v2.tr" in
  Tracefile.save ~format:Tracefile.Binary p1 trace;
  Tracefile.save ~format:Tracefile.Binary2 p2 trace;
  let size p =
    let ic = open_in_bin p in
    let n = in_channel_length ic in
    close_in ic;
    n
  in
  Alcotest.(check bool) "v2 smaller than v1" true (size p2 < size p1)

let t_v2_mapped_reader () =
  let trace = sample_trace () in
  let path = tmp "foray_v2_map.tr" in
  Tracefile.save ~format:Tracefile.Binary2 path trace;
  let m = Tracefile.map path in
  Alcotest.(check int) "frame headers count all events" (List.length trace)
    (Tracefile.mapped_events m);
  let sink, get = Event.collector () in
  Tracefile.iter_mapped m sink;
  check_equal_traces "mapped decode" trace (get ())

let t_v2_obs_counters () =
  let trace = sample_trace () in
  let path = tmp "foray_v2_obs.tr" in
  Foray_obs.Obs.reset ();
  Foray_obs.Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Foray_obs.Obs.set_enabled false)
    (fun () ->
      Tracefile.save ~frame_events:16 ~format:Tracefile.Binary2 path trace;
      let m = Tracefile.map path in
      Tracefile.iter_mapped m Event.null_sink;
      let v name = Option.value ~default:0 (Foray_obs.Obs.value name) in
      Alcotest.(check bool) "frames written" true (v "trace.frames_written" > 1);
      Alcotest.(check int) "frames read = frames written"
        (v "trace.frames_written") (v "trace.frames_read");
      Alcotest.(check bool) "bytes mapped covers the file" true
        (v "trace.bytes_mapped" > 8);
      (* The last byte of the first frame's body gains a continuation
         bit, so that frame's last varint runs off its end: the records
         before it reach the sink, and salvage counts them with the
         rest. *)
      let bytes = Bytes.of_string (read_file path) in
      let last = 8 + 24 + Bytes.get_uint16_le bytes 12 - 1 in
      Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lor 0x80));
      write_file path (Bytes.to_string bytes);
      let written = v "trace.frames_written" in
      Foray_obs.Obs.reset ();
      match Tracefile.read path Event.null_sink with
      | Error _ -> Alcotest.fail "salvage returned an error"
      | Ok s ->
          Alcotest.(check int) "all but the damaged event salvaged"
            (List.length trace - 1) s.Tracefile.events;
          Alcotest.(check int) "events read = events salvaged" s.events
            (v "trace.events_read");
          Alcotest.(check int) "the damaged frame is not a frame read"
            (written - 1) (v "trace.frames_read"))

let t_v2_empty_trace () =
  let path = tmp "foray_v2_empty.tr" in
  Tracefile.save ~format:Tracefile.Binary2 path [];
  Alcotest.(check int) "no events" 0 (List.length (Tutil.load path));
  Alcotest.(check int) "no mapped events" 0
    (Tracefile.mapped_events (Tracefile.map path))

let t_v2_frame_boundaries () =
  (* a tiny frame budget forces many frames, so dictionary reset, address
     delta reset and context capture all happen mid-trace *)
  let trace = sample_trace () in
  let path = tmp "foray_v2_frames.tr" in
  Tracefile.save ~frame_events:2 ~format:Tracefile.Binary2 path trace;
  check_equal_traces "tiny frames" trace (Tutil.load path)

let t_v2_escape_paths () =
  (* head-byte escapes: loop ids past the 4-bit inline range, more sites
     than the 3-bit dictionary window, widths outside {1,4,8}, and address
     deltas in both directions *)
  let ck loop kind = Event.Checkpoint { loop; kind } in
  let acc site addr width =
    Event.Access { site; addr; write = false; sys = true; width }
  in
  let trace =
    ck 15 Event.Loop_enter
    :: ck 1_000_000 Event.Body_enter
    :: List.init 12 (fun i -> acc (0x100 + i) (0x7fff_0000 - (i * 4096)) 3)
    @ [ acc 0x100 16 16; ck 1_000_000 Event.Body_exit;
        ck 15 Event.Loop_exit ]
  in
  let path = tmp "foray_v2_escape.tr" in
  Tracefile.save ~frame_events:4 ~format:Tracefile.Binary2 path trace;
  check_equal_traces "escape paths" trace (Tutil.load path)

let t_v2_truncated () =
  let trace = sample_trace () in
  let whole = tmp "foray_v2_trunc_src.tr" in
  Tracefile.save ~format:Tracefile.Binary2 whole trace;
  let bytes = read_file whole in
  List.iter
    (fun chop ->
      let path = tmp (Printf.sprintf "foray_v2_trunc_%d.tr" chop) in
      write_file path (String.sub bytes 0 (String.length bytes - chop));
      let what = Printf.sprintf "v2 chopped %d byte(s)" chop in
      expect_corrupt what path;
      expect_mapped_corrupt what path)
    [ 1; 7; 64 ]

let t_v2_bad_frame_header () =
  let trace = sample_trace () in
  let src = tmp "foray_v2_hdr_src.tr" in
  Tracefile.save ~format:Tracefile.Binary2 src trace;
  let bytes = Bytes.of_string (read_file src) in
  (* flip a bit in the first frame's magic (right after the file magic) *)
  Bytes.set bytes 8 (Char.chr (Char.code (Bytes.get bytes 8) lxor 1));
  let path = tmp "foray_v2_hdr.tr" in
  write_file path (Bytes.to_string bytes);
  expect_corrupt "v2 frame magic" path;
  expect_mapped_corrupt "v2 frame magic" path;
  (* oversized body_len walks the next frame off the end of the file *)
  let bytes = Bytes.of_string (read_file src) in
  Bytes.set bytes 12 '\xff';
  Bytes.set bytes 13 '\xff';
  write_file path (Bytes.to_string bytes);
  expect_corrupt "v2 oversized body" path;
  expect_mapped_corrupt "v2 oversized body" path

(* Differential property: the v2 encoder/decoder agrees with v1 on
   arbitrary event streams, with a frame budget small enough that frame
   boundaries land everywhere, including between a checkpoint and its
   accesses. *)
let gen_v2_event =
  let open QCheck2.Gen in
  oneof
    [
      (let* loop = oneof [ int_bound 14; int_range 15 2_000_000 ] in
       let* kind =
         oneofl
           [ Event.Loop_enter; Event.Body_enter; Event.Body_exit;
             Event.Loop_exit ]
       in
       return (Event.Checkpoint { loop; kind }));
      (let* site = oneof [ int_bound 6; int_bound 0xfff_ffff ] in
       let* addr =
         oneof
           [ int_bound 0xffff; int_bound 0x3fff_ffff_ffff; int_bound max_int ]
       in
       let* write = bool in
       let* sys = bool in
       let* width = oneofl [ 1; 2; 3; 4; 8; 16; 64 ] in
       return (Event.Access { site; addr; write; sys; width }));
    ]

let prop_v2_equals_v1 =
  QCheck2.Test.make ~name:"v1 and v2 round-trip the same stream identically"
    ~count:150
    QCheck2.Gen.(list_size (int_range 0 128) gen_v2_event)
    (fun trace ->
      let p1 = tmp "foray_q_v1.tr" and p2 = tmp "foray_q_v2.tr" in
      Tracefile.save ~format:Tracefile.Binary p1 trace;
      Tracefile.save ~frame_events:4 ~format:Tracefile.Binary2 p2 trace;
      let b1 = Tutil.load p1 and b2 = Tutil.load p2 in
      List.length b1 = List.length trace
      && List.length b2 = List.length trace
      && List.for_all2 Event.equal b1 b2)

(* Every stream the salvaging reader delivers converts to FORAYTR2 and
   analyzes. A delta of almost 2^62 between two addresses still encodes
   (zigzag modulo 2^63) and round-trips; an address with bit 62 set, which
   [int_of_string] reads as negative, is a bad record that salvage skips. *)
let t_v2_convert_extremes () =
  let convert name text =
    let src = tmp (name ^ ".txt") and dst = tmp (name ^ ".tr2") in
    write_file src text;
    let read =
      Tracefile.with_sink ~format:Tracefile.Binary2 dst (Tracefile.read src)
    in
    (read, src, dst)
  in
  let analyzes path =
    match Foray_core.Pipeline.analyze_trace ~shards:2 path with
    | Ok _ -> ()
    | Error _ -> Alcotest.failf "%s: analysis rejected" path
  in
  let access addr write =
    Event.Access { site = 1; addr; write; sys = false; width = 4 }
  in
  (match
     convert "foray_far_delta"
       "Instr: 1 addr: 3ffffffffffffff0 wr 4\nInstr: 1 addr: 10 rd 4\n"
   with
  | Ok s, src, dst ->
      Alcotest.(check int) "no resync" 0 s.Tracefile.resyncs;
      Alcotest.(check bool) "round-trips" true
        (Tutil.load dst
        = [ access 0x3fff_ffff_ffff_fff0 true; access 0x10 false ]);
      analyzes src;
      analyzes dst
  | Error _, _, _ -> Alcotest.fail "far delta rejected");
  match convert "foray_bit62" "Instr: 1 addr: 4000000000000000 wr 4\n" with
  | Ok s, src, dst ->
      Alcotest.(check int) "one resync" 1 s.Tracefile.resyncs;
      Alcotest.(check int) "nothing salvaged" 0 s.Tracefile.events;
      analyzes src;
      analyzes dst
  | Error _, _, _ -> Alcotest.fail "bit-62 address not salvaged"

(* Three hand-made one-frame FORAYTR2 files whose one record carries a
   negative field: a width varint of ff x8 7f (-1), a dictionary site of
   the same bytes, and an escaped site index of the same bytes, which
   must not reach the decoder's unchecked array access. The mapped
   reader, strict analysis and salvage all decode FORAYTR2 through one
   frame decoder, so all three see the damage. *)
let t_v2_negative_fields () =
  let u32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff)) in
  let neg = String.make 8 '\xff' ^ "\x7f" in
  List.iter
    (fun (name, body) ->
      let path = tmp name in
      write_file path
        ("FORAYTR2\xf7FR2" ^ u32 (String.length body) ^ u32 1 ^ u32 0 ^ u32 1
       ^ u32 0 ^ body);
      expect_mapped_corrupt name path;
      match Foray_core.Pipeline.analyze_trace path with
      | Ok (_, salvage) ->
          Alcotest.(check bool) (name ^ ": degraded") true
            (Foray_core.Pipeline.salvage_degradations salvage <> [])
      | Error _ -> Alcotest.failf "%s: salvage mode returned an error" name)
    [ ("foray_v2_negwidth.tr", "\x01\x01" ^ neg ^ "\x08");
      ("foray_v2_negsite.tr", neg ^ "\x11\x08");
      ("foray_v2_negindex.tr", "\x01\xf1" ^ neg ^ "\x08") ]

(* The readers decode out of a mapping, not a copy of the file: the
   major-heap words allocated between the call to [read] and the first
   event reaching the sink do not grow with the file. *)
let t_read_heap_constant () =
  let trace n =
    List.concat
      (List.init n (fun i ->
           [ Event.Checkpoint { loop = 1; kind = Event.Body_enter };
             Event.Access
               { site = 0x42; addr = 0x1000 + (4 * i); write = false;
                 sys = false; width = 4 } ]))
  in
  let major_words_before_first_event format n =
    let path = tmp "foray_heap.tr" in
    Tracefile.save ~format path (trace n);
    let exception First in
    let before = (Gc.quick_stat ()).major_words in
    let first = ref before in
    (match
       Tracefile.read path (fun _ ->
           first := (Gc.quick_stat ()).major_words;
           raise First)
     with
    | _ -> Alcotest.fail "no event reached the sink"
    | exception First -> ());
    !first -. before
  in
  List.iter
    (fun (name, format) ->
      let small = major_words_before_first_event format 4096 in
      let big = major_words_before_first_event format (16 * 4096) in
      if big > small +. 16384. then
        Alcotest.failf
          "%s: %.0f major words before the first event at 16x, %.0f at 1x"
          name big small)
    [ ("text", Tracefile.Text); ("v1", Tracefile.Binary) ]

let tests =
  [
    Alcotest.test_case "text round-trip" `Quick t_roundtrip_text;
    Alcotest.test_case "binary round-trip" `Quick t_roundtrip_binary;
    Alcotest.test_case "binary is smaller" `Quick t_binary_smaller;
    Alcotest.test_case "streaming fold" `Quick t_streaming_fold;
    Alcotest.test_case "streaming writer" `Quick t_sink_to_file_streaming;
    Alcotest.test_case "file analysis matches online" `Quick
      t_analysis_from_file_matches;
    Alcotest.test_case "empty file" `Quick t_empty_file;
    Alcotest.test_case "corrupt binary" `Quick t_corrupt_binary;
    Alcotest.test_case "truncated binary" `Quick t_truncated_binary;
    Alcotest.test_case "truncated first record" `Quick t_truncated_header;
    Alcotest.test_case "oversized varint" `Quick t_oversized_varint;
    Alcotest.test_case "bit-flipped magic" `Quick t_bitflipped_magic;
    Alcotest.test_case "corrupt text line" `Quick t_corrupt_text_line;
    Alcotest.test_case "large varints" `Quick t_varint_values;
    Alcotest.test_case "v2 round-trip" `Quick t_roundtrip_v2;
    Alcotest.test_case "v2 smaller than v1" `Quick t_v2_smaller_than_v1;
    Alcotest.test_case "v2 mapped reader" `Quick t_v2_mapped_reader;
    Alcotest.test_case "v2 obs counters" `Quick t_v2_obs_counters;
    Alcotest.test_case "v2 empty trace" `Quick t_v2_empty_trace;
    Alcotest.test_case "v2 tiny frames" `Quick t_v2_frame_boundaries;
    Alcotest.test_case "v2 head-byte escapes" `Quick t_v2_escape_paths;
    Alcotest.test_case "v2 truncation" `Quick t_v2_truncated;
    Alcotest.test_case "v2 damaged frame header" `Quick t_v2_bad_frame_header;
    QCheck_alcotest.to_alcotest prop_v2_equals_v1;
    Alcotest.test_case "v2 converts extreme addresses" `Quick
      t_v2_convert_extremes;
    Alcotest.test_case "v2 negative fields rejected by every reader" `Quick
      t_v2_negative_fields;
    Alcotest.test_case "read heap does not grow with the file" `Quick
      t_read_heap_constant;
  ]
