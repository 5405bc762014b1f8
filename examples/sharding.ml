(* Sharded trace analysis on the paper's Figure 4(a) program.

   Streams the program's trace into a FORAYTR2 file, prints the shard
   table its frame index yields (where each cut landed and the loop stack
   it restores), analyzes the shards independently on a domain pool and
   shows that the merged model is byte-identical to the sequential one —
   the contract behind `foraygen analyze --shards N`.

   Run with: dune exec examples/sharding.exe *)

module Tracefile = Foray_trace.Tracefile

let banner title =
  Printf.printf "\n=== %s %s\n" title (String.make (60 - String.length title) '=')

let () =
  let src = Foray_suite.Figures.fig4a in
  let prog = Minic.Parser.program src in
  Minic.Sema.check_exn prog;
  (* fig4a is a teaching-sized program: the paper analyzes it with
     Nexec = Nloc = 2 (its loops run handfuls of iterations). *)
  let thresholds = Foray_core.Filter.{ nexec = 2; nloc = 2 } in
  let path = Filename.temp_file "fig4a" ".trace2" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (* A frame flushes at the first checkpoint past 16 events: small frames
     give this tiny trace enough cut points to shard. *)
  Tracefile.with_sink ~frame_events:16 ~format:Tracefile.Binary2 path
    (fun sink ->
      ignore
        (Minic_sim.Interp.run (Foray_instrument.Annotate.program prog) ~sink));
  let m = Tracefile.map path in
  Printf.printf "fig4a trace: %d events\n" (Tracefile.mapped_events m);

  banner "Shard table (n = 4)";
  Printf.printf "%-6s %-6s %-7s %-7s %s\n" "shard" "frame" "frames" "events"
    "context (lid, iter)";
  List.iter
    (fun (fs : Tracefile.fshard) ->
      Printf.printf "%-6d %-6d %-7d %-7d [%s]\n" fs.fs_index fs.fs_frame
        fs.fs_frames fs.fs_events
        (String.concat "; "
           (List.map
              (fun (lid, iter) -> Printf.sprintf "(%d, %d)" lid iter)
              fs.fs_context)))
    (Tracefile.frame_shards ~n:4 m);
  print_string
    "Each shard after the first starts at a frame that opens with a\n\
     checkpoint; its context is the loop stack the sequential walker would\n\
     hold there, stamped in the frame header, so a fresh mergeable walker\n\
     resumes mid-nest with the right iteration counters.\n";

  banner "Per-shard trees, merged";
  let loop_kinds = Foray_instrument.Annotate.loop_table prog in
  let model shards =
    let tree, _ = Foray_core.Pipeline.analyze_mapped ~shards m in
    Foray_core.Model.to_c (Foray_core.Model.of_tree ~thresholds ~loop_kinds tree)
  in
  let seq = model 1 in
  List.iter
    (fun n ->
      Printf.printf "%2d shard(s): model %s sequential\n" n
        (if String.equal (model n) seq then "==" else "<> (BUG)"))
    [ 1; 2; 4; 7; 64 ];

  banner "The sequential (= sharded) model";
  print_string seq
