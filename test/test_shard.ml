(* Differential tests for sharded trace analysis.

   The contract under test: for ANY trace and ANY shard count, writing
   the trace as FORAYTR2, cutting it by its frame index
   (Tracefile.frame_shards), walking each shard with a mergeable Looptree
   and folding Looptree.merge/Tstats.merge yields exactly the sequential
   analysis — same generated C model byte-for-byte, same Step-4 verdicts,
   same footprint statistics. The traces are written with small frames,
   so that nearly every checkpoint is a cut point. The properties run
   over the random ground-truth generator, over fault-injected (salvaged)
   traces, and over hand-written programs whose loops are abandoned by
   break/continue/return, with shard boundaries swept across the trace. *)

open Foray_core
module Generator = Foray_util.Progen
module Event = Foray_trace.Event
module Tracefile = Foray_trace.Tracefile
module Tstats = Foray_trace.Tstats
module FI = Faultinject

(* --- helpers --------------------------------------------------------- *)

let trace_of_source src =
  let prog = Minic.Parser.program src in
  Minic.Sema.check_exn prog;
  let _, trace = Tutil.run_to_trace (Foray_instrument.Annotate.program prog) in
  Array.of_list trace

(* Everything observable about one analysis: the generated C model, the
   Step-4 verdict of every reference keyed by (loop path, site), and the
   aggregate trace statistics. Two analyses agree iff these are equal. *)
type digest = {
  model : string;
  verdicts : ((int list * int) * (bool * Provenance.purge_reason option)) list;
  accesses : int;
  footprint : int;
  sites : int;
}

let digest_of (tree, stats) =
  let verdicts =
    Looptree.refs tree
    |> List.map (fun ((n : Looptree.node), (ri : Looptree.refinfo)) ->
           ( (Looptree.path n, Affine.site ri.aff),
             Filter.verdict Filter.default ri ))
    |> List.sort compare
  in
  {
    model = Model.to_c (Model.of_tree tree);
    verdicts;
    accesses = Tstats.total_accesses stats;
    footprint = Tstats.total_footprint stats;
    sites = Tstats.n_sites stats;
  }

(* The reference: one sequential walker over the whole stream. *)
let analyze_seq events =
  let tree = Looptree.create () in
  let tstats = Tstats.create () in
  Array.iter (Event.tee (Looptree.sink tree) (Tstats.sink tstats)) events;
  digest_of (tree, tstats)

(* Write the events as a FORAYTR2 file and hand [k] its mapping. A frame
   flushes at the first checkpoint once it holds [frame_events] events,
   so small values put a cut point at nearly every checkpoint. *)
let with_v2_file ?(frame_events = 4) events k =
  let path = Filename.temp_file "foray_shard" ".trace2" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Tracefile.save ~frame_events ~format:Tracefile.Binary2 path
        (Array.to_list events);
      k (Tracefile.map path))

let analyze_mapped ?shards m = digest_of (Pipeline.analyze_mapped ?shards m)
let analyze ~shards events = with_v2_file events (analyze_mapped ~shards)

(* --- the differential property over generated programs --------------- *)

let gen_case =
  let open QCheck2.Gen in
  let* seed = int_bound 99_999 in
  let* nests = int_range 1 3 in
  let* shards = oneofl [ 1; 2; 7; 64 ] in
  return (seed, nests, shards)

let print_case (seed, nests, shards) =
  Printf.sprintf "seed=%d nests=%d shards=%d" seed nests shards

let prop_differential =
  QCheck2.Test.make ~name:"sharded = sequential on generated programs"
    ~count:200 ~print:print_case gen_case (fun (seed, nests, shards) ->
      let g = Generator.generate ~seed ~nests in
      let events = trace_of_source g.source in
      analyze_seq events = analyze ~shards events)

(* --- salvage composition --------------------------------------------- *)

(* Sharding partitions whatever event stream salvage produced, so a
   damaged trace must shard to the same result as its sequential salvage
   read — both when the salvaged stream is cut by small frames and when
   Pipeline.analyze_trace streams the damaged file into its own
   temporary FORAYTR2 file. Mutations are deterministic in the seed
   (Foray_util.Prng). *)
let prop_salvage =
  let open QCheck2.Gen in
  let gen =
    let* seed = int_bound 9_999 in
    let* kind = oneofl FI.all in
    let* shards = oneofl [ 2; 7; 64 ] in
    return (seed, kind, shards)
  in
  QCheck2.Test.make ~name:"sharded = sequential on salvaged traces" ~count:60
    ~print:(fun (seed, kind, shards) ->
      Printf.sprintf "seed=%d kind=%s shards=%d" seed (FI.name kind) shards)
    gen
    (fun (seed, kind, shards) ->
      let g = Generator.generate ~seed ~nests:2 in
      let events = trace_of_source g.source in
      let path = Filename.temp_file "foray_shard" ".trace" in
      Tracefile.save ~format:Tracefile.Binary path (Array.to_list events);
      let bytes =
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let b = really_input_string ic n in
        close_in ic;
        b
      in
      let mutated = FI.apply (Foray_util.Prng.create seed) kind bytes in
      let oc = open_out_bin path in
      output_string oc mutated;
      close_out oc;
      let sink, salvaged = Event.collector () in
      let read = Tracefile.read path sink in
      let product =
        Result.map (fun (r, _) -> digest_of r)
          (Pipeline.analyze_trace ~shards path)
      in
      Sys.remove path;
      match read with
      | Error _ -> true (* typed rejection: nothing to shard *)
      | Ok _ -> (
          let salvaged = Array.of_list (salvaged ()) in
          let seq = analyze_seq salvaged in
          product = Ok seq && analyze ~shards salvaged = seq))

(* --- merge algebra ---------------------------------------------------- *)

(* Affine.merge consumes its arguments, so each algebraic expression gets
   freshly rebuilt solver states for the same observation streams. *)
let aff_of depth obs =
  let a = Affine.create_logged ~site:0xfee ~depth in
  List.iter (fun (iters, addr) -> Affine.observe a ~iters ~addr) obs;
  a

let aff_summary a =
  Affine.force a;
  ( Affine.execs a,
    Affine.analyzable a,
    Affine.const a,
    Affine.coeffs a,
    Affine.m a,
    Affine.partial a,
    Affine.mispredictions a,
    Affine.included_terms a )

let gen_obs depth =
  let open QCheck2.Gen in
  let iters = array_size (return depth) (int_bound 12) in
  let ob =
    let* i = iters in
    let* addr = int_bound 4_000 in
    return (i, addr)
  in
  list_size (int_range 0 20) ob

let prop_affine_merge_assoc =
  let open QCheck2.Gen in
  let gen =
    let* depth = int_range 1 3 in
    let* o1 = gen_obs depth in
    let* o2 = gen_obs depth in
    let* o3 = gen_obs depth in
    return (depth, o1, o2, o3)
  in
  QCheck2.Test.make ~name:"Affine.merge is associative" ~count:200 gen
    (fun (depth, o1, o2, o3) ->
      let left =
        Affine.merge
          (Affine.merge (aff_of depth o1) (aff_of depth o2))
          (aff_of depth o3)
      in
      let right =
        Affine.merge (aff_of depth o1)
          (Affine.merge (aff_of depth o2) (aff_of depth o3))
      in
      aff_summary left = aff_summary right)

let prop_affine_merge_identity =
  let open QCheck2.Gen in
  let gen =
    let* depth = int_range 1 3 in
    let* obs = gen_obs depth in
    return (depth, obs)
  in
  QCheck2.Test.make ~name:"fresh logged state is a merge identity" ~count:100
    gen
    (fun (depth, obs) ->
      let plain = aff_summary (aff_of depth obs) in
      let left =
        aff_summary
          (Affine.merge (Affine.create_logged ~site:0xfee ~depth)
             (aff_of depth obs))
      in
      let right =
        aff_summary
          (Affine.merge (aff_of depth obs)
             (Affine.create_logged ~site:0xfee ~depth))
      in
      plain = left && plain = right)

(* Looptree.merge associativity on real shard trees: cut a generated
   trace three ways, build the per-shard trees twice, fold in both
   association orders and compare the resulting models. *)
let shard_tree m (fs : Tracefile.fshard) =
  let tree = Looptree.create ~mergeable:true () in
  Looptree.restore_context tree fs.fs_context;
  Tracefile.iter_fshard m fs (Looptree.sink tree);
  tree

let tree_digest tree =
  Looptree.finalize tree;
  let verdicts =
    Looptree.refs tree
    |> List.map (fun ((n : Looptree.node), (ri : Looptree.refinfo)) ->
           ( (Looptree.path n, Affine.site ri.aff),
             Filter.verdict Filter.default ri ))
    |> List.sort compare
  in
  (Model.to_c (Model.of_tree tree), verdicts, Looptree.mismatches tree)

let t_looptree_merge_assoc () =
  for seed = 1 to 10 do
    let g = Generator.generate ~seed ~nests:3 in
    let events = trace_of_source g.source in
    with_v2_file events (fun m ->
        match Tracefile.frame_shards ~n:3 m with
        | [ _; _; _ ] as ss ->
            let build () =
              match List.map (shard_tree m) ss with
              | [ a; b; c ] -> (a, b, c)
              | _ -> assert false
            in
            let a, b, c = build () in
            let left = Looptree.merge (Looptree.merge a b) c in
            let a, b, c = build () in
            let right = Looptree.merge a (Looptree.merge b c) in
            if tree_digest left <> tree_digest right then
              Alcotest.failf
                "seed %d: merge association order changed the model" seed
        | _ ->
            Alcotest.failf "seed %d: expected three frame shards" seed)
  done

let t_looptree_merge_identity () =
  let g = Generator.generate ~seed:11 ~nests:2 in
  let events = trace_of_source g.source in
  let whole events =
    let tree = Looptree.create ~mergeable:true () in
    Array.iter (Looptree.sink tree) events;
    tree
  in
  let plain = tree_digest (whole events) in
  let left =
    tree_digest (Looptree.merge (Looptree.create ~mergeable:true ()) (whole events))
  in
  let right =
    tree_digest (Looptree.merge (whole events) (Looptree.create ~mergeable:true ()))
  in
  Alcotest.(check bool) "fresh tree is a left identity" true (plain = left);
  Alcotest.(check bool) "fresh tree is a right identity" true (plain = right)

(* --- boundary placement and abandoned loops --------------------------- *)

(* Loops abandoned by break/continue/return leave the walker with nodes
   that only a later checkpoint pops; shard cuts landing in that window
   historically risked double-counting or lost context. Sweeping the
   shard count moves the balanced boundary across every checkpoint of
   these small traces, so each program is analyzed with cuts before,
   inside and after the abandoned region. *)
let src_break =
  {|
int A[400];

int main() {
  int i;
  int j;
  for (i = 0; i < 12; i++) {
    for (j = 0; j < 30; j++) {
      A[j] = i + j;
      if (j > 2 + i % 3) break;
    }
  }
  return 0;
}
|}

let src_continue =
  {|
int A[400];
int B[400];

int main() {
  int i;
  int j;
  for (i = 0; i < 10; i++) {
    for (j = 0; j < 12; j++) {
      A[j + 12 * i % 400] = j;
      if (j % 3 == 1) continue;
      B[j] = i;
    }
  }
  return 0;
}
|}

let src_return =
  {|
int A[500];

int walk(int stop) {
  int k;
  for (k = 0; k < 50; k++) {
    A[k] = k;
    if (k == stop) return k;
  }
  return -1;
}

int main() {
  int i;
  int acc = 0;
  for (i = 0; i < 10; i++) {
    acc += walk(3 * i);
  }
  return 0;
}
|}

let t_boundary_sweep () =
  List.iter
    (fun (what, src) ->
      let events = trace_of_source src in
      let seq = analyze_seq events in
      with_v2_file events (fun m ->
          for n = 2 to 40 do
            if seq <> analyze_mapped ~shards:n m then
              Alcotest.failf "%s: shard count %d diverged from sequential"
                what n
          done))
    [
      ("break mid-loop", src_break);
      ("continue mid-loop", src_continue);
      ("return mid-loop", src_return);
    ]

(* Two-shard boundary placement on the break trace. With one-event
   frames every checkpoint opens a frame, so every checkpoint is a
   candidate cut.
   - Through the product path: distinct n give distinct balanced
     boundaries, so sweeping n moves Pipeline.analyze_mapped's first cut
     across the trace. The event-array cutter this replaced reached 24
     distinct positions here.
   - Exhaustively: the finest frame cut, regrouped into exactly two
     shards at each of its boundaries, each shard walked from its
     restored context and the two merged. *)
let t_two_shard_cuts () =
  let events = trace_of_source src_break in
  let seq = analyze_seq events in
  let seen = Hashtbl.create 64 in
  with_v2_file ~frame_events:1 events (fun m ->
      for n = 2 to Array.length events do
        match Tracefile.frame_shards ~n m with
        | first :: _ :: _ ->
            let cut = first.Tracefile.fs_events in
            if not (Hashtbl.mem seen cut) then begin
              Hashtbl.add seen cut ();
              if seq <> analyze_mapped ~shards:n m then
                Alcotest.failf "cut at event %d (n=%d) diverged" cut n
            end
        | _ -> ()
      done;
      let finest = Tracefile.frame_shards ~n:(Array.length events) m in
      let join index = function
        | (first : Tracefile.fshard) :: _ as fss ->
            let sum f = List.fold_left (fun a fs -> a + f fs) 0 fss in
            { first with
              fs_index = index;
              fs_frames = sum (fun fs -> fs.Tracefile.fs_frames);
              fs_events = sum (fun fs -> fs.Tracefile.fs_events) }
        | [] -> assert false
      in
      let walk fs =
        let tree = Looptree.create ~mergeable:true () in
        let tstats = Tstats.create () in
        Looptree.restore_context tree fs.Tracefile.fs_context;
        Tracefile.iter_fshard m fs
          (Event.tee (Looptree.sink tree) (Tstats.sink tstats));
        (tree, tstats)
      in
      for k = 1 to List.length finest - 1 do
        let t1, s1 = walk (join 0 (List.filteri (fun i _ -> i < k) finest)) in
        let t2, s2 = walk (join 1 (List.filteri (fun i _ -> i >= k) finest)) in
        let tree = Looptree.merge t1 t2 in
        Looptree.finalize tree;
        if seq <> digest_of (tree, Tstats.merge s1 s2) then
          Alcotest.failf "two shards cut at frame shard %d diverged" k
      done;
      if List.length finest < 100 then
        Alcotest.failf "expected a cut at nearly every checkpoint, got %d"
          (List.length finest - 1));
  if Hashtbl.length seen < 24 then
    Alcotest.failf "expected at least 24 distinct cut positions, got %d"
      (Hashtbl.length seen)

(* --- v2 mapped analysis ------------------------------------------------ *)

(* The zero-copy path at a coarser frame budget: analyze the mapping at
   several shard counts and compare digests with the sequential
   in-memory walk. *)
let t_mapped_equals_sequential () =
  List.iter
    (fun (what, src) ->
      let events = trace_of_source src in
      let seq = analyze_seq events in
      with_v2_file ~frame_events:32 events (fun m ->
          List.iter
            (fun n ->
              if seq <> analyze_mapped ~shards:n m then
                Alcotest.failf "%s: v2 mapped %d-shard analysis diverged" what
                  n)
            [ 1; 2; 4; 13 ]))
    [
      ("break mid-loop", src_break);
      ("continue mid-loop", src_continue);
      ("return mid-loop", src_return);
    ]

let prop_mapped_differential =
  QCheck2.Test.make
    ~name:"v2 mapped sharded = sequential on generated programs" ~count:60
    ~print:print_case gen_case (fun (seed, nests, shards) ->
      let g = Generator.generate ~seed ~nests in
      let events = trace_of_source g.source in
      let seq = analyze_seq events in
      with_v2_file ~frame_events:32 events (fun m ->
          seq = analyze_mapped ~shards m))

let t_frame_shards_partition () =
  let events = trace_of_source src_break in
  with_v2_file ~frame_events:32 events (fun m ->
      List.iter
        (fun n ->
          let fss = Tracefile.frame_shards ~n m in
          assert (List.length fss <= n);
          let sum =
            List.fold_left
              (fun a (fs : Tracefile.fshard) -> a + fs.fs_events)
              0 fss
          in
          Alcotest.(check int) "frame shards cover every event"
            (Array.length events) sum)
        [ 1; 2; 3; 7; 64; 1000 ])

let t_merge_all_equals_fold () =
  for seed = 1 to 5 do
    let g = Generator.generate ~seed ~nests:3 in
    let events = trace_of_source g.source in
    with_v2_file events (fun m ->
        let ss = Tracefile.frame_shards ~n:5 m in
        if List.length ss < 5 then
          Alcotest.failf "seed %d: expected five frame shards" seed;
        let build () = List.map (shard_tree m) ss in
        let folded =
          match build () with
          | t :: ts -> List.fold_left Looptree.merge t ts
          | [] -> assert false
        in
        let treed = Looptree.merge_all ~jobs:2 (build ()) in
        if tree_digest folded <> tree_digest treed then
          Alcotest.failf "seed %d: merge_all diverged from the left fold"
            seed)
  done

(* An explicit [jobs] above the hardware domain count is capped: more
   domains than CPUs only add minor-GC synchronization. *)
let t_jobs_capped () =
  let n = Foray_util.Parallel.default_jobs () + 2 in
  let g = Generator.generate ~seed:3 ~nests:3 in
  let events = trace_of_source g.source in
  with_v2_file events (fun m ->
      if List.length (Tracefile.frame_shards ~n m) < n then
        Alcotest.failf "expected %d frame shards" n;
      Foray_obs.Obs.reset ();
      Foray_obs.Obs.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Foray_obs.Obs.set_enabled false)
        (fun () -> ignore (Pipeline.analyze_mapped ~shards:n ~jobs:n m)));
  Tutil.check_domains_capped "analyze_mapped"

(* --- shard partition sanity ------------------------------------------ *)

(* Frame shards are contiguous, cover the trace exactly, start at a
   checkpoint, and carry the loop stack the sequential walker holds at
   their first event. *)
let t_shards_partition () =
  let events = trace_of_source src_break in
  let total = Array.length events in
  let contexts = Array.make (total + 1) [] in
  let w = Foray_trace.Loopwalk.create () in
  Array.iteri
    (fun i e ->
      contexts.(i) <- Foray_trace.Loopwalk.context w;
      Foray_trace.Loopwalk.sink w e)
    events;
  with_v2_file ~frame_events:1 events (fun m ->
      List.iter
        (fun n ->
          let ss = Tracefile.frame_shards ~n m in
          assert (List.length ss <= n);
          let sum =
            List.fold_left (fun a (fs : Tracefile.fshard) -> a + fs.fs_events) 0 ss
          in
          Alcotest.(check int) "covers exactly" total sum;
          ignore
            (List.fold_left
               (fun (frame, start) (fs : Tracefile.fshard) ->
                 Alcotest.(check int) "contiguous" frame fs.fs_frame;
                 if start > 0 then begin
                   (match events.(start) with
                   | Event.Checkpoint _ -> ()
                   | _ -> Alcotest.fail "shard start is not checkpoint-aligned");
                   if fs.fs_context <> contexts.(start) then
                     Alcotest.failf "shard %d: context differs from the walk"
                       fs.fs_index
                 end;
                 (fs.fs_frame + fs.fs_frames, start + fs.fs_events))
               (0, 0) ss))
        [ 1; 2; 3; 7; 64; 1000 ])

let tests =
  [
    Alcotest.test_case "looptree merge associative" `Quick
      t_looptree_merge_assoc;
    Alcotest.test_case "looptree merge identity" `Quick
      t_looptree_merge_identity;
    Alcotest.test_case "boundary sweep over abandoned loops" `Quick
      t_boundary_sweep;
    Alcotest.test_case "two-shard cuts near-exhaustive" `Quick
      t_two_shard_cuts;
    Alcotest.test_case "shards partition the trace" `Quick t_shards_partition;
    Alcotest.test_case "v2 mapped analysis = sequential" `Quick
      t_mapped_equals_sequential;
    Alcotest.test_case "v2 frame shards partition the trace" `Quick
      t_frame_shards_partition;
    Alcotest.test_case "merge_all = left fold of merge" `Quick
      t_merge_all_equals_fold;
    Alcotest.test_case "explicit jobs capped at the domain count" `Quick
      t_jobs_capped;
    QCheck_alcotest.to_alcotest prop_differential;
    QCheck_alcotest.to_alcotest prop_mapped_differential;
    QCheck_alcotest.to_alcotest prop_salvage;
    QCheck_alcotest.to_alcotest prop_affine_merge_assoc;
    QCheck_alcotest.to_alcotest prop_affine_merge_identity;
  ]
