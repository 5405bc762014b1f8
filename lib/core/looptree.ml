module Event = Foray_trace.Event
module Loopwalk = Foray_trace.Loopwalk
module Iset = Foray_util.Iset
module Obs = Foray_obs.Obs

type node = {
  mutable uid : int;
  lid : int;
  depth : int;
  mutable parent : node option;
  mutable children : node list;
  mutable refs : refinfo list;
  mutable iter : int;
  mutable entries : int;
  mutable trip_min : int;
  mutable trip_max : int;
  mutable trip_total : int;
}

and refinfo = {
  aff : Affine.t;
  mutable footprint : Iset.t;
  mutable starts : Iset.t;
  mutable reads : int;
  mutable writes : int;
  mutable sys : bool;
  mutable width_max : int;
}

type t = {
  root : node;
  mutable walk : Loopwalk.t;
  mutable by_ctx : node array;  (* walker context id -> node; root at 0 *)
  mutable cur : node;  (* the innermost frame's node, for the access path *)
  mutable next_uid : int;
  (* (node uid, site) -> reference *)
  ref_tbl : (int * int, refinfo) Hashtbl.t;
  mutable n_nodes : int;
  mutable max_depth : int;
  mutable merged_mismatches : int;  (* from trees merged into this one *)
  mergeable : bool;  (* refs use Affine.create_logged; tree supports merge *)
  mutable merged : bool;  (* consumed by merge; walking it again is a bug *)
}

let mk_node ~uid ~lid ~depth ~parent =
  {
    uid;
    lid;
    depth;
    parent;
    children = [];
    refs = [];
    iter = -1;
    entries = 0;
    trip_min = max_int;
    trip_max = 0;
    trip_total = 0;
  }

let record_trip n iter =
  (* iter+1 is the trip count of this entry (-1 -> body never ran). *)
  let trip = iter + 1 in
  if trip < n.trip_min then n.trip_min <- trip;
  if trip > n.trip_max then n.trip_max <- trip;
  n.trip_total <- n.trip_total + trip

(* The node of walker context [c], created on the context's first entry.
   Contexts are numbered densely in first-entry order, so a new one is
   always the next slot — and its node uid equals its context id. *)
let node_of t c =
  if c <= t.n_nodes then t.by_ctx.(c)
  else begin
    let p = t.by_ctx.(Loopwalk.parent t.walk c) in
    let n =
      mk_node ~uid:t.next_uid ~lid:(Loopwalk.lid t.walk c)
        ~depth:(p.depth + 1) ~parent:(Some p)
    in
    t.next_uid <- t.next_uid + 1;
    p.children <- p.children @ [ n ];
    if c >= Array.length t.by_ctx then begin
      let a = Array.make (2 * Array.length t.by_ctx) t.root in
      Array.blit t.by_ctx 0 a 0 (Array.length t.by_ctx);
      t.by_ctx <- a
    end;
    t.by_ctx.(c) <- n;
    t.n_nodes <- t.n_nodes + 1;
    if n.depth > t.max_depth then t.max_depth <- n.depth;
    n
  end

let create ?(mergeable = false) () =
  let root = mk_node ~uid:0 ~lid:0 ~depth:0 ~parent:None in
  let t =
    {
      root;
      walk = Loopwalk.create ();
      by_ctx = Array.make 64 root;
      cur = root;
      next_uid = 1;
      ref_tbl = Hashtbl.create 256;
      n_nodes = 0;
      max_depth = 0;
      merged_mismatches = 0;
      mergeable;
      merged = false;
    }
  in
  let on_enter c =
    let n = node_of t c in
    n.entries <- n.entries + 1
  in
  let on_close c iter = record_trip t.by_ctx.(c) iter in
  t.walk <- Loopwalk.create ~on_enter ~on_close ();
  t

let mergeable t = t.mergeable

let observe_access t (a : Event.access) =
  let node = t.cur in
  let key = (node.uid, a.site) in
  let info =
    match Hashtbl.find_opt t.ref_tbl key with
    | Some r -> r
    | None ->
        let mk = if t.mergeable then Affine.create_logged else Affine.create in
        let r =
          {
            aff = mk ~site:a.site ~depth:node.depth;
            footprint = Iset.empty;
            starts = Iset.empty;
            reads = 0;
            writes = 0;
            sys = a.sys;
            width_max = a.width;
          }
        in
        Hashtbl.add t.ref_tbl key r;
        node.refs <- node.refs @ [ r ];
        r
  in
  Affine.observe info.aff ~iters:(Loopwalk.iter_vector t.walk) ~addr:a.addr;
  info.footprint <- Iset.add_range a.addr (a.addr + a.width) info.footprint;
  info.starts <- Iset.add a.addr info.starts;
  if a.write then info.writes <- info.writes + 1 else info.reads <- info.reads + 1;
  if a.sys then info.sys <- true;
  if a.width > info.width_max then info.width_max <- a.width

(* Only the innermost frame's counter can change on a checkpoint, so
   copying it after each one keeps every node's [iter] current. *)
let sync t =
  t.cur <- t.by_ctx.(Loopwalk.ctx t.walk);
  t.cur.iter <- Loopwalk.iter t.walk

let sink t : Event.sink = function
  | _ when t.merged -> invalid_arg "Looptree.sink: tree was consumed by merge"
  | Event.Access a -> observe_access t a
  | Event.Checkpoint { loop; kind } ->
      Loopwalk.checkpoint t.walk kind loop;
      sync t

(* --- sharded analysis: context restore, merge, finalize ---------------- *)

let restore_context t ctx =
  if not t.mergeable then
    invalid_arg "Looptree.restore_context: not a mergeable tree";
  if Loopwalk.depth t.walk > 0 || t.n_nodes > 0 then
    invalid_arg "Looptree.restore_context: walker already started";
  (* The Loop_enters that opened these frames ran in an earlier shard,
     which owns their entry counts; here the nodes are only scaffolding
     to put the walker back on the sequential walker's stack. *)
  Loopwalk.restore t.walk ctx;
  let d = Loopwalk.depth t.walk in
  for i = d - 1 downto 0 do
    (node_of t (Loopwalk.ctx_at t.walk i)).iter <- Loopwalk.iter_at t.walk i
  done;
  sync t

let mismatches t = t.merged_mismatches + Loopwalk.mismatches t.walk

let rec renumber t n =
  n.uid <- t.next_uid;
  t.next_uid <- t.next_uid + 1;
  List.iter (renumber t) n.children

(* Children keep first-encountered order under a left fold over shards:
   both lists are already in first-encounter order within their shard, the
   left shard comes first in trace order, and anything the right shard saw
   that the left also saw merges into the left's slot. Same for refs. *)
let rec merge_node t dst src =
  dst.entries <- dst.entries + src.entries;
  dst.trip_total <- dst.trip_total + src.trip_total;
  if src.trip_min < dst.trip_min then dst.trip_min <- src.trip_min;
  if src.trip_max > dst.trip_max then dst.trip_max <- src.trip_max;
  dst.iter <- src.iter;
  List.iter
    (fun (rs : refinfo) ->
      let site = Affine.site rs.aff in
      match List.find_opt (fun r -> Affine.site r.aff = site) dst.refs with
      | Some rd ->
          ignore (Affine.merge rd.aff rs.aff : Affine.t);
          rd.footprint <- Iset.union rd.footprint rs.footprint;
          rd.starts <- Iset.union rd.starts rs.starts;
          rd.reads <- rd.reads + rs.reads;
          rd.writes <- rd.writes + rs.writes;
          rd.sys <- rd.sys || rs.sys;
          if rs.width_max > rd.width_max then rd.width_max <- rs.width_max
      | None -> dst.refs <- dst.refs @ [ rs ])
    src.refs;
  List.iter
    (fun cs ->
      match List.find_opt (fun c -> c.lid = cs.lid) dst.children with
      | Some cd -> merge_node t cd cs
      | None ->
          cs.parent <- Some dst;
          renumber t cs;
          dst.children <- dst.children @ [ cs ])
    src.children

let merge a b =
  if not (a.mergeable && b.mergeable) then
    invalid_arg "Looptree.merge: trees must be created with ~mergeable:true";
  merge_node a a.root b.root;
  a.merged_mismatches <- mismatches a + mismatches b;
  b.merged <- true;
  (* The walker describes a single shard's stack; after a merge the tree
     is a read-only result, so drop it and refuse further events. *)
  a.merged <- true;
  a.walk <- Loopwalk.create ();
  a.by_ctx <- [| a.root |];
  Hashtbl.reset a.ref_tbl;
  a.n_nodes <- 0;
  a.max_depth <- 0;
  let rec shape n =
    if n.uid <> 0 then begin
      a.n_nodes <- a.n_nodes + 1;
      if n.depth > a.max_depth then a.max_depth <- n.depth
    end;
    List.iter shape n.children
  in
  shape a.root;
  a

(* Tree-wise reduction: adjacent pairs merge concurrently — each merge
   touches only its own two trees — halving the list per round, so the
   critical path is log2(shards) merges instead of a left fold's
   shards-1. Pairing adjacent shards preserves trace order, and merge
   associativity (tested) makes the result identical to the fold. *)
let rec merge_all ?(jobs = 1) = function
  | [] -> create ~mergeable:true ()
  | [ t ] -> t
  | ts ->
      let rec pair = function
        | a :: b :: rest -> (fun () -> merge a b) :: pair rest
        | [ a ] -> [ (fun () -> a) ]
        | [] -> []
      in
      merge_all ~jobs (Foray_util.Parallel.run ~jobs (pair ts))

let rec all_affs acc n =
  let acc = List.fold_left (fun acc r -> r.aff :: acc) acc n.refs in
  List.fold_left all_affs acc n.children

let finalize ?(jobs = 1) t =
  let affs = Array.of_list (all_affs [] t.root) in
  let n = Array.length affs in
  if jobs <= 1 || n <= 1 then Array.iter Affine.force affs
  else
    (* Round-robin partition: each ref is forced by exactly one worker, so
       no Affine state is touched concurrently (Provenance, the only shared
       structure a fold writes, is mutex-protected). *)
    Foray_util.Parallel.run ~jobs
      (List.init (min jobs n) (fun k () ->
           let i = ref k in
           while !i < n do
             Affine.force affs.(!i);
             i := !i + jobs
           done))
    |> ignore

let root t = t.root

let nodes t =
  let acc = ref [] in
  let rec go n =
    if n.uid <> 0 then acc := n :: !acc;
    List.iter go n.children
  in
  go t.root;
  List.rev !acc

let refs t =
  List.concat_map
    (fun n -> List.map (fun r -> (n, r)) n.refs)
    (t.root :: nodes t)

let rec path n =
  match n.parent with None -> [] | Some p -> path p @ [ n.lid ]

let n_nodes t = t.n_nodes
let max_depth t = t.max_depth

let m_nodes = Obs.gauge "looptree.nodes"
let m_depth = Obs.gauge "looptree.max_depth"
let m_mismatches = Obs.counter "looptree.checkpoint_mismatches"

let flush_metrics t =
  if Obs.enabled () then begin
    Obs.set_max m_nodes t.n_nodes;
    Obs.set_max m_depth t.max_depth;
    Obs.add m_mismatches (mismatches t)
  end
