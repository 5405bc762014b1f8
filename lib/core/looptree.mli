(** Algorithm 2: reconstruction of the dynamic loop/reference structure of a
    program from its profile trace.

    The structure is a tree of loop nodes under a synthetic root. A node is
    identified by its loop id {e and} its position: the same static loop
    reached through two different dynamic contexts (e.g. a function called
    from two different loops) yields two distinct nodes — this is how
    functions "appear to be inlined" in the FORAY model and where the
    inter-function duplication hints come from (§4 of the paper).

    The checkpoint stack itself is {!Foray_trace.Loopwalk}'s: each walker
    context is one node, so a node's iteration counter is its frame's.
    Each memory reference observed while a node is current is attached to
    that node and fed, together with the walker's iterator vector
    (innermost first), to its {!Affine} solver. The walker is a trace
    {e sink}, so analysis runs online during simulation: no trace is stored
    and space is proportional to the tree, not the trace (§4). *)

type node = {
  mutable uid : int;  (** unique node stamp; 0 for the root *)
  lid : int;  (** loop id; 0 for the root *)
  depth : int;  (** 0 for the root *)
  mutable parent : node option;
  mutable children : node list;  (** in first-encountered order *)
  mutable refs : refinfo list;  (** references attached to this node *)
  mutable iter : int;  (** current iteration counter *)
  mutable entries : int;  (** times this loop was entered *)
  mutable trip_min : int;
  mutable trip_max : int;
  mutable trip_total : int;
}

and refinfo = {
  aff : Affine.t;
  mutable footprint : Foray_util.Iset.t;  (** distinct bytes touched *)
  mutable starts : Foray_util.Iset.t;  (** distinct start addresses *)
  mutable reads : int;
  mutable writes : int;
  mutable sys : bool;
  mutable width_max : int;
}

type t

(** A fresh walker. With [~mergeable:true] the tree participates in
    sharded analysis: references use {!Affine.create_logged} (so their
    Algorithm-3 fold is deferred and mergeable) and the tree supports
    {!restore_context} and {!merge}. Default [false]: the historical
    eager single-pass walker. *)
val create : ?mergeable:bool -> unit -> t

(** Whether this tree was created with [~mergeable:true]. *)
val mergeable : t -> bool

(** The event sink implementing Algorithm 2 (plus Algorithm 3 per access).
    Checkpoints move the stack by {!Foray_trace.Loopwalk}'s rules, so it
    is robust to missing [body_exit]/[loop_exit] checkpoints from [break],
    [continue] or [return]; a closed frame records its trip count. *)
val sink : t -> Foray_trace.Event.sink

(** The root node (inspect after the trace has been consumed). *)
val root : t -> node

(** All loop nodes, pre-order. *)
val nodes : t -> node list

(** All references across nodes, each with its owning node. *)
val refs : t -> (node * refinfo) list

(** The loop-id path from the root (exclusive) down to a node. *)
val path : node -> int list

(** Number of loop nodes (excluding the root). *)
val n_nodes : t -> int

(** Deepest nesting level seen (0 for an empty tree). *)
val max_depth : t -> int

(** Checkpoints whose loop id matched no open frame
    ({!Foray_trace.Loopwalk.mismatches}) — a body or exit for a loop the
    walker never saw entered. A well-formed instrumented trace
    has zero; nonzero means the producer lost or reordered checkpoint
    events. *)
val mismatches : t -> int

(** {1 Sharded analysis}

    A FORAYTR2 trace can be cut at any checkpoint-led frame into
    context-complete shards ({!Foray_trace.Tracefile.frame_shards}); each
    shard is walked by its
    own mergeable tree whose starting stack is rebuilt with
    {!restore_context}, and the per-shard trees are folded with {!merge}.
    Because mergeable references log raw observations instead of folding
    them, the merged tree replays every Algorithm-3 fold in trace order
    ({!finalize}) and is therefore {e bit-identical} to the sequential
    walker's result, whatever the shard boundaries were. *)

(** [restore_context t ctx] puts a fresh mergeable walker on the loop
    stack described by [ctx] — [(lid, iter)] pairs, outermost first, as
    stamped in a shard's first frame header
    ({!Foray_trace.Tracefile.fshard}[.fs_context]). The stack nodes are
    created with [entries = 0] (the [Loop_enter] that opened them belongs
    to an earlier shard) and their iteration counters restored, so the
    walker behaves exactly like the sequential walker resumed at the cut.
    @raise Invalid_argument if [t] is not mergeable or already walked. *)
val restore_context : t -> (int * int) list -> unit

(** [merge a b] folds shard [b]'s tree into shard [a]'s, where [b] walked
    the trace segment {e following} [a]'s. Nodes are unified by their
    loop-id path from the root: entries, trip totals and mismatches are
    summed, trip bounds widened, per-site references merged
    ({!Affine.merge} for the solver state; footprints and start sets
    unioned, read/write counters summed) and nodes or references only one
    side saw are adopted, preserving first-encounter order. Returns [a];
    both arguments are consumed ([b] entirely, and [a]'s walker state is
    dropped — feeding more events into either raises). Associative, with
    a fresh mergeable tree as identity.
    @raise Invalid_argument unless both trees are mergeable. *)
val merge : t -> t -> t

(** [merge_all ~jobs ts] reduces shard trees (in shard order) to one tree
    by merging adjacent pairs concurrently on the domain pool — a
    log2-depth reduction with the same result as a left fold of {!merge}
    (which is associative). Every input tree is consumed; an empty list
    yields a fresh mergeable tree. *)
val merge_all : ?jobs:int -> t list -> t

(** [finalize ~jobs t] forces the deferred Algorithm-3 folds of every
    reference in the tree, [jobs] at a time on a domain pool (references
    are partitioned, so each solver state stays single-domain). Implicit
    forcing on first inspection makes this optional — calling it merely
    decides {e when} (and with how much parallelism) the replay happens.
    Safe on eager trees (no-op). *)
val finalize : ?jobs:int -> t -> unit

(** Publish this tree's shape into the {!Foray_obs.Obs} registry
    ([looptree.nodes], [looptree.max_depth] gauges via max-merge, and the
    [looptree.checkpoint_mismatches] counter). No-op while collection is
    disabled. *)
val flush_metrics : t -> unit
