(** The loop-context walker: Algorithm 2's checkpoint discipline, once.

    Every consumer that needs to know "which loop iteration is this
    access in" — the loop-tree builder, the model verifier, the v2 frame
    encoder and the shard cutter — walks the checkpoint stream through
    this module, so all of them place each access in the same loop
    context.

    The walker keeps a stack of frames over a root sentinel (loop id 0,
    never popped). Each frame is a {e context} — an interned
    [(parent context, loop id)] pair numbered densely from 1 in order of
    first entry (the root is context 0), so a context id names a whole
    loop-id path from the root — plus the frame's iteration counter (-1:
    entered, no body begun yet). The four checkpoint kinds move the stack
    as follows, where "pop to [l]" closes frames until the innermost one
    has loop id [l] or only the sentinel is left:

    - [Loop_enter l]: push a frame for [l] with counter -1.
    - [Body_enter l]: pop to [l]; if the innermost frame is [l], increment
      its counter; otherwise (a body with no preceding enter) count a
      mismatch and push a frame for [l] with counter -1.
    - [Body_exit l]: pop to [l]; a mismatch if [l] was not found.
    - [Loop_exit l]: pop to [l]; if found, close that frame too (the
      sentinel is closed but stays); otherwise a mismatch.

    Popping to a matching loop id is what makes the walk robust to the
    checkpoints [break], [continue] and [return] skip. The sentinel has
    loop id 0, so checkpoints for loop 0 match it. *)

type t

(** A walker at the root. [on_enter ctx] runs whenever a checkpoint
    pushes a frame; [on_close ctx iter] whenever a frame is closed —
    popped as abandoned, or ended by its [Loop_exit] — with the frame's
    final counter. Pops run before the push of the same checkpoint. *)
val create :
  ?on_enter:(int -> unit) -> ?on_close:(int -> int -> unit) -> unit -> t

(** [checkpoint w kind lid] applies one checkpoint. *)
val checkpoint : t -> Event.ckind -> int -> unit

(** [sink w] feeds checkpoints to {!checkpoint} and ignores accesses. *)
val sink : t -> Event.sink

(** The innermost frame's context id (0 at the root). *)
val ctx : t -> int

(** Frames above the sentinel. *)
val depth : t -> int

(** The innermost frame's iteration counter (the sentinel's at the
    root). *)
val iter : t -> int

(** [ctx_at w i], [lid_at w i] and [iter_at w i] read frame [i] counted
    innermost first: [0] is the innermost frame, [depth w - 1] the
    outermost. *)
val ctx_at : t -> int -> int

val lid_at : t -> int -> int

val iter_at : t -> int -> int

(** The iteration counters of all frames, innermost first — Algorithm
    3's iterator vector. A fresh array of length [depth w]. *)
val iter_vector : t -> int array

(** [iter_of w lid] is the counter of the innermost frame with loop id
    [lid], or 0 if none is open. *)
val iter_of : t -> int -> int

(** Checkpoints whose loop id matched no open frame. *)
val mismatches : t -> int

(** [lid w ctx] and [parent w ctx] describe an interned context. *)
val lid : t -> int -> int

val parent : t -> int -> int

(** The loop ids from the root (exclusive) down to [ctx], outermost
    first. *)
val path : t -> int -> int list

(** The open frames as [(lid, iter)] pairs, outermost first, sentinel
    excluded: the form shard cuts and v2 frame headers carry. *)
val context : t -> (int * int) list

(** [restore w ctx] puts a walker still at the root onto the stack
    [ctx] (as produced by {!context}), without calling [on_enter]: a
    walker restored from a context taken at some point of a trace then
    behaves exactly like the walker that produced it.
    @raise Invalid_argument if [w] is not at the root. *)
val restore : t -> (int * int) list -> unit
