type t = {
  (* interned contexts, indexed by id; context 0 is the root *)
  intern : (int * int, int) Hashtbl.t;  (* (parent ctx, lid) -> ctx *)
  mutable c_lid : int array;
  mutable c_parent : int array;
  mutable n_ctx : int;
  (* the stack; slot 0 is the root sentinel, slot [sp] the innermost frame *)
  mutable s_ctx : int array;
  mutable s_iter : int array;
  mutable sp : int;
  mutable mismatches : int;
  on_enter : int -> unit;
  on_close : int -> int -> unit;
}

let create ?(on_enter = fun _ -> ()) ?(on_close = fun _ _ -> ()) () =
  {
    intern = Hashtbl.create 64;
    c_lid = Array.make 16 0;
    c_parent = Array.make 16 0;
    n_ctx = 1;
    s_ctx = Array.make 16 0;
    s_iter = Array.make 16 (-1);
    sp = 0;
    mismatches = 0;
    on_enter;
    on_close;
  }

let grow a n =
  if n < Array.length a then a
  else begin
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let intern w parent lid =
  match Hashtbl.find_opt w.intern (parent, lid) with
  | Some c -> c
  | None ->
      let c = w.n_ctx in
      w.c_lid <- grow w.c_lid c;
      w.c_parent <- grow w.c_parent c;
      w.c_lid.(c) <- lid;
      w.c_parent.(c) <- parent;
      w.n_ctx <- c + 1;
      Hashtbl.add w.intern (parent, lid) c;
      c

let push w lid iter =
  let c = intern w w.s_ctx.(w.sp) lid in
  let sp = w.sp + 1 in
  w.s_ctx <- grow w.s_ctx sp;
  w.s_iter <- grow w.s_iter sp;
  w.s_ctx.(sp) <- c;
  w.s_iter.(sp) <- iter;
  w.sp <- sp;
  c

let top_lid w = w.c_lid.(w.s_ctx.(w.sp))

let close_top w = w.on_close w.s_ctx.(w.sp) w.s_iter.(w.sp)

let pop_to w lid =
  while w.sp > 0 && top_lid w <> lid do
    close_top w;
    w.sp <- w.sp - 1
  done

let checkpoint w (kind : Event.ckind) lid =
  match kind with
  | Loop_enter -> w.on_enter (push w lid (-1))
  | Body_enter ->
      pop_to w lid;
      if top_lid w = lid then w.s_iter.(w.sp) <- w.s_iter.(w.sp) + 1
      else begin
        w.mismatches <- w.mismatches + 1;
        w.on_enter (push w lid (-1))
      end
  | Body_exit ->
      pop_to w lid;
      if top_lid w <> lid then w.mismatches <- w.mismatches + 1
  | Loop_exit ->
      pop_to w lid;
      if top_lid w = lid then begin
        close_top w;
        if w.sp > 0 then w.sp <- w.sp - 1
      end
      else w.mismatches <- w.mismatches + 1

let sink w : Event.sink = function
  | Event.Checkpoint { loop; kind } -> checkpoint w kind loop
  | Event.Access _ -> ()

let ctx w = w.s_ctx.(w.sp)
let depth w = w.sp
let iter w = w.s_iter.(w.sp)
let ctx_at w i = w.s_ctx.(w.sp - i)
let lid_at w i = w.c_lid.(w.s_ctx.(w.sp - i))
let iter_at w i = w.s_iter.(w.sp - i)

let iter_vector w =
  let v = Array.make w.sp 0 in
  for i = 0 to w.sp - 1 do
    v.(i) <- w.s_iter.(w.sp - i)
  done;
  v

let iter_of w lid =
  let rec go k =
    if k = 0 then 0
    else if w.c_lid.(w.s_ctx.(k)) = lid then w.s_iter.(k)
    else go (k - 1)
  in
  go w.sp

let mismatches w = w.mismatches
let lid w c = w.c_lid.(c)
let parent w c = w.c_parent.(c)

let path w c =
  let rec go c acc =
    if c = 0 then acc else go w.c_parent.(c) (w.c_lid.(c) :: acc)
  in
  go c []

let context w =
  List.init w.sp (fun k -> (w.c_lid.(w.s_ctx.(k + 1)), w.s_iter.(k + 1)))

let restore w ctx =
  if w.sp <> 0 then invalid_arg "Loopwalk.restore: walker is not at the root";
  List.iter (fun (lid, iter) -> ignore (push w lid iter : int)) ctx
