open Minic.Ast
module Event = Foray_trace.Event
module Memory = Minic_machine.Memory
module Layout = Minic_machine.Layout
module Resolve = Minic.Resolve
module Obs = Foray_obs.Obs
module Span = Foray_obs.Span

(* Hot-loop statistics accumulate in plain [ctx] fields (an int store, no
   branch on the metrics switch) and are flushed as aggregates once per
   [run] — the interpreter costs the same whether collection is on or
   off. *)
let m_steps = Obs.counter "interp.steps"
let m_accesses = Obs.counter "interp.accesses"
let m_resolved_lookups = Obs.counter "interp.resolved_lookups"
let m_chain_lookups = Obs.counter "interp.chain_lookups"
let m_calls = Obs.counter "interp.calls"
let m_malloc_bytes = Obs.counter "interp.malloc_bytes"
let m_max_frame_depth = Obs.gauge "interp.max_frame_depth"
let m_runs = Obs.counter "interp.runs"

exception Runtime_error of string
exception Runtime_error_at of { msg : string; step : int }

let () =
  Printexc.register_printer (function
    | Runtime_error_at { msg; step } ->
        Some (Printf.sprintf "Interp.Runtime_error_at(%S, step %d)" msg step)
    | _ -> None)

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type value = Vint of int | Vptr of { addr : int; elem : ty }

type config = {
  trace_scalars : bool;
  max_steps : int;
  deadline_ms : int option;
  max_trace_events : int option;
  rand_seed : int;
  resolve : bool;
}

let default_config =
  { trace_scalars = true; max_steps = 200_000_000; deadline_ms = None;
    max_trace_events = None; rand_seed = 42; resolve = true }

type budget_stop = { budget : string; limit : int; spent : int }
type stop = Completed | Stopped of budget_stop

(* Clean budget unwinding: not an error, so distinct from Runtime_error.
   Caught only in [run]; the frame-restore handlers along the way unwind
   normally. *)
exception Budget_hit of budget_stop

type result = {
  ret : int;
  output : int list;
  steps : int;
  accesses : int;
  stopped : stop;
}

let site_memset = 0x0e00_0001
let site_memcpy_rd = 0x0e00_0002
let site_memcpy_wr = 0x0e00_0003
let site_ilist sid = 0x0f00_0000 + sid

(* Control-flow signals. *)
exception Brk
exception Cont
exception Ret of value

type var = { vaddr : int; vty : ty }

(* Two frame representations share one record. With a resolution table
   (the fast path) a frame is a flat [int array] of slot addresses, -1
   while unallocated, and [prev_slots] restores the caller's array on
   return; [scopes]/[slots_tbl] stay empty. Without one (the reference
   path, [config.resolve = false]) names are looked up through the
   hashtable scope chain exactly as before. *)
type frame = {
  mutable scopes : (string, var) Hashtbl.t list;  (* reference path only *)
  slots_tbl : (int, int) Hashtbl.t option;  (* decl sid -> stack address *)
  prev_slots : int array;  (* fast path: caller's slot frame *)
  saved_sp : int;
}

type ctx = {
  cfg : config;
  res : Resolve.t option;  (* fast path when [Some] *)
  mem : Memory.t;
  layout : Layout.t;
  globals : (string, var) Hashtbl.t;
  global_addrs : int array;  (* fast path, indexed like [Resolve.Rglobal] *)
  funcs : (string, func) Hashtbl.t;
  sink : Event.sink;
  max_events : int;  (* trace-event budget; max_int when unlimited *)
  deadline : float;  (* absolute wall-clock cutoff; infinity when none *)
  started : float;  (* run start, for deadline accounting *)
  mutable events : int;  (* sink events emitted (accesses + checkpoints) *)
  mutable cur_slots : int array;  (* fast path: current frame's slots *)
  mutable frames : frame list;  (* current first; empty during global init *)
  mutable steps : int;
  mutable accesses : int;
  mutable resolved_lookups : int;  (* Var lvalues through the slot table *)
  mutable chain_lookups : int;  (* Var lvalues through the scope chain *)
  mutable calls : int;
  mutable malloc_bytes : int;
  mutable frame_depth : int;
  mutable max_frame_depth : int;
  mutable rand_state : int;
  mutable output : int list;  (* reversed *)
  tracing : bool;  (* Span.enabled, cached once per run *)
  mutable loop_spans : (int * Span.span) list;  (* open loop-execution spans *)
}

let ckind_of_ast = function
  | Loop_enter -> Event.Loop_enter
  | Body_enter -> Event.Body_enter
  | Body_exit -> Event.Body_exit
  | Loop_exit -> Event.Loop_exit

let check_event_budget ctx =
  if ctx.events > ctx.max_events then
    raise
      (Budget_hit
         { budget = "max_trace_events"; limit = ctx.max_events;
           spent = ctx.events })

let emit_access ctx ~site ~addr ~write ~sys ~width =
  ctx.accesses <- ctx.accesses + 1;
  ctx.events <- ctx.events + 1;
  check_event_budget ctx;
  ctx.sink (Event.Access { site; addr; write; sys; width })

(* ------------------------------------------------------------------ *)
(* Variables                                                          *)
(* ------------------------------------------------------------------ *)

let find_var ctx name =
  let rec in_scopes = function
    | [] -> None
    | s :: rest -> (
        match Hashtbl.find_opt s name with
        | Some v -> Some v
        | None -> in_scopes rest)
  in
  let local =
    match ctx.frames with
    | [] -> None
    | f :: _ -> in_scopes f.scopes
  in
  match local with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt ctx.globals name with
      | Some v -> v
      | None -> error "undefined variable %s" name)

let align_of ty = match ty with Tchar -> 1 | Tarr _ -> 4 | _ -> 4

(* ------------------------------------------------------------------ *)
(* Values                                                             *)
(* ------------------------------------------------------------------ *)

let as_int = function
  | Vint n -> n
  | Vptr { addr; _ } -> addr

let truthy v = as_int v <> 0

let width_of ty =
  match ty with
  | Tarr _ -> error "loading a whole array"
  | Tvoid -> error "loading void"
  | t -> sizeof t

(* Load a value of static type [ty] from [addr]. *)
let load_raw ctx addr ty =
  let w = width_of ty in
  let v = Memory.read ctx.mem addr w in
  match ty with
  | Tptr e -> Vptr { addr = v land 0xffff_ffff; elem = e }
  | _ -> Vint v

let store_raw ctx addr ty v =
  let w = width_of ty in
  Memory.write ctx.mem addr w (as_int v)

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                              *)
(* ------------------------------------------------------------------ *)

(* An lvalue: address, static type, and whether it is a named variable
   (the trace_scalars switch only gates named scalars). *)
type lval = { laddr : int; lty : ty; lnamed : bool }

let scaled_add p n =
  match p with
  | Vptr { addr; elem } -> Vptr { addr = addr + (n * sizeof elem); elem }
  | Vint _ -> error "pointer arithmetic on non-pointer"

let rec eval ctx (e : expr) : value =
  match e.e with
  | Int n -> Vint n
  | Var _ | Index _ | Deref _ -> (
      (* rvalue use of an lvalue: resolve, decay arrays, else load *)
      let lv = lvalue ctx e in
      match lv.lty with
      | Tarr (elt, _) -> Vptr { addr = lv.laddr; elem = elt }
      | ty ->
          let v = load_raw ctx lv.laddr ty in
          if (not lv.lnamed) || ctx.cfg.trace_scalars then
            emit_access ctx ~site:e.eid ~addr:lv.laddr ~write:false ~sys:false
              ~width:(width_of ty);
          v)
  | Bin (Land, a, b) -> if truthy (eval ctx a) then Vint (if truthy (eval ctx b) then 1 else 0) else Vint 0
  | Bin (Lor, a, b) -> if truthy (eval ctx a) then Vint 1 else Vint (if truthy (eval ctx b) then 1 else 0)
  | Bin (op, a, b) -> binop op (eval ctx a) (eval ctx b)
  | Un (Neg, a) -> Vint (-as_int (eval ctx a))
  | Un (Lnot, a) -> Vint (if truthy (eval ctx a) then 0 else 1)
  | Un (Bnot, a) -> Vint (lnot (as_int (eval ctx a)))
  | Assign (l, r) ->
      let v = eval ctx r in
      let lv = lvalue ctx l in
      let v = coerce lv.lty v in
      store_raw ctx lv.laddr lv.lty v;
      if (not lv.lnamed) || ctx.cfg.trace_scalars then
        emit_access ctx ~site:l.eid ~addr:lv.laddr ~write:true ~sys:false
          ~width:(width_of lv.lty);
      v
  | OpAssign (op, l, r) ->
      let rv = eval ctx r in
      let lv = lvalue ctx l in
      let old = load_raw ctx lv.laddr lv.lty in
      let traced = (not lv.lnamed) || ctx.cfg.trace_scalars in
      if traced then
        emit_access ctx ~site:l.eid ~addr:lv.laddr ~write:false ~sys:false
          ~width:(width_of lv.lty);
      let v = coerce lv.lty (binop op old rv) in
      store_raw ctx lv.laddr lv.lty v;
      if traced then
        emit_access ctx ~site:l.eid ~addr:lv.laddr ~write:true ~sys:false
          ~width:(width_of lv.lty);
      v
  | Incr (pre, l) -> incdec ctx pre l 1
  | Decr (pre, l) -> incdec ctx pre l (-1)
  | Addr a ->
      let lv = lvalue ctx a in
      let elem = match lv.lty with Tarr (t, _) -> t | t -> t in
      (* &arr yields the array's first element address, like C decay *)
      Vptr { addr = lv.laddr; elem }
  | Call (f, args) -> call_catch ctx f args e.eid
  | Cond (c, a, b) -> if truthy (eval ctx c) then eval ctx a else eval ctx b
  | Cast (t, a) -> (
      let v = eval ctx a in
      match (t, v) with
      | Tptr e, v -> Vptr { addr = as_int v land 0xffff_ffff; elem = e }
      | Tint, v -> Vint (as_int v)
      | Tchar, v ->
          let x = as_int v land 0xff in
          Vint (if x land 0x80 <> 0 then x - 0x100 else x)
      | Tvoid, v -> v
      | Tarr _, _ -> error "invalid cast to array type")

and coerce ty v =
  match (ty, v) with
  | Tchar, Vint n ->
      let x = n land 0xff in
      Vint (if x land 0x80 <> 0 then x - 0x100 else x)
  | _, v -> v

and incdec ctx pre l delta =
  let lv = lvalue ctx l in
  let old = load_raw ctx lv.laddr lv.lty in
  let traced = (not lv.lnamed) || ctx.cfg.trace_scalars in
  if traced then
    emit_access ctx ~site:l.eid ~addr:lv.laddr ~write:false ~sys:false
      ~width:(width_of lv.lty);
  let nv =
    match old with
    | Vptr { addr; elem } -> Vptr { addr = addr + (delta * sizeof elem); elem }
    | Vint n -> coerce lv.lty (Vint (n + delta))
  in
  store_raw ctx lv.laddr lv.lty nv;
  if traced then
    emit_access ctx ~site:l.eid ~addr:lv.laddr ~write:true ~sys:false
      ~width:(width_of lv.lty);
  if pre then nv else old

and binop op a b =
  match (op, a, b) with
  | Add, Vptr _, Vint n -> scaled_add a n
  | Add, Vint n, Vptr _ -> scaled_add b n
  | Sub, Vptr _, Vint n -> scaled_add a (-n)
  | Sub, Vptr { addr = x; elem }, Vptr { addr = y; elem = _ } ->
      Vint ((x - y) / sizeof elem)
  | _, _, _ -> (
      let x = as_int a and y = as_int b in
      match op with
      | Add -> Vint (x + y)
      | Sub -> Vint (x - y)
      | Mul -> Vint (x * y)
      | Div -> if y = 0 then error "division by zero" else Vint (x / y)
      | Mod -> if y = 0 then error "modulo by zero" else Vint (x mod y)
      | Shl -> Vint (x lsl (y land 63))
      | Shr -> Vint (x asr (y land 63))
      | Band -> Vint (x land y)
      | Bor -> Vint (x lor y)
      | Bxor -> Vint (x lxor y)
      | Lt -> Vint (if x < y then 1 else 0)
      | Gt -> Vint (if x > y then 1 else 0)
      | Le -> Vint (if x <= y then 1 else 0)
      | Ge -> Vint (if x >= y then 1 else 0)
      | Eq -> Vint (if x = y then 1 else 0)
      | Ne -> Vint (if x <> y then 1 else 0)
      | Land | Lor -> assert false (* short-circuited in eval *))

and lvalue ctx (e : expr) : lval =
  match e.e with
  | Var name -> (
      match ctx.res with
      | Some r -> (
          ctx.resolved_lookups <- ctx.resolved_lookups + 1;
          match r.Resolve.vars.(e.eid) with
          | Resolve.Rslot (i, ty) ->
              { laddr = ctx.cur_slots.(i); lty = ty; lnamed = true }
          | Resolve.Rglobal (i, ty) ->
              { laddr = ctx.global_addrs.(i); lty = ty; lnamed = true }
          | Resolve.Runbound n -> error "undefined variable %s" n
          | Resolve.Rnone -> error "undefined variable %s" name)
      | None ->
          ctx.chain_lookups <- ctx.chain_lookups + 1;
          let v = find_var ctx name in
          { laddr = v.vaddr; lty = v.vty; lnamed = true })
  | Index (base, idx) -> (
      let b = eval ctx base in
      let i = as_int (eval ctx idx) in
      match b with
      | Vptr { addr; elem } ->
          { laddr = addr + (i * sizeof elem); lty = elem; lnamed = false }
      | Vint _ -> error "indexing a non-pointer")
  | Deref p -> (
      match eval ctx p with
      | Vptr { addr; elem } -> { laddr = addr; lty = elem; lnamed = false }
      | Vint addr ->
          (* int used as address after casts; treat as char* *)
          { laddr = addr; lty = Tchar; lnamed = false })
  | Cast (t, a) -> (
      let lv = lvalue ctx a in
      match t with
      | Tptr e -> { lv with lty = Tptr e }
      | t -> { lv with lty = t })
  | _ -> error "expression is not an lvalue"

(* ------------------------------------------------------------------ *)
(* Builtins                                                           *)
(* ------------------------------------------------------------------ *)

and call_builtin ctx name args =
  let int_arg i = as_int (List.nth args i) in
  match name with
  | "malloc" ->
      let size = int_arg 0 in
      if size < 0 then error "malloc of negative size";
      ctx.malloc_bytes <- ctx.malloc_bytes + size;
      Vptr { addr = Layout.alloc_heap ctx.layout ~size; elem = Tchar }
  | "memset" -> (
      match args with
      | [ Vptr { addr; _ }; v; n ] ->
          let v = as_int v and n = as_int n in
          if n < 0 then error "memset with negative size";
          for i = 0 to n - 1 do
            Memory.write_byte ctx.mem (addr + i) v;
            emit_access ctx ~site:site_memset ~addr:(addr + i) ~write:true
              ~sys:true ~width:1
          done;
          Vptr { addr; elem = Tchar }
      | _ -> error "memset expects a pointer first argument")
  | "memcpy" -> (
      match args with
      | [ Vptr { addr = d; _ }; Vptr { addr = s; _ }; n ] ->
          let n = as_int n in
          if n < 0 then error "memcpy with negative size";
          for i = 0 to n - 1 do
            let b = Memory.read_byte ctx.mem (s + i) in
            emit_access ctx ~site:site_memcpy_rd ~addr:(s + i) ~write:false
              ~sys:true ~width:1;
            Memory.write_byte ctx.mem (d + i) b;
            emit_access ctx ~site:site_memcpy_wr ~addr:(d + i) ~write:true
              ~sys:true ~width:1
          done;
          Vptr { addr = d; elem = Tchar }
      | _ -> error "memcpy expects pointer arguments")
  | "abs" -> Vint (abs (int_arg 0))
  | "mc_min" -> Vint (min (int_arg 0) (int_arg 1))
  | "mc_max" -> Vint (max (int_arg 0) (int_arg 1))
  | "mc_rand" ->
      let bound = int_arg 0 in
      if bound <= 0 then error "mc_rand with non-positive bound";
      ctx.rand_state <- ((ctx.rand_state * 1103515245) + 12345) land 0x3fff_ffff;
      Vint (ctx.rand_state mod bound)
  | "print_int" ->
      ctx.output <- int_arg 0 :: ctx.output;
      Vint 0
  | _ -> error "unknown function %s" name

(* ------------------------------------------------------------------ *)
(* Calls and statements                                               *)
(* ------------------------------------------------------------------ *)

and call ctx fname args call_site =
  let argv = List.map (eval ctx) args in
  match Hashtbl.find_opt ctx.funcs fname with
  | None -> call_builtin ctx fname argv
  | Some f ->
      if List.length argv <> List.length f.params then
        error "arity mismatch calling %s" fname;
      let fast = ctx.res <> None in
      let frame =
        {
          scopes = (if fast then [] else [ Hashtbl.create 8 ]);
          slots_tbl = (if fast then None else Some (Hashtbl.create 8));
          prev_slots = ctx.cur_slots;
          saved_sp = Layout.sp ctx.layout;
        }
      in
      let slots =
        match ctx.res with
        | Some r ->
            let n =
              match Hashtbl.find_opt r.Resolve.fun_nslots f.fname with
              | Some n -> n
              | None -> List.length f.params
            in
            Array.make (max n 1) (-1)
        | None -> ctx.cur_slots
      in
      (* Store arguments into the callee frame ("placing arguments to the
         stack"); these stores are real memory traffic. *)
      let slot = ref 0 in
      List.iter2
        (fun (pty, pname) v ->
          let size = sizeof pty in
          let addr = Layout.alloc_stack ctx.layout ~size ~align:(align_of pty) in
          (if fast then begin
             slots.(!slot) <- addr;
             incr slot
           end
           else
             match List.nth_opt frame.scopes 0 with
             | Some scope ->
                 Hashtbl.replace scope pname { vaddr = addr; vty = pty }
             | None -> assert false);
          store_raw ctx addr pty (coerce pty v);
          if ctx.cfg.trace_scalars then
            emit_access ctx ~site:call_site ~addr ~write:true ~sys:false
              ~width:(width_of pty))
        f.params argv;
      ctx.frames <- frame :: ctx.frames;
      ctx.cur_slots <- slots;
      ctx.calls <- ctx.calls + 1;
      ctx.frame_depth <- ctx.frame_depth + 1;
      if ctx.frame_depth > ctx.max_frame_depth then
        ctx.max_frame_depth <- ctx.frame_depth;
      let finish () =
        ctx.frames <- List.tl ctx.frames;
        ctx.frame_depth <- ctx.frame_depth - 1;
        ctx.cur_slots <- frame.prev_slots;
        Layout.restore_sp ctx.layout frame.saved_sp
      in
      let res =
        try
          exec_block ctx f.body;
          Vint 0
        with
        | Ret v ->
            finish ();
            raise (Ret v)
        | exn ->
            finish ();
            raise exn
      in
      finish ();
      res

and call_catch ctx fname args site =
  try call ctx fname args site with Ret v -> v

and exec_block ctx stmts =
  (* Fast path: names are pre-resolved to frame slots, so no dynamic scope
     needs to be pushed — the single biggest saving of the resolver, since
     the reference path allocates a hashtable per loop-body iteration. *)
  if ctx.res <> None then List.iter (exec_stmt ctx) stmts
  else begin
    let frame = List.hd ctx.frames in
    let scope = Hashtbl.create 4 in
    frame.scopes <- scope :: frame.scopes;
    let pop () = frame.scopes <- List.tl frame.scopes in
    (try List.iter (exec_stmt ctx) stmts
     with exn ->
       pop ();
       raise exn);
    pop ()
  end

and tick ctx =
  ctx.steps <- ctx.steps + 1;
  if ctx.steps > ctx.cfg.max_steps then
    raise
      (Budget_hit
         { budget = "max_steps"; limit = ctx.cfg.max_steps; spent = ctx.steps });
  (* Wall-clock deadline: a gettimeofday every 4096 steps is invisible in
     the profile yet bounds overshoot to a few microseconds of work. An
     already-expired deadline is caught at run admission (see [run]), so
     the first periodic check firing only at step 4096 cannot leak a
     "clean" result past a spent budget. *)
  if ctx.steps land 4095 = 0 && ctx.deadline < infinity then begin
    let now = Unix.gettimeofday () in
    if now > ctx.deadline then
      raise
        (Budget_hit
           {
             budget = "deadline_ms";
             limit = Option.value ctx.cfg.deadline_ms ~default:0;
             spent = int_of_float ((now -. ctx.started) *. 1000.0);
           })
  end

and exec_stmt ctx st =
  tick ctx;
  match st.s with
  | Sexpr e -> ignore (eval_full ctx e)
  | Sdecl (ty, name, init) -> exec_decl ctx st.sid ty name init
  | Sif (c, a, b) ->
      if truthy (eval_full ctx c) then exec_block ctx a else exec_block ctx b
  | Sfor (init, cond, step, body) ->
      (match init with None -> () | Some e -> ignore (eval_full ctx e));
      let continue_loop = ref true in
      while !continue_loop do
        tick ctx;
        let go =
          match cond with None -> true | Some c -> truthy (eval_full ctx c)
        in
        if not go then continue_loop := false
        else begin
          (try exec_block ctx body with
          | Brk ->
              continue_loop := false
          | Cont -> ());
          if !continue_loop then
            match step with None -> () | Some e -> ignore (eval_full ctx e)
        end
      done
  | Swhile (c, body) ->
      let continue_loop = ref true in
      while !continue_loop do
        tick ctx;
        if truthy (eval_full ctx c) then begin
          try exec_block ctx body with
          | Brk -> continue_loop := false
          | Cont -> ()
        end
        else continue_loop := false
      done
  | Sdo (body, c) ->
      let continue_loop = ref true in
      while !continue_loop do
        tick ctx;
        (try exec_block ctx body with
        | Brk -> continue_loop := false
        | Cont -> ());
        if !continue_loop && not (truthy (eval_full ctx c)) then
          continue_loop := false
      done
  | Sreturn None -> raise (Ret (Vint 0))
  | Sreturn (Some e) -> raise (Ret (eval_full ctx e))
  | Sbreak -> raise Brk
  | Scontinue -> raise Cont
  | Sblock b -> exec_block ctx b
  | Sswitch (scrut, cases) -> (
      let v = as_int (eval_full ctx scrut) in
      (* first group whose labels match, else the default group *)
      let matches (c : switch_case) =
        List.exists (function Lcase x -> x = v | Ldefault -> false) c.labels
      in
      let is_default (c : switch_case) = List.mem Ldefault c.labels in
      let rec from = function
        | [] -> []
        | c :: rest when matches c -> c :: rest
        | _ :: rest -> from rest
      in
      let selected =
        match from cases with
        | [] -> (
            let rec from_default = function
              | [] -> []
              | c :: rest when is_default c -> c :: rest
              | _ :: rest -> from_default rest
            in
            from_default cases)
        | l -> l
      in
      (* fallthrough across groups until break *)
      try List.iter (fun (c : switch_case) -> exec_block ctx c.body) selected
      with Brk -> ())
  | Scheckpoint (loop, kind) ->
      if ctx.tracing then trace_checkpoint ctx loop kind;
      ctx.events <- ctx.events + 1;
      check_event_budget ctx;
      ctx.sink (Event.Checkpoint { loop; kind = ckind_of_ast kind })

(* One span per loop execution (Loop_enter .. Loop_exit). Early function
   returns can skip a Loop_exit checkpoint, so closing pops every span
   opened since the matching enter; stray exits are ignored. *)
and trace_checkpoint ctx loop kind =
  match kind with
  | Loop_enter ->
      let s = Span.enter ~cat:"loop" (Printf.sprintf "loop%d" loop) in
      ctx.loop_spans <- (loop, s) :: ctx.loop_spans
  | Loop_exit ->
      if List.mem_assoc loop ctx.loop_spans then begin
        let rec pop = function
          | (lid, s) :: rest ->
              Span.leave s;
              if lid = loop then rest else pop rest
          | [] -> []
        in
        ctx.loop_spans <- pop ctx.loop_spans
      end
  | Body_enter | Body_exit -> ()

and eval_full ctx e = try eval ctx e with Ret v -> v

and exec_decl ctx sid ty name init =
  let addr =
    match ctx.res with
    | Some r ->
        let slot = r.Resolve.decl_slots.(sid) in
        let a = ctx.cur_slots.(slot) in
        if a >= 0 then a
        else begin
          let a =
            Layout.alloc_stack ctx.layout ~size:(sizeof ty)
              ~align:(align_of ty)
          in
          ctx.cur_slots.(slot) <- a;
          a
        end
    | None -> (
        let frame = List.hd ctx.frames in
        let slots_tbl = Option.get frame.slots_tbl in
        let addr =
          match Hashtbl.find_opt slots_tbl sid with
          | Some a -> a
          | None ->
              let a =
                Layout.alloc_stack ctx.layout ~size:(sizeof ty)
                  ~align:(align_of ty)
              in
              Hashtbl.add slots_tbl sid a;
              a
        in
        (match frame.scopes with
        | scope :: _ -> Hashtbl.replace scope name { vaddr = addr; vty = ty }
        | [] -> assert false);
        addr)
  in
  match init with
  | None -> ()
  | Some (Iexpr e) ->
      let v = eval_full ctx e in
      store_raw ctx addr ty (coerce ty v);
      if ctx.cfg.trace_scalars then
        emit_access ctx ~site:e.eid ~addr ~write:true ~sys:false
          ~width:(width_of ty)
  | Some (Ilist vals) -> init_array ctx (site_ilist sid) addr ty vals

and init_array ctx site addr ty vals =
  match ty with
  | Tarr (elt, n) ->
      let w = sizeof elt in
      (match elt with
      | Tarr _ -> error "initializer lists only support 1-D arrays"
      | _ -> ());
      for i = 0 to n - 1 do
        let v = match List.nth_opt vals i with Some v -> v | None -> 0 in
        Memory.write ctx.mem (addr + (i * w)) w v;
        emit_access ctx ~site ~addr:(addr + (i * w)) ~write:true ~sys:false
          ~width:w
      done
  | _ -> error "initializer list for a non-array"

(* ------------------------------------------------------------------ *)
(* Program setup and entry                                            *)
(* ------------------------------------------------------------------ *)

let run ?(config = default_config) (prog : program) ~sink =
  let tracing = Span.enabled () in
  let res =
    if config.resolve then
      Span.with_span ~cat:"interp" "interp.resolve" (fun () ->
          Resolve.program prog)
    else None
  in
  let n_globals = match res with Some r -> r.Resolve.n_globals | None -> 0 in
  let started = Unix.gettimeofday () in
  let ctx =
    {
      cfg = config;
      res;
      mem = Memory.create ();
      layout = Layout.create ();
      globals = Hashtbl.create 32;
      global_addrs = Array.make (max n_globals 1) 0;
      funcs = Hashtbl.create 16;
      sink;
      max_events =
        (match config.max_trace_events with Some n -> n | None -> max_int);
      deadline =
        (match config.deadline_ms with
        | Some ms -> started +. (float_of_int ms /. 1000.0)
        | None -> infinity);
      started;
      events = 0;
      cur_slots = [||];
      frames = [];
      steps = 0;
      accesses = 0;
      resolved_lookups = 0;
      chain_lookups = 0;
      calls = 0;
      malloc_bytes = 0;
      frame_depth = 0;
      max_frame_depth = 0;
      rand_state = config.rand_seed land 0x3fff_ffff;
      output = [];
      tracing;
      loop_spans = [];
    }
  in
  (* Allocate globals first so initializers may reference earlier ones. *)
  let gi = ref 0 in
  List.iter
    (function
      | Gvar (ty, name, _) ->
          let addr =
            Layout.alloc_global ctx.layout ~size:(sizeof ty)
              ~align:(align_of ty)
          in
          Hashtbl.replace ctx.globals name { vaddr = addr; vty = ty };
          if !gi < n_globals then ctx.global_addrs.(!gi) <- addr;
          incr gi
      | Gfunc f -> Hashtbl.replace ctx.funcs f.fname f)
    prog.globals;
  (* Run global initializers through a silent copy of the context: startup
     writes are not program memory traffic in the paper's traces. The copy
     shares [mem], [layout] and the symbol tables; its counters are
     discarded. *)
  let silent = { ctx with sink = Event.null_sink } in
  List.iter
    (function
      | Gvar (ty, name, Some init) -> (
          let v = Hashtbl.find ctx.globals name in
          match init with
          | Iexpr e -> store_raw silent v.vaddr ty (coerce ty (eval_full silent e))
          | Ilist vals -> (
              match ty with
              | Tarr (elt, n) ->
                  let w = sizeof elt in
                  for i = 0 to n - 1 do
                    let x =
                      match List.nth_opt vals i with Some x -> x | None -> 0
                    in
                    Memory.write ctx.mem (v.vaddr + (i * w)) w x
                  done
              | _ -> error "list initializer for non-array global %s" name))
      | _ -> ())
    prog.globals;
  ctx.accesses <- 0;
  (* silent ctx shares the mutable counters record? No: record copy; reset. *)
  let drain_spans () =
    List.iter (fun (_, s) -> Span.leave s) ctx.loop_spans;
    ctx.loop_spans <- []
  in
  let stopped = ref Completed in
  let ret =
    let span = if tracing then Span.enter ~cat:"interp" "interp.run" else Span.null in
    Fun.protect
      ~finally:(fun () ->
        if tracing then begin
          drain_spans ();
          Span.leave span
        end)
      (fun () ->
        try
          (* Admission check: a request can arrive with its wall-clock
             deadline already spent (trivially possible under daemon
             queuing). The periodic check in [tick] first fires at step
             4096, so without this gate an expired deadline would still
             execute up to 4095 steps and report a clean completion. *)
          if ctx.deadline < infinity && Unix.gettimeofday () >= ctx.deadline
          then
            raise
              (Budget_hit
                 {
                   budget = "deadline_ms";
                   limit = Option.value config.deadline_ms ~default:0;
                   spent =
                     int_of_float
                       ((Unix.gettimeofday () -. started) *. 1000.0);
                 });
          match Hashtbl.find_opt ctx.funcs "main" with
          | None -> error "program has no main"
          | Some _ ->
              let call_eid = 0 in
              as_int (call_catch ctx "main" [] call_eid)
        with
        | Budget_hit b ->
            (* A budget stop is a clean, partial run: everything already
               pushed into the sink is a valid trace prefix. *)
            stopped := Stopped b;
            0
        | Runtime_error msg ->
            raise (Runtime_error_at { msg; step = ctx.steps }))
  in
  if Obs.enabled () then begin
    Obs.incr m_runs;
    Obs.add m_steps ctx.steps;
    Obs.add m_accesses ctx.accesses;
    Obs.add m_resolved_lookups ctx.resolved_lookups;
    Obs.add m_chain_lookups ctx.chain_lookups;
    Obs.add m_calls ctx.calls;
    Obs.add m_malloc_bytes ctx.malloc_bytes;
    Obs.set_max m_max_frame_depth ctx.max_frame_depth;
    Obs.event "interp.run"
      ~fields:
        [
          ("steps", string_of_int ctx.steps);
          ("accesses", string_of_int ctx.accesses);
          ("ret", string_of_int ret);
        ]
  end;
  { ret; output = List.rev ctx.output; steps = ctx.steps;
    accesses = ctx.accesses; stopped = !stopped }
