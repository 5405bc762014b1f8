module Model = Foray_core.Model
module Pipeline = Foray_core.Pipeline
module Event = Foray_trace.Event
module Loopwalk = Foray_trace.Loopwalk
module Interp = Minic_sim.Interp
module Obs = Foray_obs.Obs
module Span = Foray_obs.Span

type counterexample = {
  cx_site : int;
  cx_path : int list;
  cx_iters : (int * int) list;
  cx_base : int;
  cx_predicted : int;
  cx_actual : int;
  cx_exec : int;
  cx_event : int;
}

type verdict = Proved | Diverges of counterexample

type ref_verdict = {
  mref : Model.mref;
  path : int list;
  checked : int;
  exact : int;
  rebases : int;
  verdict : verdict;
}

type report = {
  refs : ref_verdict list;
  covered : int;
  uncovered : int;
  events : int;
}

let proved rep =
  List.length (List.filter (fun r -> r.verdict = Proved) rep.refs)

let diverged rep = List.length rep.refs - proved rep

let unseen rep =
  List.length
    (List.filter (fun r -> r.verdict = Proved && r.checked = 0) rep.refs)

let accuracy rep =
  let sum f = List.fold_left (fun a r -> a + f r) 0 rep.refs in
  let checked = sum (fun r -> r.checked) in
  if checked = 0 then 1.0
  else float_of_int (sum (fun r -> r.exact)) /. float_of_int checked

let all_proved rep = List.for_all (fun r -> r.verdict = Proved) rep.refs

let first_divergence rep =
  List.find_map
    (fun r -> match r.verdict with Diverges cx -> Some (r, cx) | Proved -> None)
    rep.refs

(* ------------------------------------------------------------------ *)
(* The walker                                                         *)

(* Mutable verification state per model reference. *)
type cell = {
  c_mref : Model.mref;
  c_rpath : int list;
  mutable c_base : int;  (** constant in effect (re-based for partials) *)
  mutable c_seen : bool;
  mutable c_checked : int;
  mutable c_exact : int;
  mutable c_rebases : int;
  mutable c_excl : int list;  (** excluded-iterator values at previous exec *)
  mutable c_cx : counterexample option;  (** first divergence *)
}

type walker = {
  walk : Loopwalk.t;
  table : (int list * int, cell) Hashtbl.t;  (** key: model path, site *)
  resolved : (int * int, cell option) Hashtbl.t;
      (** key: walker context, site — each pair resolved against [table]
          once *)
  mutable covered : int;
  mutable uncovered : int;
  mutable events : int;
}

let build (model : Model.t) =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (chain, (mref : Model.mref)) ->
      let path = List.map (fun (l : Model.mloop) -> l.lid) chain in
      Hashtbl.replace table (path, mref.site)
        {
          c_mref = mref;
          c_rpath = path;
          c_base = mref.const;
          c_seen = false;
          c_checked = 0;
          c_exact = 0;
          c_rebases = 0;
          c_excl = [];
          c_cx = None;
        })
    (Model.all_refs model);
  {
    walk = Loopwalk.create ();
    table;
    resolved = Hashtbl.create 64;
    covered = 0;
    uncovered = 0;
    events = 0;
  }

(* Evaluate [base + sum c*i] with iterator values looked up by loop id,
   innermost occurrence first — the same discipline Algorithm 3 uses. *)
let eval_terms terms base iter_of =
  List.fold_left (fun acc (c, lid) -> acc + (c * iter_of lid)) base terms

let cell_at w site =
  let key = (Loopwalk.ctx w.walk, site) in
  match Hashtbl.find_opt w.resolved key with
  | Some cell -> cell
  | None ->
      let cell =
        Hashtbl.find_opt w.table (Loopwalk.path w.walk (fst key), site)
      in
      Hashtbl.add w.resolved key cell;
      cell

let check w cell site addr =
  w.covered <- w.covered + 1;
  let iter_of = Loopwalk.iter_of w.walk in
  if not cell.c_seen then begin
    cell.c_seen <- true;
    (* partial references: establish the base at first sighting (their
       constant only describes the last extraction span); full affine
       references keep the model's absolute constant *)
    if cell.c_mref.Model.partial then begin
      let predicted = eval_terms cell.c_mref.Model.terms cell.c_base iter_of in
      cell.c_base <- cell.c_base + (addr - predicted)
    end
  end;
  let predicted = eval_terms cell.c_mref.Model.terms cell.c_base iter_of in
  (* the access matched this reference's full path, so the walker's frames
     are its innermost-first iteration vector and the excluded iterators
     are the positions at or beyond [m] *)
  let m = cell.c_mref.Model.m in
  let excl =
    List.init
      (max 0 (Loopwalk.depth w.walk - m))
      (fun k -> Loopwalk.iter_at w.walk (m + k))
  in
  if predicted = addr then cell.c_exact <- cell.c_exact + 1
  else begin
    if cell.c_mref.Model.partial && excl <> cell.c_excl then begin
      (* an excluded iterator moved: the documented legitimate re-base
         point of a partial reference *)
      cell.c_rebases <- cell.c_rebases + 1;
      cell.c_base <- cell.c_base + (addr - predicted)
    end
    else begin
      (* divergence: the affine window failed on its own ground *)
      if cell.c_cx = None then
        cell.c_cx <-
          Some
            {
              cx_site = site;
              cx_path = cell.c_rpath;
              cx_iters =
                List.init (Loopwalk.depth w.walk) (fun i ->
                    (Loopwalk.lid_at w.walk i, Loopwalk.iter_at w.walk i));
              cx_base = cell.c_base;
              cx_predicted = predicted;
              cx_actual = addr;
              cx_exec = cell.c_checked;
              cx_event = w.events;
            };
      (* keep partial bases tracking the stream so later executions are
         still checked against something meaningful; full refs stay on
         the absolute constant *)
      if cell.c_mref.Model.partial then
        cell.c_base <- cell.c_base + (addr - predicted)
    end
  end;
  cell.c_checked <- cell.c_checked + 1;
  cell.c_excl <- excl

let on_event w = function
  | Event.Checkpoint { loop; kind } -> Loopwalk.checkpoint w.walk kind loop
  | Event.Access { site; addr; _ } ->
      (match cell_at w site with
      | None -> w.uncovered <- w.uncovered + 1
      | Some cell -> check w cell site addr);
      w.events <- w.events + 1

let finish w =
  let refs =
    Hashtbl.fold
      (fun _ c acc ->
        {
          mref = c.c_mref;
          path = c.c_rpath;
          checked = c.c_checked;
          exact = c.c_exact;
          rebases = c.c_rebases;
          verdict =
            (match c.c_cx with None -> Proved | Some cx -> Diverges cx);
        }
        :: acc)
      w.table []
    |> List.sort (fun a b ->
           compare (a.path, a.mref.Model.site) (b.path, b.mref.Model.site))
  in
  { refs; covered = w.covered; uncovered = w.uncovered; events = w.events }

let sink model =
  let w = build model in
  ((fun e -> on_event w e), fun () -> finish w)

let verify model events =
  let s, get = sink model in
  List.iter s events;
  get ()

(* ------------------------------------------------------------------ *)
(* Verification from source                                           *)

let t_replay = Obs.timer "verify.replay"

(* The simulator is deterministic for a given config, so the replay
   reproduces the first pass event for event. A wall-clock deadline is
   the one bound that is not: a deadline stop at step [n] becomes a step
   bound that trips at the same tick ([tick] checks [max_steps] just
   before the deadline). *)
let replay_config (config : Interp.config) (sim : Interp.result) =
  let config = { config with deadline_ms = None } in
  match sim.stopped with
  | Interp.Stopped { budget = "deadline_ms"; _ } ->
      { config with max_steps = sim.steps - 1 }
  | Interp.Stopped _ | Interp.Completed -> config

let of_source ?(config = Interp.default_config) ?thresholds ?shards ?jobs
    ?(edit = Fun.id) src =
  Result.map
    (fun (o : Pipeline.outcome) ->
      let r = o.result in
      let s, report = sink (edit r.model) in
      Span.with_span ~cat:"verify" "verify.replay" (fun () ->
          Obs.time t_replay (fun () ->
              ignore
                (Interp.run ~config:(replay_config config r.sim)
                   r.instrumented ~sink:s)));
      (o, report ()))
    (Pipeline.run_source ~config ?thresholds ?shards ?jobs src)

(* ------------------------------------------------------------------ *)
(* Counterexample re-simulation                                       *)

let predict_at (mref : Model.mref) ~base ~iters =
  let iter_of lid =
    match List.find_opt (fun (l, _) -> l = lid) iters with
    | Some (_, v) -> v
    | None -> 0
  in
  eval_terms mref.Model.terms base iter_of

let faithful (mref : Model.mref) cx =
  let again = predict_at mref ~base:cx.cx_base ~iters:cx.cx_iters in
  again = cx.cx_predicted && again <> cx.cx_actual

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)

let verdict_name = function Proved -> "proved" | Diverges _ -> "diverges"

let path_to_string path =
  "[" ^ String.concat ">" (List.map string_of_int path) ^ "]"

let iters_to_string iters =
  String.concat " "
    (List.map (fun (l, v) -> Printf.sprintf "i%d=%d" l v) iters)

let counterexample_to_string cx =
  Printf.sprintf
    "exec #%d (event #%d) at %s %s: predicted %d, actual %d (delta %+d), \
     base %d"
    cx.cx_exec cx.cx_event (path_to_string cx.cx_path)
    (iters_to_string cx.cx_iters)
    cx.cx_predicted cx.cx_actual
    (cx.cx_actual - cx.cx_predicted)
    cx.cx_base

let counterexample_to_json cx =
  Printf.sprintf
    "{\"site\": %d, \"path\": [%s], \"iters\": [%s], \"base\": %d, \
     \"predicted\": %d, \"actual\": %d, \"exec\": %d, \"event\": %d}"
    cx.cx_site
    (String.concat ", " (List.map string_of_int cx.cx_path))
    (String.concat ", "
       (List.map
          (fun (l, v) -> Printf.sprintf "{\"loop\": %d, \"iter\": %d}" l v)
          cx.cx_iters))
    cx.cx_base cx.cx_predicted cx.cx_actual cx.cx_exec cx.cx_event

let ref_to_string r =
  let m = r.mref in
  let shape =
    if m.Model.partial then
      Printf.sprintf "partial m=%d/%d" m.Model.m m.Model.depth
    else "full affine"
  in
  let head =
    Printf.sprintf "%-8s %s %-18s %s  checked %d  rebases %d"
      (Model.array_name m.Model.site)
      (match r.verdict with Proved -> "PROVED  " | Diverges _ -> "DIVERGES")
      (path_to_string r.path) shape r.checked r.rebases
  in
  match r.verdict with
  | Proved -> head
  | Diverges cx -> head ^ "\n    first divergence: " ^ counterexample_to_string cx

let report_to_string rep =
  let buf = Buffer.create 512 in
  List.iter
    (fun r ->
      Buffer.add_string buf (ref_to_string r);
      Buffer.add_char buf '\n')
    rep.refs;
  Printf.bprintf buf
    "verify: %d reference(s): %d proved (%d unseen), %d diverged; %d/%d \
     access(es) covered\n"
    (List.length rep.refs) (proved rep) (unseen rep) (diverged rep)
    rep.covered rep.events;
  Printf.bprintf buf
    "model covers %d of %d accesses; prediction accuracy %.2f%%\n"
    rep.covered (rep.covered + rep.uncovered)
    (100.0 *. accuracy rep);
  Buffer.contents buf

let report_to_json rep =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"refs\": [";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ", ";
      let m = r.mref in
      Printf.bprintf buf
        "{\"site\": %d, \"array\": \"%s\", \"path\": [%s], \"expr\": \
         \"%s\", \"partial\": %b, \"depth\": %d, \"m\": %d, \"checked\": \
         %d, \"rebases\": %d, \"verdict\": \"%s\""
        m.Model.site
        (Model.array_name m.Model.site)
        (String.concat ", " (List.map string_of_int r.path))
        (Model.expr_of_ref m) m.Model.partial m.Model.depth m.Model.m
        r.checked r.rebases (verdict_name r.verdict);
      (match r.verdict with
      | Proved -> ()
      | Diverges cx ->
          Printf.bprintf buf ", \"counterexample\": %s"
            (counterexample_to_json cx));
      Buffer.add_char buf '}')
    rep.refs;
  Printf.bprintf buf
    "], \"proved\": %d, \"diverged\": %d, \"unseen\": %d, \"covered\": %d, \
     \"uncovered\": %d, \"events\": %d}"
    (proved rep) (diverged rep) (unseen rep) rep.covered rep.uncovered
    rep.events;
  Buffer.contents buf
