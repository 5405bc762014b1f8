type ckind = Loop_enter | Body_enter | Body_exit | Loop_exit

type access = {
  site : int;
  addr : int;
  write : bool;
  sys : bool;
  width : int;
}

type event =
  | Checkpoint of { loop : int; kind : ckind }
  | Access of access

type sink = event -> unit

let null_sink : sink = fun _ -> ()
let tee a b : sink = fun e -> a e; b e

let collector () =
  let acc = ref [] in
  let sink e = acc := e :: !acc in
  (sink, fun () -> List.rev !acc)

let string_of_ckind = function
  | Loop_enter -> "loop_enter"
  | Body_enter -> "body_enter"
  | Body_exit -> "body_exit"
  | Loop_exit -> "loop_exit"

let ckind_of_string = function
  | "loop_enter" -> Ok Loop_enter
  | "body_enter" -> Ok Body_enter
  | "body_exit" -> Ok Body_exit
  | "loop_exit" -> Ok Loop_exit
  | s -> Error ("unknown checkpoint kind " ^ s)

let to_line = function
  | Checkpoint { loop; kind } ->
      Printf.sprintf "Checkpoint: %d %s" loop (string_of_ckind kind)
  | Access { site; addr; write; sys; width } ->
      Printf.sprintf "Instr: %x addr: %x %s %d%s" site addr
        (if write then "wr" else "rd")
        width
        (if sys then " sys" else "")

let invalid = function
  | Checkpoint { loop; _ } -> if loop < 0 then Some "negative loop id" else None
  | Access { site; addr; width; _ } ->
      if site < 0 then Some "negative site"
      else if addr < 0 then Some "negative address"
      else if width < 0 then Some "negative width"
      else None

(* [result]-based parsing: the parser reports what is wrong, the caller
   (in practice only {!Tracefile}) decides whether a bad record is fatal
   or a resynchronization point. *)

let ( let* ) = Result.bind

let int_field what s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "Checkpoint:"; loop; kind ] ->
      let* loop = int_field "loop id" loop in
      let* kind = ckind_of_string kind in
      Ok (Checkpoint { loop; kind })
  | "Instr:" :: site :: "addr:" :: addr :: dir :: width :: rest ->
      let* write =
        match dir with
        | "wr" -> Ok true
        | "rd" -> Ok false
        | _ -> Error ("bad direction " ^ dir)
      in
      let* sys =
        match rest with
        | [] -> Ok false
        | [ "sys" ] -> Ok true
        | _ -> Error ("trailing junk after " ^ dir ^ " record")
      in
      let* site = int_field "site" ("0x" ^ site) in
      let* addr = int_field "address" ("0x" ^ addr) in
      let* width = int_field "width" width in
      Ok (Access { site; addr; write; sys; width })
  | _ -> Error "not a trace record"

let to_string events = String.concat "\n" (List.map to_line events) ^ "\n"

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.trim l <> "")
  in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
        match of_line l with
        | Ok e -> go (e :: acc) (lineno + 1) rest
        | Error msg -> Error (Printf.sprintf "record %d: %s" lineno msg))
  in
  go [] 1 lines

let equal a b = a = b
let pp fmt e = Format.pp_print_string fmt (to_line e)
