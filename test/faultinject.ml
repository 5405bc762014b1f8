module Prng = Foray_util.Prng

type kind =
  | Bit_flip
  | Truncate
  | Duplicate_span
  | Insert_garbage
  | Zero_span
  | Stall

let all = [ Bit_flip; Truncate; Duplicate_span; Insert_garbage; Zero_span; Stall ]

let name = function
  | Bit_flip -> "bit-flip"
  | Truncate -> "truncate"
  | Duplicate_span -> "duplicate-span"
  | Insert_garbage -> "insert-garbage"
  | Zero_span -> "zero-span"
  | Stall -> "stall"

(* Spans are kept short relative to the input so a mutant is damaged, not
   unrecognizable: salvage has something to resynchronize onto. *)
let span_at prng len =
  let start = Prng.int prng len in
  let max_len = min 32 (len - start) in
  (start, 1 + Prng.int prng max_len)

let apply prng kind s =
  let len = String.length s in
  if len = 0 then s
  else
    match kind with
    | Stall -> s
    | Bit_flip ->
        let b = Bytes.of_string s in
        let i = Prng.int prng len in
        let bit = Prng.int prng 8 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        Bytes.to_string b
    | Truncate ->
        (* Keep at least one byte gone; possibly everything. *)
        String.sub s 0 (Prng.int prng len)
    | Duplicate_span ->
        let start, n = span_at prng len in
        let span = String.sub s start n in
        let at = Prng.int prng (len + 1) in
        String.sub s 0 at ^ span ^ String.sub s at (len - at)
    | Insert_garbage ->
        let n = 1 + Prng.int prng 16 in
        let garbage =
          String.init n (fun _ -> Char.chr (Prng.int prng 256))
        in
        let at = Prng.int prng (len + 1) in
        String.sub s 0 at ^ garbage ^ String.sub s at (len - at)
    | Zero_span ->
        let start, n = span_at prng len in
        let b = Bytes.of_string s in
        Bytes.fill b start n '\000';
        Bytes.to_string b

type verdict = Clean | Degraded | Typed_failure | Escaped of string

type report = {
  runs : int;
  clean : int;
  degraded : int;
  typed : int;
  escaped : (int * kind * string) list;
  per_kind : (kind * int) list;
}

let campaign ~seed ~runs ~bytes ~run =
  let prng = Prng.create seed in
  let kinds = Array.of_list all in
  let clean = ref 0 and degraded = ref 0 and typed = ref 0 in
  let escaped = ref [] in
  let per_kind = Hashtbl.create 8 in
  for i = 0 to runs - 1 do
    let kind = kinds.(i mod Array.length kinds) in
    Hashtbl.replace per_kind kind
      (1 + Option.value ~default:0 (Hashtbl.find_opt per_kind kind));
    let mutant = apply prng kind bytes in
    let verdict =
      try run kind mutant with exn -> Escaped (Printexc.to_string exn)
    in
    match verdict with
    | Clean -> incr clean
    | Degraded -> incr degraded
    | Typed_failure -> incr typed
    | Escaped e -> escaped := (i, kind, e) :: !escaped
  done;
  {
    runs;
    clean = !clean;
    degraded = !degraded;
    typed = !typed;
    escaped = List.rev !escaped;
    per_kind =
      List.filter_map
        (fun k ->
          Option.map (fun n -> (k, n)) (Hashtbl.find_opt per_kind k))
        all;
  }

let report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%d run(s): %d clean, %d degraded, %d typed failure(s), %d escaped\n"
       r.runs r.clean r.degraded r.typed (List.length r.escaped));
  List.iter
    (fun (k, n) ->
      Buffer.add_string b (Printf.sprintf "  %-16s %d mutation(s)\n" (name k) n))
    r.per_kind;
  List.iter
    (fun (i, k, e) ->
      Buffer.add_string b
        (Printf.sprintf "  ESCAPED run %d (%s): %s\n" i (name k) e))
    r.escaped;
  Buffer.contents b
