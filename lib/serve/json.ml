type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of int * string

let fail pos msg = raise (Bad (pos, msg))

(* UTF-8 encode one code point (for \uXXXX escapes). Surrogate pairs are
   combined by the caller. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail !pos (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail !pos (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail !pos "truncated \\u escape";
    let digit i =
      match s.[!pos + i] with
      | '0' .. '9' as c -> Char.code c - 48
      | 'a' .. 'f' as c -> Char.code c - 87
      | 'A' .. 'F' as c -> Char.code c - 55
      | _ -> fail !pos "bad \\u escape"
    in
    let v =
      (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3
    in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail !pos "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail !pos "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'; advance ()
             | '\\' -> Buffer.add_char buf '\\'; advance ()
             | '/' -> Buffer.add_char buf '/'; advance ()
             | 'b' -> Buffer.add_char buf '\b'; advance ()
             | 'f' -> Buffer.add_char buf '\012'; advance ()
             | 'n' -> Buffer.add_char buf '\n'; advance ()
             | 'r' -> Buffer.add_char buf '\r'; advance ()
             | 't' -> Buffer.add_char buf '\t'; advance ()
             | 'u' ->
                 advance ();
                 let cp = hex4 () in
                 let cp =
                   (* high surrogate: consume the paired low surrogate *)
                   if cp >= 0xD800 && cp <= 0xDBFF && !pos + 6 <= n
                      && s.[!pos] = '\\'
                      && s.[!pos + 1] = 'u'
                   then begin
                     pos := !pos + 2;
                     let lo = hex4 () in
                     if lo >= 0xDC00 && lo <= 0xDFFF then
                       0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                     else fail !pos "unpaired surrogate"
                   end
                   else cp
                 in
                 add_utf8 buf cp
             | c -> fail !pos (Printf.sprintf "bad escape '\\%c'" c));
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' -> true
      | '.' | 'e' | 'E' | '+' | '-' ->
          is_float := true;
          true
      | _ -> false
    do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail start "bad number"
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> fail start "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail !pos "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail !pos "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail !pos (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos < n then fail !pos "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Bad (p, msg) -> Error (Printf.sprintf "%s at byte %d" msg p)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let str_field key j =
  match member key j with
  | None | Some Null -> Ok None
  | Some (Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" key)

let int_field key j =
  match member key j with
  | None | Some Null -> Ok None
  | Some (Int i) -> Ok (Some i)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" key)

let bool_field key j =
  match member key j with
  | None | Some Null -> Ok None
  | Some (Bool b) -> Ok (Some b)
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" key)
