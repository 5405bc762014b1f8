let tokens line =
  String.split_on_char ' ' (String.trim line)
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let hex_of s =
  let s =
    if String.length s > 2 && (String.sub s 0 2 = "0x" || String.sub s 0 2 = "0X")
    then String.sub s 2 (String.length s - 2)
    else s
  in
  int_of_string_opt ("0x" ^ s)

let kind_of = function
  | "r" | "rd" | "read" | "R" -> Some false
  | "w" | "wr" | "write" | "W" -> Some true
  | _ -> None

let parse_line line =
  match tokens line with
  | [] -> Ok None
  | t :: _ when String.length t > 0 && t.[0] = '#' -> Ok None
  | [ loop; ck ] -> (
      match (int_of_string_opt loop, Event.ckind_of_string ck) with
      | Some loop, Ok kind -> Ok (Some (Event.Checkpoint { loop; kind }))
      | None, _ -> Error (Printf.sprintf "bad loop id %S" loop)
      | _, Error e -> Error e)
  | site :: addr :: kind :: rest -> (
      match (hex_of site, hex_of addr, kind_of kind) with
      | Some site, Some addr, Some write -> (
          let width, rest =
            match rest with
            | w :: more when int_of_string_opt w <> None ->
                (int_of_string w, more)
            | _ -> (4, rest)
          in
          match rest with
          | [] ->
              Ok (Some (Event.Access { site; addr; write; sys = false; width }))
          | [ "sys" ] ->
              Ok (Some (Event.Access { site; addr; write; sys = true; width }))
          | junk :: _ -> Error (Printf.sprintf "trailing token %S" junk))
      | None, _, _ -> Error (Printf.sprintf "bad hex site %S" site)
      | _, None, _ -> Error (Printf.sprintf "bad hex address %S" addr)
      | _, _, None -> Error (Printf.sprintf "bad access kind %S" kind))
  | [ only ] -> Error (Printf.sprintf "lone token %S" only)

let max_first_errors = 5

let read ?(strict = false) path =
  In_channel.with_open_text path (fun ic ->
      let events = ref [] and n = ref 0 in
      let offset = ref 0 in
      let resyncs = ref 0 and bytes_skipped = ref 0 in
      let first_errors = ref [] and in_bad_run = ref false in
      let corrupt = ref None in
      (try
         while !corrupt = None do
           match In_channel.input_line ic with
           | None -> raise Exit
           | Some line ->
               let here = !offset in
               offset := !offset + String.length line + 1;
               let parsed =
                 match parse_line line with
                 | Ok (Some e) as r -> (
                     match Event.invalid e with Some k -> Error k | None -> r)
                 | r -> r
               in
               (match parsed with
               | Ok None -> in_bad_run := false
               | Ok (Some e) ->
                   in_bad_run := false;
                   events := e :: !events;
                   incr n
               | Error kind ->
                   if strict then
                     corrupt :=
                       Some
                         { Tracefile.offset = here; kind; events_before = !n }
                   else begin
                     if not !in_bad_run then incr resyncs;
                     in_bad_run := true;
                     bytes_skipped := !bytes_skipped + String.length line + 1;
                     if List.length !first_errors < max_first_errors then
                       first_errors := (here, kind) :: !first_errors
                   end)
         done
       with Exit -> ());
      match !corrupt with
      | Some c -> Error c
      | None ->
          let arr = Array.of_list (List.rev !events) in
          Ok
            ( arr,
              {
                Tracefile.events = !n;
                resyncs = !resyncs;
                bytes_skipped = !bytes_skipped;
                truncated_tail = false;
                first_errors = List.rev !first_errors;
              } ))
