(* `foraybench compare A/*.json B/*.json`: parent runs (A) against change
   runs (B), metric by metric and workload by workload. Each side's median
   and quartiles are printed with a verdict:
   - improved: B wins at least 9 of 10 pairs (run i of A against run i of
     B, ties counting for neither) and the medians differ, in B's favour,
     by more than A's interquartile range;
   - regressed: B's median is worse than A's by more than the metric's
     bound in BENCHMARK.json;
   - unresolved: either side's IQR/median is wider than the bound, unless
     every run of B reads better than every run of A;
   - no worse: otherwise.
   Per-layer metrics have no bound and get no verdict. *)

module Json = Foray_serve.Json

type decl = { better : Metrics.better; bound : float option }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_file path =
  match Json.parse (read_file path) with
  | Ok j -> j
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

let num = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

(* The declared metrics of a BENCHMARK.json: (section, name, unit, decl). *)
let declared path =
  let j = parse_file path in
  let section key =
    match Json.member key j with
    | Some (Json.Arr l) ->
        List.map
          (fun m ->
            let s k = Option.value (Daemon.str_member k m) ~default:"" in
            ( key,
              s "name",
              s "unit",
              {
                better = (if s "better" = "higher" then Metrics.Higher else Lower);
                bound = Option.bind (Json.member "bound" m) num;
              } ))
          l
    | _ -> failwith (path ^ ": no " ^ key ^ " array")
  in
  section "end_to_end" @ section "per_layer"

(* (workload, metric) -> value, from one run JSON written by --out. *)
let run_values j =
  match Json.member "workloads" j with
  | Some (Json.Obj ws) ->
      List.concat_map
        (fun (w, r) ->
          match Json.member "metrics" r with
          | Some (Json.Obj ms) ->
              List.filter_map
                (fun (name, m) ->
                  Option.bind (Json.member "value" m) num
                  |> Option.map (fun v -> ((w, name), v)))
                ms
          | _ -> [])
        ws
  | _ -> []

let expand arg =
  if Sys.is_directory arg then
    Sys.readdir arg |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (Filename.concat arg)
  else [ arg ]

let better_than d a b =
  match d.better with Metrics.Lower -> a < b | Higher -> a > b

let verdict d a b =
  let iqr x = let q1, _, q3 = Meter.quartiles x in q3 -. q1 in
  let pairs = min (Array.length a) (Array.length b) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better_than d b.(i) a.(i) then incr wins
  done;
  let all_better =
    Array.for_all (fun x -> Array.for_all (fun y -> better_than d x y) a) b
  in
  match d.bound with
  | None -> "-"
  | Some bound ->
      let ma = Meter.median a and mb = Meter.median b in
      let worse =
        match d.better with Lower -> mb -. ma | Higher -> ma -. mb
      in
      let spread x m = if m = 0.0 then infinity else iqr x /. Float.abs m in
      if
        pairs > 0
        && float_of_int !wins >= 0.9 *. float_of_int pairs
        && worse < 0.0
        && Float.abs (mb -. ma) > iqr a
      then "improved"
      else if worse > bound *. Float.abs ma then "regressed"
      else if (spread a ma > bound || spread b mb > bound) && not all_better
      then "unresolved"
      else "no worse"

let run ~benchmark args =
  let files = List.concat_map expand args in
  let a_dir, b_dir =
    match List.sort_uniq compare (List.map Filename.dirname files) with
    | [ a; b ] ->
        (* the first side named on the command line is the parent *)
        if Filename.dirname (List.hd files) = a then (a, b) else (b, a)
    | _ ->
        failwith
          "compare: give the runs of exactly two directories (A/*.json B/*.json)"
  in
  let side dir =
    List.filter (fun f -> Filename.dirname f = dir) files
    |> List.map (fun f -> run_values (parse_file f))
  in
  let a = side a_dir and b = side b_dir in
  let workloads =
    List.sort_uniq compare
      (List.concat_map (List.map (fun ((w, _), _) -> w)) (a @ b))
  in
  let regressed = ref false in
  Printf.printf "A = %s (%d runs), B = %s (%d runs)\n" a_dir (List.length a)
    b_dir (List.length b);
  let row = Printf.printf "%-14s %-36s %-34s %-34s %s\n" in
  row "workload" "metric" "A median [q1, q3]" "B median [q1, q3]" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (_, name, _, d) ->
          let values runs =
            Array.of_list (List.filter_map (List.assoc_opt (w, name)) runs)
          in
          let va = values a and vb = values b in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let show v =
              let q1, med, q3 = Meter.quartiles v in
              Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3
            in
            let v = verdict d va vb in
            if v = "regressed" then regressed := true;
            row w name (show va) (show vb) v
          end)
        (declared benchmark))
    workloads;
  if !regressed then 1 else 0
