(* Clocks, order statistics and process probes shared by every workload. *)

(* Seconds on the monotonic clock, to the nanosecond: cache hits of the
   daemon answer in tens of microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted_copy a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Python's statistics.median: the mean of the two middle values for an
   even count. *)
let median a =
  let s = sorted_copy a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it. *)
let percentile a p =
  let s = sorted_copy a in
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* Python's statistics.quantiles(data, n=4) (the default 'exclusive'
   method), so quartiles printed here match the ones the acceptance check
   computes. *)
let quartiles a =
  let s = sorted_copy a in
  let ld = Array.length s in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (s.(0), s.(0), s.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* VmHWM (peak resident set) of a process, in MiB; [None] when /proc has
   no such entry. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:"
                then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d" (fun kb -> Some (float_of_int kb /. 1024.0))
                else scan ()
          in
          scan ())

let self_peak_rss_mb () = Option.value (peak_rss_mb "self") ~default:nan

let nproc () = Domain.recommended_domain_count ()

(* A deterministic permutation of [l] drawn from [rng]. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Foray_util.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

(* Scratch space for the files a run writes (recorded traces, the daemon
   socket): a per-process directory under [.foraybench/] relative to the
   working directory, so a run reads and writes only inside its checkout.
   Removed when the process exits. The path stays short because socket
   paths are limited to ~100 bytes. *)
let run_dir =
  lazy
    (let root = ".foraybench" in
     let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
     (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     Unix.mkdir dir 0o755;
     at_exit (fun () ->
         (try rm_rf dir with Unix.Unix_error _ | Sys_error _ -> ());
         try Unix.rmdir root with Unix.Unix_error _ -> ());
     dir)

let run_file name = Filename.concat (Lazy.force run_dir) name
