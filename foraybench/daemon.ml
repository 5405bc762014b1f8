(* A forayd daemon in a child process, and the client side of its wire.

   The child is forked before this process starts any domain or thread
   (forking a multi-domain OCaml process is unsafe), runs [Serve.run] with
   one pool worker per CPU, and answers on a socket inside the run
   directory. The benchmark's load then comes from this process alone, and
   the daemon's peak RSS is its own. *)

module Serve = Foray_serve.Serve
module Json = Foray_serve.Json

type t = { pid : int; socket : string; mutable alive : bool }

let started = ref 0

let request_line fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields)
  ^ "}"

let str s = "\"" ^ Foray_core.Error.json_escape s ^ "\""

let reap d =
  if d.alive then begin
    d.alive <- false;
    ignore (Unix.waitpid [] d.pid)
  end

let kill d =
  if d.alive then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap d
  end

let ping socket =
  match Serve.Client.connect socket with
  | exception Unix.Unix_error _ -> false
  | c ->
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          match Serve.Client.request c (request_line [ ("op", str "ping") ]) with
          | exception (Failure _ | Unix.Unix_error _) -> false
          | _ -> true)

let start () =
  incr started;
  let socket = Meter.run_file (Printf.sprintf "d%d.sock" !started) in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* the parent's handlers exit through its at_exit cleanups *)
      List.iter
        (fun s -> Sys.set_signal s Sys.Signal_default)
        [ Sys.sigterm; Sys.sigint ];
      let code =
        match
          Serve.run
            { (Serve.default_config ~socket_path:socket) with jobs = Meter.nproc () }
        with
        | () -> 0
        | exception _ -> 2
      in
      Unix._exit code
  | pid ->
      let d = { pid; socket; alive = true } in
      at_exit (fun () -> kill d);
      let deadline = Meter.now () +. 30.0 in
      let rec wait () =
        if ping socket then ()
        else
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | p, _ when p = pid ->
              d.alive <- false;
              failwith "forayd exited during start-up"
          | _ ->
              if Meter.now () > deadline then begin
                kill d;
                failwith "forayd did not answer within 30 s"
              end;
              Unix.sleepf 0.005;
              wait ()
      in
      wait ();
      d

let peak_rss_mb d =
  Option.value (Meter.peak_rss_mb (string_of_int d.pid)) ~default:nan

let stop d =
  if d.alive then begin
    (try Serve.Client.shutdown d.socket
     with Unix.Unix_error _ | Failure _ -> kill d);
    reap d
  end

(* One request on an open connection: the parsed response (None when the
   connection failed or the reply was not JSON) and its latency in ms,
   from sending the request to receiving the whole reply line. *)
let call c line =
  let t0 = Meter.now () in
  match Serve.Client.request c line with
  | exception (Failure _ | Unix.Unix_error _) ->
      (None, (Meter.now () -. t0) *. 1000.0)
  | resp ->
      let ms = (Meter.now () -. t0) *. 1000.0 in
      (Result.to_option (Json.parse resp), ms)

let ok reply =
  match reply with
  | Some j -> Json.member "status" j = Some (Json.Str "ok")
  | None -> false

let str_member k j =
  match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let num_member k j =
  match Json.member k j with
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

(* A counter from the daemon's [metrics] op, 0 when absent. *)
let counter d name =
  let c = Serve.Client.connect d.socket in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () ->
      match fst (call c (request_line [ ("op", str "metrics") ])) with
      | None -> 0
      | Some j -> (
          match Option.bind (Json.member "metrics" j) (Json.member "counters") with
          | Some cs -> (
              match Json.member name cs with Some (Json.Int i) -> i | _ -> 0)
          | None -> 0))
