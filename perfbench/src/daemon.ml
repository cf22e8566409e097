(** Daemons the benchmark starts ([emc serve], [emc fleet-store],
    [emc fleet-worker]): each runs in its own process group, created by
    setsid with the daemon's pid as its id, so stopping
    it reaches every process it forked (serve workers, heartbeaters). A
    stop is SIGTERM to the group, a grace period, then SIGKILL. *)

type t = {
  role : string;
  pid : int;  (** group leader, a direct child of the benchmark *)
  socket : string;
  mutable reaped : bool;
}

let live : t list ref = ref []

(* every process group started, for the final orphan check *)
let started : int list ref = ref []

(* ---------------- /proc ---------------- *)

(* Read to end of file: /proc files report a size of 0. *)
let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
  with Sys_error _ -> ""

(* /proc/<pid>/stat reads "pid (comm) state ppid pgrp ..."; comm may
   contain spaces and parentheses, so fields are counted after the last ')'. *)
let stat_fields pid =
  let s =
    try
      let ic = open_in_bin (Printf.sprintf "/proc/%d/stat" pid) in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
    with Sys_error _ | End_of_file -> ""
  in
  match String.rindex_opt s ')' with
  | None -> None
  | Some i ->
      let rest = String.sub s (i + 2) (String.length s - i - 2) in
      Some (Array.of_list (String.split_on_char ' ' rest))

let pids () =
  Array.fold_left
    (fun acc name -> match int_of_string_opt name with Some p -> p :: acc | None -> acc)
    [] (try Sys.readdir "/proc" with Sys_error _ -> [||])

(** Live (non-zombie) processes in process group [pgid]. *)
let group_members pgid =
  List.filter
    (fun p ->
      match stat_fields p with
      | Some f when Array.length f > 2 -> f.(0) <> "Z" && int_of_string_opt f.(2) = Some pgid
      | _ -> false)
    (pids ())

(** Peak resident set (VmHWM) of one process, in MB; 0 when gone. *)
let vmhwm_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim v)) with
          | kb :: _ -> ( match float_of_string_opt kb with Some k -> k /. 1024.0 | None -> acc)
          | [] -> acc)
      | _ -> acc)
    0.0
    (String.split_on_char '\n' status)

(** Peak resident set of a daemon: the sum over its process group. *)
let group_vmhwm_mb d = List.fold_left (fun acc p -> acc +. vmhwm_mb p) 0.0 (group_members d.pid)

(** CPU seconds one process has run so far: the first field of
    /proc/<pid>/schedstat, in nanoseconds; 0 when gone. Time the host
    gave the vCPU to someone else (steal) is not counted. For a process
    that is running it lags by up to a scheduler tick; for one asleep it
    is exact. *)
let cpu_s pid =
  match String.split_on_char ' ' (read_file (Printf.sprintf "/proc/%d/schedstat" pid)) with
  | ns :: _ -> ( match float_of_string_opt ns with Some n -> n /. 1e9 | None -> 0.0)
  | [] -> 0.0

(** CPU seconds of a daemon's live processes. *)
let group_cpu_s d = List.fold_left (fun acc p -> acc +. cpu_s p) 0.0 (group_members d.pid)

(* ---------------- start / stop ---------------- *)

let spawn ~role ~socket ~log argv =
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try
       ignore (Unix.setsid ());
       let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
       Unix.dup2 fd Unix.stdout;
       Unix.dup2 fd Unix.stderr;
       Unix.close fd;
       Unix.execv argv.(0) argv
     with _ -> ());
    Unix._exit 127
  end;
  let d = { role; pid; socket; reaped = false } in
  live := d :: !live;
  started := pid :: !started;
  d

let reap_nohang d =
  if not d.reaped then
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ -> ()
    | _ -> d.reaped <- true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> d.reaped <- true

(* Until the child has run setsid its group does not exist yet; the
   leader itself is signalled too so an early stop cannot miss it. *)
let signal_group d s =
  (try Unix.kill (-d.pid) s with Unix.Unix_error _ -> ());
  if not d.reaped then try Unix.kill d.pid s with Unix.Unix_error _ -> ()

let gone d =
  reap_nohang d;
  d.reaped && group_members d.pid = []

let wait_gone ~timeout d =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (gone d)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  gone d

(** Stop a daemon and everything in its group, reap the leader and remove
    its socket. Returns [false] when a process outlived SIGKILL. *)
let stop d =
  signal_group d Sys.sigterm;
  let ok =
    wait_gone ~timeout:5.0 d
    || begin
         signal_group d Sys.sigkill;
         wait_gone ~timeout:5.0 d
       end
  in
  (try Sys.remove d.socket with Sys_error _ -> ());
  live := List.filter (fun x -> x != d) !live;
  ok

(** Stop every daemon still running; [false] if any process is left. *)
let stop_all () = List.fold_left (fun ok d -> stop d && ok) true !live

(** Processes left behind by daemons started during this run — each group
    was stopped, so any survivor is an orphan. *)
let orphans () = List.concat_map group_members !started

(* ---------------- readiness ---------------- *)

let http_get ?(timeout = 2.0) socket path =
  match Emc_serve.Http.connect ~timeout (Unix.ADDR_UNIX socket) with
  | Error e -> Error (Emc_serve.Http.error_to_string e)
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Emc_serve.Http.write_request fd ~meth:"GET" ~path () with
          | Error e -> Error (Emc_serve.Http.error_to_string e)
          | Ok () -> (
              match Emc_serve.Http.read_response ~timeout fd with
              | Ok r -> Ok r
              | Error e -> Error (Emc_serve.Http.error_to_string e)))

(** Poll [ready] every millisecond until it holds; fails if the daemon
    dies first or [timeout] passes. *)
let wait_ready ?(timeout = 30.0) d ready =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    if ready () then ()
    else begin
      reap_nohang d;
      if d.reaped then failwith (Printf.sprintf "%s exited during start-up" d.role);
      if Unix.gettimeofday () > deadline then failwith (d.role ^ " did not become ready");
      Unix.sleepf 0.001;
      loop ()
    end
  in
  loop ()
