(** A fixed reference kernel that measures how fast the host runs this
    process right now.

    On a shared host the same code runs at different speeds from one
    minute to the next: a busy neighbour on the sibling hardware thread,
    or a host that steals the vCPU, stretches every instruction. CPU time
    leaves out the steal but not the slower instructions. So the
    benchmark runs this kernel just before each timed phase and, inside
    the phases that compute in this process, every few tenths of a CPU
    second from a timer. A phase's speed is the mean CPU time of the passes
    before and inside it; a phase that took [t] CPU seconds while the
    kernel took [r] is reported as [t *. nominal_s /. r] — its seconds
    at the speed the host had when the kernel took [nominal_s]. The
    passes' own CPU time is left out of every phase ({!cpu}).

    The kernel is the benchmark's own code, independent of the program
    it measures, so a change to the program moves the phases and not the
    kernel. It mixes what the simulator does: dependent integer
    arithmetic, data-dependent branches, random reads and writes over a
    2 MiB table, and short-lived allocation. *)

let nominal_s = 0.010

(* CPU seconds of every kernel pass so far *)
let kernel_cpu = ref 0.0

(** CPU seconds this process has run, to the microsecond (getrusage),
    less the kernel's passes. ([/proc/self/schedstat] would lag by up to
    a scheduler tick.) *)
let cpu () = Sys.time () -. !kernel_cpu

let table = Array.make (1 lsl 18) 0
let iterations = 1_000_000

(* One pass of the kernel; returns a checksum, so no work is dead. *)
let kernel () =
  let mask = Array.length table - 1 in
  Array.fill table 0 (Array.length table) 0;
  let x = ref 88172645 and acc = ref 0 and cell = ref [] in
  for i = 0 to iterations - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = (!x lsr 4) land mask in
    let v = table.(j) in
    if v land 3 = 0 then table.(j) <- v + i else acc := !acc + (v lxor i);
    if i land 15 = 0 then cell := [ (i, !acc) ]
  done;
  match !cell with [ (i, a) ] -> i + a | _ -> 0

(* CPU seconds of each recorded pass, newest first, and their count *)
let samples : float list ref = ref []
let count = ref 0

(* the first pass also pays for the table's first touch *)
let warmed = ref false

(** Run the kernel once and record its CPU time. *)
let sample () =
  if not !warmed then begin
    let t0 = Sys.time () in
    ignore (Sys.opaque_identity (kernel ()));
    kernel_cpu := !kernel_cpu +. (Sys.time () -. t0);
    warmed := true
  end;
  let t0 = Sys.time () in
  ignore (Sys.opaque_identity (kernel ()));
  let t = Sys.time () -. t0 in
  kernel_cpu := !kernel_cpu +. t;
  samples := t :: !samples;
  incr count

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** Mean CPU seconds of one kernel pass over the run so far. *)
let mean_s () =
  match !samples with [] -> invalid_arg "Hostref.mean_s: no sample" | xs -> mean xs

let in_tick = ref false

(* The timer fires after a set amount of user CPU time (ITIMER_VIRTUAL),
   so it expires while this process computes, not while it is blocked in a
   system call. *)
let tick _ =
  if not !in_tick then begin
    in_tick := true;
    Fun.protect ~finally:(fun () -> in_tick := false) sample
  end

let arm p = ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = p; it_value = p })

(** [phase ?every f] runs [f] after one kernel pass and, with [every],
    with a pass from the timer every [every] CPU seconds inside it.
    Returns [f]'s result and the mean CPU seconds of those passes. *)
let phase ?every f =
  let n0 = !count in
  sample ();
  let r =
    match every with
    | Some p ->
        Sys.set_signal Sys.sigvtalrm (Sys.Signal_handle tick);
        arm p;
        Fun.protect ~finally:(fun () -> arm 0.0) f
    | None -> f ()
  in
  (r, mean (List.filteri (fun i _ -> i < !count - n0) !samples))

(** [t] CPU seconds at the reference speed, for a phase during which the
    kernel took [r]. *)
let at_reference ~r t = t *. nominal_s /. r
