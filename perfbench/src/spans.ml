(** In-memory span recorder for the benchmark's traced runs. A span is
    taken around each call into a layer's public function: name, start,
    end, the enclosing span and the id of the iteration it belongs to.
    Spans stay in memory until the run writes them out. When recording
    is off, {!with_span} calls the body directly. *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span; [-1] at top level *)
  name : string;
  t0 : float;
  t1 : float;
  run : int;  (** iteration the span belongs to *)
}

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let run_id = ref 0

let set_run r = run_id := r

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      stack := List.tl !stack;
      spans := { id; parent; name; t0; t1; run = !run_id } :: !spans
    in
    Fun.protect ~finally:finish f
  end

(** Every recorded span, in start order. *)
let recorded () = List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) !spans

(* Total length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) -> if a <= cb then (acc, Some (ca, Float.max cb b)) else (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(** Self time of each span: its duration minus the part of its interval
    that its direct children cover (overlapping children count once). *)
let self_times (all : span list) =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1)) all;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, (s.t1 -. s.t0) -. covered ~lo:s.t0 ~hi:s.t1 kids))
    all

(** The top-level span each span descends from (itself at top level). *)
let root_of (all : span list) =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
  let rec up s = if s.parent < 0 then s else match Hashtbl.find_opt by_id s.parent with Some p -> up p | None -> s in
  up

(** Self time and span count per [(root name, span name)] — the per-layer
    split of each phase. *)
let by_phase (all : span list) =
  let root = root_of all in
  let acc = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let key = ((root s).name, s.name) in
      let t, c = Option.value (Hashtbl.find_opt acc key) ~default:(0.0, 0) in
      Hashtbl.replace acc key (t +. self, c + 1))
    (self_times all);
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])
