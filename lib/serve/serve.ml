open Emc_core
module Json = Emc_obs.Json
module Metrics = Emc_obs.Metrics
module Trace = Emc_obs.Trace

(** The prediction/search serving daemon (see serve.mli). *)

type listen = Port of int | Unix_socket of string

type opts = {
  listen : listen;
  workers : int;
  max_body : int;
  read_timeout : float;
  idle_timeout : float;
  max_conns : int;
  access_log : string option;
}

let default_opts listen =
  {
    listen;
    workers = 1;
    max_body = 1024 * 1024;
    read_timeout = 10.0;
    idle_timeout = 30.0;
    max_conns = 512;
    access_log = Sys.getenv_opt "EMC_ACCESS_LOG";
  }

(* ---------------- metrics ---------------- *)

let m_requests = Metrics.counter "serve.requests"
let m_errors = Metrics.counter "serve.errors"
let m_connections = Metrics.counter "serve.connections"

let endpoint_counter path = Metrics.counter ("serve.requests." ^ path)
let status_counter status = Metrics.counter (Printf.sprintf "serve.errors.%d" status)
let latency_hist path = Metrics.histogram ("serve.latency_seconds." ^ path)

(* ---------------- cross-worker metrics aggregation ----------------

   Each pre-forked worker publishes its whole registry as an atomic
   snapshot file (write + rename) in a master-created runtime directory:
   once after startup, then after every request *before* the response is
   written, so any client that has received its response is guaranteed
   visible to a subsequent scrape of any worker. [GET /metrics] merges
   every worker's file — counters sum exactly, histograms merge
   bucket-wise — so the scrape answers for the whole daemon no matter
   which worker picked it up. *)

let metrics_dir : string option ref = ref None
let snapshot_file : string option ref = ref None

let publish_dirty = ref false
let publish_last = ref neg_infinity

(* Serializing and renaming the snapshot file on every response is pure
   overhead on the hot path, so publishes are debounced: a response
   marks the registry dirty and a publish happens at most once per
   [publish_interval]; the worker's scheduler loop flushes a dirty
   registry once the interval has passed (its select timeout is capped
   at 1 s, so staleness is bounded even on an idle worker). Scrapes are
   still exact for the answering worker — [aggregated_snapshot]
   publishes its live registry unconditionally. *)
let publish_interval = 0.25

let publish_snapshot () =
  publish_dirty := false;
  publish_last := Unix.gettimeofday ();
  match !snapshot_file with
  | None -> ()
  | Some path -> (
      try
        let tmp = Printf.sprintf "%s.tmp" path in
        let oc = open_out tmp in
        output_string oc (Json.to_string (Metrics.snapshot_to_json (Metrics.snapshot ())));
        output_char oc '\n';
        close_out oc;
        Sys.rename tmp path
      with Sys_error msg ->
        Emc_obs.Log.warn ~src:"serve" "cannot publish metrics snapshot: %s" msg)

let publish_soon () =
  publish_dirty := true;
  if Unix.gettimeofday () -. !publish_last >= publish_interval then publish_snapshot ()

let publish_if_due () =
  if !publish_dirty && Unix.gettimeofday () -. !publish_last >= publish_interval then
    publish_snapshot ()

let read_snapshot_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | contents -> (
      match Result.bind (Json.parse (String.trim contents)) Metrics.snapshot_of_json with
      | Ok s -> Some s
      | Error e ->
          Emc_obs.Log.warn ~src:"serve" "skipping malformed snapshot %s: %s" path e;
          None)

let merged_snapshots dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.filter_map (fun f ->
         if Filename.check_suffix f ".json" then read_snapshot_file (Filename.concat dir f)
         else None)
  |> List.fold_left Metrics.merge Metrics.snapshot_empty

(* The scrape's own registry (request counters just bumped) goes through
   the same file path as everyone else's: publish first, then merge all
   files, so no worker is double-counted and none is stale. *)
let aggregated_snapshot () =
  match !metrics_dir with
  | None -> Metrics.snapshot ()
  | Some dir ->
      publish_snapshot ();
      merged_snapshots dir

(* Prometheus text exposition: counters and gauges map directly;
   histograms become real cumulative [le=]-bucket histograms (the
   registry's log-scale buckets, occupied buckets only, plus +Inf). *)
let prometheus_of_snapshot s =
  let b = Buffer.create 2048 in
  let name n =
    "emc_"
    ^ String.map (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' as c -> c | _ -> '_') n
  in
  List.iter
    (fun (raw, v) ->
      let n = name raw in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    (Metrics.snapshot_counters s);
  List.iter
    (fun (raw, v) ->
      let n = name raw in
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %.17g\n" n n v))
    (Metrics.snapshot_gauges s);
  List.iter
    (fun (raw, h) ->
      let n = name raw in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      List.iter
        (fun (le, cum) ->
          Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"%.9g\"} %d\n" n le cum))
        (Metrics.hsnap_cumulative h);
      let stats = Metrics.hsnap_stats h in
      let count, sum =
        match stats with Some st -> (st.Metrics.count, st.Metrics.sum) | None -> (0, 0.0)
      in
      Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n count);
      Buffer.add_string b (Printf.sprintf "%s_sum %.17g\n" n sum);
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n count))
    (Metrics.snapshot_histograms s);
  Buffer.contents b

let prometheus () = prometheus_of_snapshot (Metrics.snapshot ())

(* ---------------- request ids + access log ----------------

   Every request gets an id: the client's X-Request-Id when it sends a
   sane one, a generated one otherwise; either way the response echoes
   it, and the JSONL access log (EMC_ACCESS_LOG / --access-log) carries
   it with per-phase timings, so one request can be followed from client
   through log to trace span. *)

let rid_seq = ref 0

let gen_request_id () =
  Stdlib.incr rid_seq;
  Printf.sprintf "%08x-%04x-%06x"
    (Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1000.0)) land 0xffffffff)
    (Unix.getpid () land 0xffff) (!rid_seq land 0xffffff)

let valid_request_id id =
  let n = String.length id in
  n > 0 && n <= 128
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true | _ -> false)
       id

let request_id req =
  match Http.header req "x-request-id" with
  | Some id when valid_request_id id -> id
  | _ -> gen_request_id ()

let access_log_oc : out_channel option ref = ref None

let open_access_log path =
  match open_out_gen [ Open_append; Open_creat ] 0o644 path with
  | oc -> access_log_oc := Some oc
  | exception Sys_error msg ->
      Emc_obs.Log.err ~src:"serve" "cannot open access log %s: %s" path msg

let close_access_log () =
  match !access_log_oc with
  | None -> ()
  | Some oc ->
      access_log_oc := None;
      (try close_out oc with Sys_error _ -> ())

let log_access ~id ~meth ~path ~status ~bytes_in ~bytes_out ~parse_s ~handle_s ~write_s =
  match !access_log_oc with
  | None -> ()
  | Some oc ->
      let line =
        Json.to_string
          (Json.Obj
             [
               ("ts", Json.Float (Unix.gettimeofday ()));
               ("id", Json.Str id);
               ("worker", Json.Int (Unix.getpid ()));
               ("meth", Json.Str meth);
               ("path", Json.Str path);
               ("status", Json.Int status);
               ("bytes_in", Json.Int bytes_in);
               ("bytes_out", Json.Int bytes_out);
               ("parse_s", Json.Float parse_s);
               ("handle_s", Json.Float handle_s);
               ("write_s", Json.Float write_s);
             ])
      in
      (* one write + flush per line: lines from concurrent workers
         appending to the same file stay whole *)
      output_string oc (line ^ "\n");
      flush oc

(* ---------------- request handling ---------------- *)

let json_body status j = (status, "application/json", Json.to_string j ^ "\n")

let error_body status code msg =
  json_body status
    (Json.Obj [ ("error", Json.Obj [ ("code", Json.Str code); ("message", Json.Str msg) ]) ])

let ( let* ) r k = match r with Ok v -> k v | Error (st, code, msg) -> error_body st code msg

let as_float = function
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | Json.Str s -> (
      match float_of_string_opt s with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "malformed number %S" s))
  | _ -> Error "expected a number"

let point_of_json = function
  | Json.List vs -> Result.map Array.of_list (Json.map_result as_float vs)
  | _ -> Error "each point must be a list of numbers"

let parse_json_body (req : Http.request) =
  (match Http.header req "content-type" with
  | Some ct
    when not
           (String.length ct >= 16
           && String.lowercase_ascii (String.sub ct 0 16) = "application/json") ->
      Error (415, "unsupported_media_type", "content-type must be application/json, got " ^ ct)
  | _ -> Ok ())
  |> function
  | Error e -> Error e
  | Ok () -> (
      match Json.parse req.Http.body with
      | Ok j -> Ok j
      | Error e -> Error (400, "bad_json", "malformed JSON body: " ^ e))

let handle_rank art (req : Http.request) =
  let* top =
    (* a malformed or non-positive ?top must not silently mean "all" *)
    match List.assoc_opt "top" req.Http.query with
    | None -> Ok max_int
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> Ok n
        | _ ->
            Error
              (400, "bad_request",
               Printf.sprintf "query parameter \"top\" must be a positive integer, got %S" v))
  in
  (* NaN-safe strongest-first order: polymorphic compare on floats would
     order NaN coefficients arbitrarily; strength_order pins them last *)
  let terms = List.sort Emc_regress.Metrics.strength_order art.Artifact.terms in
  let terms = List.filteri (fun i _ -> i < top) terms in
  json_body 200
    (Json.Obj
       [ ("technique", Json.Str art.Artifact.technique);
         ("terms",
          Json.List
            (List.map
               (fun (n, c) -> Json.Obj [ ("term", Json.Str n); ("coef", Json.Float c) ])
               terms)) ])

let named_config = function
  | "constrained" -> Some Emc_sim.Config.constrained
  | "typical" -> Some Emc_sim.Config.typical
  | "aggressive" -> Some Emc_sim.Config.aggressive
  | _ -> None

(* Shared by /search and /pareto: target microarchitecture from the body
   (a named config, raw "march" values, or the typical default). *)
let march_of_body j =
  match (Json.member "config" j, Json.member "march" j) with
  | Some (Json.Str name), None -> (
      match named_config name with
      | Some c -> Ok c
      | None ->
          Error (400, "bad_request", Printf.sprintf "unknown config %S (want constrained|typical|aggressive)" name))
  | None, Some m -> (
      match point_of_json m with
      | Error e -> Error (400, "bad_request", e)
      | Ok vals ->
          if Array.length vals <> Params.n_march then
            Error (400, "bad_request", Printf.sprintf "\"march\" wants %d raw values, got %d" Params.n_march (Array.length vals))
          else Ok (Params.to_march (Array.append (Array.make Params.n_compiler 0.0) vals)))
  | None, None -> Ok Emc_sim.Config.typical
  | _ -> Error (400, "bad_request", "give either \"config\" or \"march\", not both")

let int_field j name default =
  match Json.member name j with
  | None -> Ok default
  | Some (Json.Int v) when v > 0 -> Ok v
  | Some _ -> Error (400, "bad_request", Printf.sprintf "%S must be a positive integer" name)

(* Search budget shared by /search and /pareto: seed + GA parameters. *)
let search_params j =
  match int_field j "seed" 42 with
  | Error e -> Error e
  | Ok seed -> (
      match int_field j "pop_size" Emc_search.Ga.default_params.Emc_search.Ga.pop_size with
      | Error e -> Error e
      | Ok pop_size -> (
          match
            int_field j "generations" Emc_search.Ga.default_params.Emc_search.Ga.generations
          with
          | Error e -> Error e
          | Ok generations ->
              Ok (seed, { Emc_search.Ga.default_params with pop_size; generations })))

let handle_search art (req : Http.request) =
  let* j = parse_json_body req in
  let* march = march_of_body j in
  let* seed, params = search_params j in
  let evals_before = Option.value ~default:0 (Metrics.counter_value "ga.evaluations") in
  let r =
    Searcher.search ~params ~rng:(Emc_util.Rng.create seed) ~model:(Artifact.model art) ~march ()
  in
  let evals = Option.value ~default:0 (Metrics.counter_value "ga.evaluations") - evals_before in
  let flag_names = Params.names Params.compiler_specs in
  json_body 200
    (Json.Obj
       [ ("flags",
          Json.Obj
            (Array.to_list
               (Array.mapi (fun i v -> (flag_names.(i), Json.Float v)) r.Searcher.raw)));
         ("flags_string", Json.Str (Emc_opt.Flags.to_string r.Searcher.flags));
         ("predicted_cycles", Json.Float r.Searcher.predicted_cycles);
         ("evaluations", Json.Int evals);
         ("seed", Json.Int seed) ])

let handle_pareto art (req : Http.request) =
  let* j = parse_json_body req in
  let* energy_model =
    Option.to_result (Artifact.extra_model art "energy")
      ~none:
        (409, "no_energy_response",
         "artifact carries no \"energy\" response model; retrain with emc train --energy")
  in
  let* march = march_of_body j in
  let* seed, params = search_params j in
  let evals_before = Option.value ~default:0 (Metrics.counter_value "pareto.evaluations") in
  let front =
    Searcher.search_pareto ~params ~rng:(Emc_util.Rng.create seed)
      ~cycles_model:(Artifact.model art) ~energy_model ~march ()
  in
  let evals =
    Option.value ~default:0 (Metrics.counter_value "pareto.evaluations") - evals_before
  in
  json_body 200 (Searcher.pareto_to_json ~seed ~evaluations:evals front)

let handle_healthz art (_req : Http.request) =
  json_body 200
    (Json.Obj
       [ ("status", Json.Str "ok");
         ("workload", Json.Str art.Artifact.workload);
         ("technique", Json.Str art.Artifact.technique);
         ("dims", Json.Int (Artifact.dims art));
         ("format_version", Json.Int Artifact.current_version) ])

let endpoints = [ "/predict"; "/rank"; "/search"; "/pareto"; "/healthz"; "/metrics" ]

(* ---------------- /predict ----------------

   Single point or batch, coded (default) or raw space. A worker's [hot]
   context holds everything a request would otherwise allocate: the
   schema's arity resolved once, a reused right-arity point, a float
   arena the request's points parse into, and the response-body buffer.
   Each point is validated against the schema, then evaluated by
   [Repr.eval] (which keeps no scratch of its own), and the response
   renders straight into the buffer through [Json]'s float writer. *)

let max_batch = 4096

type hot = {
  h_art : Artifact.t;
  h_dims : int;
  h_point : float array;  (* reused right-arity point *)
  mutable h_arena : float array;  (* parsed points, flattened *)
  mutable h_lens : int array;  (* per-point arity in the arena *)
  h_body : Buffer.t;  (* response body of the last handle *)
}

let make_hot art =
  let dims = Artifact.dims art in
  {
    h_art = art;
    h_dims = dims;
    h_point = Array.make (max 1 dims) 0.0;
    h_arena = Array.make (max 256 dims) 0.0;
    h_lens = Array.make 64 0;
    h_body = Buffer.create 4096;
  }

let hot_body hot = hot.h_body

let set_body hot (status, content_type, body) =
  Buffer.clear hot.h_body;
  Buffer.add_string hot.h_body body;
  (status, content_type)

let ensure_arena hot n =
  if Array.length hot.h_arena < n then begin
    let bigger = Array.make (max n (2 * Array.length hot.h_arena)) 0.0 in
    Array.blit hot.h_arena 0 bigger 0 (Array.length hot.h_arena);
    hot.h_arena <- bigger
  end

let ensure_lens hot n =
  if Array.length hot.h_lens < n then begin
    let bigger = Array.make (max n (2 * Array.length hot.h_lens)) 0 in
    Array.blit hot.h_lens 0 bigger 0 (Array.length hot.h_lens);
    hot.h_lens <- bigger
  end

(* Parse one JSON point into the arena at [off]; same element order and
   error strings as [point_of_json]. Returns the next free offset. *)
let parse_point_into hot ~off j =
  match j with
  | Json.List vs ->
      let rec go off = function
        | [] -> Ok off
        | v :: rest -> (
            match as_float v with
            | Ok f ->
                ensure_arena hot (off + 1);
                hot.h_arena.(off) <- f;
                go (off + 1) rest
            | Error e -> Error e)
      in
      go off vs
  | _ -> Error "each point must be a list of numbers"

(* A right-arity point reuses [h_point]; a wrong-arity one gets a fresh
   slice so the schema validators report the true length (cold path). *)
let arena_point hot ~off ~len =
  if len = hot.h_dims then begin
    Array.blit hot.h_arena off hot.h_point 0 len;
    hot.h_point
  end
  else Array.sub hot.h_arena off len

let predict_into hot (req : Http.request) =
  let ( let* ) r k = match r with Ok v -> k v | Error e -> Error e in
  let result =
    let* j = parse_json_body req in
    let* space =
      match Json.member "space" j with
      | None | Some (Json.Str "coded") -> Ok `Coded
      | Some (Json.Str "raw") -> Ok `Raw
      | Some (Json.Str s) ->
          Error (400, "bad_request", Printf.sprintf "unknown space %S (want \"coded\" or \"raw\")" s)
      | Some _ -> Error (400, "bad_request", "\"space\" must be a string")
    in
    let* n_points, single =
      match (Json.member "point" j, Json.member "points" j) with
      | Some p, None -> (
          match parse_point_into hot ~off:0 p with
          | Ok stop ->
              ensure_lens hot 1;
              hot.h_lens.(0) <- stop;
              Ok (1, true)
          | Error e -> Error (400, "bad_request", e))
      | None, Some (Json.List ps) ->
          if List.length ps > max_batch then
            Error
              (413, "too_many_points",
               Printf.sprintf "batch of %d points exceeds the %d cap" (List.length ps) max_batch)
          else
            let rec go i off = function
              | [] -> Ok (i, false)
              | p :: rest -> (
                  match parse_point_into hot ~off p with
                  | Ok stop ->
                      ensure_lens hot (i + 1);
                      hot.h_lens.(i) <- stop - off;
                      go (i + 1) stop rest
                  | Error e -> Error (400, "bad_request", e))
            in
            go 0 0 ps
      | None, Some _ -> Error (400, "bad_request", "\"points\" must be a list of points")
      | None, None -> Error (400, "bad_request", "body must carry \"point\" or \"points\"")
      | Some _, Some _ -> Error (400, "bad_request", "give either \"point\" or \"points\", not both")
    in
    Buffer.clear hot.h_body;
    Buffer.add_string hot.h_body (if single then "{\"prediction\":" else "{\"predictions\":[");
    let off = ref 0 in
    let rec go i =
      if i >= n_points then Ok ()
      else begin
        let len = hot.h_lens.(i) in
        let x = arena_point hot ~off:!off ~len in
        off := !off + len;
        let r =
          match space with
          | `Coded -> (
              match Artifact.validate_point hot.h_art x with Ok () -> Ok x | Error e -> Error e)
          | `Raw -> Artifact.code_raw hot.h_art x
        in
        match r with
        | Error e -> Error (400, "bad_point", e)
        | Ok cx ->
            if i > 0 then Buffer.add_char hot.h_body ',';
            Json.to_buffer hot.h_body
              (Json.Float (Emc_regress.Repr.eval hot.h_art.Artifact.repr cx));
            go (i + 1)
      end
    in
    let* () = go 0 in
    Buffer.add_string hot.h_body (if single then "}\n" else "]}\n");
    Ok ()
  in
  match result with
  | Ok () -> (200, "application/json")
  | Error (st, code, msg) -> set_body hot (error_body st code msg)

let dispatch hot (req : Http.request) =
  let art = hot.h_art in
  match (req.Http.meth, req.Http.path) with
  | "POST", "/predict" -> predict_into hot req
  | "GET", "/rank" | "POST", "/rank" -> set_body hot (handle_rank art req)
  | "POST", "/search" -> set_body hot (handle_search art req)
  | "POST", "/pareto" -> set_body hot (handle_pareto art req)
  | "GET", "/healthz" -> set_body hot (handle_healthz art req)
  | "GET", "/metrics" ->
      set_body hot
        (200, "text/plain; version=0.0.4", prometheus_of_snapshot (aggregated_snapshot ()))
  | _, p when List.mem p endpoints ->
      set_body hot
        (error_body 405 "method_not_allowed" (req.Http.meth ^ " is not supported on " ^ p))
  | _, p -> set_body hot (error_body 404 "not_found" ("no such endpoint: " ^ p))

(* Dispatch wrapped with per-endpoint telemetry and a catch-all so no
   exception ever escapes to the client as a dropped connection. *)
let handle_into hot (req : Http.request) =
  let endpoint = if List.mem req.Http.path endpoints then req.Http.path else "other" in
  Metrics.incr m_requests;
  Metrics.incr (endpoint_counter endpoint);
  let t0 = Unix.gettimeofday () in
  let ((status, _) as resp) =
    try dispatch hot req
    with e ->
      Emc_obs.Log.warn ~src:"serve" "request handler raised: %s" (Printexc.to_string e);
      set_body hot (error_body 500 "internal" "internal error; see server log")
  in
  Metrics.observe (latency_hist endpoint) (Unix.gettimeofday () -. t0);
  if status >= 400 then begin
    Metrics.incr m_errors;
    Metrics.incr (status_counter status)
  end;
  resp

(* ---------------- connection scheduler ---------------- *)

type handler = Http.request -> Buffer.t -> int * string

let stop = ref false

let count_error status =
  Metrics.incr m_requests;
  Metrics.incr m_errors;
  Metrics.incr (status_counter status)

(* The event-driven connection scheduler that every daemon runs (serve
   workers, fleet-worker, fleet-store): a select()-driven set of
   per-connection state machines over one non-blocking listening socket:

     accept -> read (accumulate + incremental parse) -> handle
            -> write (non-blocking flush) -> keep-alive | close

   A connection is either reading (its input buffer holds at most a
   partial request) or writing (one rendered response is flushing; input
   bytes buffer in the kernel — natural per-connection back-pressure, so
   a pipelining client can't make the loop buffer unbounded output).
   Deadlines are absolute and phase-derived: a partial request must
   complete within [read_timeout] of its first byte (a dribbling writer
   earns a 408), a response must drain within [read_timeout] (a stalled
   reader is cut off), and a silent idle connection is closed after
   [idle_timeout]. So no peer, stalled or slow, holds the loop: the only
   thing that does is the handler itself. The access-log line and the
   metrics-snapshot publish for a response run only after its last byte
   reaches the kernel — queued as [post_write] when the flush goes
   partial — so neither ever sits between another connection's events. *)

type conn = {
  c_fd : Unix.file_descr;
  c_inb : Buffer.t;  (* unconsumed request bytes *)
  mutable c_out : string;  (* rendered response being flushed *)
  mutable c_out_off : int;
  mutable c_writing : bool;
  mutable c_req_t0 : float;  (* arrival of the current request's first byte *)
  mutable c_idle_since : float;
  mutable c_write_deadline : float;
  mutable c_close_after : bool;
  mutable c_eof : bool;  (* peer half-closed its write side *)
  mutable c_post_write : (unit -> unit) option;
  mutable c_closed : bool;
}

type wstate = {
  w_max_body : int;
  w_read_timeout : float;
  w_idle_timeout : float;
  w_handler : handler;
  w_body : Buffer.t;  (* response body of the current request *)
  w_chunk : Bytes.t;  (* reused read buffer *)
  w_outbuf : Buffer.t;  (* reused response render buffer *)
  mutable w_conns : conn list;
}

let conn_deadline st c =
  if c.c_writing then c.c_write_deadline
  else if Buffer.length c.c_inb > 0 then c.c_req_t0 +. st.w_read_timeout
  else c.c_idle_since +. st.w_idle_timeout

let close_conn st c =
  if not c.c_closed then begin
    c.c_closed <- true;
    c.c_post_write <- None;
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
    st.w_conns <- List.filter (fun o -> o != c) st.w_conns
  end

(* Render head + the body currently in [w_body] into the conn's output
   string and start flushing. The first flush attempt happens inline: on
   an unloaded connection the whole response reaches the kernel here and
   [post_write] runs at once. *)
let rec enqueue_response st c ~status ~content_type ~keep_alive headers =
  Buffer.clear st.w_outbuf;
  Http.response_head_into st.w_outbuf ~status ~content_type
    ~body_length:(Buffer.length st.w_body) ~keep_alive headers;
  Buffer.add_buffer st.w_outbuf st.w_body;
  c.c_out <- Buffer.contents st.w_outbuf;
  c.c_out_off <- 0;
  c.c_writing <- true;
  if not keep_alive then c.c_close_after <- true;
  c.c_write_deadline <- Unix.gettimeofday () +. st.w_read_timeout;
  try_flush st c

and try_flush st c =
  if c.c_writing && not c.c_closed then begin
    let len = String.length c.c_out - c.c_out_off in
    match Unix.write_substring c.c_fd c.c_out c.c_out_off len with
    | n ->
        c.c_out_off <- c.c_out_off + n;
        if c.c_out_off >= String.length c.c_out then begin
          (* response delivered to the kernel: now (and only now) publish
             the snapshot and write the access-log line, then either close
             or return to reading — a pipelined next request may already
             be buffered, so re-parse immediately *)
          (match c.c_post_write with
          | Some f ->
              c.c_post_write <- None;
              f ()
          | None -> ());
          c.c_out <- "";
          c.c_out_off <- 0;
          c.c_writing <- false;
          if c.c_close_after || (c.c_eof && Buffer.length c.c_inb = 0) then close_conn st c
          else begin
            c.c_idle_since <- Unix.gettimeofday ();
            if Buffer.length c.c_inb > 0 then begin
              c.c_req_t0 <- c.c_idle_since;
              process_input st c
            end
          end
        end
        else try_flush st c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        () (* kernel buffer full: select on writability, deadline armed *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> try_flush st c
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        (* response undeliverable: drop its post_write, nobody saw it *)
        close_conn st c
  end

and protocol_error st c status code msg =
  count_error status;
  let id = gen_request_id () in
  let parse_s = Unix.gettimeofday () -. c.c_req_t0 in
  let _, content_type, body = error_body status code msg in
  c.c_close_after <- true;
  Buffer.clear c.c_inb;
  c.c_post_write <-
    Some
      (fun () ->
        publish_soon ();
        log_access ~id ~meth:"-" ~path:"-" ~status ~bytes_in:0 ~bytes_out:(String.length body)
          ~parse_s ~handle_s:0.0 ~write_s:0.0);
  Buffer.clear st.w_body;
  Buffer.add_string st.w_body body;
  enqueue_response st c ~status ~content_type ~keep_alive:false [ ("X-Request-Id", id) ]

(* The handler renders into the cleared [w_body]; one that raises gets a
   500 instead of taking the loop (and every other connection) down. *)
and handle_one st c (req : Http.request) =
  let t_parsed = Unix.gettimeofday () in
  let id = request_id req in
  let status, content_type =
    Trace.with_span ~cat:"serve" "handle"
      ~args:(fun () ->
        [ ("id", Json.Str id); ("method", Json.Str req.Http.meth);
          ("path", Json.Str req.Http.path) ])
      (fun () ->
        Buffer.clear st.w_body;
        try st.w_handler req st.w_body
        with e ->
          Emc_obs.Log.warn ~src:"serve" "request handler raised: %s" (Printexc.to_string e);
          let status, content_type, body = error_body 500 "internal" "internal error; see server log" in
          Buffer.clear st.w_body;
          Buffer.add_string st.w_body body;
          (status, content_type))
  in
  let t_handled = Unix.gettimeofday () in
  let keep_alive =
    (not !stop)
    && (match Http.header req "connection" with
       | Some c -> String.lowercase_ascii c <> "close"
       | None -> true)
  in
  let meth = req.Http.meth and path = req.Http.path in
  let bytes_in = String.length req.Http.body in
  let bytes_out = Buffer.length st.w_body in
  let parse_s = t_parsed -. c.c_req_t0 and handle_s = t_handled -. t_parsed in
  c.c_post_write <-
    Some
      (fun () ->
        publish_soon ();
        log_access ~id ~meth ~path ~status ~bytes_in ~bytes_out ~parse_s ~handle_s
          ~write_s:(Unix.gettimeofday () -. t_handled));
  (* a fleet coordinator pipelines chunks and checks each response's
     X-Chunk-Id against the request it expects next *)
  let headers =
    ("X-Request-Id", id)
    :: (match Http.header req "x-chunk-id" with Some cid -> [ ("X-Chunk-Id", cid) ] | None -> [])
  in
  enqueue_response st c ~status ~content_type ~keep_alive headers

and process_input st c =
  if (not c.c_writing) && not c.c_closed then begin
    let s = Buffer.contents c.c_inb in
    if s <> "" then
      match Http.parse_request ~max_body:st.w_max_body s with
      | Http.Incomplete ->
          if c.c_eof then protocol_error st c 400 "bad_request" "truncated request"
      | Http.Invalid (Http.Too_large what) ->
          protocol_error st c 413 "too_large" (what ^ " exceed the configured limit")
      | Http.Invalid (Http.Bad msg) -> protocol_error st c 400 "bad_request" msg
      | Http.Invalid (Http.Timeout | Http.Closed | Http.Refused _) ->
          (* parse_request never produces these *)
          close_conn st c
      | Http.Parsed (req, consumed) ->
          let rest = String.sub s consumed (String.length s - consumed) in
          Buffer.clear c.c_inb;
          Buffer.add_string c.c_inb rest;
          handle_one st c req
  end

let on_readable st c =
  match Unix.read c.c_fd st.w_chunk 0 (Bytes.length st.w_chunk) with
  | 0 ->
      c.c_eof <- true;
      if c.c_writing then () (* finish the flush; closed at drain *)
      else if Buffer.length c.c_inb = 0 then close_conn st c
      else process_input st c (* Incomplete + eof -> 400 truncated *)
  | n ->
      if (not c.c_writing) && Buffer.length c.c_inb = 0 then c.c_req_t0 <- Unix.gettimeofday ();
      Buffer.add_subbytes c.c_inb st.w_chunk 0 n;
      if not c.c_writing then process_input st c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> close_conn st c

(* Deadline expiry, by phase: a stalled reader mid-flush is cut off, a
   dribbling request earns a 408, a silent idle connection closes without
   a response. *)
let expire_conn st c =
  if c.c_writing then close_conn st c
  else if Buffer.length c.c_inb > 0 then protocol_error st c 408 "timeout" "request read timed out"
  else close_conn st c

let serve_on ~max_body ~read_timeout ~idle_timeout ?(max_conns = 512) ?access_log lsock handler =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  stop := false;
  let quit = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigterm quit;
  Sys.set_signal Sys.sigint quit;
  Option.iter open_access_log access_log;
  Unix.set_nonblock lsock;
  let st =
    {
      w_max_body = max_body;
      w_read_timeout = read_timeout;
      w_idle_timeout = idle_timeout;
      w_handler = handler;
      w_body = Buffer.create 4096;
      w_chunk = Bytes.create (16 * 1024);
      w_outbuf = Buffer.create 8192;
      w_conns = [];
    }
  in
  (* Non-blocking accept burst: drain the listening socket until EAGAIN (a
     sibling serve worker won the race — fair enough at this scale) or the
     connection cap. *)
  let accept_burst () =
    let rec go () =
      if List.length st.w_conns < max_conns then
        match Unix.accept lsock with
        | fd, _ ->
            Unix.set_nonblock fd;
            Metrics.incr m_connections;
            let now = Unix.gettimeofday () in
            st.w_conns <-
              {
                c_fd = fd;
                c_inb = Buffer.create 1024;
                c_out = "";
                c_out_off = 0;
                c_writing = false;
                c_req_t0 = now;
                c_idle_since = now;
                c_write_deadline = now;
                c_close_after = false;
                c_eof = false;
                c_post_write = None;
                c_closed = false;
              }
              :: st.w_conns;
            go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> go ()
    in
    go ()
  in
  (* On SIGTERM/SIGINT: stop accepting, let in-flight responses drain
     (bounded), then close everything and return. *)
  let drain_deadline = ref None in
  let running () =
    if not !stop then true
    else begin
      (match !drain_deadline with
      | None -> drain_deadline := Some (Unix.gettimeofday () +. Float.min 5.0 read_timeout)
      | Some _ -> ());
      List.exists (fun c -> c.c_writing) st.w_conns
      && Unix.gettimeofday () < Option.get !drain_deadline
    end
  in
  while running () do
    publish_if_due ();
    let now = Unix.gettimeofday () in
    List.iter (fun c -> if (not c.c_closed) && now >= conn_deadline st c then expire_conn st c)
      st.w_conns;
    let accepting = (not !stop) && List.length st.w_conns < max_conns in
    let rset =
      List.fold_left
        (fun acc c -> if c.c_writing || c.c_eof then acc else c.c_fd :: acc)
        (if accepting then [ lsock ] else [])
        st.w_conns
    in
    let wset = List.filter_map (fun c -> if c.c_writing then Some c.c_fd else None) st.w_conns in
    let timeout =
      let d = List.fold_left (fun acc c -> Float.min acc (conn_deadline st c)) infinity st.w_conns in
      let t = if d = infinity then 1.0 else Float.max 0.0 (Float.min 1.0 (d -. now)) in
      (* a pending debounced publish bounds the sleep so the flush lands
         within [publish_interval] even on an otherwise idle worker *)
      if !publish_dirty then
        Float.max 0.0 (Float.min t (!publish_last +. publish_interval -. now))
      else t
    in
    match Unix.select rset wset [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, w, _ ->
        if List.memq lsock r then accept_burst ();
        let find fd = List.find_opt (fun c -> c.c_fd = fd && not c.c_closed) st.w_conns in
        List.iter
          (fun fd ->
            if fd <> lsock then
              match find fd with Some c -> on_readable st c | None -> ())
          r;
        List.iter
          (fun fd -> match find fd with Some c when c.c_writing -> try_flush st c | _ -> ())
          w
  done;
  List.iter (fun c -> close_conn st c) st.w_conns;
  close_access_log ()

(* One pre-forked serve worker: its own trace file and metrics registry,
   the scheduler, then a final snapshot and [_exit] (the parent's at_exit
   handlers must not run here). *)
let worker art opts lsock =
  (* per-worker trace file: the parent's buffered events are dropped and
     this worker's spans go to EMC_TRACE.<pid> *)
  (match Sys.getenv_opt "EMC_TRACE" with
  | Some p when p <> "" -> Trace.enable (Printf.sprintf "%s.%d" p (Unix.getpid ()))
  | _ -> ());
  (match !metrics_dir with
  | Some dir ->
      (* each worker's registry must record only what this worker served:
         counts inherited from the pre-fork parent would otherwise be
         republished by every worker and multiply in the merge *)
      Metrics.reset ();
      snapshot_file := Some (Filename.concat dir (Printf.sprintf "worker-%d.json" (Unix.getpid ())));
      publish_snapshot () (* visible to scrapes before the first request *)
  | None -> ());
  let hot = make_hot art in
  serve_on ~max_body:opts.max_body ~read_timeout:opts.read_timeout
    ~idle_timeout:opts.idle_timeout ~max_conns:opts.max_conns ?access_log:opts.access_log lsock
    (fun req b ->
      let r = handle_into hot req in
      Buffer.add_buffer b (hot_body hot);
      r);
  publish_snapshot ();
  Trace.flush ();
  Unix._exit 0

let listen_description = function
  | Port p -> Printf.sprintf "127.0.0.1:%d" p
  | Unix_socket path -> path

let bind_listener sockaddr =
  (match sockaddr with
  | Unix.ADDR_UNIX path -> (
      match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path (* stale socket from a dead server *)
      | _ -> failwith (path ^ " exists and is not a socket; refusing to replace it")
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ())
  | Unix.ADDR_INET _ -> ());
  let s = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  (match sockaddr with
  | Unix.ADDR_INET _ -> Unix.setsockopt s Unix.SO_REUSEADDR true
  | Unix.ADDR_UNIX _ -> ());
  Unix.bind s sockaddr;
  Unix.listen s 64;
  let unbind () =
    (try Unix.close s with Unix.Unix_error _ -> ());
    match sockaddr with
    | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Unix.ADDR_INET _ -> ()
  in
  (s, unbind)

let make_metrics_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "emc-serve-%d.metrics" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700
   with Unix.Unix_error (Unix.EEXIST, _, _) ->
     (* leftover from a recycled pid: clear stale snapshots *)
     Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir));
  dir

let remove_metrics_dir dir =
  Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let run opts art =
  let lsock, unbind =
    bind_listener
      (match opts.listen with
      | Port p -> Unix.ADDR_INET (Unix.inet_addr_loopback, p)
      | Unix_socket path -> Unix.ADDR_UNIX path)
  in
  let workers = max 1 opts.workers in
  let dir = make_metrics_dir () in
  metrics_dir := Some dir;
  let pids =
    List.init workers (fun _ -> match Unix.fork () with 0 -> worker art opts lsock | pid -> pid)
  in
  let stopping = ref false in
  let quit = Sys.Signal_handle (fun _ -> stopping := true) in
  Sys.set_signal Sys.sigterm quit;
  Sys.set_signal Sys.sigint quit;
  Emc_obs.Log.info ~src:"serve"
    ~fields:
      [ ("workload", Json.Str art.Artifact.workload);
        ("technique", Json.Str art.Artifact.technique);
        ("workers", Json.Int workers) ]
    "serving %s/%s on %s (%d worker%s)" art.Artifact.workload art.Artifact.technique
    (listen_description opts.listen) workers
    (if workers = 1 then "" else "s");
  let alive = ref pids in
  while (not !stopping) && !alive <> [] do
    match Unix.waitpid [] (-1) with
    | pid, _ -> alive := List.filter (( <> ) pid) !alive
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> alive := []
  done;
  (* graceful shutdown: workers finish their in-flight request and flush
     their final snapshot + access log, then exit; only after every
     worker is down do we report totals, unlink and clean up *)
  List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) !alive;
  List.iter
    (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !alive;
  let final = merged_snapshots dir in
  let total name = Option.value ~default:0 (List.assoc_opt name (Metrics.snapshot_counters final)) in
  unbind ();
  remove_metrics_dir dir;
  metrics_dir := None;
  Emc_obs.Log.info ~src:"serve"
    ~fields:
      [ ("requests", Json.Int (total "serve.requests"));
        ("errors", Json.Int (total "serve.errors")) ]
    "server on %s stopped (%d requests, %d errors)" (listen_description opts.listen)
    (total "serve.requests") (total "serve.errors")
