(** The model-serving daemon: loads one {!Emc_core.Artifact} and serves
    predictions, term rankings and model-based search over HTTP/1.1 —
    train once, persist, serve many, with zero simulator invocations.

    Endpoints (all responses JSON unless noted):

    - [POST /predict] — body [{"point": [c1, ...]}] for one coded design
      point or [{"points": [[...], ...]}] for a batch; add
      ["space": "raw"] to send raw parameter values instead (coded through
      the artifact's schema). Points are validated against the schema's
      arity. Responses: [{"prediction": p}] / [{"predictions": [...]}],
      bit-identical to the in-process model.
    - [GET /rank?top=N] — significant terms sorted by |coefficient|
      strongest first, NaN coefficients last (the paper's Table-4
      reading), for every family. A malformed or non-positive [top] is a
      structured 400, never silently "all terms".
    - [POST /search] — GA over the served model (paper §6.3): body
      [{"config": "typical"}] or [{"march": [11 raw values]}], optional
      ["seed"], ["pop_size"], ["generations"]. Returns prescribed flags,
      predicted cycles and the GA evaluation count.
    - [POST /pareto] — NSGA-II cycles × energy front over a two-response
      artifact (trained with [emc train --energy]); same body as
      [/search]. Returns [{"front": [...], "size", "evaluations",
      "seed"}], byte-identical to [emc pareto --json] at the same seed
      and parameters; 409 [no_energy_response] when the artifact has no
      energy model.
    - [GET /healthz] — liveness plus artifact identity.
    - [GET /metrics] — Prometheus text exposition aggregated across
      {e all} pre-forked workers: each worker publishes an atomic
      registry-snapshot file at startup and after responses complete,
      and the scrape merges them — counters sum exactly and latency
      histograms merge bucket-wise into real cumulative [le=]-bucket
      Prometheus histograms, whichever worker answers. (Publishes
      happen {e after} the response write completes and are debounced
      to at most one per 250 ms per worker, so a scrape may trail
      another worker's very latest responses by up to the debounce
      interval; the answering worker's own numbers are always exact,
      and everything converges within the interval.)

    Observability: every request carries an id (the client's
    [X-Request-Id] when it sends a sane one, generated otherwise) that is
    echoed on the response; with [EMC_ACCESS_LOG=<file>] (or
    [--access-log]) each request appends one JSONL record with the id,
    status, sizes and per-phase parse/handle/write timings; with
    [EMC_TRACE=<file>] each worker writes those same phases as Chrome
    trace spans to [<file>.<pid>].

    Errors are structured JSON ([{"error": {"code", "message"}}]) with
    correct status codes (400/404/405/408/413/415/500); no exception
    escapes to a client.

    Concurrency: the daemon pre-forks [workers] processes (the [lib/par]
    fork pattern) sharing one non-blocking listening socket; {e each}
    worker runs the select()-driven scheduler {!serve_on} over up to
    [max_conns] keep-alive connections, so N workers serve hundreds of
    concurrent connections and a slow or idle client can never pin a
    worker. The fleet daemons run the same scheduler in process. Per-connection
    deadlines are absolute: a request must complete within
    [read_timeout] of its first byte (dribblers get a 408), a response
    must drain within [read_timeout] (stalled readers are cut off), and
    a connection with no bytes outstanding closes silently after
    [idle_timeout]. Pipelined requests on one connection are answered
    strictly in order, and at most one response per connection is
    buffered (kernel-level back-pressure bounds memory). Shutdown on
    SIGINT/SIGTERM is graceful: accepting stops, in-flight responses
    drain (bounded), each worker flushes its final metrics snapshot and
    the access log, workers exit, the Unix socket is unlinked. *)

type listen = Port of int | Unix_socket of string

type opts = {
  listen : listen;
  workers : int;  (** pre-forked scheduler workers (>= 1) *)
  max_body : int;  (** request body cap in bytes *)
  read_timeout : float;
      (** whole-request read deadline and response-drain deadline, seconds *)
  idle_timeout : float;
      (** close a keep-alive connection with no request in flight after
          this many seconds of silence *)
  max_conns : int;
      (** per-worker concurrent-connection cap (select() bounds this to
          roughly 1000 per process) *)
  access_log : string option;
      (** JSONL access-log path (append); every worker writes to it,
          one whole line per request *)
}

val default_opts : listen -> opts
(** 1 worker, 1 MiB body cap, 10 s read timeout, 30 s idle timeout, 512
    connections per worker, access log from [EMC_ACCESS_LOG] when set. *)

val prometheus : unit -> string
(** This process's registry rendered as Prometheus text exposition. *)

val prometheus_of_snapshot : Emc_obs.Metrics.snapshot -> string
(** Render an (aggregated) snapshot — what [GET /metrics] serves after
    merging every worker's published snapshot. *)

type hot
(** Per-worker serving context: the artifact, its schema's arity resolved
    once, a reused point arena and a reused response-body buffer. Not
    shareable between concurrent request handlers. *)

val make_hot : Emc_core.Artifact.t -> hot

val handle_into : hot -> Http.request -> int * string
(** [(status, content_type)] for one request on any endpoint, the
    response body rendered into {!hot_body} (valid until the next call).
    The one request path the daemon serves through: dispatch, with
    per-endpoint telemetry and a structured 500 for a handler that
    raises. [/predict] parses points into the arena and evaluates them
    with {!Emc_regress.Repr.eval}, so served predictions are the
    in-process model's bit for bit. *)

val hot_body : hot -> Buffer.t
(** The response body rendered by the last {!handle_into}. *)

val run : opts -> Emc_core.Artifact.t -> unit
(** Bind, fork [workers] copies of {!serve_on}, serve until SIGINT/SIGTERM,
    clean up. Blocks. *)

(** {1 The connection scheduler} shared by [emc serve] and the fleet
    daemons *)

type handler = Http.request -> Buffer.t -> int * string
(** Render one response body into the (cleared) buffer and return its
    [(status, content_type)]. A handler that raises is answered with a
    structured 500. *)

val serve_on :
  max_body:int ->
  read_timeout:float ->
  idle_timeout:float ->
  ?max_conns:int ->
  ?access_log:string ->
  Unix.file_descr ->
  handler ->
  unit
(** Run the select()-driven connection scheduler over an already-bound,
    listening socket until SIGINT/SIGTERM (it installs those handlers and
    ignores SIGPIPE), then drain in-flight responses (bounded), close
    every connection and return. [max_body], [read_timeout],
    [idle_timeout], [max_conns] (default 512) and [access_log] mean what
    the {!opts} fields of the same names do. Each response echoes the
    request's [X-Request-Id] (generated when absent) and, when the
    request carries one, its [X-Chunk-Id]. *)

val bind_listener : Unix.sockaddr -> Unix.file_descr * (unit -> unit)
(** Bind and listen (backlog 64), returning the socket and a function
    that closes it and, for a Unix socket, unlinks its path. A stale
    socket file at the path is replaced; any other file there is
    refused with [Failure], never deleted. *)

val json_body : int -> Emc_obs.Json.t -> int * string * string
(** [(status, "application/json", body)], newline-terminated. *)

val error_body : int -> string -> string -> int * string * string
(** The structured error shape [{"error": {"code", "message"}}] with
    [json_body]'s framing. *)
