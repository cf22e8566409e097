(** A deliberately small HTTP/1.1 reader/writer — just enough protocol for
    the daemons: the server side parses requests from bytes the
    multiplexed loop has buffered, the client side reads and writes over
    [Unix] file descriptors. One request line, headers, an optional
    [Content-Length] body, keep-alive, and in-order pipelining via a
    per-connection carry buffer (the fleet coordinator keeps several
    requests in flight per worker). No chunked encoding, no TLS.

    Robustness is the point: header and body sizes are capped, reads honor
    the socket's receive timeout, and every malformed input is a typed
    [error], never an exception — the daemon must survive a fuzz loop of
    truncated and oversized garbage. *)

type request = {
  meth : string;  (** uppercase, e.g. "GET" *)
  path : string;  (** decoded path without the query string *)
  query : (string * string) list;  (** decoded key/value pairs *)
  headers : (string * string) list;  (** keys lowercased *)
  body : string;
}

type error =
  | Closed  (** clean EOF before any message byte — peer is done *)
  | Timeout  (** the socket's receive timeout (or connect timeout) expired *)
  | Too_large of string  (** headers or declared body over the cap; names which *)
  | Bad of string  (** malformed request line/headers or truncated body *)
  | Refused of string
      (** client side only: the peer refused or reset the connection — the
          fleet coordinator's signal that a worker has died *)

val error_to_string : error -> string

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

type parse =
  | Parsed of request * int
      (** one complete request plus the number of bytes it consumed; the
          remainder of the input is the start of the next pipelined message *)
  | Incomplete  (** syntactically fine so far — wait for more bytes *)
  | Invalid of error  (** terminal: respond with the mapped status and close *)

val parse_request : ?max_header:int -> ?max_body:int -> string -> parse
(** The server half: parse one request from an in-memory accumulation of
    connection bytes without touching a descriptor. The multiplexed
    server loop appends each non-blocking read's bytes and re-parses.
    [max_header] defaults to 16 KiB and [max_body] to 1 MiB. A head is
    [Too_large "headers"] when its terminator starts after [max_header],
    or when there is no terminator yet and more than [max_header + 3]
    bytes; where the reads split the input never changes the outcome. A
    declared [Content-Length] over the cap is [Too_large "body"] before
    any body byte arrives. *)

type response = {
  status : int;
  resp_headers : (string * string) list;  (** keys lowercased *)
  resp_body : string;
}

val response_header : response -> string -> string option
(** Case-insensitive header lookup. *)

val read_response :
  ?max_header:int ->
  ?max_body:int ->
  ?timeout:float ->
  ?carry:string ref ->
  Unix.file_descr ->
  (response, error) result
(** The client half: read one [Content-Length]-framed response from a
    keep-alive connection (the [emc loadgen] driver, the fleet coordinator
    and the tests). [max_header] defaults to 16 KiB, with the same cap
    rule as {!parse_request}; [max_body] defaults to 8 MiB.

    [timeout] bounds the {e whole} response (head + body) against an
    absolute deadline — without it, only the socket's receive timeout
    applies, which resets on every read and so never fires against a peer
    that dribbles bytes. EINTR never restarts the budget. The fleet
    coordinator passes its per-dispatch budget here so a worker dribbling
    a response cannot stall the run past its chunk deadline.

    [carry] makes pipelining correct: reads pull from the socket in
    chunks, so bytes of the {e next} pipelined response may arrive glued
    to this one's body. Pass one [ref] per connection — its contents are
    consumed before reading the socket and, on success, it is refilled
    with the surplus. Without [carry], such surplus is discarded (fine for
    strict request/response lockstep, fatal for pipelining). A caller
    holding a non-empty carry must not wait for socket readability — the
    next response may already be fully buffered. The coordinator passes
    one per worker connection when [depth > 1]. *)

val connect : ?timeout:float -> Unix.sockaddr -> (Unix.file_descr, error) result
(** Open a stream connection with a connect timeout (default 10 s), mapping
    a refused/unreachable peer to {!Refused} and a slow one to {!Timeout}
    instead of letting [Unix_error] escape. The timeout is enforced as an
    absolute deadline (EINTR re-waits with the remaining budget, never the
    full window). On success the descriptor's send/receive timeouts are set
    to [timeout], so subsequent {!read_response} calls honor it as a
    per-read backstop; pass [?timeout] there to bound whole responses. *)

val write_request :
  Unix.file_descr ->
  meth:string ->
  path:string ->
  ?headers:(string * string) list ->
  ?body:string ->
  unit ->
  (unit, error) result
(** Write one [Content-Length]-framed request; a reset mid-write is
    {!Refused}, a send-timeout expiry is {!Timeout}. Callers should ignore
    SIGPIPE. *)

val response_head_into :
  Buffer.t ->
  status:int ->
  content_type:string ->
  body_length:int ->
  keep_alive:bool ->
  (string * string) list ->
  unit
(** Render the status line, framing headers, extras and the blank line
    into [b] — the body (exactly [body_length] bytes) follows. The
    multiplexed server loop's one response formatter. *)

val status_text : int -> string
