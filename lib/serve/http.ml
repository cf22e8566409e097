(** Minimal HTTP/1.1 over Unix file descriptors (see http.mli). *)

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
}

type error =
  | Closed
  | Timeout
  | Too_large of string
  | Bad of string
  | Refused of string

let header req name =
  List.assoc_opt (String.lowercase_ascii name) req.headers

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 415 -> "Unsupported Media Type"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | _ -> "Status"

let url_decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '+' -> Buffer.add_char b ' '
    | '%' when !i + 2 < n -> (
        match (hex s.[!i + 1], hex s.[!i + 2]) with
        | Some h, Some l ->
            Buffer.add_char b (Char.chr ((h lsl 4) lor l));
            i := !i + 2
        | _ -> Buffer.add_char b '%')
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let parse_query q =
  String.split_on_char '&' q
  |> List.filter_map (fun kv ->
         if kv = "" then None
         else
           match String.index_opt kv '=' with
           | Some i ->
               Some
                 ( url_decode (String.sub kv 0 i),
                   url_decode (String.sub kv (i + 1) (String.length kv - i - 1)) )
           | None -> Some (url_decode kv, ""))

let trim = String.trim

(* Absolute-deadline wait for readability. EINTR recomputes the remaining
   budget instead of restarting the full timeout — a signal-heavy process
   (interval timers, child reaping) would otherwise restart [select] with
   the whole window on every signal and never time out at all. Likewise a
   spurious early wakeup just loops: only the clock decides Timeout. *)
let wait_readable fd deadline =
  let rec go () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then Error Timeout
    else
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> go ()
      | _ -> Ok ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Where the head's \r\n\r\n terminator starts, under the one head-cap
   rule, whichever way the bytes arrived: a head is too large when its
   terminator starts after [max_header], or when there is no terminator
   yet and more than [max_header + 3] bytes — a terminator starting at
   [max_header] is still within the cap, and its last three bytes may not
   have arrived. [Ok None] means "read more". *)
let head_end ~max_header s =
  let n = String.length s in
  let rec find i =
    if i + 3 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i when i > max_header -> Error (Too_large "headers")
  | Some i -> Ok (Some i)
  | None when n > max_header + 3 -> Error (Too_large "headers")
  | None -> Ok None

(* Read until the header terminator appears; any extra bytes already read
   belong to the body and are returned alongside. When [deadline] is set it
   bounds the {e whole} head, not each individual read — a peer dribbling
   one byte per interval can otherwise hold a reader forever while every
   per-read timeout happily resets. *)
let read_head ?deadline ?(already = "") ~max_header fd =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf already;
  let chunk = Bytes.create 4096 in
  let rec loop () =
    let s = Buffer.contents buf in
    match head_end ~max_header s with
    | Error e -> Error e
    | Ok (Some i) -> Ok (String.sub s 0 i, String.sub s (i + 4) (String.length s - i - 4))
    | Ok None -> (
        match
          match deadline with
          | None -> Ok ()
          | Some d -> wait_readable fd d
        with
        | Error e -> Error e
        | Ok () -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> if Buffer.length buf = 0 then Error Closed else Error (Bad "truncated head")
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                loop ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Error Timeout
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
                if Buffer.length buf = 0 then Error Closed else Error (Bad "connection reset")))
  in
  loop ()

(* Returns the body plus any surplus bytes that followed it. The reads
   themselves never overshoot (capped at [len]); surplus can only come
   from [already] — head-reading having slurped past the terminator. On a
   pipelined connection that surplus is the start of the next message and
   must be carried over, not dropped. *)
let read_body ?deadline ~max_body fd ~already len =
  if len > max_body then Error (Too_large "body")
  else if String.length already >= len then
    Ok (String.sub already 0 len, String.sub already len (String.length already - len))
  else begin
    let buf = Buffer.create len in
    Buffer.add_string buf already;
    let chunk = Bytes.create 4096 in
    let rec loop () =
      if Buffer.length buf >= len then Ok (Buffer.contents buf, "")
      else (
        match
          match deadline with None -> Ok () | Some d -> wait_readable fd d
        with
        | Error e -> Error e
        | Ok () -> (
            match
              Unix.read fd chunk 0 (min (Bytes.length chunk) (len - Buffer.length buf))
            with
            | 0 -> Error (Bad "truncated body")
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                loop ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                Error Timeout
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Error (Bad "connection reset")))
    in
    loop ()
  end

let parse_headers header_lines =
  List.filter_map
    (fun l ->
      if l = "" then None
      else
        match String.index_opt l ':' with
        | Some i ->
            Some
              ( String.lowercase_ascii (trim (String.sub l 0 i)),
                trim (String.sub l (i + 1) (String.length l - i - 1)) )
        | None -> None)
    header_lines

(* Request-line + headers parsing: [head] is everything before the
   \r\n\r\n terminator. Yields the declared body length so the caller
   can frame the body. *)
let request_of_head head =
  match String.split_on_char '\n' head |> List.map (fun l -> trim l) with
  | [] -> Error (Bad "empty request")
  | request_line :: header_lines -> (
      match String.split_on_char ' ' request_line with
      | [ meth; target; version ] when version = "HTTP/1.1" || version = "HTTP/1.0" -> (
          let headers = parse_headers header_lines in
          let path, query =
            match String.index_opt target '?' with
            | Some i ->
                ( url_decode (String.sub target 0 i),
                  parse_query (String.sub target (i + 1) (String.length target - i - 1)) )
            | None -> (url_decode target, [])
          in
          if List.mem_assoc "transfer-encoding" headers then
            Error (Bad "chunked transfer encoding is not supported")
          else
            match List.assoc_opt "content-length" headers with
            | None -> Ok (String.uppercase_ascii meth, path, query, headers, 0)
            | Some v -> (
                match int_of_string_opt (trim v) with
                | Some n when n >= 0 -> Ok (String.uppercase_ascii meth, path, query, headers, n)
                | _ -> Error (Bad ("malformed content-length: " ^ v))))
      | _ -> Error (Bad "malformed request line"))

(* The server half: parse one request from an in-memory byte
   accumulation without touching any descriptor. The multiplexed server
   loop appends whatever the socket had and retries; [Incomplete] means
   "wait for more bytes", the two terminal cases consume the connection. *)

type parse =
  | Parsed of request * int
  | Incomplete
  | Invalid of error

let parse_request ?(max_header = 16 * 1024) ?(max_body = 1024 * 1024) s =
  match head_end ~max_header s with
  | Error e -> Invalid e
  | Ok None -> Incomplete
  | Ok (Some i) -> (
      match request_of_head (String.sub s 0 i) with
      | Error e -> Invalid e
      | Ok (meth, path, query, headers, len) ->
          if len > max_body then Invalid (Too_large "body")
          else
            let body_start = i + 4 in
            if String.length s - body_start >= len then
              Parsed ({ meth; path; query; headers; body = String.sub s body_start len }, body_start + len)
            else Incomplete)

(* [carry] is the per-connection pipelining buffer: bytes read past the
   end of the previous message seed this one, and this one's surplus is
   put back. Without it a second in-flight response's first bytes are
   silently discarded with the preceding body's read-ahead. *)
let take_carry = function
  | None -> ""
  | Some r ->
      let s = !r in
      r := "";
      s

let put_carry carry surplus =
  match carry with Some r -> r := surplus | None -> ()

(* The client half: read one response (loadgen, the fleet coordinator and
   tests). *)

type response = {
  status : int;
  resp_headers : (string * string) list;
  resp_body : string;
}

let response_header resp name =
  List.assoc_opt (String.lowercase_ascii name) resp.resp_headers

let read_response ?(max_header = 16 * 1024) ?(max_body = 8 * 1024 * 1024) ?timeout ?carry fd =
  let deadline = Option.map (fun t -> Unix.gettimeofday () +. t) timeout in
  match read_head ?deadline ~already:(take_carry carry) ~max_header fd with
  | Error e -> Error e
  | Ok (head, rest) -> (
      match String.split_on_char '\n' head |> List.map (fun l -> trim l) with
      | [] -> Error (Bad "empty response")
      | status_line :: header_lines -> (
          match String.split_on_char ' ' status_line with
          | version :: code :: _
            when String.length version >= 5 && String.sub version 0 5 = "HTTP/" -> (
              match int_of_string_opt code with
              | None -> Error (Bad ("malformed status code: " ^ code))
              | Some status -> (
                  let headers = parse_headers header_lines in
                  let len =
                    match List.assoc_opt "content-length" headers with
                    | None -> Ok 0
                    | Some v -> (
                        match int_of_string_opt (trim v) with
                        | Some n when n >= 0 -> Ok n
                        | _ -> Error (Bad ("malformed content-length: " ^ v)))
                  in
                  match len with
                  | Error e -> Error e
                  | Ok len -> (
                      match read_body ?deadline ~max_body fd ~already:rest len with
                      | Error e -> Error e
                      | Ok (body, surplus) ->
                          put_carry carry surplus;
                          Ok { status; resp_headers = headers; resp_body = body })))
          | _ -> Error (Bad "malformed status line")))

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* ---------------- client half: connect + request ---------------- *)

let error_to_string = function
  | Closed -> "connection closed"
  | Timeout -> "timed out"
  | Too_large what -> what ^ " too large"
  | Bad msg -> msg
  | Refused msg -> msg

(* A typed connect so a dead peer is an [error], never an escaping
   [Unix_error]: the fleet coordinator leans on this to tell a crashed
   worker (Refused/Closed) from a straggler (Timeout). The connect itself
   is raced against [timeout] via a non-blocking socket + select; the
   returned descriptor then carries [timeout] as its send/receive timeout,
   so every subsequent read honors it too. *)
let connect ?(timeout = 10.0) sockaddr =
  let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  let fail e =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error e
  in
  let refused err = Refused ("connect: " ^ Unix.error_message err) in
  let finish () =
    Unix.clear_nonblock fd;
    (* Unix-domain sockets reject SO_RCVTIMEO on some systems; timeouts
       there come from the select-guarded connect and the peer's behavior *)
    (try
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
     with Unix.Unix_error _ -> ());
    Ok fd
  in
  match
    Unix.set_nonblock fd;
    Unix.connect fd sockaddr
  with
  | () -> finish ()
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
      (* a deadline, not a per-select timeout: EINTR (or an early wakeup)
         re-waits with the remaining budget rather than the full window *)
      let deadline = Unix.gettimeofday () +. timeout in
      let rec wait () =
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then fail Timeout
        else
          match Unix.select [] [ fd ] [] remaining with
          | _, [], _ -> wait ()
          | _, _ :: _, _ -> (
              match Unix.getsockopt_error fd with
              | None -> finish ()
              | Some err -> fail (refused err))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      wait ())
  | exception Unix.Unix_error (err, _, _) -> fail (refused err)

let write_request fd ~meth ~path ?(headers = []) ?(body = "") () =
  let b = Buffer.create (String.length body + 128) in
  Buffer.add_string b (Printf.sprintf "%s %s HTTP/1.1\r\n" meth path);
  if not (List.exists (fun (k, _) -> String.lowercase_ascii k = "host") headers) then
    Buffer.add_string b "Host: localhost\r\n";
  List.iter (fun (k, v) -> Buffer.add_string b (k ^ ": " ^ v ^ "\r\n")) headers;
  Buffer.add_string b (Printf.sprintf "Content-Length: %d\r\n\r\n" (String.length body));
  Buffer.add_string b body;
  match write_all fd (Buffer.contents b) with
  | () -> Ok ()
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ECONNREFUSED), _, _) ->
      Error (Refused "peer reset the connection during the request write")
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Error Timeout

(* The response-head formatter of the multiplexed server loop. *)
let response_head_into b ~status ~content_type ~body_length ~keep_alive headers =
  (match status with
  | 200 -> Buffer.add_string b "HTTP/1.1 200 OK\r\n"
  | s ->
      Buffer.add_string b "HTTP/1.1 ";
      Buffer.add_string b (string_of_int s);
      Buffer.add_char b ' ';
      Buffer.add_string b (status_text s);
      Buffer.add_string b "\r\n");
  Buffer.add_string b "Content-Type: ";
  Buffer.add_string b content_type;
  Buffer.add_string b "\r\nContent-Length: ";
  Buffer.add_string b (string_of_int body_length);
  Buffer.add_string b "\r\n";
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_string b ": ";
      Buffer.add_string b v;
      Buffer.add_string b "\r\n")
    headers;
  Buffer.add_string b
    (if keep_alive then "Connection: keep-alive\r\n" else "Connection: close\r\n");
  Buffer.add_string b "\r\n"
