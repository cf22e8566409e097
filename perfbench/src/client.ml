(** The serving workload's value check and error tally. The load itself
    comes from [Emc_loadgen.Loadgen]; this module sends a seeded pool of
    [/predict] requests over one keep-alive connection and compares every
    served value with in-process evaluation of the artifact, bit for
    bit — the one check the load generator does not make. *)

module Http = Emc_serve.Http
module Loadgen = Emc_loadgen.Loadgen

type kind = Predict | Predict_batch

type request = {
  kind : kind;
  bytes : string;  (** the whole HTTP/1.1 request *)
  expect : float array;  (** in-process predictions, in order *)
}

type errors = {
  mutable connect : int;
  mutable timeout : int;
  mutable protocol : int;  (** unparseable or truncated response *)
  mutable status : int;  (** non-200 status *)
  mutable mismatch : int;
      (** a served value differs from in-process evaluation, or a
          response answers another request *)
}

let new_errors () = { connect = 0; timeout = 0; protocol = 0; status = 0; mismatch = 0 }
let errors_total e = e.connect + e.timeout + e.protocol + e.status + e.mismatch

(** Fold a load generator report's error classes into the tally. *)
let add_report e (r : Loadgen.report) =
  e.connect <- e.connect + r.Loadgen.r_connect_errors;
  e.timeout <- e.timeout + r.Loadgen.r_timeouts;
  e.protocol <- e.protocol + r.Loadgen.r_protocol_errors;
  e.status <- e.status + r.Loadgen.r_4xx + r.Loadgen.r_5xx;
  e.mismatch <- e.mismatch + r.Loadgen.r_id_mismatches

let render_point b p =
  Buffer.add_char b '[';
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "%.17g" x))
    p;
  Buffer.add_char b ']'

(* The request shapes [emc loadgen] sends: one point, or a batch under
   "points", both to /predict. *)
let make_request ~predict kind points =
  let b = Buffer.create 512 in
  (match (kind, points) with
  | Predict, [| p |] ->
      Buffer.add_string b "{\"point\":";
      render_point b p
  | _ ->
      Buffer.add_string b "{\"points\":[";
      Array.iteri
        (fun i p ->
          if i > 0 then Buffer.add_char b ',';
          render_point b p)
        points;
      Buffer.add_char b ']');
  Buffer.add_char b '}';
  let body = Buffer.contents b in
  let bytes =
    Printf.sprintf
      "POST /predict HTTP/1.1\r\nHost: emc\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  { kind; bytes; expect = Array.map predict points }

(** Bit-exact check of one response body against the request's expected
    predictions. *)
let body_matches req body =
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let value = function
    | Emc_obs.Json.Float f -> Some f
    | Emc_obs.Json.Int i -> Some (float_of_int i)
    | _ -> None
  in
  let module J = Emc_obs.Json in
  match J.parse body with
  | Error _ -> false
  | Ok j -> (
      match (req.kind, J.member "prediction" j, J.member "predictions" j) with
      | Predict, Some v, _ -> (
          Array.length req.expect = 1
          && match value v with Some f -> same f req.expect.(0) | None -> false)
      | Predict_batch, _, Some (J.List vs) ->
          List.length vs = Array.length req.expect
          && List.for_all2
               (fun v e -> match value v with Some f -> same f e | None -> false)
               vs (Array.to_list req.expect)
      | _ -> false)

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(** Send every request of [pool] in turn over one keep-alive connection
    to [socket], reconnecting after a failed exchange, and tally the
    failures in [errs]. Returns the number of requests sent. *)
let verify ~socket ~errs pool =
  let conn = ref None in
  let drop () =
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !conn;
    conn := None
  in
  let exchange req =
    let fd =
      match !conn with
      | Some fd -> Ok fd
      | None -> Http.connect ~timeout:5.0 (Unix.ADDR_UNIX socket)
    in
    match fd with
    | Error _ -> errs.connect <- errs.connect + 1
    | Ok fd -> (
        conn := Some fd;
        match write_all fd req.bytes 0 with
        | exception Unix.Unix_error _ ->
            errs.connect <- errs.connect + 1;
            drop ()
        | () -> (
            match Http.read_response ~timeout:5.0 fd with
            | Ok r when r.Http.status <> 200 -> errs.status <- errs.status + 1
            | Ok r -> if not (body_matches req r.Http.resp_body) then errs.mismatch <- errs.mismatch + 1
            | Error Http.Timeout ->
                errs.timeout <- errs.timeout + 1;
                drop ()
            | Error _ ->
                errs.protocol <- errs.protocol + 1;
                drop ()))
  in
  Fun.protect ~finally:drop (fun () -> Array.iter exchange pool);
  Array.length pool
