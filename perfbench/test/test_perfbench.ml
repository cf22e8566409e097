(* The benchmark's own arithmetic: self time from nested spans, the tail
   percentile a sample supports, and the failure and open-loop late
   shares. *)

open Perfbench

let close = Alcotest.float 1e-9

let span id parent name t0 t1 = { Spans.id; parent; name; t0; t1; run = 0 }

let test_self_time () =
  (* parent [0,10]; children overlap on [2,3] and one runs past the
     parent's end; the grandchild is covered by its own parent only *)
  let spans =
    [ span 0 (-1) "phase" 0.0 10.0; span 1 0 "a" 1.0 3.0; span 2 0 "b" 2.0 5.0;
      span 3 0 "c" 8.0 12.0; span 4 2 "d" 2.5 4.5 ]
  in
  let self = List.map (fun (s, t) -> (s.Spans.name, t)) (Spans.self_times spans) in
  Alcotest.check close "parent minus the union of its children" 4.0 (List.assoc "phase" self);
  Alcotest.check close "child minus its grandchild" 1.0 (List.assoc "b" self);
  Alcotest.check close "leaf keeps its whole duration" 2.0 (List.assoc "d" self);
  let phases = Spans.by_phase spans in
  Alcotest.(check int) "every span lands in its root's phase" 5
    (List.length (List.filter (fun ((p, _), _) -> p = "phase") phases));
  Alcotest.check close "phase self time" 4.0 (fst (List.assoc ("phase", "phase") phases))

let test_recorder () =
  Spans.enabled := true;
  Spans.spans := [];
  Spans.with_span "outer" (fun () -> Spans.with_span "inner" (fun () -> ()));
  (try Spans.with_span "failing" (fun () -> failwith "boom") with Failure _ -> ());
  Spans.enabled := false;
  Spans.with_span "untraced" (fun () -> ());
  let rec_ = Spans.recorded () in
  let find n = List.find (fun s -> s.Spans.name = n) rec_ in
  Alcotest.(check int) "nested span points at its parent" (find "outer").Spans.id
    (find "inner").Spans.parent;
  Alcotest.(check int) "a raising body still records its span" (-1) (find "failing").Spans.parent;
  Alcotest.(check int) "nothing recorded while disabled" 3 (List.length rec_);
  let self = Spans.self_times rec_ in
  List.iter (fun (_, t) -> Alcotest.(check bool) "self time is never negative" true (t >= 0.0)) self

let test_tail_percentile () =
  let tp = Alcotest.(option (float 0.0)) in
  Alcotest.check tp "1000 samples support p99" (Some 99.0) (Stats.tail_percentile 1000);
  Alcotest.check tp "999 samples only p90" (Some 90.0) (Stats.tail_percentile 999);
  Alcotest.check tp "10000 samples support p99.9" (Some 99.9) (Stats.tail_percentile 10000);
  Alcotest.check tp "20 samples support the median" (Some 50.0) (Stats.tail_percentile 20);
  Alcotest.check tp "15 samples support nothing" None (Stats.tail_percentile 15);
  Alcotest.(check int) "samples beyond p99 of 1000" 10 (Stats.beyond ~n:1000 99.0)

let test_ranks () =
  Alcotest.(check int) "exact rank despite float error" 10 (Stats.beyond ~n:10000 99.9);
  Alcotest.(check int) "p50 of an odd count" 2 (Stats.rank ~n:3 50.0);
  Alcotest.(check int) "p99 of 100 samples" 99 (Stats.rank ~n:100 99.0)

let test_shares () =
  Alcotest.check close "failed share of attempted" 1.5 (Stats.share_pct ~total:200 3);
  Alcotest.check close "no failures" 0.0 (Stats.share_pct ~total:7 0);
  Alcotest.check close "late open-loop arrivals of those sent" 25.0 (Stats.share_pct ~total:1200 300);
  Alcotest.check_raises "nothing attempted" (Invalid_argument "Stats.share_pct: empty total")
    (fun () -> ignore (Stats.share_pct ~total:0 0))

let () =
  Alcotest.run "perfbench"
    [ ( "arithmetic",
        [ Alcotest.test_case "self time from nested spans" `Quick test_self_time;
          Alcotest.test_case "span recorder" `Quick test_recorder;
          Alcotest.test_case "highest percentile with 10 samples beyond" `Quick test_tail_percentile;
          Alcotest.test_case "nearest ranks" `Quick test_ranks;
          Alcotest.test_case "failure and lateness shares" `Quick test_shares ] ) ]
