(** Model representations and artifacts: the serialized form of a fitted
    model must reproduce its predictions bit for bit after a full
    JSON-text round trip, and artifact loading must be total — corrupt
    files and version mismatches come back as one-line [Error]s. *)

open Emc_regress
open Emc_core
module Json = Emc_obs.Json

let cb = Alcotest.(check bool)

let rng0 () = Emc_util.Rng.create 42

let sample rng k n f =
  let x = Array.init n (fun _ -> Array.init k (fun _ -> Emc_util.Rng.float rng 2.0 -. 1.0)) in
  Dataset.create x (Array.map f x)

(* probe points deliberately include corners outside the training cloud so
   clamped models exercise both branches of the envelope *)
let probes k =
  let rng = Emc_util.Rng.create 97 in
  Array.init 64 (fun i ->
      Array.init k (fun _ ->
          if i < 4 then (if i mod 2 = 0 then -1.5 else 1.5)
          else Emc_util.Rng.float rng 2.4 -. 1.2))

(* The whole point of the subsystem: predict → to_json → to_string → parse
   → of_json → eval must be the identity on every output bit. *)
let check_roundtrip ~what (m : Model.t) =
  let repr =
    match m.Model.repr with
    | Some r -> r
    | None -> Alcotest.failf "%s: fitted model carries no repr" what
  in
  let text = Json.to_string (Repr.to_json repr) in
  let reloaded =
    match Json.parse text with
    | Error e -> Alcotest.failf "%s: emitted JSON does not parse: %s" what e
    | Ok j -> (
        match Repr.of_json j with
        | Error e -> Alcotest.failf "%s: repr does not reload: %s" what e
        | Ok r -> r)
  in
  fun dims ->
    Array.iteri
      (fun i x ->
        Alcotest.(check int64)
          (Printf.sprintf "%s: bits at probe %d" what i)
          (Int64.bits_of_float (m.Model.predict x))
          (Int64.bits_of_float (Repr.eval reloaded x)))
      (probes dims)

let f3 x = 50.0 +. (7.0 *. x.(0)) -. (3.0 *. x.(1) *. x.(2)) +. (2.0 *. x.(1) *. x.(1))

let test_linear_roundtrip () =
  let d = sample (rng0 ()) 3 60 f3 in
  check_roundtrip ~what:"linear" (Linear.fit ~interactions:false d) 3;
  check_roundtrip ~what:"linear+interactions" (Linear.fit ~interactions:true d) 3

let test_rank_roundtrip () =
  let d = sample (rng0 ()) 3 60 f3 in
  check_roundtrip ~what:"rank" (Rank.fit ~rng:(rng0 ()) d) 3;
  check_roundtrip ~what:"rank no-interactions" (Rank.fit ~interactions:false ~rng:(rng0 ()) d) 3;
  (* strictness: a rank repr with no coefficients must not load *)
  let bad =
    Json.Obj
      [ ("family", Json.Str "rank"); ("interactions", Json.Bool true);
        ("beta", Json.List []) ]
  in
  cb "empty beta rejected" true (Result.is_error (Repr.of_json bad))

let test_mars_roundtrip () =
  let d = sample (rng0 ()) 3 120 f3 in
  check_roundtrip ~what:"mars" (Mars.fit d) 3

let test_rbf_roundtrip () =
  let d = sample (rng0 ()) 3 80 f3 in
  List.iter
    (fun k ->
      check_roundtrip
        ~what:("rbf:" ^ Rbf.kernel_name k)
        (Rbf.fit ~kernel:k ~size_grid:[ 6; 10 ] d)
        3)
    [ Rbf.Gaussian; Rbf.Multiquadric; Rbf.InverseMultiquadric ]

let test_clamped_roundtrip () =
  let d = sample (rng0 ()) 3 80 f3 in
  List.iter
    (fun t ->
      let m = Modeling.fit t d in
      (match m.Model.repr with
      | Some (Repr.Clamp _) -> ()
      | Some _ -> Alcotest.failf "%s: Modeling.fit repr is not clamped" (Modeling.technique_name t)
      | None -> Alcotest.failf "%s: Modeling.fit dropped the repr" (Modeling.technique_name t));
      check_roundtrip ~what:("clamped " ^ Modeling.technique_name t) m 3)
    Modeling.all_techniques

let test_eval_matches_predict_exactly () =
  (* same check without serialization: predict IS Repr.eval repr *)
  let d = sample (rng0 ()) 4 90 (fun x -> 10.0 +. x.(0) -. (2.0 *. x.(3))) in
  let m = Rbf.fit d in
  let repr = Option.get m.Model.repr in
  Array.iter
    (fun x ->
      Alcotest.(check int64) "predict = eval repr"
        (Int64.bits_of_float (m.Model.predict x))
        (Int64.bits_of_float (Repr.eval repr x)))
    (probes 4)

(* ---------------- golden predictions ---------------- *)

(* Hand-written reprs over 3 inputs, every coefficient a closed-form
   rational, so the table pins evaluation alone, not a fitter. *)
let golden_reprs =
  let beta interactions =
    Array.init (Repr.n_features ~interactions 3) (fun i ->
        float_of_int ((7 * i mod 11) - 5) /. 3.0)
  in
  let linear interactions =
    Repr.Linear { interactions; beta = beta interactions; mu = 50.0; sd = 7.0 /. 3.0 }
  in
  let hinge dim knot positive = { Repr.dim; knot; positive } in
  let rbf kernel =
    Repr.Rbf
      { kernel;
        centers =
          Array.init 4 (fun j ->
              Array.init 3 (fun d -> float_of_int (((3 * j) + d) mod 5 - 2) /. 2.5));
        radii = Array.init 4 (fun j -> 0.5 +. (float_of_int j /. 4.0));
        weights = Array.init 5 (fun j -> float_of_int (j - 2) /. 7.0);
        mu = 100.0;
        sd = 10.0 /. 3.0 }
  in
  [ ("linear", linear false);
    ("linear+interactions", linear true);
    ("rank", Repr.Rank { interactions = true; beta = beta true });
    ( "mars",
      Repr.Mars
        { bases =
            [| []; [ hinge 0 0.1 true ]; [ hinge 1 (-0.2) false ];
               [ hinge 1 (-0.2) true; hinge 2 0.3 false ]; [ hinge 0 (-0.5) true; hinge 2 0.0 true ] |];
          weights = [| 0.5; 3.0 /. 7.0; -5.0 /. 3.0; 2.0 /. 9.0; 1.25 |];
          mu = 20.0;
          sd = 4.0 /. 3.0 } );
    ("rbf gaussian", rbf Repr.Gaussian);
    ("rbf multiquadric", rbf Repr.Multiquadric);
    ("rbf inverse-multiquadric", rbf Repr.InverseMultiquadric);
    ("clamp", Repr.Clamp { lo = 44.0; hi = 52.0; body = linear true }) ]

(* [Repr.eval] of each golden repr at [probes 3], as %h literals. The
   table was generated at commit 0c6de77 by the two evaluators of that
   tree, [Repr.eval] (building the feature row) and the since-deleted
   compiled evaluator (hoisted dispatch, reused feature scratch), which
   agreed on every bit; it is the oracle that the single evaluator keeps
   the old arithmetic. *)
let golden_table =
  [
    ( "linear",
      [|
        "0x1.4238e38e38e39p+5"; "0x1.9f8e38e38e38ep+5"; "0x1.4238e38e38e39p+5";
        "0x1.9f8e38e38e38ep+5"; "0x1.643db51adffcp+5"; "0x1.8c042e6d1559ep+5";
        "0x1.854b1cc904e79p+5"; "0x1.62d20073dff5bp+5"; "0x1.a379ec48e4e0cp+5";
        "0x1.713483ec0d794p+5"; "0x1.629de1817aef7p+5"; "0x1.593e0c5e87eafp+5";
        "0x1.8b6179159f6cp+5"; "0x1.87505269e9f0dp+5"; "0x1.75542f4ebeedep+5";
        "0x1.8960745ce9f7dp+5"; "0x1.71fc4fd6a143bp+5"; "0x1.76ccba60a3562p+5";
        "0x1.88fc5504bf8e1p+5"; "0x1.808e38261f92cp+5"; "0x1.5a206fd734925p+5";
        "0x1.5a757b98a9d9fp+5"; "0x1.5d704d9e4ce0cp+5"; "0x1.6d992bb74efacp+5";
        "0x1.906f7519c5c86p+5"; "0x1.8eefbced2b13cp+5"; "0x1.54e911cb51eb8p+5";
        "0x1.779d3dbe68a37p+5"; "0x1.8d675231426dbp+5"; "0x1.8aa3fd621bc66p+5";
        "0x1.617b052c2ffccp+5"; "0x1.5ca6dee614692p+5"; "0x1.8d0c5cafdca37p+5";
        "0x1.6ec0414a3cc28p+5"; "0x1.3dec7ef7cdaf6p+5"; "0x1.62a030a058a71p+5";
        "0x1.59dda13289ab5p+5"; "0x1.63dc77f77e9c6p+5"; "0x1.58261f08e37a3p+5";
        "0x1.70f19abcb0bdbp+5"; "0x1.6cdf104dac756p+5"; "0x1.5761971333a5fp+5";
        "0x1.7729454b5fe4ep+5"; "0x1.5068817381b03p+5"; "0x1.74ca5e007f03cp+5";
        "0x1.86a8b3bb57d73p+5"; "0x1.9a1bef594dad3p+5"; "0x1.6ea8dfef60fadp+5";
        "0x1.570279ed4d27p+5"; "0x1.7f47cb27e76ccp+5"; "0x1.52631d327e254p+5";
        "0x1.7d048e94f193ap+5"; "0x1.825234f71640ep+5"; "0x1.77fb31d929d13p+5";
        "0x1.8f53e723ab829p+5"; "0x1.5db4e890b971p+5"; "0x1.53ee923f64c8ap+5";
        "0x1.6a831d029f658p+5"; "0x1.7647926c90c59p+5"; "0x1.52a1954fa460dp+5";
        "0x1.8aaa7aa49b279p+5"; "0x1.47c21a909263ap+5"; "0x1.78a08c7dacaap+5";
        "0x1.561d8cddd862bp+5";
      |] );
    ( "linear+interactions",
      [|
        "0x1.5038e38e38e39p+5"; "0x1.ad8e38e38e38ep+5"; "0x1.5038e38e38e39p+5";
        "0x1.ad8e38e38e38ep+5"; "0x1.69c1c7447582bp+5"; "0x1.a843891d61001p+5";
        "0x1.948fc234a1367p+5"; "0x1.60b10b5348ea9p+5"; "0x1.e85c18806b722p+5";
        "0x1.675c669f54bd2p+5"; "0x1.5fa2fe70df936p+5"; "0x1.5e65a0dd426ffp+5";
        "0x1.8bc2b77779853p+5"; "0x1.8aee9b47d9764p+5"; "0x1.71bd5a0649a2bp+5";
        "0x1.9f1b79f617c9cp+5"; "0x1.6d939f6f6609ap+5"; "0x1.72620122e9797p+5";
        "0x1.9330ba198430cp+5"; "0x1.80c92f6bc3cefp+5"; "0x1.7011b1be7ef6p+5";
        "0x1.5fa4c745a541cp+5"; "0x1.614d166c9e78p+5"; "0x1.6c45e140c7b7ep+5";
        "0x1.acbd9d54ed58ap+5"; "0x1.a860b0fd38b16p+5"; "0x1.6937f71aedef7p+5";
        "0x1.6f5e35b4cf823p+5"; "0x1.92a97be1dd231p+5"; "0x1.922d181e10a0ep+5";
        "0x1.66c25da492a56p+5"; "0x1.640ee3c0c5feap+5"; "0x1.a52c65197c15cp+5";
        "0x1.6e0040bbf1124p+5"; "0x1.8246ae2518135p+5"; "0x1.68f49d9a3874cp+5";
        "0x1.6cd599588e121p+5"; "0x1.6b703c0e34625p+5"; "0x1.5ea7b0c219d56p+5";
        "0x1.6ad4c7cc3cadap+5"; "0x1.681835aad4beap+5"; "0x1.5330a16e619a3p+5";
        "0x1.7a2788ff04807p+5"; "0x1.6c480059b9cf6p+5"; "0x1.740d538636e8bp+5";
        "0x1.93290d6ee625bp+5"; "0x1.d04cdb57cae82p+5"; "0x1.69d62c574aa66p+5";
        "0x1.58156bf0c009dp+5"; "0x1.7713f987fff7cp+5"; "0x1.60b81c9c63b1ap+5";
        "0x1.7d1e42eb4717ep+5"; "0x1.90dd9b84bfed8p+5"; "0x1.6e63e46808af4p+5";
        "0x1.a46d6fa52582ap+5"; "0x1.610aecc7e09f2p+5"; "0x1.5fcf20b111553p+5";
        "0x1.685693ddf9615p+5"; "0x1.7851e65b18a72p+5"; "0x1.58a14c7614deep+5";
        "0x1.9a2f6e1f96cc7p+5"; "0x1.7c4ef038c837bp+5"; "0x1.6c2b74ffcf5bdp+5";
        "0x1.670e6712d81ffp+5";
      |] );
    ( "rank",
      [|
        "-0x1.b555555555556p+1"; "0x1.9555555555554p+0"; "-0x1.b555555555556p+1";
        "0x1.9555555555554p+0"; "-0x1.063cf2bcda36bp+1"; "0x1.4cc2c6253249dp+0";
        "0x1.f477cd69a99a5p-3"; "-0x1.44668dc4e76e4p+1"; "0x1.2ef29d2602abcp+2";
        "-0x1.16aaf72928a63p+1"; "-0x1.4ba253d5709fep+1"; "-0x1.54228c5bef49ap+1";
        "-0x1.d11f15f07dc88p-3"; "-0x1.16034c084217ep-2"; "-0x1.9effbfa9c4ffep+0";
        "0x1.9e5f5a5dfa2fap-1"; "-0x1.d8177575f657ep+0"; "-0x1.962da745c735p+0";
        "0x1.5e069d38a72acp-3"; "-0x1.a14d347429d3dp-1"; "-0x1.b5e8c38257647p+0";
        "-0x1.4b96174700864p+1"; "-0x1.40388ace0a801p+1"; "-0x1.e9f88119df4a8p+0";
        "0x1.8a286db14952p+0"; "0x1.4e529fd9e4edep+0"; "-0x1.09edf3d9a0717p+1";
        "-0x1.bf8644072b4fdp+0"; "0x1.2410855ec5e3p-3"; "0x1.dd8262e9ae7b8p-4";
        "-0x1.1acb34bc126d3p+1"; "-0x1.2d50c1b18dc02p+1"; "0x1.2260d838eee18p+0";
        "-0x1.d245acc9f14eap+0"; "-0x1.786d57744713p-1"; "-0x1.0bbbc74c33baap+1";
        "-0x1.e2457fd3d151ap+0"; "-0x1.f56a7f3d3196dp+0"; "-0x1.525d8d162a48ep+1";
        "-0x1.fdbe707cbfd7dp+0"; "-0x1.11a3224804094p+1"; "-0x1.a0fbad0b1995ap+1";
        "-0x1.2b98a9320b676p+0"; "-0x1.e9db68e854e3ep+0"; "-0x1.7f493d61a13f8p+0";
        "0x1.5abc9d3e10238p-3"; "0x1.b8ea725a01a53p+1"; "-0x1.05b1191724afep+1";
        "-0x1.7f6d1bd648e12p+1"; "-0x1.55c97d492503p+0"; "-0x1.4436173d54628p+1";
        "-0x1.02f345ae7a26p+0"; "0x1.7be60824728f5p-5"; "-0x1.ccef3148ad77ap+0";
        "0x1.1825fb22026d6p+0"; "-0x1.41fe3aa569739p+1"; "-0x1.4a73b21d40011p+1";
        "-0x1.0ff777c4bfadcp+1"; "-0x1.44c15fb0f70c1p+0"; "-0x1.7badf3b1ba07cp+1";
        "0x1.175e15ab95e8p-1"; "-0x1.0e0e8f3e6abb5p+0"; "-0x1.eb62e0029b15p+0";
        "-0x1.18c1cf7ec849bp+1";
      |] );
    ( "mars",
      [|
        "0x1.1c71c71c71c72p+4"; "0x1.a777777777777p+4"; "0x1.1c71c71c71c72p+4";
        "0x1.a777777777777p+4"; "0x1.4bc40cd6feda9p+4"; "0x1.417271624cae8p+4";
        "0x1.5bf24ffbda826p+4"; "0x1.3fa13fc726b75p+4"; "0x1.6315b544575cep+4";
        "0x1.5387e200584bap+4"; "0x1.4d7114e80e8c4p+4"; "0x1.469b0b0ee83b7p+4";
        "0x1.2ee0df2078a04p+4"; "0x1.5485b96c54dbfp+4"; "0x1.4ea52c3a40131p+4";
        "0x1.4d64dcf3795c8p+4"; "0x1.3247b1d8888b3p+4"; "0x1.451bab9c136aep+4";
        "0x1.6590c1063b86dp+4"; "0x1.4aaaaaaaaaaabp+4"; "0x1.4bf135cf7e7b8p+4";
        "0x1.40722f8b20084p+4"; "0x1.50b8fbfb1fee7p+4"; "0x1.4c5b819f9609cp+4";
        "0x1.670e7a8b1abcfp+4"; "0x1.3cc1fef318a3p+4"; "0x1.49aacebdbfc9dp+4";
        "0x1.29ae191aafbcep+4"; "0x1.42994bbc69429p+4"; "0x1.59212d8297ab2p+4";
        "0x1.4c6e0d2952ab5p+4"; "0x1.4b3c89420d692p+4"; "0x1.4a13c08b7955fp+4";
        "0x1.50487e834d54ap+4"; "0x1.4d0d6f1c9cfbdp+4"; "0x1.4ba2b0768be99p+4";
        "0x1.4c3624743dd1ap+4"; "0x1.4b8220443160dp+4"; "0x1.5376018fa92bap+4";
        "0x1.545d2a3271e57p+4"; "0x1.371ff8bd4343p+4"; "0x1.29b1c109459f2p+4";
        "0x1.3e3bd6a363997p+4"; "0x1.4d5211bf1b8dep+4"; "0x1.4aaaaaaaaaaabp+4";
        "0x1.4db5b03d6dec8p+4"; "0x1.4f8a59b45bf98p+4"; "0x1.3ca220bf745dcp+4";
        "0x1.33735ab02081p+4"; "0x1.30faffb89e0dbp+4"; "0x1.509ab72f7a9c9p+4";
        "0x1.4c5017a848f6ap+4"; "0x1.4576d5f2d704fp+4"; "0x1.5a33777829da8p+4";
        "0x1.2f70b30ebed4p+4"; "0x1.3d20d78c06373p+4"; "0x1.53f2e736aee78p+4";
        "0x1.4c889e2328777p+4"; "0x1.4e04341b7dd6cp+4"; "0x1.59d6869a83dc9p+4";
        "0x1.37bef58ab1fe5p+4"; "0x1.4ec1e19fd5d3fp+4"; "0x1.2abe6c91b6efcp+4";
        "0x1.4b20c1e884954p+4";
      |] );
    ( "rbf gaussian",
      [|
        "0x1.8ca6f4635eee5p+6"; "0x1.8c6f4d50c6395p+6"; "0x1.8ca6f4635eee5p+6";
        "0x1.8c6f4d50c6395p+6"; "0x1.8e70fa1aba441p+6"; "0x1.901dbe0212a7fp+6";
        "0x1.8f7d22ca55dbfp+6"; "0x1.900b48f1a2626p+6"; "0x1.8eae26a77b486p+6";
        "0x1.8dfcc8a7fdb95p+6"; "0x1.8f6303b8f48b9p+6"; "0x1.8f97d5b59cbf5p+6";
        "0x1.8d96c252535b7p+6"; "0x1.8e72ab40776c1p+6"; "0x1.8ea61438a110ep+6";
        "0x1.903a390b652d6p+6"; "0x1.90481fa5c2842p+6"; "0x1.8d78ce71ad603p+6";
        "0x1.8eb9a77077cffp+6"; "0x1.8e427cd6782d6p+6"; "0x1.8d8357c4f02eep+6";
        "0x1.8f5c67546eafcp+6"; "0x1.8f71f005bf57ep+6"; "0x1.8f55ab6b2a798p+6";
        "0x1.8f6b2f69996c3p+6"; "0x1.8fe5fd2fb0866p+6"; "0x1.8d6680db15166p+6";
        "0x1.8eff81f2dc985p+6"; "0x1.8d9f20fa3e67fp+6"; "0x1.8e77eb0388f7dp+6";
        "0x1.8e438f37db0d9p+6"; "0x1.8f8cac16588fp+6"; "0x1.901b4c3b7c2b3p+6";
        "0x1.90089baf600bp+6"; "0x1.8d6c60231a874p+6"; "0x1.8ef159f31d9f2p+6";
        "0x1.8e0f266719a1cp+6"; "0x1.8e6611834fa61p+6"; "0x1.8e0bdf35b96dbp+6";
        "0x1.8eacc7079f2a1p+6"; "0x1.903377547886ap+6"; "0x1.8e46b65bc5be6p+6";
        "0x1.904c3b7e9bd4fp+6"; "0x1.8e7bc3ba11fe9p+6"; "0x1.8ea4ea108760ap+6";
        "0x1.9005e5733865fp+6"; "0x1.8f767cf549d6dp+6"; "0x1.8d72689846951p+6";
        "0x1.8f0a623195eb1p+6"; "0x1.8d8fbee62bb19p+6"; "0x1.8eeafe3a7ba22p+6";
        "0x1.8ee271f7a5ec3p+6"; "0x1.9046f58bf09eep+6"; "0x1.8de8c2eb38e8ap+6";
        "0x1.8f649caf95c5fp+6"; "0x1.8ddfab63063fcp+6"; "0x1.8e077985a71bp+6";
        "0x1.8e28605dc8eedp+6"; "0x1.9072f2016ee7cp+6"; "0x1.8dc116f03d757p+6";
        "0x1.8fb80056d5813p+6"; "0x1.8d959a2a9721bp+6"; "0x1.8dacc1abaf8d9p+6";
        "0x1.8e8096beeeb9cp+6";
      |] );
    ( "rbf multiquadric",
      [|
        "0x1.92b4f983e0a4ep+6"; "0x1.8ed33378a9f3bp+6"; "0x1.92b4f983e0a4ep+6";
        "0x1.8ed33378a9f3bp+6"; "0x1.9102cc777a1b7p+6"; "0x1.8cc646f8ca4e3p+6";
        "0x1.8cc85c3d9e954p+6"; "0x1.8e0ba105ef078p+6"; "0x1.8e3d91ec78b6cp+6";
        "0x1.8f3f7c27eecedp+6"; "0x1.8cb2b09c0b391p+6"; "0x1.8e78cc2d41e5ap+6";
        "0x1.929ba82a72fc1p+6"; "0x1.901d4d2c6c1bbp+6"; "0x1.904d82d8b6719p+6";
        "0x1.8d35531144747p+6"; "0x1.8e5be88f3e88p+6"; "0x1.934aa04043276p+6";
        "0x1.8e2c9b075aa0fp+6"; "0x1.9221541ba8849p+6"; "0x1.924d16a0c2616p+6";
        "0x1.8fe7851a6dd68p+6"; "0x1.8e025393d7bcep+6"; "0x1.8f610be9f4f02p+6";
        "0x1.8db3e1a57659dp+6"; "0x1.8e708bd24e9dap+6"; "0x1.9326a9ee0f47cp+6";
        "0x1.90c2c7d00a7e4p+6"; "0x1.928c3300b67a9p+6"; "0x1.8fbc98f6962c2p+6";
        "0x1.906d091184e9cp+6"; "0x1.8fa20866937fbp+6"; "0x1.8e14cdf6333b2p+6";
        "0x1.8cc2cd4af07fp+6"; "0x1.9237c037b9b23p+6"; "0x1.90fe9908f4798p+6";
        "0x1.923e35b060d78p+6"; "0x1.91aa710a3670ap+6"; "0x1.8ebdc30ac182cp+6";
        "0x1.8d93b60476875p+6"; "0x1.8d5589e85a399p+6"; "0x1.90e225b6d29b5p+6";
        "0x1.8c8f0eaad4ecep+6"; "0x1.90eb92990493p+6"; "0x1.9192aeb3dfab1p+6";
        "0x1.8f1064195f554p+6"; "0x1.8d498c7999c3cp+6"; "0x1.92d4968357c07p+6";
        "0x1.8f7f140002835p+6"; "0x1.92f7b3b89bfa5p+6"; "0x1.8e5e37bd642e3p+6";
        "0x1.90e8044778edap+6"; "0x1.8c9727d3c0f12p+6"; "0x1.8d9f333c47acbp+6";
        "0x1.8f50d828c84d3p+6"; "0x1.925eceeabcdb6p+6"; "0x1.8ebe7a6d97e46p+6";
        "0x1.90806a0aee1a3p+6"; "0x1.8da4cb41252dcp+6"; "0x1.8de3c8a044d54p+6";
        "0x1.8f62abe3265abp+6"; "0x1.921ba5c8c5e5ap+6"; "0x1.92af77c2812a4p+6";
        "0x1.917306fc25f41p+6";
      |] );
    ( "rbf inverse-multiquadric",
      [|
        "0x1.8e064a24d30c8p+6"; "0x1.8e048dfd305bep+6"; "0x1.8e064a24d30c8p+6";
        "0x1.8e048dfd305bep+6"; "0x1.8eeab169ed9e5p+6"; "0x1.90257c525eab1p+6";
        "0x1.8fb6c3fa8f10ap+6"; "0x1.8ffe72173243bp+6"; "0x1.8f32719095de6p+6";
        "0x1.8ed6b747309a3p+6"; "0x1.8fb6924ee0eccp+6"; "0x1.8faaffa7129d4p+6";
        "0x1.8e6887a4892a2p+6"; "0x1.8f00b0c274a05p+6"; "0x1.8f1437139425p+6";
        "0x1.901b5285d73dcp+6"; "0x1.901a278b98dbap+6"; "0x1.8e59b4d49a6e9p+6";
        "0x1.8f383cec6dd0cp+6"; "0x1.8ecf73b03dcccp+6"; "0x1.8e6ac72c4c2c2p+6";
        "0x1.8f63f18e4f04bp+6"; "0x1.8f9a23f383c76p+6"; "0x1.8f6960f06ddbep+6";
        "0x1.8f9292519f4d3p+6"; "0x1.8fc619f07c5ep+6"; "0x1.8e4a38a1fa624p+6";
        "0x1.8f266f69bcad9p+6"; "0x1.8e701708a4594p+6"; "0x1.8f0790ad0ef8cp+6";
        "0x1.8edf3ebe50409p+6"; "0x1.8f7c394c17a9dp+6"; "0x1.8fe85a4ddbefap+6";
        "0x1.901b49b2fe856p+6"; "0x1.8e617e5308ffap+6"; "0x1.8f26d62f7ae58p+6";
        "0x1.8ea7e17998a4ap+6"; "0x1.8edeae7788ce7p+6"; "0x1.8ee4ad497a925p+6";
        "0x1.8f3dd7f7f2ab1p+6"; "0x1.9038b6f4b96e8p+6"; "0x1.8ed3c5cd67347p+6";
        "0x1.905f089b2d41p+6"; "0x1.8ee5053c01df6p+6"; "0x1.8f1399c1e3d0ep+6";
        "0x1.8fc669c3c4e09p+6"; "0x1.8fab8dbaa4a54p+6"; "0x1.8e3a65372f1dfp+6";
        "0x1.8f4c02ab75bd4p+6"; "0x1.8e5f8bd0ae614p+6"; "0x1.8f51686d0f6ecp+6";
        "0x1.8f34cea83f30bp+6"; "0x1.9047fc715d703p+6"; "0x1.8ee35c51edceep+6";
        "0x1.8f6f6704014c3p+6"; "0x1.8e89a017b6434p+6"; "0x1.8ee2cc2aa0bb6p+6";
        "0x1.8ed5220184e7p+6"; "0x1.902f60ecd42c1p+6"; "0x1.8ecaebc459fe1p+6";
        "0x1.8f95a6d0dc72p+6"; "0x1.8e738be97c63bp+6"; "0x1.8e6f0d16732e3p+6";
        "0x1.8edf5b8817e2fp+6";
      |] );
    ( "clamp",
      [|
        "0x1.6p+5"; "0x1.ap+5"; "0x1.6p+5";
        "0x1.ap+5"; "0x1.69c1c7447582bp+5"; "0x1.ap+5";
        "0x1.948fc234a1367p+5"; "0x1.60b10b5348ea9p+5"; "0x1.ap+5";
        "0x1.675c669f54bd2p+5"; "0x1.6p+5"; "0x1.6p+5";
        "0x1.8bc2b77779853p+5"; "0x1.8aee9b47d9764p+5"; "0x1.71bd5a0649a2bp+5";
        "0x1.9f1b79f617c9cp+5"; "0x1.6d939f6f6609ap+5"; "0x1.72620122e9797p+5";
        "0x1.9330ba198430cp+5"; "0x1.80c92f6bc3cefp+5"; "0x1.7011b1be7ef6p+5";
        "0x1.6p+5"; "0x1.614d166c9e78p+5"; "0x1.6c45e140c7b7ep+5";
        "0x1.ap+5"; "0x1.ap+5"; "0x1.6937f71aedef7p+5";
        "0x1.6f5e35b4cf823p+5"; "0x1.92a97be1dd231p+5"; "0x1.922d181e10a0ep+5";
        "0x1.66c25da492a56p+5"; "0x1.640ee3c0c5feap+5"; "0x1.ap+5";
        "0x1.6e0040bbf1124p+5"; "0x1.8246ae2518135p+5"; "0x1.68f49d9a3874cp+5";
        "0x1.6cd599588e121p+5"; "0x1.6b703c0e34625p+5"; "0x1.6p+5";
        "0x1.6ad4c7cc3cadap+5"; "0x1.681835aad4beap+5"; "0x1.6p+5";
        "0x1.7a2788ff04807p+5"; "0x1.6c480059b9cf6p+5"; "0x1.740d538636e8bp+5";
        "0x1.93290d6ee625bp+5"; "0x1.ap+5"; "0x1.69d62c574aa66p+5";
        "0x1.6p+5"; "0x1.7713f987fff7cp+5"; "0x1.60b81c9c63b1ap+5";
        "0x1.7d1e42eb4717ep+5"; "0x1.90dd9b84bfed8p+5"; "0x1.6e63e46808af4p+5";
        "0x1.ap+5"; "0x1.610aecc7e09f2p+5"; "0x1.6p+5";
        "0x1.685693ddf9615p+5"; "0x1.7851e65b18a72p+5"; "0x1.6p+5";
        "0x1.9a2f6e1f96cc7p+5"; "0x1.7c4ef038c837bp+5"; "0x1.6c2b74ffcf5bdp+5";
        "0x1.670e6712d81ffp+5";
      |] );
  ]

let test_golden_predictions () =
  List.iter
    (fun (what, repr) ->
      let want = List.assoc what golden_table in
      Array.iteri
        (fun i x ->
          Alcotest.(check string)
            (Printf.sprintf "%s: probe %d" what i)
            want.(i)
            (Printf.sprintf "%h" (Repr.eval repr x)))
        (probes 3))
    golden_reprs

(* ---------------- artifacts ---------------- *)

let tmpfile () = Filename.temp_file "emc_artifact" ".json"

let specs3 =
  Array.init 3 (fun i ->
      { Params.name = Printf.sprintf "p%d" i; levels = [| 0.0; 1.0; 2.0 |]; log2 = false })

let artifact_of_fit () =
  let d = sample (rng0 ()) 3 80 f3 in
  let m = Modeling.fit Modeling.Rbf d in
  match
    Artifact.of_model ~workload:"synthetic" ~scale:"tiny" ~seed:42 ~train_n:80 ~test_mape:1.5
      ~specs:specs3 m
  with
  | Ok a -> (m, a)
  | Error e -> Alcotest.failf "of_model: %s" e

let test_artifact_save_load_bits () =
  let m, a = artifact_of_fit () in
  let path = tmpfile () in
  Artifact.save a path;
  match Artifact.load path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok b ->
      Sys.remove path;
      Alcotest.(check string) "workload" a.Artifact.workload b.Artifact.workload;
      Alcotest.(check string) "technique" a.Artifact.technique b.Artifact.technique;
      Alcotest.(check int) "seed" a.Artifact.seed b.Artifact.seed;
      Alcotest.(check int) "train_n" a.Artifact.train_n b.Artifact.train_n;
      Alcotest.(check int) "dims" 3 (Artifact.dims b);
      cb "test_mape preserved" true (b.Artifact.test_mape = Some 1.5);
      let reloaded = Artifact.model b in
      Array.iter
        (fun x ->
          Alcotest.(check int64) "loaded artifact predicts bit-identically"
            (Int64.bits_of_float (m.Emc_regress.Model.predict x))
            (Int64.bits_of_float (reloaded.Emc_regress.Model.predict x)))
        (probes 3)

(* Two-response artifacts: the "extra" reprs round-trip bit-exactly, and
   artifacts without them serialize byte-identically to the pre-extra
   format (no stray field). *)
let test_artifact_extra_responses () =
  let d = sample (rng0 ()) 3 80 f3 in
  let m = Modeling.fit Modeling.Rbf d in
  let energy = Modeling.fit Modeling.Linear d in
  let er = Option.get energy.Emc_regress.Model.repr in
  (match
     Artifact.of_model ~workload:"synthetic" ~scale:"tiny" ~seed:42 ~train_n:80
       ~specs:specs3 ~extra:[ ("energy", er) ] m
   with
  | Error e -> Alcotest.failf "of_model: %s" e
  | Ok a -> (
      let path = tmpfile () in
      Artifact.save a path;
      match Artifact.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok b ->
          Sys.remove path;
          let r = Option.get (Artifact.extra_repr b "energy") in
          cb "unknown extra name is None" true (Artifact.extra_repr b "area" = None);
          Array.iter
            (fun x ->
              Alcotest.(check int64) "extra response round-trips bit-exactly"
                (Int64.bits_of_float (energy.Emc_regress.Model.predict x))
                (Int64.bits_of_float (Repr.eval r x)))
            (probes 3)));
  (* absence of extras leaves the serialized form without the field *)
  let _, plain = artifact_of_fit () in
  cb "no extra field when empty" true
    (Json.member "extra" (Artifact.to_json plain) = None)

let test_artifact_validation () =
  let _, a = artifact_of_fit () in
  cb "right arity ok" true (Artifact.validate_point a [| 0.1; 0.2; 0.3 |] = Ok ());
  cb "wrong arity rejected" true (Result.is_error (Artifact.validate_point a [| 0.1 |]));
  cb "non-finite rejected" true
    (Result.is_error (Artifact.validate_point a [| 0.1; Float.nan; 0.3 |]));
  (match Artifact.code_raw a [| 0.0; 1.0; 2.0 |] with
  | Ok c ->
      Alcotest.(check (float 1e-9)) "raw low codes to -1" (-1.0) c.(0);
      Alcotest.(check (float 1e-9)) "raw high codes to +1" 1.0 c.(2)
  | Error e -> Alcotest.failf "code_raw: %s" e);
  cb "code_raw arity checked" true (Result.is_error (Artifact.code_raw a [| 0.0 |]))

let test_artifact_rejects_reprless_model () =
  let stub =
    { Emc_regress.Model.technique = "stub"; predict = (fun _ -> 0.0); n_params = 0; terms = [];
      repr = None }
  in
  cb "stub model rejected" true
    (Result.is_error
       (Artifact.of_model ~workload:"w" ~scale:"tiny" ~seed:1 ~train_n:1 stub))

let expect_load_error ~what path pattern =
  match Artifact.load path with
  | Ok _ -> Alcotest.failf "%s: load unexpectedly succeeded" what
  | Error e ->
      let lower = String.lowercase_ascii e in
      let found =
        let n = String.length lower and m = String.length pattern in
        let rec go i = i + m <= n && (String.sub lower i m = pattern || go (i + 1)) in
        go 0
      in
      cb (Printf.sprintf "%s: diagnostic %S mentions %S" what e pattern) true found;
      cb (what ^ ": diagnostic is one line") true (not (String.contains e '\n'))

let write path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let test_artifact_load_errors () =
  let _, a = artifact_of_fit () in
  let path = tmpfile () in
  write path "{ not json";
  expect_load_error ~what:"corrupt" path "json";
  write path "[1,2,3]";
  expect_load_error ~what:"non-object" path "format";
  write path {|{"format":"something-else","version":1}|};
  expect_load_error ~what:"wrong format" path "format";
  (* a version from the future must fail with a version diagnostic, even
     when the rest of the document is a perfectly good artifact *)
  (match Artifact.to_json a with
  | Json.Obj kvs ->
      let bumped =
        Json.Obj
          (List.map (function "version", _ -> ("version", Json.Int 99) | kv -> kv) kvs)
      in
      write path (Json.to_string bumped)
  | _ -> Alcotest.fail "artifact JSON is not an object");
  expect_load_error ~what:"future version" path "version 99";
  (* a repr whose arity disagrees with the schema must not load: it would
     answer 500 (too few coefficients) or silently ignore dimensions
     (wider RBF centers) at its first prediction *)
  let hinge dim = { Repr.dim; knot = 0.0; positive = true } in
  let rbf_center dims =
    Repr.Rbf
      { kernel = Repr.Gaussian; centers = [| Array.make dims 0.0 |]; radii = [| 1.0 |];
        weights = [| 0.0; 1.0 |]; mu = 0.0; sd = 1.0 }
  in
  let linear4 = Repr.Linear { interactions = false; beta = Array.make 4 1.0; mu = 0.0; sd = 1.0 } in
  List.iter
    (fun (what, a, pattern) ->
      write path (Json.to_string (Artifact.to_json a));
      expect_load_error ~what path pattern;
      let m = { (Artifact.model a) with Emc_regress.Model.repr = Some a.Artifact.repr } in
      cb (what ^ ": of_model rejects it too") true
        (Result.is_error
           (Artifact.of_model ~workload:"w" ~scale:"tiny" ~seed:1 ~train_n:1
              ~specs:a.Artifact.specs ~extra:a.Artifact.extra m)))
    [ ("4-coefficient linear on 25 inputs", { a with specs = Params.all_specs; repr = linear4 },
       "4 coefficients");
      ("rank beta of the wrong length",
       { a with repr = Repr.Rank { interactions = true; beta = Array.make 4 1.0 } },
       "coefficients");
      ("mars hinge beyond the schema",
       { a with
         repr = Repr.Mars { bases = [| []; [ hinge 3 ] |]; weights = [| 1.0; 1.0 |]; mu = 0.0;
                            sd = 1.0 } },
       "dimension 3");
      ("30-dim rbf center on 25 inputs", { a with specs = Params.all_specs; repr = rbf_center 30 },
       "center of 30");
      ("clamped body of the wrong arity",
       { a with repr = Repr.Clamp { lo = 0.0; hi = 1.0; body = rbf_center 2 } }, "center of 2");
      ("extra response of the wrong arity", { a with extra = [ ("energy", rbf_center 5) ] },
       "extra response \"energy\"") ];
  Sys.remove path;
  expect_load_error ~what:"missing file" path "no such file"

let test_artifact_version_constant () =
  let _, a = artifact_of_fit () in
  match Artifact.to_json a with
  | Json.Obj kvs ->
      cb "format header present" true
        (List.assoc_opt "format" kvs = Some (Json.Str "emc-model"));
      cb "version header present" true
        (List.assoc_opt "version" kvs = Some (Json.Int Artifact.current_version))
  | _ -> Alcotest.fail "artifact JSON is not an object"

let test_repr_of_json_strictness () =
  let bad =
    [
      ("unknown family", {|{"family":"spline"}|});
      ("missing fields", {|{"family":"linear","interactions":false}|});
      ("malformed float", {|{"family":"linear","interactions":false,"beta":["zz"],"mu":"0x0p+0","sd":"0x1p+0"}|});
      ( "radii/centers mismatch",
        {|{"family":"rbf","kernel":"gaussian","centers":[["0x0p+0"]],"radii":[],"weights":["0x0p+0","0x1p+0"],"mu":"0x0p+0","sd":"0x1p+0"}|}
      );
    ]
  in
  List.iter
    (fun (what, text) ->
      match Json.parse text with
      | Error e -> Alcotest.failf "%s: test fixture does not parse: %s" what e
      | Ok j -> cb what true (Result.is_error (Repr.of_json j)))
    bad

let suite =
  [
    Alcotest.test_case "linear round-trips bit-for-bit" `Quick test_linear_roundtrip;
    Alcotest.test_case "mars round-trips bit-for-bit" `Quick test_mars_roundtrip;
    Alcotest.test_case "rank round-trips bit-for-bit" `Quick test_rank_roundtrip;
    Alcotest.test_case "rbf round-trips bit-for-bit (all kernels)" `Quick test_rbf_roundtrip;
    Alcotest.test_case "clamped models round-trip bit-for-bit" `Quick test_clamped_roundtrip;
    Alcotest.test_case "predict is Repr.eval" `Quick test_eval_matches_predict_exactly;
    Alcotest.test_case "eval matches the golden table" `Quick test_golden_predictions;
    Alcotest.test_case "artifact save/load is bit-exact" `Quick test_artifact_save_load_bits;
    Alcotest.test_case "artifact extra responses round-trip" `Quick
      test_artifact_extra_responses;
    Alcotest.test_case "artifact validates points" `Quick test_artifact_validation;
    Alcotest.test_case "artifact rejects repr-less models" `Quick
      test_artifact_rejects_reprless_model;
    Alcotest.test_case "artifact load errors are total" `Quick test_artifact_load_errors;
    Alcotest.test_case "artifact carries format/version header" `Quick
      test_artifact_version_constant;
    Alcotest.test_case "repr of_json is strict" `Quick test_repr_of_json_strictness;
  ]
