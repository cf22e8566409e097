(** The repository benchmark: the paper's pipeline end to end on one
    program, with each layer timed from outside by the calls made into
    its public functions.

    A run measures a seed-derived sequence of D-optimal designs. Each
    design goes through four phases:
    - [model_cold]: the Figure-1 loop from an empty memo and no cache at
      [--jobs 1] — [Doe.generate] + [Doe.lhs], [Measure.compile] per
      point, [Modeling.build_dataset], the three [Modeling.fit] families,
      [Rank.fit], [Effects.top_effects] and the test MAPE report, i.e.
      what [emc model] does;
    - [search_warm]: the same design again from a result cache filled by
      [model_cold] (zero simulations, zero compiles), refit, GA search on
      each Table-5 configuration and NSGA-II on [typical];
    - [serve_predict]: [emc serve --workers 1] serving the design's RBF
      artifact over a Unix socket, driven by [Emc_loadgen.Loadgen] with two
      connections — an open-loop window at a fixed rate, then a
      closed-loop window — and every value of a request pool checked
      against in-process evaluation; on the first design of an untraced
      run and on each traced design;
    - [fleet_measure]: the design measured through a fresh
      [emc fleet-store] with two registered [emc fleet-worker]s, then
      again from a fresh memo filled by the store.

    Usage: [bench.exe --workload mcf|gzip --seed N --seconds S --trace 0|1
    --emc PATH-TO-emc.exe]. The last line of standard output is one JSON
    object: [{"correct", "attempted", "failed", "metrics"}]. *)

open Emc_core
module W = Emc_workloads.Workload
module M = Emc_obs.Metrics
module J = Emc_obs.Json
module Rng = Emc_util.Rng
module Dataset = Emc_regress.Dataset
module Model = Emc_regress.Model
module Fleet = Emc_fleet.Fleet
module Stats = Perfbench.Stats
module Loadgen = Emc_loadgen.Loadgen
module Spans = Perfbench.Spans

let span = Spans.with_span
let now = Unix.gettimeofday
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ---------------- fixed protocol ---------------- *)

let scale = { Scale.tiny with Scale.jobs = 1 }

(* Workload name, registry name, and the wall time one design takes on a
   2-vCPU x86-64 host with the run on one CPU, as measured: 8.3-10.3 s
   for mcf (ten runs of 6 designs took 55-67 s as the host's speed
   changed) and 3-4.1 s for gzip (ten runs of 13 designs, 44-58 s), plus
   about 5 s of fixed work per run (SMARTS accuracy, the CLI cross-check,
   one serving window). A run measures [seconds / per_design] designs
   (at least two), so the design count — and with it every quality and
   work figure — depends only on the arguments. *)
let programs = [ ("mcf", ("181.mcf", 9.0)); ("gzip", ("164.gzip", 3.8)) ]

let design_seed seed k = seed + (7919 * k)
let open_rate = 1000.0  (* open-loop requests per second *)

(* Open-loop seconds per design: the traced designs of a run together
   send about 1300 requests (1100-1200 reach the histograms once the
   generators' start-up is paid), so p99 has 10 samples beyond it. *)
let open_seconds ~traced_designs = 1.4 /. float_of_int traced_designs

let closed_seconds = 0.25
let batch_points = 16
let mix = [ ("predict", 9); ("predict_batch", 1) ]  (* one request in ten a 16-point batch *)

(* ---------------- checks ---------------- *)

let attempted = ref 0
let failed = ref 0
let problems = ref []

let check name ok =
  incr attempted;
  if not ok then begin
    incr failed;
    problems := name :: !problems;
    log "CHECK FAILED: %s" name
  end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_array a b = Array.length a = Array.length b && Array.for_all2 same_bits a b
let counter name = Option.value (M.counter_value name) ~default:0

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU seconds this process has run, less the reference kernel's passes:
   unlike wall time, it leaves out the time spent waiting for a CPU. *)
let cpu = Hostref.cpu

(* Steal and total ticks of all vCPUs so far, from the first line of
   /proc/stat: user nice system idle iowait irq softirq steal. *)
let host_ticks () =
  match String.split_on_char '\n' (Daemon.read_file "/proc/stat") with
  | l :: _ -> (
      let f = List.filter_map int_of_string_opt (List.filter (( <> ) "") (String.split_on_char ' ' l)) in
      match f with
      | u :: n :: sy :: i :: io :: irq :: soft :: steal :: _ -> (steal, u + n + sy + i + io + irq + soft + steal)
      | _ -> (0, 0))
  | [] -> (0, 0)

(* ---------------- model_cold ---------------- *)

let names = Params.names Params.all_specs

let technique_span = function
  | Modeling.Linear -> "regress.linear"
  | Modeling.Mars -> "regress.mars"
  | Modeling.Rbf -> "regress.rbf"

let fit_all train =
  List.map
    (fun t -> (t, span (technique_span t) (fun () -> Modeling.fit t train)))
    Modeling.all_techniques

(* The train and test designs exactly as [Experiments.prepare] draws them
   for [emc model --seed]. *)
let designs seed =
  span "doe" (fun () ->
      let rng = Rng.split (Rng.create seed) in
      let space = Params.space_all in
      let train =
        Emc_doe.Doe.generate ~sweeps:scale.Scale.doe_sweeps
          ~cand_factor:scale.Scale.doe_cand_factor rng space ~n:scale.Scale.train_n
      in
      (train, Emc_doe.Doe.lhs rng space scale.Scale.test_n))

(* The report [emc model] prints, formatted exactly as the CLI does, and
   the mean test MAPE of the three families. *)
let model_report (w : W.t) ~seed ~train ~test models =
  let open Emc_regress in
  let b = Buffer.create 1024 in
  let line (m : Model.t) =
    let p = m.Model.predict in
    Printf.bprintf b
      "  %-18s rmse=%-12.5g mape=%7.2f%%  spearman=%+.3f  top5_regret=%7.2f%%  p@5=%.2f\n"
      m.Model.technique (Metrics.rmse p test) (Metrics.mape p test) (Metrics.spearman p test)
      (Metrics.top_k_regret ~k:5 p test)
      (Metrics.precision_at_k ~k:5 p test)
  in
  let rbf = List.assoc Modeling.Rbf models in
  let rank = span "regress.rank" (fun () -> Rank.fit ~names ~rng:(Rng.create (seed + 2)) train) in
  let effects =
    span "regress.effects" (fun () ->
        Effects.top_effects rbf.Model.predict ~dims:Params.n_all ~names)
  in
  span "regress.eval" (fun () ->
      Printf.bprintf b "%s / %s: test MAPE = %.2f%% (%d params)\n" w.W.name
        (Modeling.technique_name Modeling.Rbf)
        (Metrics.mape rbf.Model.predict test)
        rbf.Model.n_params;
      Printf.bprintf b "all families on the %d-point test design:\n" (Dataset.size test);
      List.iter (fun t -> line (List.assoc t models)) Modeling.all_techniques;
      line rank;
      Printf.bprintf b "strongest effects:\n";
      List.iteri (fun i (n, e) -> if i < 10 then Printf.bprintf b "  %-40s %+.4g\n" n e) effects;
      let mapes = List.map (fun (_, m) -> Metrics.mape m.Model.predict test) models in
      (Buffer.contents b, List.fold_left ( +. ) 0.0 mapes /. float_of_int (List.length mapes)))

type cold = {
  seed : int;
  measure : Measure.t;
  train_pts : float array array;
  test_pts : float array array;
  train : Dataset.t;
  test : Dataset.t;
  rbf : Model.t;
  report : string;
  doe_points : int;  (** points the design draw returned *)
  mape : float;
  model_s : float;  (** wall *)
  model_cpu_s : float;
  compile_s : float;
  sim_s : float;
  sim_runs : int;
  sim_discarded : int;
  sim_cycles : int;
  sim_detail_instrs : int;
  ci_p50 : float;
  static_instrs : float;
}

let model_cold (w : W.t) seed =
  M.reset ();
  let t0 = now () and c0 = cpu () in
  span "model_cold" (fun () ->
      let measure = Measure.create scale in
      let train_pts, test_pts = designs seed in
      (* every binary first, so the time in respond_many below is sim only *)
      let (), compile_s =
        timed (fun () ->
            span "measure.compile" (fun () ->
                Array.iter
                  (fun p ->
                    let flags, march = Params.configs_of_coded p in
                    ignore
                      (Measure.compile measure w flags ~issue_width:march.Emc_sim.Config.issue_width))
                  (Array.append train_pts test_pts)))
      in
      let (train, test), sim_s =
        timed (fun () ->
            span "sim" (fun () ->
                ( Modeling.build_dataset measure w ~variant:W.Train train_pts,
                  Modeling.build_dataset measure w ~variant:W.Train test_pts )))
      in
      let models = fit_all train in
      let report, mape = model_report w ~seed ~train ~test models in
      let model_s = now () -. t0 and model_cpu_s = cpu () -. c0 in
      let sizes =
        Hashtbl.fold
          (fun _ (p : Emc_isa.Isa.program) acc -> Array.length p.Emc_isa.Isa.insts :: acc)
          measure.Measure.binaries []
      in
      { seed; measure; train_pts; test_pts; train; test; rbf = List.assoc Modeling.Rbf models;
        report; doe_points = Array.length train_pts + Array.length test_pts; mape; model_s; model_cpu_s; compile_s; sim_s; sim_runs = counter "sim.runs";
        sim_discarded = counter "smarts.refinements"; sim_cycles = counter "sim.cycles";
        sim_detail_instrs = counter "sim.detail_instrs";
        ci_p50 = (match M.stats_of "smarts.ci_rel" with Some s -> s.M.p50 | None -> 0.0);
        static_instrs =
          float_of_int (List.fold_left ( + ) 0 sizes) /. float_of_int (max 1 (List.length sizes)) })

(* The traced split of compilation: every distinct binary of the design
   rebuilt through the compiler's stages, each timed on its own, and
   checked against the binary [Measure.compile] produced. *)
let compile_split (w : W.t) (c : cold) =
  let seen = Hashtbl.create 64 in
  span "compile_split" (fun () ->
      Array.iter
        (fun p ->
          let flags, march = Params.configs_of_coded p in
          let width = march.Emc_sim.Config.issue_width in
          let key = (Emc_opt.Flags.to_string flags, width) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            let ir = span "lang" (fun () -> Emc_lang.Minic.compile_exn w.W.source) in
            let opt = span "opt" (fun () -> Emc_opt.Pipeline.optimize ~issue_width:width flags ir) in
            let prog =
              span "codegen" (fun () ->
                  let p =
                    Emc_codegen.Codegen.emit_program
                      ~omit_frame_pointer:flags.Emc_opt.Flags.omit_frame_pointer opt
                  in
                  if flags.Emc_opt.Flags.schedule_insns2 then
                    Emc_codegen.Postsched.run (Emc_isa.Isa.machine_for_width width) p
                  else p)
            in
            let built = Measure.compile c.measure w flags ~issue_width:width in
            if prog.Emc_isa.Isa.insts <> built.Emc_isa.Isa.insts then
              check "staged compile equals Measure.compile" false
          end)
        (Array.append c.train_pts c.test_pts))

(* ---------------- search_warm ---------------- *)

type warm = {
  search_s : float;  (** wall *)
  search_cpu_s : float;
  doe_points : int;
  cache_load_s : float;
  ga_s : float;
  pareto_s : float;
  ga_evals : int;
  pareto_evals : int;
  result_hits : int;
  simulations : int;
}

let search_warm (w : W.t) (c : cold) ~cache_file =
  M.reset ();
  let t0 = now () and c0 = cpu () in
  span "search_warm" (fun () ->
      let measure, cache_load_s =
        timed (fun () -> span "measure.cache_load" (fun () -> Measure.create ~cache_file scale))
      in
      let train_pts, test_pts = designs c.seed in
      let train, test =
        span "measure.memo" (fun () ->
            ( Modeling.build_dataset measure w ~variant:W.Train train_pts,
              Modeling.build_dataset measure w ~variant:W.Train test_pts ))
      in
      let models = fit_all train in
      let rbf = List.assoc Modeling.Rbf models in
      let ctx = { Experiments.scale; measure; rng = Rng.create c.seed; wdata = [] } in
      let d = { Experiments.workload = w; train; test; models } in
      let energy = span "measure.memo" (fun () -> Experiments.energy_train ctx d) in
      let energy_model = span "regress.rbf" (fun () -> Modeling.fit Modeling.Rbf energy) in
      let (), ga_s =
        timed (fun () ->
            List.iter
              (fun (_, march) ->
                span "search.ga" (fun () ->
                    ignore
                      (Searcher.search ~params:scale.Scale.ga ~rng:(Rng.create (c.seed + 1))
                         ~model:rbf ~march ())))
              Experiments.configs)
      in
      let front, pareto_s =
        timed (fun () ->
            span "search.pareto" (fun () ->
                Searcher.search_pareto ~params:scale.Scale.ga ~rng:(Rng.create c.seed)
                  ~cycles_model:rbf ~energy_model ~march:Emc_sim.Config.typical ()))
      in
      let search_s = now () -. t0 and search_cpu_s = cpu () -. c0 in
      Option.iter close_out measure.Measure.cache;
      check "search_warm: zero simulations" (measure.Measure.simulations = 0);
      check "search_warm: zero compiles" (measure.Measure.compiles = 0);
      check "search_warm: datasets equal the cold build"
        (same_array train.Dataset.y c.train.Dataset.y && same_array test.Dataset.y c.test.Dataset.y);
      check "search_warm: NSGA-II result is a Pareto front"
        (front <> []
        && Emc_search.Pareto.is_front
             (Array.of_list
                (List.map (fun p -> [| p.Searcher.p_cycles; p.Searcher.p_energy |]) front)));
      { search_s; search_cpu_s; doe_points = Array.length train_pts + Array.length test_pts; cache_load_s; ga_s; pareto_s; ga_evals = counter "ga.evaluations";
        pareto_evals = counter "pareto.evaluations"; result_hits = measure.Measure.result_hits;
        simulations = measure.Measure.simulations })

(* ---------------- daemons ---------------- *)

type stack = { store : Daemon.t; workers : Daemon.t list; serve : Daemon.t }

let run_dir = ref ""
let emc = ref ""
let path name = Filename.concat !run_dir name

let start ~role ~socket args =
  Daemon.spawn ~role ~socket ~log:(path (role ^ ".log")) (Array.of_list (!emc :: args))

let store_addr () = Fleet.Unix_sock (path "store.sock")

(* An empty result store, two workers registered to it, and the model
   server: ready when the store lists both workers and the server
   answers /healthz. *)
let start_stack ~artifact_file =
  span "setup" (fun () ->
      let store =
        start ~role:"fleet-store" ~socket:(path "store.sock")
          [ "fleet-store"; "--unix-socket"; path "store.sock" ]
      in
      Daemon.wait_ready store (fun () -> Result.is_ok (Fleet.members ~timeout:1.0 (store_addr ())));
      let workers =
        List.init 2 (fun i ->
            let sock = path (Printf.sprintf "worker%d.sock" i) in
            start ~role:(Printf.sprintf "fleet-worker%d" i) ~socket:sock
              [ "fleet-worker"; "--unix-socket"; sock; "--register"; path "store.sock"; "--jobs"; "1" ])
      in
      let serve =
        start ~role:"serve" ~socket:(path "serve.sock")
          [ "serve"; "-m"; artifact_file; "--unix-socket"; path "serve.sock"; "--workers"; "1" ]
      in
      Daemon.wait_ready (List.hd workers) (fun () ->
          List.iter Daemon.reap_nohang workers;
          if List.exists (fun d -> d.Daemon.reaped) workers then failwith "a fleet worker exited";
          match Fleet.members ~timeout:1.0 (store_addr ()) with
          | Ok ms -> List.length ms = 2
          | Error _ -> false);
      Daemon.wait_ready serve (fun () ->
          match Daemon.http_get (path "serve.sock") "/healthz" with
          | Ok r -> r.Emc_serve.Http.status = 200
          | Error _ -> false);
      { store; workers; serve })

let stack_members s = s.serve :: s.store :: s.workers

(* ---------------- serve_predict ---------------- *)

type served = {
  opened : Loadgen.report;  (** the open-loop window *)
  closed : Loadgen.report;  (** the closed-loop window *)
}

(* A seeded pool of the request shapes the load generator sends, with
   their in-process predictions. *)
let request_pool (a : Artifact.t) seed =
  let model = Artifact.model a in
  let rng = Rng.create (seed + 17) in
  let point () = Emc_doe.Doe.random_point rng Params.space_all in
  let make kind n = Client.make_request ~predict:model.Model.predict kind (Array.init n (fun _ -> point ())) in
  Array.append
    (Array.init 144 (fun _ -> make Client.Predict 1))
    (Array.init 16 (fun _ -> make Client.Predict_batch batch_points))

let load ~socket ~seed mode duration =
  let o = Loadgen.default_opts (Loadgen.Unix_sock socket) in
  match Loadgen.run { o with Loadgen.mode; concurrency = 2; duration; seed; mix; batch = batch_points } with
  | Ok r -> r
  | Error e -> failwith ("loadgen: " ^ e)

let serve_predict (a : Artifact.t) seed ~errs ~open_s =
  span "serve_predict" (fun () ->
      let socket = path "serve.sock" in
      Gc.full_major ();
      let opened =
        span "loadgen.open" (fun () -> load ~socket ~seed (Loadgen.Open_loop open_rate) open_s)
      in
      let closed =
        span "loadgen.closed" (fun () -> load ~socket ~seed:(seed + 1) Loadgen.Closed_loop closed_seconds)
      in
      let checked = span "serve.verify" (fun () -> Client.verify ~socket ~errs (request_pool a seed)) in
      Client.add_report errs opened;
      Client.add_report errs closed;
      attempted := !attempted + opened.Loadgen.r_sent + closed.Loadgen.r_sent + checked;
      { opened; closed })

(* Replay the request pool through the daemon's parser and handler in
   process: the per-request cost of each, without transport. Returns
   microseconds per request: parse, /predict, /predict_batch. *)
let replay (a : Artifact.t) seed =
  let reqs = request_pool a seed in
  let hot = Emc_serve.Serve.make_hot a in
  let parsed, parse_s =
    timed (fun () ->
        span "serve.parse" (fun () ->
            Array.map
              (fun (r : Client.request) ->
                match Emc_serve.Http.parse_request r.Client.bytes with
                | Emc_serve.Http.Parsed (req, _) -> req
                | _ -> failwith "replay: request does not parse")
              reqs))
  in
  let handle kind =
    let sel = List.filter (fun (r, _) -> r.Client.kind = kind) (Array.to_list (Array.combine reqs parsed)) in
    let (), t =
      timed (fun () ->
          span "serve.handle" (fun () ->
              List.iter
                (fun (r, req) ->
                  let status, _ = Emc_serve.Serve.handle_into hot req in
                  if status <> 200
                     || not (Client.body_matches r (Buffer.contents (Emc_serve.Serve.hot_body hot)))
                  then check "replayed handle_into matches in-process evaluation" false)
                sel))
    in
    1e6 *. t /. float_of_int (max 1 (List.length sel))
  in
  let parse_us = 1e6 *. parse_s /. float_of_int (Array.length reqs) in
  (parse_us, handle Client.Predict, handle Client.Predict_batch)

(* ---------------- fleet_measure ---------------- *)

type fleeted = {
  fleet_s : float;  (** wall *)
  fleet_cpu_s : float;  (** this process, the store and the workers *)
  dispatch_s : float;
  store_s : float;
  chunks : int;
  points : int;
  retried : int;
  steals : int;
  worker_failures : int;
  store_prefilled : int;
  worker_sim_s : float;
}

let same_results (a : Measure.t) (b : Measure.t) =
  Hashtbl.length a.Measure.results = Hashtbl.length b.Measure.results
  && Hashtbl.fold
       (fun k v ok ->
         ok && match Hashtbl.find_opt b.Measure.results k with Some u -> same_bits u v | None -> false)
       a.Measure.results true

(* Host seconds a worker spent simulating, from its Prometheus /metrics. *)
let worker_sim_seconds socket =
  match Daemon.http_get socket "/metrics" with
  | Error _ -> 0.0
  | Ok r ->
      List.fold_left
        (fun acc l ->
          match String.split_on_char ' ' l with
          | [ "emc_measure_sim_seconds_sum"; v ] -> Option.value (float_of_string_opt v) ~default:acc
          | _ -> acc)
        0.0
        (String.split_on_char '\n' r.Emc_serve.Http.resp_body)

let fleet_measure (w : W.t) (c : cold) (s : stack) =
  M.reset ();
  span "fleet_measure" (fun () ->
      let pass name =
        let m = Measure.create scale in
        Fleet.attach m [ Fleet.Members (store_addr ()) ];
        let (), t =
          timed (fun () ->
              span name (fun () ->
                  ignore (Modeling.build_dataset m w ~variant:W.Train c.train_pts);
                  ignore (Modeling.build_dataset m w ~variant:W.Train c.test_pts)))
        in
        check (name ^ ": results bit-identical to the in-process --jobs 1 build")
          (same_results c.measure m);
        t
      in
      let fleet_cpu () =
        List.fold_left (fun acc d -> acc +. Daemon.group_cpu_s d) (cpu ()) (s.store :: s.workers)
      in
      let c0 = fleet_cpu () in
      let dispatch_s = pass "fleet.dispatch" in
      let chunks = counter "fleet.dispatched" in
      let store_s = pass "fleet.store" in
      let fleet_cpu_s = fleet_cpu () -. c0 in
      check "fleet.store: served by the store without dispatch" (counter "fleet.dispatched" = chunks);
      { fleet_s = dispatch_s +. store_s; fleet_cpu_s; dispatch_s; store_s; chunks;
        points = counter "fleet.points_dispatched"; retried = counter "fleet.retried";
        steals = counter "fleet.steals"; worker_failures = counter "fleet.worker_failures";
        store_prefilled = counter "fleet.store_prefilled";
        worker_sim_s =
          List.fold_left (fun acc (x : Daemon.t) -> acc +. worker_sim_seconds x.Daemon.socket) 0.0 s.workers })

(* ---------------- SMARTS accuracy (outside the timed phases) ---------------- *)

(* Mean |sampled - full| / full cycles over O0-O3 x the Table-5
   configurations, and sampled / full host time on the same set. *)
let smarts_accuracy (w : W.t) =
  let m = Measure.create scale in
  let params = Option.get scale.Scale.smarts in
  let setup = Measure.setup_func (w.W.arrays ~scale:scale.Scale.workload_scale ~variant:W.Train) in
  let errs = ref [] and ts = ref 0.0 and tf = ref 0.0 in
  List.iter
    (fun flags ->
      List.iter
        (fun (_, march) ->
          let prog = Measure.compile m w flags ~issue_width:march.Emc_sim.Config.issue_width in
          let s, dts = timed (fun () -> Emc_sim.Smarts.run_sampled ~params march prog ~setup) in
          let f, dtf = timed (fun () -> Emc_sim.Smarts.run_full march prog ~setup) in
          ts := !ts +. dts;
          tf := !tf +. dtf;
          let full = f.Emc_sim.Smarts.cycles in
          errs := (Float.abs (s.Emc_sim.Smarts.cycles -. full) /. full) :: !errs)
        Experiments.configs)
    Emc_opt.Flags.[ o0; o1; o2; o3 ];
  (100.0 *. List.fold_left ( +. ) 0.0 !errs /. float_of_int (List.length !errs), !ts /. !tf)

(* ---------------- the CLI cross-check ---------------- *)

let dump_cache (m : Measure.t) file =
  let oc = open_out_bin file in
  Hashtbl.iter (fun k v -> output_string oc (Measure.cache_line k v ^ "\n")) m.Measure.results;
  close_out oc

let run_capture argv =
  let out = path "cli.out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let err = Unix.openfile (path "cli.err") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process argv.(0) argv Unix.stdin fd err in
  Unix.close fd;
  Unix.close err;
  let _, status = Unix.waitpid [] pid in
  (status, Daemon.read_file out)

(* [emc model] on the same design, answered from the cold build's results:
   its report must equal the benchmark's byte for byte. *)
let cli_check (w : W.t) (c : cold) ~cache_file =
  let status, out =
    run_capture
      [| !emc; "model"; "-w"; w.W.name; "--scale"; scale.Scale.name; "--seed"; string_of_int c.seed;
         "--jobs"; "1"; "--cache"; cache_file |]
  in
  check "emc model exits 0" (status = Unix.WEXITED 0);
  check "model_cold report equals emc model output" (String.equal out c.report);
  if not (String.equal out c.report) then
    log "emc model printed:\n%s\nbenchmark computed:\n%s" out c.report

(* ---------------- determinism ledger ---------------- *)

let ledger_file = "perfbench/_run/determinism.jsonl"

(* The code being measured: a digest of this program and of the emc
   executable. A change to the code is free to move the deterministic
   figures, so only runs of identical code are compared. *)
let code_id () = Digest.to_hex (Digest.string (Digest.file Sys.executable_name ^ Digest.file !emc))

(* Figures that depend only on the inputs must repeat exactly. Each run
   records them per design (and per program for the SMARTS error) in a
   ledger in its checkout, keyed by the code identity, and compares with
   every earlier record of the same key — the same design measured by
   another run of the same code, traced or not. *)
let ledger_check entries =
  let code = code_id () in
  let entries = List.map (fun (key, figures) -> (code ^ "|" ^ key, figures)) entries in
  let earlier = Hashtbl.create 64 in
  List.iter
    (fun l ->
      match J.parse l with
      | Ok j -> (
          match J.member "key" j with Some (J.Str k) -> Hashtbl.replace earlier k j | _ -> ())
      | Error _ -> ())
    (String.split_on_char '\n' (Daemon.read_file ledger_file));
  let fresh = ref [] in
  List.iter
    (fun (key, figures) ->
      let encode = List.map (fun (n, v) -> (n, J.Str (Printf.sprintf "%h" v))) figures in
      match Hashtbl.find_opt earlier key with
      | None ->
          Hashtbl.replace earlier key (J.Obj []);
          fresh := J.Obj (("key", J.Str key) :: encode) :: !fresh
      | Some j ->
          List.iter
            (fun (n, v) ->
              match J.member n j with
              | Some v' when v' <> v ->
                  check ("deterministic figure repeats: " ^ n) false;
                  log "%s of %s differs from an earlier run" n key
              | _ -> ())
            encode)
    entries;
  if !fresh <> [] then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 ledger_file in
    List.iter (fun j -> output_string oc (J.to_string j ^ "\n")) (List.rev !fresh);
    close_out oc
  end

(* ---------------- one design through the four phases ---------------- *)

(* Repetitions per design of [search_warm], the shortest phase: each
   starts again from the cache file and does the same work. *)
let warm_reps = 4

type stacked = {
  setup_s : float;
  fleet : fleeted;
  rss : (string * float) list;  (** peak RSS per daemon, MB *)
}

type pass = {
  cold : cold;
  warms : warm list;
  stack : stacked;
  served : served option;  (** the serving window, when the design has one *)
  cpu_s : float;  (** CPU seconds of the timed phases, set-up excluded *)
  model_n : float;  (** [model_cold] CPU seconds at the reference speed *)
  search_n : float list;  (** each [search_warm], at the reference speed *)
  fleet_n : float;  (** [fleet_measure] CPU seconds at the reference speed *)
  traced : bool;
  replayed : (float * float * float) option;  (** traced: parse, predict, batch us *)
}

let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = sum xs /. float_of_int (max 1 (List.length xs))
let median xs = Emc_util.Stats.median (Array.of_list xs)
let window_p50_ms (x : served) = 1000.0 *. Option.value (Loadgen.percentile x.opened 50.0) ~default:nan

(* One daemon stack from an empty store: start-up, the serving window
   when [serve] holds, the fleet passes, shutdown. *)
let run_stack (w : W.t) (cold : cold) artifact ~artifact_file ~errs ~open_s ~serve =
  let stack, setup_s = timed (fun () -> start_stack ~artifact_file) in
  let served = if serve then Some (serve_predict artifact cold.seed ~errs ~open_s) else None in
  let fleet = fleet_measure w cold stack in
  let rss = List.map (fun (d : Daemon.t) -> (d.Daemon.role, Daemon.group_vmhwm_mb d)) (stack_members stack) in
  check "daemons stopped and reaped" (List.for_all Daemon.stop (stack_members stack));
  ({ setup_s; fleet; rss }, served)

let design_pass (w : W.t) ~ds ~traced ~errs ~open_s ~serve ~cli =
  Spans.enabled := traced;
  Spans.set_run ds;
  (* the reference kernel runs before every timed phase and, untraced,
     inside the phases that compute in this process *)
  let every p = if traced then None else Some p in
  let cold, model_r = Hostref.phase ?every:(every 0.2) (fun () -> model_cold w ds) in
  let cache_file = path (Printf.sprintf "cache-%d.jsonl" ds) in
  let artifact_file = path (Printf.sprintf "model-%d.json" ds) in
  let artifact =
    match
      Artifact.of_model ~workload:w.W.name ~scale:scale.Scale.name ~seed:ds
        ~train_n:scale.Scale.train_n
        ~test_mape:(Emc_regress.Metrics.mape cold.rbf.Model.predict cold.test) cold.rbf
    with
    | Ok a -> a
    | Error e -> failwith ("artifact: " ^ e)
  in
  Spans.enabled := false;
  dump_cache cold.measure cache_file;
  Artifact.save artifact artifact_file;
  if cli then cli_check w cold ~cache_file;
  Spans.enabled := traced;
  let warms =
    (* a repetition takes about 0.3 s: sampled more often, so several
       passes fall inside it *)
    List.init warm_reps (fun _ ->
        Hostref.phase ?every:(every 0.05) (fun () -> search_warm w cold ~cache_file))
  in
  let search_n = List.map (fun (x, r) -> Hostref.at_reference ~r x.search_cpu_s) warms in
  let warms = List.map fst warms in
  check "search_warm: GA evaluations repeat exactly"
    (List.for_all (fun x -> x.ga_evals = (List.hd warms).ga_evals) warms);
  (* the fleet computes in the daemons: one kernel pass before, one after *)
  let (stack, served), fleet_r0 =
    Hostref.phase (fun () -> run_stack w cold artifact ~artifact_file ~errs ~open_s ~serve)
  in
  Spans.enabled := false;
  let (), fleet_r1 = Hostref.phase (fun () -> ()) in
  (* the stage-by-stage compile and the in-process serving replay run
     after the timed phases, so they do not count as tracing overhead *)
  let replayed =
    if not traced then None
    else begin
      Spans.enabled := true;
      compile_split w cold;
      let r = replay artifact ds in
      Spans.enabled := false;
      Some r
    end
  in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ cache_file; artifact_file ];
  log "  design %d%s: cpu model %.3fs  search %.3fs  fleet %.3fs; setup %.3fs%s  mape %.2f%%" ds
    (if traced then " (traced)" else "")
    cold.model_cpu_s
    (mean (List.map (fun x -> x.search_cpu_s) warms))
    stack.fleet.fleet_cpu_s stack.setup_s
    (match served with Some x -> Printf.sprintf "  p50 %.3fms" (window_p50_ms x) | None -> "")
    cold.mape;
  { cold; warms; stack; served; traced; replayed;
    cpu_s = cold.model_cpu_s +. sum (List.map (fun x -> x.search_cpu_s) warms) +. stack.fleet.fleet_cpu_s;
    model_n = Hostref.at_reference ~r:model_r cold.model_cpu_s; search_n;
    fleet_n = Hostref.at_reference ~r:((fleet_r0 +. fleet_r1) /. 2.0) stack.fleet.fleet_cpu_s }

(* ---------------- metrics ---------------- *)

let warms ps = List.concat_map (fun p -> p.warms) ps
let stacks ps = List.map (fun p -> p.stack) ps
let served ps = List.filter_map (fun p -> p.served) ps

let rss_max role ps =
  List.fold_left
    (fun acc x ->
      List.fold_left
        (fun acc (r, v) -> if String.starts_with ~prefix:role r then Float.max acc v else acc)
        acc x.rss)
    0.0 (stacks ps)

let self_rss_mb () = Daemon.vmhwm_mb (Unix.getpid ())

(* the benchmark process plus the largest of each daemon, both workers *)
let peak_rss ps =
  self_rss_mb () +. rss_max "serve" ps +. rss_max "fleet-store" ps +. (2.0 *. rss_max "fleet-worker" ps)

(* The open-loop windows of [ps], merged: counters add, latency
   histograms merge bucket-wise. *)
let open_merged ps =
  let snap = List.fold_left (fun acc x -> M.merge acc x.opened.Loadgen.r_snapshot) M.snapshot_empty (served ps) in
  let c name = Option.value (List.assoc_opt name (M.snapshot_counters snap)) ~default:0 in
  let hist name = List.assoc_opt ("loadgen.latency_seconds" ^ name) (M.snapshot_histograms snap) in
  (c, hist)

let open_samples ps = fst (open_merged ps) "loadgen.responses"

(* Mean CPU seconds of a phase over the run's designs (and repetitions);
   the end-to-end figures are the same means at the reference speed.
   The designs of a run do nearly the same work (their simulated
   instruction counts differ by about 1%), so the spread between them is
   the host's; the mean keeps more of each sample than the median. *)
let model_cpu ps = mean (List.map (fun p -> p.cold.model_cpu_s) ps)
let search_cpu ps = mean (List.map (fun (x : warm) -> x.search_cpu_s) (warms ps))
let fleet_cpu ps = mean (List.map (fun x -> x.fleet.fleet_cpu_s) (stacks ps))

let end_to_end ps ~smarts_err =
  let med f xs = median (List.map f xs) in
  log "CPU seconds: model %.4f  search %.4f  fleet %.4f; reference kernel %.3f ms (%d passes)"
    (model_cpu ps) (search_cpu ps) (fleet_cpu ps) (1000.0 *. Hostref.mean_s ())
    (List.length !Hostref.samples);
  [ ("setup_s", "s", med (fun x -> x.setup_s) (stacks ps));
    ("model_s", "s", mean (List.map (fun p -> p.model_n) ps));
    ("search_s", "s", mean (List.concat_map (fun p -> p.search_n) ps));
    ("fleet_s", "s", mean (List.map (fun p -> p.fleet_n) ps));
    ("mape_pct", "%", mean (List.map (fun p -> p.cold.mape) ps));
    ("smarts_err_pct", "%", smarts_err);
    ("peak_rss_mb", "MB", peak_rss ps) ]

(* How many times each phase ran per design: per-layer figures count
   each phase once per design. *)
let phase_reps = function
  | "search_warm" -> warm_reps
  | _ -> 1

let per_layer ~program ~traced:tr ~untraced ~spans ~errs ~sampled_vs_full ~steal_pct =
  let n = float_of_int (List.length tr) in
  let self_by = Hashtbl.create 64 in
  List.iter
    (fun ((phase, name), (t, _)) ->
      let acc = Option.value (Hashtbl.find_opt self_by name) ~default:0.0 in
      Hashtbl.replace self_by name (acc +. (t /. float_of_int (phase_reps phase))))
    (Spans.by_phase spans);
  let self name = Option.value (Hashtbl.find_opt self_by name) ~default:0.0 /. n in
  let avg f xs = mean (List.map f xs) in
  let avgi f xs = avg (fun x -> float_of_int (f x)) xs in
  let ws = warms tr and ss = stacks tr in
  let fl f = avg (fun x -> f x.fleet) ss and fli f = avgi (fun x -> f x.fleet) ss in
  let sim_s = avg (fun p -> p.cold.sim_s) tr in
  let runs = avgi (fun p -> p.cold.sim_runs) tr and discarded = avgi (fun p -> p.cold.sim_discarded) tr in
  let replayed f = avg (fun p -> match p.replayed with Some r -> f r | None -> 0.0) tr in
  let parse = replayed (fun (x, _, _) -> x) in
  let h_pred = replayed (fun (_, x, _) -> x) and h_batch = replayed (fun (_, _, x) -> x) in
  let opened, hist = open_merged tr in
  (* client latency minus in-process parse and handle: transport and
     scheduling, weighted by the request mix actually sent *)
  let wait_us =
    let part (endpoint, handle) =
      match Option.bind (hist ("." ^ endpoint)) M.hsnap_stats with
      | Some st -> (float_of_int st.M.count *. ((1e6 *. st.M.mean) -. parse -. handle), st.M.count)
      | None -> (0.0, 0)
    in
    let parts = List.map part [ ("predict", h_pred); ("predict_batch", h_batch) ] in
    sum (List.map fst parts) /. float_of_int (max 1 (List.fold_left (fun a (_, n) -> a + n) 0 parts))
  in
  let chunks = fli (fun f -> f.chunks) in
  let dispatch = fl (fun f -> f.dispatch_s) in
  let ga_s = avg (fun x -> x.ga_s) ws and ga_evals = avgi (fun x -> x.ga_evals) ws in
  let cpus ps = sum (List.map (fun p -> p.cpu_s) ps) in
  let sim_of prog = if prog = program then sim_s else 0.0 in
  let s = "s" and count = "count" and us = "us" and ratio = "ratio" in
  [ ("model_cpu_s", s, model_cpu tr);
    ("search_cpu_s", s, search_cpu tr);
    ("fleet_cpu_s", s, fleet_cpu tr);
    ("model_wall_s", s, median (List.map (fun p -> p.cold.model_s) tr));
    ("search_wall_s", s, mean (List.map (fun (x : warm) -> x.search_s) ws));
    ("fleet_wall_s", s, median (List.map (fun x -> x.fleet.fleet_s) ss));
    ("doe.s", s, self "doe");
    (* the points Doe returned per design: its cold draw and one warm draw *)
    ("doe.points", count, avgi (fun p -> p.cold.doe_points) tr +. avgi (fun (x : warm) -> x.doe_points) ws);
    ("measure.compile_s", s, avg (fun p -> p.cold.compile_s) tr);
    ("measure.compiles", count, avgi (fun p -> p.cold.measure.Measure.compiles) tr);
    ("measure.binary_hits", count, avgi (fun p -> p.cold.measure.Measure.binary_hits) tr);
    ("lang.s", s, self "lang");
    ("opt.s", s, self "opt");
    ("codegen.s", s, self "codegen");
    ("codegen.static_instrs", count, avg (fun p -> p.cold.static_instrs) tr);
    ("sim.s", s, sim_s);
    ("sim.s.mcf", s, sim_of "mcf");
    ("sim.s.gzip", s, sim_of "gzip");
    ("sim.runs", count, runs);
    ("sim.discarded", count, discarded);
    ("sim.kept_ratio", ratio, runs /. Float.max 1.0 (runs +. discarded));
    ("sim.detail_minstr_per_s", "Minstr/s", avgi (fun p -> p.cold.sim_detail_instrs) tr /. 1e6 /. sim_s);
    ("sim.sampled_vs_full", ratio, sampled_vs_full);
    ("sim.ci_rel_p50", ratio, avg (fun p -> p.cold.ci_p50) tr);
    ("sim.cycles_total", count, avgi (fun p -> p.cold.sim_cycles) tr);
    ("measure.cache_load_s", s, avg (fun x -> x.cache_load_s) ws);
    ("measure.result_hits", count, avgi (fun x -> x.result_hits) ws);
    ("measure.hit_ratio", ratio,
      avg (fun x -> float_of_int x.result_hits /. float_of_int (x.result_hits + x.simulations)) ws);
    ("regress.linear_s", s, self "regress.linear");
    ("regress.mars_s", s, self "regress.mars");
    ("regress.rbf_s", s, self "regress.rbf");
    ("regress.rank_s", s, self "regress.rank");
    ("regress.effects_s", s, self "regress.effects");
    ("regress.eval_s", s, self "regress.eval");
    ("search.ga_s", s, ga_s);
    ("search.ga_evals", count, ga_evals);
    ("search.ga_evals_per_s", "1/s", ga_evals /. ga_s);
    ("search.pareto_s", s, avg (fun x -> x.pareto_s) ws);
    ("search.pareto_evals", count, avgi (fun x -> x.pareto_evals) ws);
    ("serve_p50_ms", "ms", median (List.map window_p50_ms (served tr)));
    ("serve_p99_ms", "ms",
      1000.0 *. Option.value (Option.bind (hist "") (fun h -> M.hsnap_percentile h 99.0)) ~default:nan);
    ("serve_rps", "req/s", median (List.map (fun x -> x.closed.Loadgen.r_achieved_rps) (served tr)));
    ("serve.samples", count, float_of_int (opened "loadgen.responses"));
    ("serve.parse_us", us, parse);
    ("serve.handle_us.predict", us, h_pred);
    ("serve.handle_us.predict_batch", us, h_batch);
    ("serve.wait_us", us, wait_us);
    ("serve.errors.connect", count, float_of_int errs.Client.connect);
    ("serve.errors.timeout", count, float_of_int errs.Client.timeout);
    ("serve.errors.protocol", count, float_of_int errs.Client.protocol);
    ("serve.errors.status", count, float_of_int errs.Client.status);
    ("serve.errors.mismatch", count, float_of_int errs.Client.mismatch);
    ("loadgen.late_pct", "%", Stats.share_pct ~total:(opened "loadgen.sent") (opened "loadgen.late"));
    ("fleet.dispatch_s", s, dispatch);
    ("fleet.store_s", s, fl (fun f -> f.store_s));
    ("fleet.chunks", count, chunks);
    ("fleet.points", count, fli (fun f -> f.points));
    ("fleet.retried", count, fli (fun f -> f.retried));
    ("fleet.steals", count, fli (fun f -> f.steals));
    ("fleet.worker_failures", count, fli (fun f -> f.worker_failures));
    ("fleet.store_prefilled", count, fli (fun f -> f.store_prefilled));
    ("fleet.waste_ratio", ratio, (fli (fun f -> f.steals) +. fli (fun f -> f.retried)) /. Float.max 1.0 chunks);
    ("fleet.worker_busy_ratio", ratio, fl (fun f -> f.worker_sim_s) /. (2.0 *. dispatch));
    ("rss.bench_mb", "MB", self_rss_mb ());
    ("rss.serve_mb", "MB", rss_max "serve" tr);
    ("rss.store_mb", "MB", rss_max "fleet-store" tr);
    ("rss.worker_mb", "MB", rss_max "fleet-worker" tr);
    ("trace.overhead_pct", "%", Stats.pct_change ~base:(cpus untraced) (cpus tr));
    ("failed_pct", "%", Stats.share_pct ~total:!attempted !failed);
    ("host.steal_pct", "%", steal_pct);
    ("host.ref_ms", "ms", 1000.0 *. Hostref.mean_s ()) ]

(* Per-phase self time and span count of the traced passes, with the raw
   spans — the input of [bench_diff.py]. *)
let write_trace ~workload ~seed ~metrics spans =
  let file = Printf.sprintf "perfbench/_run/trace-%s-seed%d.json" workload seed in
  let phases =
    List.map
      (fun ((phase, name), (self, count)) ->
        J.Obj
          [ ("phase", J.Str phase); ("layer", J.Str name); ("self_s", J.Float self);
            ("count", J.Int count) ])
      (Spans.by_phase spans)
  in
  let raw =
    List.map
      (fun (s : Spans.span) ->
        J.Obj
          [ ("id", J.Int s.Spans.id); ("parent", J.Int s.Spans.parent); ("name", J.Str s.Spans.name);
            ("t0", J.Float s.Spans.t0); ("t1", J.Float s.Spans.t1); ("run", J.Int s.Spans.run) ])
      spans
  in
  let oc = open_out_bin file in
  output_string oc
    (J.to_string
       (J.Obj
          [ ("workload", J.Str workload); ("seed", J.Int seed);
            ("per_layer", J.Obj (List.map (fun (n, _, v) -> (n, J.Float v)) metrics));
            ("phases", J.List phases); ("spans", J.List raw) ]));
  close_out oc;
  log "trace written to %s" file

(* ---------------- main ---------------- *)

exception Interrupted

let rec remove_tree p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove_tree (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error _ -> ()

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "mcf or gzip");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "run budget, which sets the number of designs");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer metrics");
      ("--emc", Arg.Set_string emc, "path to the emc executable") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload mcf|gzip --seed N --seconds S --trace 0|1 --emc PATH";
  (!workload, !seed, !seconds, !trace = 1)

let print_result ~correct metrics =
  let m = List.map (fun (n, u, v) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ])) metrics in
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool correct); ("attempted", J.Int !attempted); ("failed", J.Int !failed);
            ("metrics", J.Obj m) ]))

let main () =
  let workload, seed, seconds, traced = parse_args () in
  let steal0, ticks0 = host_ticks () in
  let wname, per_design =
    match List.assoc_opt workload programs with
    | Some p -> p
    | None -> failwith ("unknown workload " ^ workload ^ " (mcf or gzip)")
  in
  if not (Sys.file_exists !emc) then failwith "--emc must name the emc executable";
  let w = Emc_workloads.Registry.find wname in
  (try Unix.mkdir "perfbench/_run" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  run_dir := Printf.sprintf "perfbench/_run/%d" (Unix.getpid ());
  Unix.mkdir !run_dir 0o755;
  let errs = Client.new_errors () in
  let k = max 2 (int_of_float (float_of_int seconds /. per_design)) in
  let open_s = open_seconds ~traced_designs:((k + 1) / 2) in
  (* untraced: k designs once each; traced: half as many, each measured
     once untraced and once traced, so the overhead compares equal work *)
  let plan =
    if traced then List.concat (List.init ((k + 1) / 2) (fun i -> [ (i, false); (i, true) ]))
    else List.init k (fun i -> (i, false))
  in
  let ps =
    List.mapi
      (fun j (i, tr) ->
        (* the serving window feeds only per-layer figures: a traced run
           serves on its traced designs, an untraced run on its first
           design, for the output checks *)
        let serve = if traced then tr else j = 0 in
        let p = design_pass w ~ds:(design_seed seed i) ~traced:tr ~errs ~open_s ~serve ~cli:(j = 0) in
        Gc.compact ();
        p)
      plan
  in
  let spans = Spans.recorded () in
  let smarts_err, sampled_vs_full = smarts_accuracy w in
  (* each failed request was counted as attempted when it was sent *)
  failed := !failed + Client.errors_total errs;
  if Client.errors_total errs > 0 then problems := "serving errors" :: !problems;
  ledger_check
    ((Printf.sprintf "%s|smarts" workload, [ ("smarts_err_pct", smarts_err) ])
    :: List.map
         (fun p ->
           ( Printf.sprintf "%s|design|%d" workload p.cold.seed,
             [ ("mape_pct", p.cold.mape); ("sim.cycles_total", float_of_int p.cold.sim_cycles);
               ("codegen.static_instrs", p.cold.static_instrs);
               ("sim.runs", float_of_int p.cold.sim_runs);
               ("sim.discarded", float_of_int p.cold.sim_discarded);
               ("search.ga_evals", float_of_int (List.hd p.warms).ga_evals) ] ))
         ps);
  if traced then begin
    let tr = List.filter (fun p -> p.traced) ps and un = List.filter (fun p -> not p.traced) ps in
    check "serve_p99_ms has >= 10 samples beyond it"
      (match Stats.tail_percentile (open_samples tr) with
      | Some q -> q >= 99.0
      | None -> false);
    let steal_pct =
      let steal1, ticks1 = host_ticks () in
      if ticks1 > ticks0 then Stats.share_pct ~total:(ticks1 - ticks0) (steal1 - steal0) else 0.0
    in
    let m = per_layer ~program:workload ~traced:tr ~untraced:un ~spans ~errs ~sampled_vs_full ~steal_pct in
    write_trace ~workload ~seed ~metrics:m spans;
    m
  end
  else end_to_end ps ~smarts_err

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let interrupt = Sys.Signal_handle (fun _ -> raise Interrupted) in
  Sys.set_signal Sys.sigterm interrupt;
  Sys.set_signal Sys.sigint interrupt;
  (* wait for every child still running: load generator children cut
     short by an interrupt, daemons already stopped *)
  let rec reap_children () =
    match Unix.waitpid [] (-1) with
    | _ -> reap_children ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap_children ()
    | exception Unix.Unix_error _ -> ()
  in
  let cleanup () =
    let stopped = Daemon.stop_all () in
    let left = Daemon.orphans () in
    List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) left;
    reap_children ();
    if !run_dir <> "" then remove_tree !run_dir;
    stopped && left = []
  in
  match main () with
  | metrics ->
      check "no process left behind" (cleanup ());
      print_result ~correct:(!problems = []) metrics;
      exit 0
  | exception e ->
      ignore (cleanup ());
      log "run failed: %s" (Printexc.to_string e);
      exit 1
