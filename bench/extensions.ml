(* Everything the bench runs beyond the paper's figures: ablations of
   the detector, the extensions (PV vs HVM, exposure, hardening,
   recovery, fault classes) and the system legs (the campaign planner,
   serving, the cluster and the Bechamel kernels), which return their
   measurements for --json. *)

open Xentry_util
module R = Report  (* Xentry_util.Report: rendering *)
module Mcpu = Xentry_machine.Cpu
open Xentry_vmm
open Xentry_workload
open Xentry_mlearn
open Xentry_core
open Xentry_faultinject

let print = print_string
let printf = Printf.printf
let pct_of_fraction f = 100.0 *. f

(* ------------------------------------------------------------------ *)
(* Ablation: detector design choices                                    *)
(* ------------------------------------------------------------------ *)

let project_features dataset keep =
  let names = Dataset.feature_names dataset in
  let kept_names = Array.of_list (List.map (fun i -> names.(i)) keep) in
  Dataset.create ~feature_names:kept_names ~n_classes:(Dataset.n_classes dataset)
    (Array.to_list (Dataset.samples dataset)
    |> List.map (fun s ->
           {
             Dataset.features =
               Array.of_list (List.map (fun i -> s.Dataset.features.(i)) keep);
             label = s.Dataset.label;
           }))

let ablation (ctx : Context.t) =
  print (R.section "Ablation: detector design choices");
  let t = Lazy.force ctx.trained in
  let train = t.Training.train_corpus.Training.dataset in
  let test = t.Training.test_corpus.Training.dataset in
  let acc tree ds = pct_of_fraction (Metrics.accuracy (Metrics.evaluate tree ds)) in
  (* 1. Tree depth sweep (the study the paper omits for space). *)
  printf "tree depth sweep (decision tree):\n";
  print
    (R.table
       ~header:[ "max depth"; "test accuracy"; "nodes" ]
       ~rows:
         (List.map
            (fun depth ->
              let tree =
                Tree.train
                  ~config:
                    { Tree.default_config with max_depth = depth; min_gain = 1e-6 }
                  train
              in
              [
                string_of_int depth;
                R.percent (acc tree test);
                string_of_int (Tree.node_count tree);
              ])
            [ 2; 4; 8; 12; 16; 24 ]));
  (* 2. Feature ablation: drop each Table I feature. *)
  printf "feature ablation (random tree, drop one feature):\n";
  let full_names = Dataset.feature_names train in
  let all_idx = List.init (Array.length full_names) (fun i -> i) in
  print
    (R.table
       ~header:[ "features"; "test accuracy" ]
       ~rows:
         (List.map
            (fun dropped ->
              let keep = List.filter (fun i -> i <> dropped) all_idx in
              let tr = project_features train keep in
              let te = project_features test keep in
              let tree =
                Tree.train
                  ~config:
                    {
                      (Tree.random_tree_config
                         ~n_features:(List.length keep) ~seed:5)
                      with
                      max_depth = 24;
                      min_gain = 1e-6;
                    }
                  tr
              in
              [
                Printf.sprintf "without %s" full_names.(dropped);
                R.percent (acc tree te);
              ])
            all_idx));
  (* 3. Classifier family comparison (the paper's future-work axis). *)
  printf "classifier family:\n";
  let forest = Forest.train ~trees:15 ~seed:9 train in
  let forest_eval = Metrics.evaluate_predict (Forest.predict forest) test in
  print
    (R.table
       ~header:[ "classifier"; "test accuracy"; "FP rate"; "per-entry cost" ]
       ~rows:
         [
           [
             "decision tree";
             R.percent
               (pct_of_fraction (Metrics.accuracy t.Training.decision_tree_eval));
             R.percent
               (pct_of_fraction
                  (Metrics.false_positive_rate t.Training.decision_tree_eval));
             Printf.sprintf "%d cmps" (Tree.max_comparisons t.Training.decision_tree);
           ];
           [
             "random tree";
             R.percent
               (pct_of_fraction (Metrics.accuracy t.Training.random_tree_eval));
             R.percent
               (pct_of_fraction
                  (Metrics.false_positive_rate t.Training.random_tree_eval));
             Printf.sprintf "%d cmps" (Tree.max_comparisons t.Training.random_tree);
           ];
           [
             "bagged forest (15)";
             R.percent (pct_of_fraction (Metrics.accuracy forest_eval));
             R.percent
               (pct_of_fraction (Metrics.false_positive_rate forest_eval));
             Printf.sprintf "%d cmps"
               (Array.fold_left
                  (fun acc tr -> acc + Tree.max_comparisons tr)
                  0 (Forest.trees forest));
           ];
         ]);
  (* 4. Training set size sweep. *)
  printf "training-set size sweep (random tree):\n";
  let rng = Rng.create 13 in
  print
    (R.table
       ~header:[ "fraction"; "samples"; "test accuracy" ]
       ~rows:
         (List.map
            (fun fraction ->
              let sub, _ =
                Dataset.train_test_split (Rng.split rng) train
                  ~train_fraction:fraction
              in
              let tree =
                Tree.train
                  ~config:
                    {
                      (Tree.random_tree_config ~n_features:5 ~seed:3) with
                      max_depth = 24;
                      min_gain = 1e-6;
                    }
                  sub
              in
              [
                Printf.sprintf "%.0f%%" (100.0 *. fraction);
                string_of_int (Dataset.length sub);
                R.percent (acc tree test);
              ])
            [ 0.1; 0.25; 0.5; 1.0 ]));
  (* 5. Detection-threshold sweep: the coverage / false-positive
     trade-off the deployed tree's leaf frequencies expose. *)
  printf "detection-threshold sweep (thresholded random tree):\n";
  print
    (R.table
       ~header:[ "P(incorrect) threshold"; "recall"; "FP rate" ]
       ~rows:
         (List.map
            (fun tau ->
              let det =
                Transition_detector.with_threshold t.Training.random_tree
                  ~min_incorrect_probability:tau
              in
              let predict features =
                match Transition_detector.classify_features det features with
                | Transition_detector.Incorrect, _ -> 1
                | Transition_detector.Correct, _ -> 0
              in
              let c = Metrics.evaluate_predict predict test in
              [
                Printf.sprintf "%.2f" tau;
                R.percent (pct_of_fraction (Metrics.recall c));
                R.percent (pct_of_fraction (Metrics.false_positive_rate c));
              ])
            [ 0.05; 0.15; 0.30; 0.50; 0.75 ]))

(* ------------------------------------------------------------------ *)
(* PV vs HVM detection coverage (extension)                             *)
(* ------------------------------------------------------------------ *)

let modes (ctx : Context.t) =
  print (R.section "PV vs HVM detection coverage (extension)");
  let det = Lazy.force ctx.detector in
  let injections = Context.scaled ctx 2_000 in
  let rows =
    List.concat_map
      (fun mode ->
        List.map
          (fun b ->
            let s =
              Report.summarize
                (Campaign.execute
                   {
                     (Campaign.Config.make ~detector:det ~jobs:ctx.jobs
                        ~benchmark:b ~injections ~seed:91 ())
                     with
                     Campaign.mode;
                   })
            in
            let t = s.Report.techniques in
            let pct n =
              R.percent
                (100.0 *. float_of_int n /. float_of_int (max 1 s.Report.manifested))
            in
            [
              Profile.benchmark_name b;
              (match mode with Profile.PV -> "PV" | Profile.HVM -> "HVM");
              string_of_int s.Report.manifested;
              R.percent (pct_of_fraction s.Report.coverage);
              pct t.Report.hw_exception;
              pct t.Report.sw_assertion;
              pct t.Report.vm_transition;
            ])
          [ Profile.Mcf; Profile.Bzip2; Profile.Postmark ])
      [ Profile.PV; Profile.HVM ]
  in
  print
    (R.table
       ~header:
         [ "benchmark"; "mode"; "manifested"; "coverage"; "hw"; "sw"; "vmt" ]
       ~rows);
  printf
    "\nThe paper's fault-injection study runs para-virtualized guests; the\n\
     same framework covers hardware-assisted mode, whose exit mix shifts\n\
     toward exceptions and interrupts (Fig 3's HVM bands) without moving\n\
     the coverage materially - the detection channels are per-execution,\n\
     not per-mode.\n"

(* ------------------------------------------------------------------ *)
(* SII-B motivation: hypervisor-context soft-error exposure            *)
(* ------------------------------------------------------------------ *)

let exposure (_ : Context.t) =
  print
    (R.section
       "SII-B motivation: hypervisor-context residency and fault exposure");
  let cpu_ips = 2.13e9 in
  let rng = Rng.create 23 in
  let rows =
    List.concat_map
      (fun b ->
        let p = Profile.get b in
        List.map
          (fun mode ->
            let rate =
              let total = ref 0.0 in
              for _ = 1 to 40 do
                total := !total +. Profile.sample_activation_rate p mode rng
              done;
              !total /. 40.0
            in
            let len = Profile.mean_handler_length p mode in
            let residency = rate *. len /. cpu_ips in
            [
              Profile.benchmark_name b;
              (match mode with Profile.PV -> "PV" | Profile.HVM -> "HVM");
              Printf.sprintf "%.0f/s" rate;
              Printf.sprintf "%.0f" len;
              R.percent (100.0 *. residency);
            ])
          [ Profile.PV; Profile.HVM ])
      Context.benchmarks
  in
  print
    (R.table
       ~header:
         [ "benchmark"; "mode"; "activations"; "mean handler instrs";
           "host-mode residency" ]
       ~rows);
  printf
    "\nResidency approximates the fraction of CPU time spent in hypervisor\n\
     context - the window in which a soft error strikes the hypervisor\n\
     rather than a (fault-isolated) guest.  On dedicated I/O cores the\n\
     paper notes this approaches full utilization, which is the SII-B\n\
     argument for protecting the hypervisor at all.\n"

(* ------------------------------------------------------------------ *)
(* Hardening ablation (extension: SVI selective value duplication)     *)
(* ------------------------------------------------------------------ *)

let hardening (ctx : Context.t) =
  print
    (R.section "Hardening ablation (extension: SVI selective value duplication)");
  printf "static handler size: baseline %d instructions, hardened %d (+%.0f%%)
"
    (Handlers.static_instruction_count ())
    (Handlers.static_instruction_count ~hardened:true ())
    (100.0
    *. (float_of_int (Handlers.static_instruction_count ~hardened:true ())
        /. float_of_int (Handlers.static_instruction_count ())
       -. 1.0));
  let injections = Context.scaled ctx 3_000 in
  let campaign hardened b =
    Report.summarize
      (Campaign.execute
         (Campaign.Config.make ~hardened ~jobs:ctx.jobs ~benchmark:b ~injections
            ~seed:5 ()))
  in
  let rows =
    List.concat_map
      (fun b ->
        List.map
          (fun hardened ->
            let s = campaign hardened b in
            let undet_pct =
              100.0
              *. float_of_int s.Report.techniques.Report.undetected
              /. float_of_int (max 1 s.Report.manifested)
            in
            let class_count cls =
              List.assoc cls s.Report.undetected_breakdown
            in
            [
              Profile.benchmark_name b;
              (if hardened then "hardened" else "baseline");
              string_of_int s.Report.manifested;
              R.percent undet_pct;
              string_of_int (class_count Outcome.Stack_values);
              string_of_int (class_count Outcome.Time_values);
              string_of_int (class_count Outcome.Other_values);
            ])
          [ false; true ])
      [ Profile.Postmark; Profile.Mcf; Profile.Bzip2 ]
  in
  print
    (R.table
       ~header:
         [ "benchmark"; "variant"; "manifested"; "undetected"; "stack";
           "time"; "other" ]
       ~rows);
  printf
    "\nSVI's proposed duplication (verify frame slots against live\n\
     registers, double rdtsc reads, duplicated time scaling) trims the\n\
     silent stack- and time-value channels at the cost of longer\n\
     handlers.  Faults that strike before the first copy exists remain\n\
     irreducible, as the paper anticipates ('some of such errors may\n\
     be captured..., but not all').\n"

(* ------------------------------------------------------------------ *)
(* Campaign planner: def-use pruning + snapshot fast-forwarding        *)
(* ------------------------------------------------------------------ *)

let campaign (ctx : Context.t) =
  print
    (R.section "Campaign planner: def-use pruning + snapshot fast-forwarding");
  let injections = Context.scaled ctx 500 in
  let faults_per_run = 64 in
  let total = injections * faults_per_run in
  (* A right-sized watchdog budget: postmark's longest fault-free
     handler is ~1,100 dynamic instructions, so 2,000 fuel never
     truncates a golden run while faulted executions that hang (and
     trip the watchdog) burn 2,000 steps instead of the default
     20,000.  Both paths run with the same fuel, so records stay
     comparable; the default budget mostly measures how long the
     simulator spins inside hung runs that both paths execute
     identically. *)
  let fuel = 2_000 in
  let base =
    Campaign.Config.make ~jobs:ctx.jobs ~benchmark:Profile.Postmark ~injections
      ~seed:2014 ~fuel ~faults_per_run ~prune:true ~snapshot_interval:64 ()
  in
  let timed config =
    let t0 = Unix.gettimeofday () in
    let records, stats = Campaign.execute_with_stats config in
    (Unix.gettimeofday () -. t0, records, stats)
  in
  (* Three runs: the pre-planner campaign shape (planner off AND no
     golden sharing — one golden run per injection, exactly the loop
     this planner replaced; its fault stream necessarily differs, so
     it is the speedup baseline, not an identity leg); every fault
     simulated under the shared-golden shape; and planned (golden runs
     recorded with periodic snapshots, survivors resumed from the
     nearest one). *)
  let legacy_s, _, _ =
    timed
      (Campaign.Config.make ~jobs:ctx.jobs ~benchmark:Profile.Postmark
         ~injections:total ~seed:2014 ~fuel ~faults_per_run:1 ~prune:false
         ~snapshot_interval:64 ())
  in
  let exhaustive_s, exhaustive_records, _ =
    timed { base with Campaign.prune = false }
  in
  let planned_s, planned_records, stats = timed base in
  let identical = planned_records = exhaustive_records in
  let planned = float_of_int (max 1 stats.Campaign.planned) in
  let pruned_fraction = float_of_int stats.Campaign.pruned /. planned in
  let collapsed_fraction = float_of_int stats.Campaign.collapsed /. planned in
  let ff_fraction = float_of_int stats.Campaign.fast_forwarded /. planned in
  let eff s = float_of_int total /. Float.max 1e-9 s in
  let speedup = legacy_s /. Float.max 1e-9 planned_s in
  let speedup_vs_exhaustive = exhaustive_s /. Float.max 1e-9 planned_s in
  printf
    "%d golden runs x %d faults = %d injections, postmark PV, fuel=%d, \
     jobs=%d\n"
    injections faults_per_run total fuel ctx.jobs;
  printf "planner off (1 golden/injection)  %.3fs   %10.0f inj/s\n" legacy_s
    (eff legacy_s);
  printf "exhaustive (shared golden)        %.3fs   %10.0f inj/s\n"
    exhaustive_s (eff exhaustive_s);
  printf "planned                           %.3fs   %10.0f inj/s\n" planned_s
    (eff planned_s);
  printf
    "pruning + fast-forwarding on vs. off: %.1fx effective injections/s \
     (%.1fx vs. shared-golden exhaustive)\n"
    speedup speedup_vs_exhaustive;
  printf
    "pruned %.1f%%  class-collapsed %.1f%%  fast-forwarded %.1f%%  simulated \
     %d of %d\n"
    (100.0 *. pruned_fraction)
    (100.0 *. collapsed_fraction)
    (100.0 *. ff_fraction) stats.Campaign.simulated stats.Campaign.planned;
  printf "records bit-identical (exhaustive = planned): %b\n" identical;
  if not identical then begin
    Printf.eprintf "FATAL: planned campaign records diverged from exhaustive\n%!";
    exit 1
  end;
  Json.(
    Obj
      [ ("injections", Int total); ("legacy_seconds", Float legacy_s);
        ("exhaustive_seconds", Float exhaustive_s);
        ("planned_seconds", Float planned_s);
        ("pruned_fraction", Float pruned_fraction);
        ("collapsed_fraction", Float collapsed_fraction);
        ("fast_forward_fraction", Float ff_fraction);
        ("effective_injections_per_sec", Float (eff planned_s));
        ("effective_injections_per_sec_exhaustive", Float (eff exhaustive_s));
        ("effective_injections_per_sec_legacy", Float (eff legacy_s));
        ("speedup", Float speedup);
        ("speedup_vs_exhaustive", Float speedup_vs_exhaustive);
        ("identical", Bool identical) ])

(* ------------------------------------------------------------------ *)
(* Serve: sustained throughput and shed rate of the request engine     *)
(* ------------------------------------------------------------------ *)

module Serve = Xentry_serve.Server

let serve_scenario_json (name, rate, s) =
  Json.(
    Obj
      [ ("scenario", String name); ("offered_rps", Float rate);
        ("throughput_rps", Float s.Serve.throughput_rps);
        ("completed", Int s.Serve.completed);
        ("detected", Int s.Serve.detected);
        ("shed_fraction", Float (Serve.shed_fraction s));
        ("shed_queue_full", Int s.Serve.shed_queue_full);
        ("shed_deadline", Int s.Serve.shed_deadline);
        ("shed_draining", Int s.Serve.shed_draining);
        ("p50_us", Float (Serve.latency_quantile s 0.50));
        ("p99_us", Float (Serve.latency_quantile s 0.99));
        ("deepest_level", String s.Serve.rung_names.(s.Serve.deepest_rung));
        ("final_level", String s.Serve.rung_names.(s.Serve.final_rung));
        ("peak_occupancy", Float s.Serve.peak_occupancy);
        ("injected", Int s.Serve.injected);
        ("recoveries", Int s.Serve.recoveries);
        ("recovery_p50_us", Float (Serve.recovery_quantile s 0.50));
        ("recovery_p99_us", Float (Serve.recovery_quantile s 0.99));
        ("availability", Float s.Serve.availability) ])

let serve (ctx : Context.t) =
  print
    (R.section
       "Streaming request engine: sustained throughput and load shedding");
  let serve_jobs = max 2 ctx.jobs in
  let duration_s = Float.max 0.5 (Float.min 3.0 (3.0 *. ctx.scale)) in
  let base =
    Serve.make ~benchmark:Profile.Postmark ~streams:8 ~jobs:serve_jobs
      ~duration_s ~seed:2014 ~rate:1.0 ()
  in
  let per_worker = Serve.calibrate base in
  let capacity = per_worker *. float_of_int serve_jobs in
  printf
    "calibrated: %.0f req/s/worker x %d workers = %.0f req/s; %gs per \
     scenario\n%!"
    per_worker serve_jobs capacity duration_s;
  let scenario name factor =
    let rate = factor *. capacity in
    (name, rate, Serve.run { base with Serve.rate })
  in
  let steady_leg = scenario "steady" 0.25 in
  let overload_leg = scenario "overload" 2.0 in
  print
    (R.table
       ~header:
         [ "scenario"; "offered/s"; "completed/s"; "p50"; "p99"; "shed";
           "deepest level"; "final level" ]
       ~rows:
         (List.map
            (fun (name, rate, s) ->
              [
                name;
                Printf.sprintf "%.0f" rate;
                Printf.sprintf "%.0f" s.Serve.throughput_rps;
                Printf.sprintf "%.0f us" (Serve.latency_quantile s 0.50);
                Printf.sprintf "%.0f us" (Serve.latency_quantile s 0.99);
                R.percent (100.0 *. Serve.shed_fraction s);
                s.Serve.rung_names.(s.Serve.deepest_rung);
                s.Serve.rung_names.(s.Serve.final_rung);
              ])
            [ steady_leg; overload_leg ]));
  printf
    "\nCalibration is a single tight-loop domain, so it upper-bounds the\n\
     live service (which timeshares producer + workers over the machine's\n\
     cores).  The steady scenario offers 25%% of that bound and should\n\
     hold full detection on most machines; overload offers 2x the bound,\n\
     so the ingress queues fill, typed shedding caps the backlog, and the\n\
     degradation ladder trades detection coverage for service rate for as\n\
     long as the overload lasts.\n";
  (* Fault-storm failover: a mid-run window of injected bit flips with
     micro-reboot recovery.  Conservation under the storm is the
     exactly-once replay property — any lost or duplicated request
     breaks one of the two equations and fails the harness. *)
  let storm_rate = 0.25 *. capacity in
  let scfg =
    {
      base with
      Serve.rate = storm_rate;
      recovery = Serve.Microboot;
      storm =
        Some
          {
            Serve.storm_start = 0.2 *. duration_s;
            storm_end = 0.7 *. duration_s;
            storm_prob = 0.02;
          };
    }
  in
  let s = Serve.run scfg in
  printf
    "\nfault storm (2%% of requests, 20-70%% of the run, micro-reboot \
     failover):\n\
    \  injected %d  detected %d  micro-reboots %d\n\
    \  recovery p50 %.0f us  p99 %.0f us  availability %.4f\n\
    \  completed %d at %.0f req/s (p99 %.0f us)\n"
    s.Serve.injected s.Serve.detected s.Serve.recoveries
    (Serve.recovery_quantile s 0.50)
    (Serve.recovery_quantile s 0.99)
    s.Serve.availability s.Serve.completed s.Serve.throughput_rps
    (Serve.latency_quantile s 0.99);
  if
    s.Serve.offered <> s.Serve.admitted + s.Serve.shed_queue_full
    || s.Serve.admitted
       <> s.Serve.completed + s.Serve.shed_deadline + s.Serve.shed_draining
  then begin
    Printf.eprintf
      "FATAL: serve accounting broke under the fault storm (lost or \
       duplicated requests)\n\
       %!";
    exit 1
  end;
  if s.Serve.recoveries = 0 then
    printf "  (no fault detected this run: recovery path not exercised)\n";
  (* Pareto-driven ladder vs the fixed one: sweep the optimizer's
     candidate grid, build the ladder from the emitted front, and run
     the same overload under both.  The data-driven ladder must not
     give up completed requests relative to the hand-picked sequence
     (10% tolerance absorbs scheduler noise). *)
  let module O = Xentry_lifecycle.Optimizer in
  let module Ladder = Xentry_serve.Ladder in
  let det = Lazy.force ctx.detector in
  (* The sweep floors at its scale-1 size and the detector at its
     0.25-scale corpora (Context.make): any smaller, and the front
     holds only two rungs. *)
  let sweep_scale = Float.max 1.0 ctx.scale in
  let ocfg =
    O.default_config ~seed:2014
      ~injections:(Context.scaled_by sweep_scale 600)
      ~fault_free_runs:(Context.scaled_by sweep_scale 200)
      ~jobs:ctx.jobs ~benchmark:Profile.Postmark ()
  in
  let sweep = O.sweep ~detector_version:(Detector.version det) ocfg ~detector:det in
  let front = sweep.O.front in
  let n_front = List.length front.Pareto.points in
  printf
    "\noptimizer sweep: %d candidates -> %d non-dominated rungs\n"
    (List.length sweep.O.all_points)
    n_front;
  List.iter
    (fun p -> printf "  %s\n" (Format.asprintf "%a" Pareto.pp_point p))
    front.Pareto.points;
  if n_front < 3 then begin
    Printf.eprintf
      "FATAL: optimizer emitted %d non-dominated rungs (expected >= 3)\n%!"
      n_front;
    exit 1
  end;
  let overload_pipeline = Pipeline.Config.make ~detector:det () in
  let overload cfg_ladder =
    Serve.run
      {
        base with
        Serve.rate = 2.0 *. capacity;
        pipeline = overload_pipeline;
        ladder = cfg_ladder;
      }
  in
  (* Completed-under-overload is scheduler-noisy (the ladder's path
     near the watermarks is chaotic), so judge medians of three
     interleaved runs per ladder, not single samples. *)
  let pareto_ladder =
    { Ladder.default_config with Ladder.rungs = Ladder.rungs_of_front front }
  in
  let fixed_runs, pareto_runs =
    let pairs =
      List.init 3 (fun _ ->
          (overload Ladder.default_config, overload pareto_ladder))
    in
    (List.map fst pairs, List.map snd pairs)
  in
  let median runs =
    match
      List.sort
        (fun a b -> compare a.Serve.completed b.Serve.completed)
        runs
    with
    | [ _; m; _ ] -> m
    | _ -> assert false
  in
  let fixed = median fixed_runs in
  let pareto = median pareto_runs in
  printf
    "overload, fixed ladder:  completed %d (deepest %s)\n\
     overload, pareto ladder: completed %d (deepest %s)\n"
    fixed.Serve.completed
    fixed.Serve.rung_names.(fixed.Serve.deepest_rung)
    pareto.Serve.completed
    pareto.Serve.rung_names.(pareto.Serve.deepest_rung);
  if
    float_of_int pareto.Serve.completed
    < 0.9 *. float_of_int fixed.Serve.completed
  then begin
    Printf.eprintf
      "FATAL: Pareto-driven ladder completed %d requests vs the fixed \
       ladder's %d (must match or beat it)\n\
       %!"
      pareto.Serve.completed fixed.Serve.completed;
    exit 1
  end;
  Json.List
    (List.map serve_scenario_json
       [ steady_leg; overload_leg; ("storm-microboot", storm_rate, s);
         ("overload-fixed-ladder", 2.0 *. capacity, fixed);
         ("overload-pareto-ladder", 2.0 *. capacity, pareto) ])

(* ------------------------------------------------------------------ *)
(* Recover: the paper's SVI checkpoint restore and ReHype-style        *)
(* micro-reboot vs the restart-everything baseline                      *)
(* ------------------------------------------------------------------ *)

module RecCampaign = Xentry_recover.Campaign

let recover (ctx : Context.t) =
  print
    (R.section
       "Recovery (extension: SVI checkpoint restore and ReHype-style \
        micro-reboot, vs restart)");
  let det = Lazy.force ctx.detector in
  let injections = max 150 (Context.scaled ctx 2_000) in
  let results =
    List.map
      (fun b ->
        ( b,
          RecCampaign.run
            {
              RecCampaign.default_config with
              RecCampaign.seed = 31;
              benchmark = b;
              injections;
              pipeline = Pipeline.Config.make ~detector:det ();
            } ))
      Context.benchmarks
  in
  let rows =
    List.map
      (fun (b, (r : RecCampaign.result)) ->
        [
          Profile.benchmark_name b;
          string_of_int r.RecCampaign.detected;
          string_of_int r.RecCampaign.checkpoint_work_recovered;
          string_of_int r.RecCampaign.micro_work_recovered;
          string_of_int r.RecCampaign.micro_state_lost;
          string_of_int r.RecCampaign.undetected_manifested;
          Printf.sprintf "%.0f" r.RecCampaign.reboot_ns_p99;
        ])
      results
  in
  print
    (R.table
       ~header:
         [ "benchmark"; "detected"; "checkpoint"; "micro-reboot";
           "state lost"; "undetected (damage stands)"; "reboot p99 ns" ]
       ~rows);
  (* Per fault class, summed over the benchmarks. *)
  let class_rows =
    List.mapi
      (fun k (c : RecCampaign.class_stats) ->
        let sum f =
          List.fold_left
            (fun acc (_, r) -> acc + f (List.nth r.RecCampaign.classes k))
            0 results
        in
        [
          RecCampaign.class_name c.RecCampaign.cls;
          string_of_int (sum (fun c -> c.RecCampaign.faults));
          string_of_int (sum (fun c -> c.RecCampaign.checkpoint_recovered));
          string_of_int (sum (fun c -> c.RecCampaign.recovered_exactly));
          string_of_int (sum (fun c -> c.RecCampaign.mismatches));
          string_of_int (sum (fun c -> c.RecCampaign.carryover));
        ])
      (snd (List.hd results)).RecCampaign.classes
  in
  print "\n";
  print
    (R.table
       ~header:
         [ "fault class"; "faults"; "checkpoint"; "micro-reboot";
           "mismatches"; "carryover" ]
       ~rows:class_rows);
  printf
    "\nBoth arms recover from the one context captured at each VM exit: \
     checkpoint restores\n\
     the whole host and re-executes (SVI); micro-reboot resets the %d B \
     boot image over\n\
     hypervisor scratch and replays (ReHype).  Restart-everything loses \
     the in-flight\n\
     request and every domain on each detected fault.  Undetected faults \
     are never\n\
     recovered: detection coverage is the recovery ceiling.\n"
    (snd (List.hd results)).RecCampaign.image_bytes;
  (* Identity is a hard invariant, not a statistic: on both arms every
     detected fault must recover bit-exactly, with zero carryover. *)
  List.iter
    (fun (b, (r : RecCampaign.result)) ->
      if
        r.RecCampaign.checkpoint_work_recovered <> r.RecCampaign.detected
        || r.RecCampaign.micro_work_recovered <> r.RecCampaign.detected
        || r.RecCampaign.micro_state_lost > 0
      then begin
        Printf.eprintf
          "FATAL: recovery identity violated on %s (detected %d: checkpoint \
           recovered %d, micro-reboot recovered %d, state lost %d)\n%!"
          (Profile.benchmark_name b) r.RecCampaign.detected
          r.RecCampaign.checkpoint_work_recovered
          r.RecCampaign.micro_work_recovered r.RecCampaign.micro_state_lost;
        exit 1
      end)
    results;
  Json.List
    (List.map (fun (benchmark, r) -> RecCampaign.to_json ~benchmark r) results)

(* ------------------------------------------------------------------ *)
(* Cluster: multi-process scale-out of campaigns and serve              *)
(* ------------------------------------------------------------------ *)

module CP = Xentry_cluster.Protocol
module Coordinator = Xentry_cluster.Coordinator
module Front = Xentry_cluster.Front

let cluster (ctx : Context.t) =
  print (R.section "Cluster: multi-process scale-out (socket coordinator)");
  let domains = max 4 ctx.jobs in
  let injections = Context.scaled ctx 3_000 in
  let config =
    Campaign.Config.make ~benchmark:Profile.Postmark ~injections ~seed:2014 ()
  in
  let nshards = List.length (Campaign.shard_plan config) in
  let eff s = float_of_int injections /. Float.max 1e-9 s in
  (* Baseline: one process holding the whole domain budget. *)
  let t0 = Unix.gettimeofday () in
  let baseline = Campaign.execute { config with Campaign.jobs = Some domains } in
  let base_s = Unix.gettimeofday () -. t0 in
  (* (worker processes, domains per worker, seconds, records identical
     to the single-process baseline); the first leg is that baseline. *)
  let legs =
    (1, domains, base_s, true)
    :: List.map
         (fun workers ->
           let jobs_per = max 1 (domains / workers) in
           let s, records =
             ctx.launcher.with_workers ~name:(Printf.sprintf "w%d" workers)
               ~n:workers ~jobs:jobs_per (fun sock _pids ->
                 let t0 = Unix.gettimeofday () in
                 let records =
                   Coordinator.run ~idle_timeout_s:30.
                     ~listen:(CP.Unix_sock sock) config
                 in
                 (Unix.gettimeofday () -. t0, records))
           in
           (workers, jobs_per, s, records = baseline))
         [ 2; 4 ]
  in
  printf "%d injections, %d shards, postmark PV, %d total domains per leg\n"
    injections nshards domains;
  print
    (R.table
       ~header:[ "topology"; "seconds"; "eff inj/s"; "identical" ]
       ~rows:
         (List.map
            (fun (w, j, s, ok) ->
              [
                Printf.sprintf "%d proc x %d domains" w j;
                Printf.sprintf "%.3f" s;
                Printf.sprintf "%.0f" (eff s);
                string_of_bool ok;
              ])
            legs));
  let _, _, leg4_s, _ = List.find (fun (w, _, _, _) -> w = 4) legs in
  let speedup4 = base_s /. Float.max 1e-9 leg4_s in
  printf
    "4 processes vs 1: %.2fx effective injections/s at equal total domains\n\
     (process scaling needs cores: this host reports %d; a single OCaml\n\
     runtime also serialises in the shared major GC, which separate\n\
     processes do not)\n"
    speedup4 (Pool.recommended_jobs ());
  let identical = List.for_all (fun (_, _, _, ok) -> ok) legs in
  if not identical then begin
    Printf.eprintf
      "FATAL: distributed campaign records diverged from single-process run\n%!";
    exit 1
  end;
  (* Serve leg: front tier over 2 worker processes, one killed at 40%
     of the run — the ring rebalances and the survivor absorbs the
     remapped streams. *)
  let serve_json =
    let workers = 2 in
    let jobs_per = max 1 (domains / workers) in
    let duration_s = Float.max 0.5 (Float.min 3.0 (3.0 *. ctx.scale)) in
    let base =
      Serve.make ~benchmark:Profile.Postmark ~streams:8 ~jobs:jobs_per
        ~duration_s ~seed:2014 ~rate:1.0 ()
    in
    let per_worker = Serve.calibrate base in
    let rate = 0.5 *. per_worker *. float_of_int (jobs_per * workers) in
    let cfg = { base with Serve.rate } in
    let summary =
      ctx.launcher.with_workers ~name:"serve" ~n:workers ~jobs:jobs_per
        (fun sock pids ->
          let killed = ref false in
          let on_tick ~elapsed =
            if (not !killed) && elapsed >= 0.4 *. duration_s then begin
              killed := true;
              try Unix.kill (List.hd pids) Sys.sigkill
              with Unix.Unix_error _ -> ()
            end
          in
          Front.run ~on_tick ~listen:(CP.Unix_sock sock) ~workers cfg)
    in
    printf
      "serve front, %d workers (one killed at 40%%): %.0f req/s, p50 %.0f \
       us, p99 %.0f us\n\
       workers lost %d, streams remapped %d, shed (worker lost) %d\n"
      workers summary.Front.throughput_rps
      (Front.latency_quantile summary 0.50)
      (Front.latency_quantile summary 0.99)
      summary.Front.workers_lost summary.Front.streams_remapped
      summary.Front.shed_worker_lost;
    if summary.Front.workers_lost < 1 then begin
      Printf.eprintf "FATAL: serve kill leg never lost its worker\n%!";
      exit 1
    end;
    (* Conservation across the kill: every offered request is completed
       or shed for exactly one counted cause. *)
    let { Front.offered; completed; shed_window_full; shed_worker_lost;
          shed_draining; _ } =
      summary
    in
    if offered <> completed + shed_window_full + shed_worker_lost + shed_draining
    then begin
      Printf.eprintf
        "FATAL: serve kill leg lost requests: offered %d <> completed %d + \
         shed window_full %d + worker_lost %d + draining %d\n%!"
        offered completed shed_window_full shed_worker_lost shed_draining;
      exit 1
    end;
    Json.(
      Obj
        [ ("workers", Int workers);
          ("throughput_rps", Float summary.Front.throughput_rps);
          ("completed", Int completed);
          ("p50_us", Float (Front.latency_quantile summary 0.50));
          ("p99_us", Float (Front.latency_quantile summary 0.99));
          ("workers_lost", Int summary.Front.workers_lost);
          ("streams_remapped", Int summary.Front.streams_remapped);
          ("shed_worker_lost", Int shed_worker_lost);
          ("offered", Int offered);
          ("shed_window_full", Int shed_window_full);
          ("shed_draining", Int shed_draining) ])
  in
  Json.(
    Obj
      ([ ("injections", Int injections); ("shards", Int nshards);
         ("total_domains", Int domains);
         ( "legs",
           List
             (List.map
                (fun (w, j, s, ok) ->
                  Obj
                    [ ("workers", Int w); ("jobs_per_worker", Int j);
                      ("seconds", Float s);
                      ("effective_injections_per_sec", Float (eff s));
                      ("identical", Bool ok) ])
                legs) );
         ("speedup_workers4_vs_1", Float speedup4);
         ("serve", serve_json); ("identical", Bool identical) ]))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one kernel per table/figure               *)
(* ------------------------------------------------------------------ *)

let micro (ctx : Context.t) =
  print (R.section "Bechamel micro-benchmarks (pipeline kernels)");
  let open Bechamel in
  let open Toolkit in
  (* Below scale 1 the two timed budgets shrink with the scale; the
     identity check below keeps its full size. *)
  let budget seconds = Float.max 0.02 (seconds *. Float.min 1.0 ctx.scale) in
  (* Pre-built state shared by the kernels. *)
  let host = Hypervisor.create ~seed:3 () in
  let profile = Profile.get Profile.Postmark in
  let rng = Rng.create 5 in
  let det = Lazy.force ctx.detector in
  let tree =
    match Transition_detector.classifier (Detector.model det) with
    | Transition_detector.Single_tree t | Transition_detector.Thresholded (t, _)
      ->
        t
    | Transition_detector.Ensemble _ -> assert false
  in
  let features = [| 30.0; 200.0; 20.0; 40.0; 10.0 |] in
  let snapshot =
    { Xentry_machine.Pmu.inst = 200; branches = 20; loads = 40; stores = 10 }
  in
  let latencies = Array.init 500 (fun i -> float_of_int (i * 3)) in
  let req =
    Request.make
      ~reason:(Exit_reason.Hypercall Hypercall.Event_channel_op)
      ~args:[ 12L; 0L ] ~guest:[]
  in
  Hypervisor.prepare host req;
  let golden = Hypervisor.clone host in
  ignore (Hypervisor.execute golden req);
  let faulted = Hypervisor.clone host in
  ignore (Hypervisor.execute faulted req);
  let fault = Fault.reg Xentry_isa.Reg.Rip ~bit:4 ~step:20 in
  let tests =
    [
      Test.make ~name:"fig3:activation-rate-sample"
        (Staged.stage (fun () ->
             ignore (Profile.sample_activation_rate profile Profile.PV rng)));
      Test.make ~name:"table1:feature-extraction"
        (Staged.stage (fun () ->
             ignore (Features.of_run ~reason:Exit_reason.Softirq snapshot)));
      Test.make ~name:"accuracy:tree-predict"
        (Staged.stage (fun () -> ignore (Tree.predict tree features)));
      Test.make ~name:"fig7:overhead-model"
        (Staged.stage (fun () ->
             ignore
               (Cost_model.per_exit_seconds Cost_model.default_params
                  Pipeline.full_detection ~tree_comparisons:12)));
      Test.make ~name:"fig8:handler-execution"
        (Staged.stage (fun () ->
             Hypervisor.prepare host req;
             ignore (Hypervisor.execute host req)));
      Test.make ~name:"fig8:host-clone"
        (Staged.stage (fun () -> ignore (Hypervisor.clone host)));
      Test.make ~name:"fig8:injected-execution"
        (Staged.stage (fun () ->
             let h = Hypervisor.clone host in
             ignore
               (Hypervisor.execute h ~inject:(Fault.to_injection fault) req)));
      Test.make ~name:"fig9:consequence-classification"
        (Staged.stage (fun () ->
             ignore (Classify.diffs ~golden ~faulted)));
      Test.make ~name:"fig10:latency-cdf"
        (Staged.stage (fun () -> ignore (Stats.cdf_of_samples latencies)));
      Test.make ~name:"table2:undetected-attribution"
        (Staged.stage (fun () ->
             ignore
               (Classify.undetected_class ~fault ~signature_differs:false
                  [ Classify.Global_time_diff ])));
      Test.make ~name:"fig11:recovery-trial"
        (Staged.stage (fun () ->
             ignore
               (Recovery.overhead Recovery.default_params profile
                  ~mean_handler_instructions:400.0 (Rng.copy rng) ~trials:1)));
      Test.make ~name:"core:evtchn-send"
        (Staged.stage (fun () ->
             Event_channel.send (Hypervisor.memory host) ~dom:1 ~port:7));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second (budget 0.5)) ~stabilize:true
      ()
  in
  let grouped = Test.make_grouped ~name:"xentry" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> Printf.sprintf "%.0f ns/run" x
        | _ -> "n/a"
      in
      rows := [ name; estimate ] :: !rows)
    results;
  print
    (R.table ~header:[ "kernel"; "time" ]
       ~rows:(List.sort compare !rows));

  (* Engine comparison: dynamic steps per second executing the same
     handler request stream under the reference and the threaded-code
     engine, plus a full divergence check (any mismatch in stop
     reason, step count or PMU counters fails the harness — this is
     what the bench-smoke runtest alias relies on). *)
  printf "\nengine throughput (postmark PV handler stream):\n";
  let n_reqs = 250 in
  let reqs =
    let stream = Stream.create profile Profile.PV (Rng.create 17) in
    List.init n_reqs (fun _ -> Stream.next_request stream)
  in
  let fingerprints engine =
    let host = Hypervisor.create ~seed:7 ~engine () in
    List.map
      (fun req ->
        let r = Hypervisor.handle host req in
        (r.Mcpu.stop, r.Mcpu.steps, r.Mcpu.final_pmu))
      reqs
  in
  let identical = fingerprints Mcpu.Ref = fingerprints Mcpu.Fast in
  let throughput engine =
    let host = Hypervisor.create ~seed:7 ~engine () in
    (* Warm pass: populates the handler memo (and the compile cache),
       so the timed loop measures execution, not synthesis. *)
    List.iter (fun req -> ignore (Hypervisor.handle host req)) reqs;
    (* Steps per second of handler *execution*: prepare/retire (the
       engine-independent request staging and scheduler sync) run
       outside the timed window, so the metric isolates the
       interpreter.  A handler run is tens of microseconds, so the two
       clock reads bracketing it are noise. *)
    let steps = ref 0 in
    let exec_time = ref 0.0 in
    while !exec_time < budget 0.4 do
      List.iter
        (fun req ->
          Hypervisor.prepare host req;
          let t0 = Unix.gettimeofday () in
          let r = Hypervisor.execute host req in
          exec_time := !exec_time +. (Unix.gettimeofday () -. t0);
          steps := !steps + r.Mcpu.steps;
          Hypervisor.retire host req)
        reqs
    done;
    float_of_int !steps /. !exec_time
  in
  let ref_sps = throughput Mcpu.Ref in
  let fast_sps = throughput Mcpu.Fast in
  printf "  ref   %11.0f steps/s\n" ref_sps;
  printf "  fast  %11.0f steps/s   speedup %.2fx\n" fast_sps
    (fast_sps /. Float.max 1e-9 ref_sps);
  printf "  ref/fast results identical over %d requests: %b\n" n_reqs identical;
  if not identical then begin
    Printf.eprintf
      "FATAL: ref and fast engines diverged on the handler stream\n%!";
    exit 1
  end;
  Json.(
    Obj
      [ ("ref_steps_per_sec", Float ref_sps);
        ("fast_steps_per_sec", Float fast_sps);
        ("engine_speedup", Float (fast_sps /. Float.max 1e-9 ref_sps));
        ("identical", Bool identical) ])

(* ------------------------------------------------------------------ *)
(* Fault classes: coverage under the widened fault model                *)
(* ------------------------------------------------------------------ *)

let classes (ctx : Context.t) =
  print (R.section "Fault classes: per-class coverage (widened model)");
  let injections = Context.scaled ctx 6_000 in
  let all = Array.to_list Fault.all_classes in
  printf "[classes] %d injections over %s (jobs %d)...\n%!" injections
    (Fault.classes_to_string all) ctx.jobs;
  let records =
    Campaign.execute
      (Campaign.Config.make ~jobs:ctx.jobs ~benchmark:Profile.Postmark
         ~injections ~seed:4242 ~fault_classes:all ())
  in
  let per_class = Report.by_class records in
  print
    (R.table
       ~header:
         [ "class"; "injections"; "manifested"; "coverage"; "hw"; "sw";
           "vmt"; "ras" ]
       ~rows:
         (List.map
            (fun (c, s) ->
              let t = s.Report.techniques in
              [
                Fault.cls_name c;
                string_of_int s.Report.total_injections;
                string_of_int s.Report.manifested;
                R.percent (pct_of_fraction s.Report.coverage);
                string_of_int t.Report.hw_exception;
                string_of_int t.Report.sw_assertion;
                string_of_int t.Report.vm_transition;
                string_of_int t.Report.ras_report;
              ])
            per_class));
  let ras_only =
    List.fold_left
      (fun acc (_, s) -> acc + s.Report.techniques.Report.ras_report)
      0 per_class
  in
  printf
    "RAS error records caught %d manifested faults the synchronous\n\
     channels (exceptions, assertions, VM-transition tree) missed.\n"
    ras_only;
  Json.List
    (List.map
       (fun (c, s) ->
         let t = s.Report.techniques in
         Json.(
           Obj
             [ ("class", String (Fault.cls_name c));
               ("injections", Int s.Report.total_injections);
               ("activated", Int s.Report.activated);
               ("manifested", Int s.Report.manifested);
               ("coverage", Float s.Report.coverage);
               ("hw_exception", Int t.Report.hw_exception);
               ("sw_assertion", Int t.Report.sw_assertion);
               ("vm_transition", Int t.Report.vm_transition);
               ("ras_report", Int t.Report.ras_report);
               ("undetected", Int t.Report.undetected) ]))
       per_class)
