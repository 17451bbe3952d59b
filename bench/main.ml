(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Fig 3, Table I, the §III-B classifier numbers, Fig 6,
   Fig 7, Fig 8, Fig 9, Fig 10, Table II, Fig 11), plus ablations, the
   extensions (recovery, hardening, serving, cluster) and Bechamel
   micro-benchmarks of the pipeline kernels.

   Usage:  dune exec bench/main.exe [-- OPTION... EXPERIMENT...]
   where EXPERIMENT is one of: all fig3 table1 accuracy fig6 fig7 fig8
   fig9 fig10 table2 fig11 ablation modes exposure hardening speedup
   resume campaign serve recover cluster classes micro (default: all).
   Every name is checked before anything runs: an unknown one prints
   the usage to stderr and exits 2.

   Options:
     -j N, --jobs N   run campaigns on N worker domains (0 = the
                      runtime's recommended count); default from
                      XENTRY_JOBS, else 1.  Results are bit-identical
                      for every N.
     --engine E       interpreter engine for hypervisor execution:
                      ref (match-based reference) or fast (threaded
                      code); default from XENTRY_ENGINE, else fast.
                      Results are bit-identical for both.
     --json FILE      write per-experiment wall-clock timings and
                      campaign sizes as JSON (perf trajectory for
                      BENCH_*.json tracking).
     --telemetry FILE enable the Telemetry subsystem for the run and
                      write its counters/histograms/events as JSON
                      Lines to FILE at exit; the --json export gains
                      a "telemetry" section.  Default from
                      XENTRY_TELEMETRY.  Results are unaffected.

   XENTRY_SCALE scales campaign sizes (default 1.0 = paper scale:
   23,400 training + 17,700 testing injections, 30,000 for the
   coverage study). *)

open Xentry_util
module R = Report  (* Xentry_util.Report: rendering *)
module Mcpu = Xentry_machine.Cpu
open Xentry_vmm
open Xentry_workload
open Xentry_mlearn
open Xentry_core
open Xentry_faultinject

let scale =
  match Sys.getenv_opt "XENTRY_SCALE" with
  | Some s -> (
      try
        let v = float_of_string s in
        if v > 0.0 then v else 1.0
      with _ -> 1.0)
  | None -> 1.0

(* Campaign sizes floor at one injection; when the floor bites, say so
   rather than silently inflating a tiny XENTRY_SCALE smoke run. *)
let scaled n =
  let v = int_of_float (float_of_int n *. scale) in
  if v < 1 then begin
    Printf.eprintf
      "[scale] %d x %.4f rounds to %d; clamping to 1 injection (smoke run)\n%!"
      n scale v;
    1
  end
  else v

let print = print_string
let printf = Printf.printf

(* Worker domains for the campaign engine; set by -j/--jobs, seeded
   from XENTRY_JOBS.  Parsed before any experiment runs, so the lazy
   pipeline/campaign artifacts below see the final value. *)
let jobs = ref (Pool.default_jobs ())
let json_path : string option ref = ref None
let telemetry_path : string option ref = ref (Sys.getenv_opt "XENTRY_TELEMETRY")

(* --json accumulators: per-phase and per-experiment wall clock plus
   the campaign sizes behind them. *)
let phase_timings : (string * float * int) list ref = ref []
let experiment_timings : (string * float) list ref = ref []
let speedup_result : (int * int * float * float * bool) option ref = ref None

(* micro's engine comparison: (ref steps/s, fast steps/s, ref==fast). *)
let micro_engine_result : (float * float * bool) option ref = ref None
let record_phase name seconds injections =
  phase_timings := (name, seconds, injections) :: !phase_timings

let benchmarks = Array.to_list Profile.all_benchmarks

let pct_of_fraction f = 100.0 *. f

(* ------------------------------------------------------------------ *)
(* Shared heavy artifacts, built once per process                      *)
(* ------------------------------------------------------------------ *)

let trained =
  lazy
    (let train_injections = scaled 23_400 in
     let test_injections = scaled 17_700 in
     printf
       "[pipeline] training detector: %d training + %d testing injections (jobs %d)...\n%!"
       train_injections test_injections !jobs;
     let t0 = Unix.gettimeofday () in
     let result =
       Training.default_pipeline ~jobs:!jobs ~seed:2014 ~train_injections
         ~test_injections ()
     in
     let dt = Unix.gettimeofday () -. t0 in
     printf "[pipeline] done in %.1fs\n%!" dt;
     record_phase "pipeline" dt (train_injections + test_injections);
     result)

let detector = lazy (Training.detector (Lazy.force trained))

let campaign_records =
  lazy
    (let per_benchmark = scaled (30_000 / 6) in
     printf "[campaign] %d injections x %d benchmarks (jobs %d)...\n%!"
       per_benchmark (List.length benchmarks) !jobs;
     let t0 = Unix.gettimeofday () in
     let det = Lazy.force detector in
     let records =
       List.mapi
         (fun i b ->
           ( b,
             Campaign.execute
               (Campaign.Config.make ~detector:det ~jobs:!jobs ~benchmark:b
                  ~injections:per_benchmark ~seed:(77 + (i * 1009)) ()) ))
         benchmarks
     in
     let dt = Unix.gettimeofday () -. t0 in
     printf "[campaign] done in %.1fs\n%!" dt;
     record_phase "coverage-campaign" dt (per_benchmark * List.length benchmarks);
     records)

let merged_summary =
  lazy (Report.summarize (List.concat_map snd (Lazy.force campaign_records)))

let deployed_tree_comparisons () =
  Detector.worst_case_comparisons (Lazy.force detector)

(* ------------------------------------------------------------------ *)
(* Fig 3: frequency of hypervisor activities                           *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  print (R.section "Fig 3: frequency of hypervisor activities (/s)");
  let rng = Rng.create 42 in
  let seconds = 60 in
  let rows = ref [] in
  let boxes = ref [] in
  List.iter
    (fun b ->
      let p = Profile.get b in
      List.iter
        (fun mode ->
          let stream = Stream.create p mode (Rng.split rng) in
          let rates = Stream.activation_rates stream ~seconds in
          let box = Stats.box_summary rates in
          rows :=
            [
              Profile.benchmark_name b;
              (match mode with Profile.PV -> "PV" | Profile.HVM -> "HVM");
              Printf.sprintf "%.0f" box.Stats.bmin;
              Printf.sprintf "%.0f" box.Stats.q1;
              Printf.sprintf "%.0f" box.Stats.bmedian;
              Printf.sprintf "%.0f" box.Stats.q3;
              Printf.sprintf "%.0f" box.Stats.bmax;
            ]
            :: !rows;
          boxes :=
            ( Printf.sprintf "%-8s %-3s" (Profile.benchmark_name b)
                (match mode with Profile.PV -> "PV" | Profile.HVM -> "HVM"),
              box )
            :: !boxes)
        [ Profile.PV; Profile.HVM ])
    benchmarks;
  print
    (R.table
       ~header:[ "benchmark"; "mode"; "min"; "q1"; "median"; "q3"; "max" ]
       ~rows:(List.rev !rows));
  (* Box plots on a log10 axis, as in the paper (1K to 1000K). *)
  printf "\nlog10 activation frequency, 1K %s 1000K\n"
    (String.make 44 ' ');
  List.iter
    (fun (label, box) ->
      let log_box =
        {
          Stats.bmin = log10 box.Stats.bmin;
          q1 = log10 box.Stats.q1;
          bmedian = log10 box.Stats.bmedian;
          q3 = log10 box.Stats.q3;
          bmax = log10 box.Stats.bmax;
        }
      in
      printf "%s |%s|\n" label
        (R.box_plot_row ~width:56 ~lo:3.0 ~hi:6.0 log_box))
    (List.rev !boxes);
  printf
    "\npaper: PV bands between 5K/s and 100K/s (freqmine peaking ~650K/s);\n\
     HVM mostly between 2K/s and 10K/s; PV generally above HVM.\n"

(* ------------------------------------------------------------------ *)
(* Table I                                                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  print (R.section "Table I: selected features for VM transition detection");
  print (Format.asprintf "%a" Features.pp_table1 ())

(* ------------------------------------------------------------------ *)
(* SSIII-B: classifier training and accuracy                            *)
(* ------------------------------------------------------------------ *)

let accuracy () =
  print (R.section "SIII-B: classifier construction and accuracy");
  let t = Lazy.force trained in
  let corpus name (c : Training.corpus) =
    printf "%s: %d injection runs + %d fault-free runs -> %d samples (%d correct, %d incorrect)\n"
      name c.Training.injection_runs c.Training.fault_free_runs
      (Dataset.length c.Training.dataset)
      c.Training.correct c.Training.incorrect
  in
  corpus "training" t.Training.train_corpus;
  corpus "testing " t.Training.test_corpus;
  let eval name tree (c : Metrics.confusion) =
    printf
      "%-13s accuracy %.1f%%  false-positive rate %.2f%%  (depth %d, %d nodes, %d leaves)\n"
      name
      (pct_of_fraction (Metrics.accuracy c))
      (pct_of_fraction (Metrics.false_positive_rate c))
      (Tree.depth tree) (Tree.node_count tree) (Tree.leaf_count tree)
  in
  eval "decision tree" t.Training.decision_tree t.Training.decision_tree_eval;
  eval "random tree" t.Training.random_tree t.Training.random_tree_eval;
  printf
    "\npaper: 12,024 training samples (10,280/1,744), 6,596 testing samples\n\
     (5,295/1,301); decision tree 96.1%%, random tree 98.6%%, FP rate 0.7%%.\n"

(* ------------------------------------------------------------------ *)
(* Fig 6: a sample decision tree                                        *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  print (R.section "Fig 6: a sample decision tree");
  let t = Lazy.force trained in
  let small =
    Tree.train
      ~config:{ Tree.default_config with max_depth = 3 }
      t.Training.train_corpus.Training.dataset
  in
  print (Format.asprintf "%a" Tree.pp small);
  printf "\nrules:\n";
  List.iter (fun r -> printf "  %s\n" r) (Tree.rules small)

(* ------------------------------------------------------------------ *)
(* Fig 7: fault-free performance overhead                               *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  print (R.section "Fig 7: normalized performance overhead of Xentry");
  let rows =
    Cost_model.fig7 ~tree_comparisons:(deployed_tree_comparisons ()) ~seed:7 ()
  in
  print
    (R.table
       ~header:
         [ "benchmark"; "runtime avg"; "runtime max"; "runtime+VMT avg";
           "runtime+VMT max" ]
       ~rows:
         (List.map
            (fun (name, runtime, full) ->
              [
                name;
                R.percent (pct_of_fraction runtime.Cost_model.avg);
                R.percent (pct_of_fraction runtime.Cost_model.max);
                R.percent (pct_of_fraction full.Cost_model.avg);
                R.percent (pct_of_fraction full.Cost_model.max);
              ])
            rows));
  let avg =
    List.fold_left (fun acc (_, _, f) -> acc +. f.Cost_model.avg) 0.0 rows
    /. float_of_int (List.length rows)
  in
  printf "AVG (runtime+VMT): %s\n" (R.percent (pct_of_fraction avg));
  print
    (R.grouped_bars ~series_names:[ "runtime"; "runtime+VMT" ]
       (List.map
          (fun (name, runtime, full) ->
            ( name,
              [
                pct_of_fraction runtime.Cost_model.avg;
                pct_of_fraction full.Cost_model.avg;
              ] ))
          rows));
  printf
    "paper: four benchmarks under 1%%, bzip2 as low as 0.19%%, postmark\n\
     worst (avg 2.5%%, max 11.7%%); runtime detection alone nearly free.\n"

(* ------------------------------------------------------------------ *)
(* Fig 8: overall detection coverage                                    *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  print (R.section "Fig 8: overall detection results");
  let per_benchmark = Lazy.force campaign_records in
  let rows =
    List.map
      (fun (b, records) ->
        let s = Report.summarize records in
        let pcts = Report.technique_percentages s in
        Profile.benchmark_name b
        :: List.map (fun (_, p) -> R.percent p) pcts
        @ [ string_of_int s.Report.manifested ])
      per_benchmark
  in
  let merged = Lazy.force merged_summary in
  let avg_row =
    "AVG"
    :: List.map
         (fun (_, p) -> R.percent p)
         (Report.technique_percentages merged)
    @ [ string_of_int merged.Report.manifested ]
  in
  print
    (R.table
       ~header:
         [ "benchmark"; "H/W exception"; "S/W assertion"; "VM transition";
           "RAS record"; "undetected"; "manifested" ]
       ~rows:(rows @ [ avg_row ]));
  printf "overall coverage: %s of manifested faults detected\n"
    (R.percent (pct_of_fraction merged.Report.coverage));
  printf "injections: %d, activated: %d, manifested: %d\n"
    merged.Report.total_injections merged.Report.activated
    merged.Report.manifested;
  printf
    "\npaper: coverage up to 99.4%%, average 97.6%%; H/W exceptions 85.1%%,\n\
     S/W assertions 5.2%%, VM transition detection 6.9%% of injected faults.\n"

(* ------------------------------------------------------------------ *)
(* Fig 9: detecting long latency errors                                 *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  print (R.section "Fig 9: detection coverage of long latency errors");
  let s = Lazy.force merged_summary in
  print
    (R.table
       ~header:[ "consequence"; "detected"; "undetected"; "coverage" ]
       ~rows:
         (List.map
            (fun (kind, detected, undetected) ->
              [
                Outcome.long_name kind;
                string_of_int detected;
                string_of_int undetected;
                (if detected + undetected = 0 then "n/a"
                 else
                   R.percent
                     (100.0 *. float_of_int detected
                     /. float_of_int (detected + undetected)));
              ])
            s.Report.long_latency_by_consequence));
  print
    (R.bar_chart ~unit_label:"% detected"
       (List.filter_map
          (fun (kind, d, u) ->
            if d + u = 0 then None
            else
              Some
                ( Outcome.long_name kind,
                  100.0 *. float_of_int d /. float_of_int (d + u) ))
          s.Report.long_latency_by_consequence));
  printf
    "\npaper: 92.6%% of APP SDC and 96.8%% of APP crash cases detected; our\n\
     substrate's shorter data paths leave more silent (signature-identical)\n\
     corruptions, so absolute coverage here is lower (see EXPERIMENTS.md).\n"

(* ------------------------------------------------------------------ *)
(* Fig 10: detection latency CDF                                        *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  print (R.section "Fig 10: CDF of detection latency (instructions)");
  let s = Lazy.force merged_summary in
  (* The paper's Fig 10 x-axis spans up to 1,000 instructions; clip the
     watchdog tail the same way (the printed per-technique stats below
     cover the full distributions). *)
  let series =
    List.filter_map
      (fun (technique, latencies) ->
        if Array.length latencies < 2 then None
        else
          let cdf =
            Stats.cdf_of_samples (Array.map float_of_int latencies)
          in
          let points =
            Array.of_list
              (List.filter
                 (fun (x, _) -> x <= 1000.0)
                 (Array.to_list (Stats.cdf_points cdf)))
          in
          if Array.length points < 2 then None
          else Some (Pipeline.technique_name technique, points))
      s.Report.latencies_by_technique
  in
  (* Later-listed series paint over earlier ones in the ASCII grid, so
     draw the transition-detection curve first to keep it visible. *)
  print (R.cdf_plot ~width:64 ~height:14 (List.rev series));
  List.iter
    (fun (technique, latencies) ->
      if Array.length latencies > 0 then begin
        let fl = Array.map float_of_int latencies in
        printf
          "%-24s n=%-6d median=%-6.0f p95=%-6.0f  below 700: %s\n"
          (Pipeline.technique_name technique)
          (Array.length latencies) (Stats.median fl) (Stats.quantile fl 0.95)
          (R.percent
             (100.0 *. Report.latency_fraction_below s technique 700))
      end)
    s.Report.latencies_by_technique;
  printf
    "\npaper: ~95%% of VM-transition detections within 700 instructions;\n\
     hardware exceptions and assertions generally shorter.\n"


(* ------------------------------------------------------------------ *)
(* Table II: undetected faults                                          *)
(* ------------------------------------------------------------------ *)

let table2 () =
  print (R.section "Table II: undetected faults");
  let s = Lazy.force merged_summary in
  print
    (R.table
       ~header:[ "class"; "share"; "count" ]
       ~rows:
         (List.map2
            (fun (name, p) (_, count) ->
              [ name; R.percent p; string_of_int count ])
            (Report.undetected_percentages s)
            s.Report.undetected_breakdown));
  printf "\npaper: Mis-Classify 10%%, Stack Values 20%%, Time Values 53%%, Other 17%%.\n"

(* ------------------------------------------------------------------ *)
(* Fig 11: recovery overhead with false positives                       *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  print (R.section "Fig 11: recovery overhead with false positive cases");
  let rows = Recovery.fig11 ~trials:100 ~seed:11 () in
  print
    (R.table
       ~header:[ "benchmark"; "avg"; "min"; "max" ]
       ~rows:
         (List.map
            (fun (name, s) ->
              [
                name;
                R.percent (pct_of_fraction s.Recovery.avg);
                R.percent (pct_of_fraction s.Recovery.min);
                R.percent (pct_of_fraction s.Recovery.max);
              ])
            rows));
  let avg =
    List.fold_left (fun acc (_, s) -> acc +. s.Recovery.avg) 0.0 rows
    /. float_of_int (List.length rows)
  in
  printf "AVG: %s\n" (R.percent (pct_of_fraction avg));
  print
    (R.bar_chart ~unit_label:"%"
       (List.map (fun (n, s) -> (n, pct_of_fraction s.Recovery.avg)) rows));
  printf
    "\npaper: 2.7%% on average, mcf/bzip2 about 1.6%%, postmark 6.3%%;\n\
     max-min spread below 0.03%%.\n"

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

let ablation () =
  print (R.section "Ablation: detector design choices");
  let t = Lazy.force trained in
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

let modes () =
  print (R.section "PV vs HVM detection coverage (extension)");
  let det = Lazy.force detector in
  let injections = scaled 2_000 in
  let rows =
    List.concat_map
      (fun mode ->
        List.map
          (fun b ->
            let s =
              Report.summarize
                (Campaign.execute
                   {
                     (Campaign.Config.make ~detector:det ~jobs:!jobs
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

let exposure () =
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
      benchmarks
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

let hardening () =
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
  let injections = scaled 3_000 in
  let campaign hardened b =
    Report.summarize
      (Campaign.execute
         (Campaign.Config.make ~hardened ~jobs:!jobs ~benchmark:b ~injections
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
(* Speedup: the parallel campaign engine against its serial fallback   *)
(* ------------------------------------------------------------------ *)

let speedup () =
  print (R.section "Parallel campaign engine: speedup and determinism");
  let injections = scaled 2_000 in
  let par_jobs = max 2 !jobs in
  let config =
    Campaign.Config.make ~benchmark:Profile.Postmark ~injections ~seed:2014 ()
  in
  let timed j =
    let t0 = Unix.gettimeofday () in
    let records = Campaign.execute { config with Campaign.jobs = Some j } in
    (Unix.gettimeofday () -. t0, records)
  in
  let serial_s, serial_records = timed 1 in
  let parallel_s, parallel_records = timed par_jobs in
  let identical = serial_records = parallel_records in
  let ratio = serial_s /. Float.max 1e-9 parallel_s in
  printf "%d injections (%d shards of %d), postmark PV\n" injections
    ((injections + Campaign.shard_size - 1) / Campaign.shard_size)
    Campaign.shard_size;
  printf "jobs=1   %.3fs\n" serial_s;
  printf "jobs=%-3d %.3fs   speedup %.2fx\n" par_jobs parallel_s ratio;
  printf "records bit-identical across jobs: %b\n" identical;
  if par_jobs = 2 && !jobs < 2 then
    printf "(pass -j N or set XENTRY_JOBS to sweep a wider worker count)\n";
  record_phase "speedup-serial" serial_s injections;
  record_phase "speedup-parallel" parallel_s injections;
  speedup_result := Some (injections, par_jobs, serial_s, parallel_s, identical)

(* ------------------------------------------------------------------ *)
(* Resume: shard-journal checkpoint overhead and restart speedup       *)
(* ------------------------------------------------------------------ *)

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun q -> rm_rf (Filename.concat p q)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let resume () =
  print (R.section "Shard journal: checkpoint overhead and resume speedup");
  let injections = scaled 2_000 in
  let config =
    Campaign.Config.make ~jobs:!jobs ~benchmark:Profile.Postmark ~injections
      ~seed:2718 ()
  in
  let nshards = (injections + Campaign.shard_size - 1) / Campaign.shard_size in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xentry-bench-resume-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let checkpoint () =
    match Xentry_store.Journal.for_campaign ~dir config with
    | Ok cp -> cp
    | Error e -> failwith (Xentry_store.Journal.open_error_message e)
  in
  let timed ?checkpoint () =
    let t0 = Unix.gettimeofday () in
    let records = Campaign.execute ?checkpoint config in
    (Unix.gettimeofday () -. t0, records)
  in
  (* Four runs of the same campaign: no journal; journaling every
     shard as it completes (cold); replaying a complete journal
     (warm); and resuming after "losing" the second half of the
     journal, the mid-campaign-crash shape. *)
  let plain_s, plain_records = timed () in
  let cold_s, cold_records = timed ~checkpoint:(checkpoint ()) () in
  let warm_s, warm_records = timed ~checkpoint:(checkpoint ()) () in
  for i = nshards / 2 to nshards - 1 do
    let f = Xentry_store.Journal.shard_file ~dir i in
    if Sys.file_exists f then Sys.remove f
  done;
  let half_s, half_records = timed ~checkpoint:(checkpoint ()) () in
  let identical =
    cold_records = plain_records
    && warm_records = plain_records
    && half_records = plain_records
  in
  printf "%d injections (%d shards of %d), postmark PV, jobs=%d\n" injections
    nshards Campaign.shard_size !jobs;
  printf "no journal            %.3fs\n" plain_s;
  printf "cold (write journal)  %.3fs   overhead %+.1f%%\n" cold_s
    (100.0 *. ((cold_s /. Float.max 1e-9 plain_s) -. 1.0));
  printf "warm (replay journal) %.3fs   speedup %.1fx\n" warm_s
    (plain_s /. Float.max 1e-9 warm_s);
  printf "resume (half lost)    %.3fs   speedup %.1fx\n" half_s
    (plain_s /. Float.max 1e-9 half_s);
  printf "records bit-identical across all four runs: %b\n" identical;
  if not identical then begin
    Printf.eprintf "FATAL: journaled campaign records diverged\n%!";
    exit 1
  end;
  record_phase "resume-plain" plain_s injections;
  record_phase "resume-cold" cold_s injections;
  record_phase "resume-warm" warm_s injections;
  record_phase "resume-half" half_s injections;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Campaign planner: def-use pruning + snapshot fast-forwarding        *)
(* ------------------------------------------------------------------ *)

type campaign_bench = {
  cb_total : int;  (** records per run (injections * faults_per_run) *)
  cb_legacy_s : float;
      (** planner off, pre-planner campaign shape: one golden run per
          injection *)
  cb_exhaustive_s : float;
  cb_planned_s : float;
  cb_pruned_fraction : float;
  cb_collapsed_fraction : float;
  cb_fast_forward_fraction : float;
  cb_identical : bool;
}

let campaign_bench_result : campaign_bench option ref = ref None

let campaign () =
  print
    (R.section "Campaign planner: def-use pruning + snapshot fast-forwarding");
  let injections = scaled 500 in
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
    Campaign.Config.make ~jobs:!jobs ~benchmark:Profile.Postmark ~injections
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
      (Campaign.Config.make ~jobs:!jobs ~benchmark:Profile.Postmark
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
  printf
    "%d golden runs x %d faults = %d injections, postmark PV, fuel=%d, \
     jobs=%d\n"
    injections faults_per_run total fuel !jobs;
  printf "planner off (1 golden/injection)  %.3fs   %10.0f inj/s\n" legacy_s
    (eff legacy_s);
  printf "exhaustive (shared golden)        %.3fs   %10.0f inj/s\n"
    exhaustive_s (eff exhaustive_s);
  printf "planned                           %.3fs   %10.0f inj/s\n" planned_s
    (eff planned_s);
  printf
    "pruning + fast-forwarding on vs. off: %.1fx effective injections/s \
     (%.1fx vs. shared-golden exhaustive)\n"
    (legacy_s /. Float.max 1e-9 planned_s)
    (exhaustive_s /. Float.max 1e-9 planned_s);
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
  record_phase "campaign-legacy" legacy_s total;
  record_phase "campaign-exhaustive" exhaustive_s total;
  record_phase "campaign-planned" planned_s total;
  campaign_bench_result :=
    Some
      {
        cb_total = total;
        cb_legacy_s = legacy_s;
        cb_exhaustive_s = exhaustive_s;
        cb_planned_s = planned_s;
        cb_pruned_fraction = pruned_fraction;
        cb_collapsed_fraction = collapsed_fraction;
        cb_fast_forward_fraction = ff_fraction;
        cb_identical = identical;
      }

(* ------------------------------------------------------------------ *)
(* Serve: sustained throughput and shed rate of the request engine     *)
(* ------------------------------------------------------------------ *)

module Serve = Xentry_serve.Server

(* --json: (scenario, offered rate, summary) per serve scenario. *)
let serve_results : (string * float * Serve.summary) list ref = ref []

let serve () =
  print
    (R.section
       "Streaming request engine: sustained throughput and load shedding");
  let serve_jobs = max 2 !jobs in
  let duration_s = Float.max 0.5 (Float.min 3.0 (3.0 *. scale)) in
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
    let cfg = { base with Serve.rate } in
    let s = Serve.run cfg in
    serve_results := (name, rate, s) :: !serve_results;
    record_phase ("serve-" ^ name) s.Serve.wall_s s.Serve.completed;
    [
      name;
      Printf.sprintf "%.0f" rate;
      Printf.sprintf "%.0f" s.Serve.throughput_rps;
      Printf.sprintf "%.0f us" (Serve.latency_quantile s 0.50);
      Printf.sprintf "%.0f us" (Serve.latency_quantile s 0.99);
      R.percent (100.0 *. Serve.shed_fraction s);
      s.Serve.rung_names.(s.Serve.deepest_rung);
      s.Serve.rung_names.(s.Serve.final_rung);
    ]
  in
  let rows = [ scenario "steady" 0.25; scenario "overload" 2.0 ] in
  print
    (R.table
       ~header:
         [ "scenario"; "offered/s"; "completed/s"; "p50"; "p99"; "shed";
           "deepest level"; "final level" ]
       ~rows);
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
  serve_results := ("storm-microboot", storm_rate, s) :: !serve_results;
  record_phase "serve-storm-microboot" s.Serve.wall_s s.Serve.completed;
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
  let det = Lazy.force detector in
  let t0 = Unix.gettimeofday () in
  let ocfg =
    O.default_config ~seed:2014
      ~injections:(max 200 (scaled 600))
      ~fault_free_runs:(max 100 (scaled 200))
      ~jobs:!jobs ~benchmark:Profile.Postmark ()
  in
  let sweep = O.sweep ~detector_version:(Detector.version det) ocfg ~detector:det in
  record_phase "optimize-sweep" (Unix.gettimeofday () -. t0) ocfg.O.injections;
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
  serve_results := ("overload-fixed-ladder", 2.0 *. capacity, fixed) :: !serve_results;
  serve_results := ("overload-pareto-ladder", 2.0 *. capacity, pareto) :: !serve_results;
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
  end

(* ------------------------------------------------------------------ *)
(* Recover: the paper's SVI checkpoint restore and ReHype-style        *)
(* micro-reboot vs the restart-everything baseline                      *)
(* ------------------------------------------------------------------ *)

module RecCampaign = Xentry_recover.Campaign

let recover_bench_results : (Profile.benchmark * RecCampaign.result) list ref =
  ref []

let recover () =
  print
    (R.section
       "Recovery (extension: SVI checkpoint restore and ReHype-style \
        micro-reboot, vs restart)");
  let det = Lazy.force detector in
  let injections = max 150 (scaled 2_000) in
  let t0 = Unix.gettimeofday () in
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
      benchmarks
  in
  record_phase "recover-campaign" (Unix.gettimeofday () -. t0)
    (injections * List.length benchmarks);
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
  recover_bench_results := results

(* ------------------------------------------------------------------ *)
(* Cluster: multi-process scale-out of campaigns and serve              *)
(* ------------------------------------------------------------------ *)

module CP = Xentry_cluster.Protocol
module Coordinator = Xentry_cluster.Coordinator
module Front = Xentry_cluster.Front

type cluster_leg = {
  clw : int;  (** worker processes *)
  clj : int;  (** domains per worker *)
  cls : float;  (** wall seconds *)
  cli : bool;  (** records identical to single-process baseline *)
}

type cluster_bench = {
  ck_injections : int;
  ck_shards : int;
  ck_domains : int;  (** total domain budget, equal across legs *)
  ck_legs : cluster_leg list;  (** first leg is the 1-process baseline *)
  ck_kill : (float * bool * bool) option;
      (** kill-leg seconds, identical, resume identical *)
  ck_serve : (int * Front.summary) option;  (** workers, front summary *)
}

let cluster_bench_result : cluster_bench option ref = ref None

(* The bench binary doubles as its own cluster worker: the cluster
   experiment re-executes [Sys.executable_name] with this argv (never
   fork — worker pools are domains). *)
let cluster_worker_argv sock jobs =
  [| Sys.executable_name; "--cluster-worker"; sock; string_of_int jobs |]

let spawn_cluster_worker sock jobs =
  Unix.create_process Sys.executable_name
    (cluster_worker_argv sock jobs)
    Unix.stdin Unix.stdout Unix.stderr

let reap_pid pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
let kill_pid pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let cluster () =
  print (R.section "Cluster: multi-process scale-out (socket coordinator)");
  let domains = max 4 !jobs in
  let injections = scaled 3_000 in
  let config =
    Campaign.Config.make ~benchmark:Profile.Postmark ~injections ~seed:2014 ()
  in
  let nshards = List.length (Campaign.shard_plan config) in
  let scratch name f =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "xentry-bench-cluster-%d-%s" (Unix.getpid ()) name)
    in
    rm_rf dir;
    Sys.mkdir dir 0o755;
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
  in
  let run_cluster ?checkpoint ?on_progress ~workers ~jobs_per dir =
    let sock = Filename.concat dir "coord.sock" in
    let pids = List.init workers (fun _ -> spawn_cluster_worker sock jobs_per) in
    (* Once the records are merged (or the run failed) workers are
       stateless; kill before reaping so a straggler that never reached
       the coordinator can't hold the reap for its connect retries. *)
    let finish () =
      List.iter kill_pid pids;
      List.iter reap_pid pids
    in
    match
      let t0 = Unix.gettimeofday () in
      let records =
        Coordinator.run ?checkpoint ?on_progress ~idle_timeout_s:30.
          ~listen:(CP.Unix_sock sock) config
      in
      (Unix.gettimeofday () -. t0, records, pids)
    with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  in
  let eff s = float_of_int injections /. Float.max 1e-9 s in
  (* Baseline: one process holding the whole domain budget. *)
  let t0 = Unix.gettimeofday () in
  let baseline = Campaign.execute { config with Campaign.jobs = Some domains } in
  let base_s = Unix.gettimeofday () -. t0 in
  record_phase "cluster-1-process" base_s injections;
  let legs = ref [ { clw = 1; clj = domains; cls = base_s; cli = true } ] in
  List.iter
    (fun workers ->
      let jobs_per = max 1 (domains / workers) in
      scratch (Printf.sprintf "w%d" workers) (fun dir ->
          let s, records, _ = run_cluster ~workers ~jobs_per dir in
          record_phase (Printf.sprintf "cluster-%d-process" workers) s injections;
          legs :=
            { clw = workers; clj = jobs_per; cls = s; cli = records = baseline }
            :: !legs))
    [ 2; 4 ];
  let legs = List.rev !legs in
  printf "%d injections, %d shards, postmark PV, %d total domains per leg\n"
    injections nshards domains;
  print
    (R.table
       ~header:[ "topology"; "seconds"; "eff inj/s"; "identical" ]
       ~rows:
         (List.map
            (fun l ->
              [
                Printf.sprintf "%d proc x %d domains" l.clw l.clj;
                Printf.sprintf "%.3f" l.cls;
                Printf.sprintf "%.0f" (eff l.cls);
                string_of_bool l.cli;
              ])
            legs));
  let leg4 = List.find (fun l -> l.clw = 4) legs in
  printf
    "4 processes vs 1: %.2fx effective injections/s at equal total domains\n\
     (process scaling needs cores: this host reports %d; a single OCaml\n\
     runtime also serialises in the shared major GC, which separate\n\
     processes do not)\n"
    (base_s /. Float.max 1e-9 leg4.cls)
    (Pool.recommended_jobs ());
  if not (List.for_all (fun l -> l.cli) legs) then begin
    Printf.eprintf
      "FATAL: distributed campaign records diverged from single-process run\n%!";
    exit 1
  end;
  (* Kill leg: SIGKILL one worker after the first shard lands; the
     journal plus lease reissue must still converge to the identical
     record list, and a warm resume must replay every shard. *)
  let kill_result =
    if nshards < 3 then begin
      printf "kill leg skipped: %d shard(s) at this scale (needs >= 3)\n"
        nshards;
      None
    end
    else
      scratch "kill" (fun dir ->
          let journal = Filename.concat dir "journal" in
          let checkpoint () =
            match Xentry_store.Journal.for_campaign ~dir:journal config with
            | Ok cp -> cp
            | Error e ->
                failwith (Xentry_store.Journal.open_error_message e)
          in
          let killed = ref false in
          let victim = ref None in
          let on_progress (p : Coordinator.progress) =
            if (not !killed) && p.Coordinator.completed < p.Coordinator.total
            then begin
              killed := true;
              Option.iter kill_pid !victim
            end
          in
          let sock = Filename.concat dir "coord.sock" in
          let pids = List.init 2 (fun _ -> spawn_cluster_worker sock 2) in
          victim := Some (List.hd pids);
          let t0 = Unix.gettimeofday () in
          let records =
            match
              Coordinator.run ~checkpoint:(checkpoint ()) ~on_progress
                ~idle_timeout_s:30. ~listen:(CP.Unix_sock sock) config
            with
            | r ->
                List.iter kill_pid pids;
                List.iter reap_pid pids;
                r
            | exception e ->
                List.iter kill_pid pids;
                List.iter reap_pid pids;
                raise e
          in
          let kill_s = Unix.gettimeofday () -. t0 in
          let resumed =
            Campaign.execute ~checkpoint:(checkpoint ())
              { config with Campaign.jobs = Some 1 }
          in
          let identical = records = baseline in
          let resume_identical = resumed = baseline in
          record_phase "cluster-kill-resume" kill_s injections;
          printf
            "worker killed mid-campaign: %.3fs, records identical %b; \
             journal resume identical %b\n"
            kill_s identical resume_identical;
          if not (identical && resume_identical) then begin
            Printf.eprintf
              "FATAL: records diverged after mid-campaign worker kill/resume\n%!";
            exit 1
          end;
          Some (kill_s, identical, resume_identical))
  in
  (* Serve leg: front tier over 2 worker processes, one killed at 40%
     of the run — the ring rebalances and the survivor absorbs the
     remapped streams. *)
  let serve_result =
    scratch "serve" (fun dir ->
        let workers = 2 in
        let jobs_per = max 1 (domains / workers) in
        let duration_s = Float.max 0.5 (Float.min 3.0 (3.0 *. scale)) in
        let base =
          Serve.make ~benchmark:Profile.Postmark ~streams:8 ~jobs:jobs_per
            ~duration_s ~seed:2014 ~rate:1.0 ()
        in
        let per_worker = Serve.calibrate base in
        let rate = 0.5 *. per_worker *. float_of_int (jobs_per * workers) in
        let cfg = { base with Serve.rate } in
        let sock = Filename.concat dir "front.sock" in
        let pids = List.init workers (fun _ -> spawn_cluster_worker sock jobs_per) in
        let killed = ref false in
        let on_tick ~elapsed =
          if (not !killed) && elapsed >= 0.4 *. duration_s then begin
            killed := true;
            kill_pid (List.hd pids)
          end
        in
        let summary =
          match Front.run ~on_tick ~listen:(CP.Unix_sock sock) ~workers cfg with
          | s ->
              List.iter kill_pid pids;
              List.iter reap_pid pids;
              s
          | exception e ->
              List.iter kill_pid pids;
              List.iter reap_pid pids;
              raise e
        in
        record_phase "cluster-serve-kill" summary.Front.wall_s
          summary.Front.completed;
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
        Some (workers, summary))
  in
  cluster_bench_result :=
    Some
      {
        ck_injections = injections;
        ck_shards = nshards;
        ck_domains = domains;
        ck_legs = legs;
        ck_kill = kill_result;
        ck_serve = serve_result;
      }

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one kernel per table/figure               *)
(* ------------------------------------------------------------------ *)

let micro () =
  print (R.section "Bechamel micro-benchmarks (pipeline kernels)");
  let open Bechamel in
  let open Toolkit in
  (* Pre-built state shared by the kernels. *)
  let host = Hypervisor.create ~seed:3 () in
  let profile = Profile.get Profile.Postmark in
  let rng = Rng.create 5 in
  let det = Lazy.force detector in
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
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
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
    while !exec_time < 0.4 do
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
  micro_engine_result := Some (ref_sps, fast_sps, identical);
  if not identical then begin
    Printf.eprintf
      "FATAL: ref and fast engines diverged on the handler stream\n%!";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Fault classes: coverage under the widened fault model                *)
(* ------------------------------------------------------------------ *)

let fault_class_rows :
    (string * Xentry_faultinject.Report.summary) list ref =
  ref []

let classes () =
  print (R.section "Fault classes: per-class coverage (widened model)");
  let injections = scaled 6_000 in
  let all = Array.to_list Fault.all_classes in
  printf "[classes] %d injections over %s (jobs %d)...\n%!" injections
    (Fault.classes_to_string all) !jobs;
  let t0 = Unix.gettimeofday () in
  let records =
    Campaign.execute
      (Campaign.Config.make ~jobs:!jobs ~benchmark:Profile.Postmark
         ~injections ~seed:4242 ~fault_classes:all ())
  in
  record_phase "class-campaign" (Unix.gettimeofday () -. t0) injections;
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
  fault_class_rows := List.map (fun (c, s) -> (Fault.cls_name c, s)) per_class

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig3", fig3);
    ("table1", table1);
    ("accuracy", accuracy);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("table2", table2);
    ("fig11", fig11);
    ("ablation", ablation);
    ("modes", modes);
    ("exposure", exposure);
    ("hardening", hardening);
    ("speedup", speedup);
    ("resume", resume);
    ("campaign", campaign);
    ("serve", serve);
    ("recover", recover);
    ("cluster", cluster);
    ("classes", classes);
    ("micro", micro);
  ]

(* --- machine-readable timing output ------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json path =
  match open_out path with
  | exception Sys_error msg ->
      Printf.eprintf "[json] cannot write %s: %s\n%!" path msg;
      exit 1
  | oc ->
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"scale\": %g,\n" scale;
  out "  \"jobs\": %d,\n" !jobs;
  out "  \"engine\": \"%s\",\n" (Mcpu.engine_name (Mcpu.default_engine ()));
  out "  \"campaign_sizes\": {\n";
  out "    \"train_injections\": %d,\n" (scaled 23_400);
  out "    \"test_injections\": %d,\n" (scaled 17_700);
  out "    \"coverage_injections\": %d,\n" (scaled (30_000 / 6) * 6);
  out "    \"shard_size\": %d\n" Campaign.shard_size;
  out "  },\n";
  let entries fmt1 items =
    List.iteri
      (fun i item ->
        fmt1 item;
        if i < List.length items - 1 then out ",\n" else out "\n")
      items
  in
  out "  \"phases\": [\n";
  entries
    (fun (name, seconds, injections) ->
      out "    {\"name\": \"%s\", \"seconds\": %.6f, \"injections\": %d}"
        (json_escape name) seconds injections)
    (List.rev !phase_timings);
  out "  ],\n";
  (match !speedup_result with
  | Some (injections, par_jobs, serial_s, parallel_s, identical) ->
      out
        "  \"speedup\": {\"injections\": %d, \"jobs\": %d, \"serial_seconds\": \
         %.6f, \"parallel_seconds\": %.6f, \"speedup\": %.3f, \"identical\": \
         %b},\n"
        injections par_jobs serial_s parallel_s
        (serial_s /. Float.max 1e-9 parallel_s)
        identical
  | None -> ());
  (match !campaign_bench_result with
  | Some cb ->
      let eff s = float_of_int cb.cb_total /. Float.max 1e-9 s in
      out
        "  \"campaign\": {\"injections\": %d, \"legacy_seconds\": %.6f, \
         \"exhaustive_seconds\": %.6f, \"planned_seconds\": %.6f, \
         \"pruned_fraction\": %.4f, \"collapsed_fraction\": %.4f, \
         \"fast_forward_fraction\": %.4f, \
         \"effective_injections_per_sec\": %.1f, \
         \"effective_injections_per_sec_exhaustive\": %.1f, \
         \"effective_injections_per_sec_legacy\": %.1f, \"speedup\": %.3f, \
         \"speedup_vs_exhaustive\": %.3f, \"identical\": %b},\n"
        cb.cb_total cb.cb_legacy_s cb.cb_exhaustive_s cb.cb_planned_s
        cb.cb_pruned_fraction cb.cb_collapsed_fraction
        cb.cb_fast_forward_fraction (eff cb.cb_planned_s)
        (eff cb.cb_exhaustive_s) (eff cb.cb_legacy_s)
        (cb.cb_legacy_s /. Float.max 1e-9 cb.cb_planned_s)
        (cb.cb_exhaustive_s /. Float.max 1e-9 cb.cb_planned_s)
        cb.cb_identical
  | None -> ());
  (match !cluster_bench_result with
  | Some ck ->
      let eff s = float_of_int ck.ck_injections /. Float.max 1e-9 s in
      let base_s = (List.hd ck.ck_legs).cls in
      out
        "  \"cluster\": {\"injections\": %d, \"shards\": %d, \
         \"total_domains\": %d,\n"
        ck.ck_injections ck.ck_shards ck.ck_domains;
      out "    \"legs\": [\n";
      entries
        (fun l ->
          out
            "      {\"workers\": %d, \"jobs_per_worker\": %d, \"seconds\": \
             %.6f, \"effective_injections_per_sec\": %.1f, \"identical\": %b}"
            l.clw l.clj l.cls (eff l.cls) l.cli)
        ck.ck_legs;
      out "    ],\n";
      (match List.find_opt (fun l -> l.clw = 4) ck.ck_legs with
      | Some l4 ->
          out "    \"speedup_workers4_vs_1\": %.3f,\n"
            (base_s /. Float.max 1e-9 l4.cls)
      | None -> ());
      (match ck.ck_kill with
      | Some (s, identical, resume_identical) ->
          out
            "    \"kill\": {\"seconds\": %.6f, \"identical\": %b, \
             \"resume_identical\": %b},\n"
            s identical resume_identical
      | None -> ());
      (match ck.ck_serve with
      | Some (workers, s) ->
          out
            "    \"serve\": {\"workers\": %d, \"throughput_rps\": %.1f, \
             \"completed\": %d, \"p50_us\": %.1f, \"p99_us\": %.1f, \
             \"workers_lost\": %d, \"streams_remapped\": %d, \
             \"shed_worker_lost\": %d},\n"
            workers s.Front.throughput_rps s.Front.completed
            (Front.latency_quantile s 0.50)
            (Front.latency_quantile s 0.99)
            s.Front.workers_lost s.Front.streams_remapped
            s.Front.shed_worker_lost
      | None -> ());
      out "    \"identical\": %b},\n"
        (List.for_all (fun l -> l.cli) ck.ck_legs)
  | None -> ());
  (match List.rev !serve_results with
  | [] -> ()
  | results ->
      out "  \"serve\": [\n";
      entries
        (fun (name, rate, s) ->
          out
            "    {\"scenario\": \"%s\", \"offered_rps\": %.1f, \
             \"throughput_rps\": %.1f, \"completed\": %d, \"detected\": %d, \
             \"shed_fraction\": %.4f, \"shed_queue_full\": %d, \
             \"shed_deadline\": %d, \"shed_draining\": %d, \"p50_us\": %.1f, \
             \"p99_us\": %.1f, \"deepest_level\": \"%s\", \"final_level\": \
             \"%s\", \"peak_occupancy\": %.3f, \"injected\": %d, \
             \"recoveries\": %d, \"recovery_p50_us\": %.1f, \
             \"recovery_p99_us\": %.1f, \"availability\": %.6f}"
            (json_escape name) rate s.Serve.throughput_rps s.Serve.completed
            s.Serve.detected (Serve.shed_fraction s) s.Serve.shed_queue_full
            s.Serve.shed_deadline s.Serve.shed_draining
            (Serve.latency_quantile s 0.50)
            (Serve.latency_quantile s 0.99)
            (json_escape s.Serve.rung_names.(s.Serve.deepest_rung))
            (json_escape s.Serve.rung_names.(s.Serve.final_rung))
            s.Serve.peak_occupancy s.Serve.injected s.Serve.recoveries
            (Serve.recovery_quantile s 0.50)
            (Serve.recovery_quantile s 0.99)
            s.Serve.availability)
        results;
      out "  ],\n");
  (match !recover_bench_results with
  | [] -> ()
  | results ->
      out "  \"recover\": [\n";
      entries
        (fun (benchmark, r) -> out "    %s" (RecCampaign.to_json ~benchmark r))
        results;
      out "  ],\n");
  (match !micro_engine_result with
  | Some (ref_sps, fast_sps, identical) ->
      out
        "  \"micro\": {\"ref_steps_per_sec\": %.1f, \"fast_steps_per_sec\": \
         %.1f, \"engine_speedup\": %.3f, \"identical\": %b},\n"
        ref_sps fast_sps
        (fast_sps /. Float.max 1e-9 ref_sps)
        identical
  | None -> ());
  (match !fault_class_rows with
  | [] -> ()
  | rows ->
      out "  \"fault_classes\": [\n";
      entries
        (fun (name, (s : Report.summary)) ->
          let t = s.Report.techniques in
          out
            "    {\"class\": \"%s\", \"injections\": %d, \"activated\": %d, \
             \"manifested\": %d, \"coverage\": %.4f, \"hw_exception\": %d, \
             \"sw_assertion\": %d, \"vm_transition\": %d, \"ras_report\": %d, \
             \"undetected\": %d}"
            (json_escape name) s.Report.total_injections s.Report.activated
            s.Report.manifested s.Report.coverage t.Report.hw_exception
            t.Report.sw_assertion t.Report.vm_transition t.Report.ras_report
            t.Report.undetected)
        rows;
      out "  ],\n");
  if Telemetry.enabled () then out "  \"telemetry\": %s,\n" (Telemetry.to_json ());
  out "  \"experiments\": [\n";
  entries
    (fun (name, seconds) ->
      out "    {\"name\": \"%s\", \"seconds\": %.6f}" (json_escape name) seconds)
    (List.rev !experiment_timings);
  out "  ]\n";
  out "}\n";
  close_out oc;
  printf "[json] wrote %s\n" path

(* --- argument parsing --------------------------------------------- *)

let usage oc =
  Printf.fprintf oc
    "usage: main.exe [-j N] [--engine ref|fast] [--json FILE] \
     [--telemetry FILE] [EXPERIMENT...]\navailable: all, %s\n"
    (String.concat ", " (List.map fst experiments))

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      usage stderr;
      exit 2)
    fmt

let parse_args () =
  let rec go acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: v :: rest -> (
        match int_of_string_opt v with
        | Some 0 -> jobs := Pool.recommended_jobs (); go acc rest
        | Some j when j > 0 -> jobs := j; go acc rest
        | _ -> usage_error "invalid job count %S" v)
    | "--engine" :: v :: rest -> (
        match Mcpu.engine_of_string v with
        | Some e -> Mcpu.set_default_engine e; go acc rest
        | None -> usage_error "invalid engine %S (expected ref or fast)" v)
    | "--json" :: path :: rest -> json_path := Some path; go acc rest
    | "--telemetry" :: path :: rest -> telemetry_path := Some path; go acc rest
    | ("-h" | "--help") :: _ -> usage stdout; exit 0
    | ("-j" | "--jobs" | "--engine" | "--json" | "--telemetry") :: [] ->
        usage_error "missing value for final option"
    | name :: rest ->
        if name <> "all" && not (List.mem_assoc name experiments) then
          usage_error "unknown experiment %S" name;
        go (name :: acc) rest
  in
  go [] (List.tl (Array.to_list Sys.argv))

(* Cluster-worker re-exec entry: the cluster experiment spawns this
   binary back as its worker processes (see [cluster_worker_argv]). *)
let () =
  match Sys.argv with
  | [| _; "--cluster-worker"; sock; jobs |] ->
      Xentry_cluster.Worker.run ~jobs:(int_of_string jobs)
        ~connect:(CP.Unix_sock sock) ();
      exit 0
  | _ -> ()

let () =
  let requested = parse_args () in
  Option.iter (fun _ -> Telemetry.enable ()) !telemetry_path;
  let requested = if requested = [] then [ "all" ] else requested in
  let to_run =
    if List.mem "all" requested then List.map fst experiments else requested
  in
  printf
    "Xentry benchmark harness (scale %.2f, jobs %d, engine %s; set \
     XENTRY_SCALE / -j / --engine to adjust)\n"
    scale !jobs
    (Mcpu.engine_name (Mcpu.default_engine ()));
  List.iter
    (fun name ->
      let t0 = Unix.gettimeofday () in
      (List.assoc name experiments) ();
      experiment_timings :=
        (name, Unix.gettimeofday () -. t0) :: !experiment_timings)
    to_run;
  Option.iter write_json !json_path;
  Option.iter
    (fun path ->
      Telemetry.export_file path;
      printf "[telemetry] wrote %s\n" path)
    !telemetry_path
