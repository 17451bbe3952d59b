(* Tests for Xentry_lifecycle: the corpus miner's reservoir bounds and
   determinism, the shadow gate's purity (scoring never changes the
   incumbent verdict) and promotion rules, the retrainer's
   offline/streaming identity, and the Pareto front arithmetic the
   configuration optimizer builds on. *)

open Xentry_mlearn
open Xentry_core
open Xentry_lifecycle

(* --- fixtures -------------------------------------------------------------- *)

(* A deterministic candidate: flags a signature iff RT (feature 1)
   lands in the high band.  Trained, not hand-built, so it exercises
   the same tree path production detectors use. *)
let band_detector ?(version = 2) () =
  let samples =
    List.concat
      [
        List.init 30 (fun i ->
            { Dataset.features = [| 0.0; 50.0 +. float_of_int i; 5.0; 5.0; 5.0 |];
              label = 0 });
        List.init 30 (fun i ->
            { Dataset.features = [| 0.0; 150.0 +. float_of_int i; 5.0; 5.0; 5.0 |];
              label = 1 });
      ]
  in
  let tree =
    Tree.train
      (Dataset.create ~feature_names:Features.names ~n_classes:2 samples)
  in
  Detector.make ~version ~origin:Detector.Streamed ~trained_on:60
    (Transition_detector.of_tree tree)

let calm_features = [| 0.0; 60.0; 5.0; 5.0; 5.0 |] (* candidate: correct *)
let deviant_features = [| 0.0; 180.0; 5.0; 5.0; 5.0 |] (* candidate: incorrect *)

(* --- miner ------------------------------------------------------------------ *)

let offer_gen =
  QCheck.Gen.(
    pair (array_size (return 5) (float_bound_inclusive 300.0)) bool)

let offers_arbitrary =
  QCheck.make
    ~print:(fun (cap, offers) ->
      Printf.sprintf "capacity=%d offers=%d" cap (List.length offers))
    QCheck.Gen.(pair (int_range 1 16) (list_size (int_range 0 300) offer_gen))

let test_miner_capacity_bound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"reservoirs never exceed capacity, counters conserve"
       offers_arbitrary
       (fun (cap, offers) ->
         let m = Miner.create ~seed:7 ~capacity:cap () in
         List.iter
           (fun (features, incorrect) ->
             ignore (Miner.offer m ~features ~incorrect))
           offers;
         let correct, incorrect = Miner.class_counts m in
         let n_incorrect =
           List.length (List.filter (fun (_, b) -> b) offers)
         in
         let n_correct = List.length offers - n_incorrect in
         correct <= cap && incorrect <= cap
         && correct <= n_correct
         && incorrect <= n_incorrect
         (* single-threaded: the lock is never contended *)
         && Miner.contended m = 0
         && Miner.offered m = List.length offers))

let test_miner_keeps_everything_under_capacity () =
  let m = Miner.create ~seed:1 ~capacity:64 () in
  for i = 1 to 40 do
    let features = [| float_of_int i; 0.0; 0.0; 0.0; 0.0 |] in
    ignore (Miner.offer m ~features ~incorrect:(i mod 3 = 0))
  done;
  let correct, incorrect = Miner.class_counts m in
  Alcotest.(check int) "all correct kept" 27 correct;
  Alcotest.(check int) "all incorrect kept" 13 incorrect;
  let c = Miner.corpus m in
  let open Xentry_faultinject in
  Alcotest.(check int) "corpus correct" 27 c.Training.correct;
  Alcotest.(check int) "corpus incorrect" 13 c.Training.incorrect;
  Alcotest.(check int) "dataset size" 40 (Dataset.length c.Training.dataset);
  (* Under capacity, the reservoir is the stream verbatim: every
     offered vector appears in the snapshot. *)
  let samples = Dataset.samples c.Training.dataset in
  for i = 1 to 40 do
    let expected_label = if i mod 3 = 0 then 1 else 0 in
    let found =
      Array.exists
        (fun s ->
          s.Dataset.features.(0) = float_of_int i
          && s.Dataset.label = expected_label)
        samples
    in
    Alcotest.(check bool) (Printf.sprintf "offer %d present" i) true found
  done

let test_miner_deterministic () =
  let run () =
    let m = Miner.create ~seed:99 ~capacity:8 () in
    for i = 1 to 500 do
      let features = [| float_of_int i; float_of_int (i * 7 mod 31); 0.; 0.; 0. |] in
      ignore (Miner.offer m ~features ~incorrect:(i mod 5 = 0))
    done;
    let c = Miner.corpus m in
    Array.to_list
      (Array.map
         (fun s -> (s.Dataset.features.(0), s.Dataset.label))
         (Dataset.samples c.Xentry_faultinject.Training.dataset))
  in
  Alcotest.(check bool) "same seed, same offers, same corpus" true
    (run () = run ())

let test_miner_corpus_is_cumulative () =
  let m = Miner.create ~seed:3 ~capacity:32 () in
  ignore (Miner.offer m ~features:calm_features ~incorrect:false);
  let c1 = Miner.corpus m in
  ignore (Miner.offer m ~features:deviant_features ~incorrect:true);
  let c2 = Miner.corpus m in
  let open Xentry_faultinject in
  Alcotest.(check int) "first snapshot" 1 (Dataset.length c1.Training.dataset);
  Alcotest.(check int) "snapshot does not drain" 2
    (Dataset.length c2.Training.dataset)

let test_miner_validates_capacity () =
  Alcotest.(check bool) "capacity 0 rejected" true
    (match Miner.create ~capacity:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- shadow: purity --------------------------------------------------------- *)

let verdict_gen =
  QCheck.Gen.(
    oneof
      [
        return Pipeline.Clean;
        map2
          (fun technique latency ->
            Pipeline.Detected { technique; latency })
          (oneofl
             [
               Pipeline.Hw_exception_detection;
               Pipeline.Sw_assertion;
               Pipeline.Vm_transition;
               Pipeline.Ras_report;
             ])
          (option (int_bound 1000));
      ])

let score_input_arbitrary =
  QCheck.make
    ~print:(fun inputs -> Printf.sprintf "%d scored requests" (List.length inputs))
    QCheck.Gen.(
      list_size (int_range 0 100)
        (triple verdict_gen bool
           (array_size (return 5) (float_bound_inclusive 300.0))))

(* Satellite (d): shadow scoring must never change the incumbent's
   verdict — for any verdict, injected flag and feature vector, [score]
   returns the incumbent verbatim, whatever the candidate thinks. *)
let test_shadow_purity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"shadow scoring returns the incumbent verdict verbatim"
       score_input_arbitrary
       (fun inputs ->
         let sh = Shadow.create ~window:16 ~candidate:(band_detector ()) in
         List.for_all
           (fun (incumbent, injected, features) ->
             Shadow.score sh ~incumbent ~injected ~features = incumbent)
           inputs))

(* --- shadow: the promotion gate --------------------------------------------- *)

let detected =
  Pipeline.Detected { technique = Pipeline.Vm_transition; latency = None }

let score sh ~incumbent ~injected ~features =
  ignore (Shadow.score sh ~incumbent ~injected ~features)

let test_shadow_holds_until_window () =
  let sh = Shadow.create ~window:4 ~candidate:(band_detector ()) in
  for _ = 1 to 3 do
    score sh ~incumbent:Pipeline.Clean ~injected:false ~features:calm_features
  done;
  Alcotest.(check bool) "3 of 4 scored holds" true (Shadow.decision sh = Shadow.Hold)

let test_shadow_promotes_strictly_better () =
  let sh = Shadow.create ~window:4 ~candidate:(band_detector ()) in
  (* Two faulted requests the incumbent missed and the candidate
     catches, two clean requests neither flags: candidate coverage 1
     vs 0, FP 0 = 0 -> weakly better on both, strictly on one. *)
  score sh ~incumbent:Pipeline.Clean ~injected:true ~features:deviant_features;
  score sh ~incumbent:Pipeline.Clean ~injected:true ~features:deviant_features;
  score sh ~incumbent:Pipeline.Clean ~injected:false ~features:calm_features;
  score sh ~incumbent:Pipeline.Clean ~injected:false ~features:calm_features;
  match Shadow.decision sh with
  | Shadow.Promote stats ->
      Alcotest.(check int) "scored" 4 stats.Shadow.scored;
      Alcotest.(check int) "faulted" 2 stats.Shadow.faulted;
      Alcotest.(check (float 1e-9)) "candidate coverage" 1.0
        (Shadow.coverage stats ~candidate:true);
      Alcotest.(check (float 1e-9)) "incumbent coverage" 0.0
        (Shadow.coverage stats ~candidate:false);
      Alcotest.(check (float 1e-9)) "candidate fp" 0.0
        (Shadow.fp_rate stats ~candidate:true)
  | Shadow.Hold -> Alcotest.fail "window filled but gate held"
  | Shadow.Reject _ -> Alcotest.fail "strictly better candidate rejected"

let test_shadow_rejects_exact_tie () =
  let sh = Shadow.create ~window:4 ~candidate:(band_detector ()) in
  (* Incumbent also catches both faults; candidate matches everywhere
     but betters nothing: ties must not churn the detector. *)
  score sh ~incumbent:detected ~injected:true ~features:deviant_features;
  score sh ~incumbent:detected ~injected:true ~features:deviant_features;
  score sh ~incumbent:Pipeline.Clean ~injected:false ~features:calm_features;
  score sh ~incumbent:Pipeline.Clean ~injected:false ~features:calm_features;
  match Shadow.decision sh with
  | Shadow.Reject _ -> ()
  | Shadow.Hold -> Alcotest.fail "window filled but gate held"
  | Shadow.Promote _ -> Alcotest.fail "exact tie promoted"

let test_shadow_rejects_fp_regression () =
  let sh = Shadow.create ~window:4 ~candidate:(band_detector ()) in
  (* Candidate wins coverage but flags a clean request the incumbent
     passed: better on one axis, worse on the other -> reject. *)
  score sh ~incumbent:Pipeline.Clean ~injected:true ~features:deviant_features;
  score sh ~incumbent:Pipeline.Clean ~injected:true ~features:deviant_features;
  score sh ~incumbent:Pipeline.Clean ~injected:false ~features:deviant_features;
  score sh ~incumbent:Pipeline.Clean ~injected:false ~features:calm_features;
  match Shadow.decision sh with
  | Shadow.Reject stats ->
      Alcotest.(check bool) "candidate fp worse" true
        (Shadow.fp_rate stats ~candidate:true
        > Shadow.fp_rate stats ~candidate:false)
  | Shadow.Hold -> Alcotest.fail "window filled but gate held"
  | Shadow.Promote _ -> Alcotest.fail "FP regression promoted"

let test_shadow_validates_window () =
  Alcotest.(check bool) "window 0 rejected" true
    (match Shadow.create ~window:0 ~candidate:(band_detector ()) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- retrainer: offline = streaming ------------------------------------------ *)

let small_corpus =
  lazy
    (Xentry_faultinject.Training.collect ~jobs:1 ~seed:51
       ~benchmarks:[ Xentry_workload.Profile.Postmark ]
       ~mode:Xentry_workload.Profile.PV ~injections_per_benchmark:400
       ~fault_free_per_benchmark:100 ())

let test_retrainer_viable () =
  let corpus = Lazy.force small_corpus in
  Alcotest.(check bool) "real corpus is viable" true (Retrainer.viable corpus);
  Alcotest.(check bool) "but not at an absurd floor" false
    (Retrainer.viable ~min_per_class:1_000_000 corpus);
  let single_class =
    {
      corpus with
      Xentry_faultinject.Training.incorrect = 0;
    }
  in
  Alcotest.(check bool) "single-class corpus is not viable" false
    (Retrainer.viable single_class)

let test_retrainer_offline_streaming_identity () =
  (* The acceptance criterion: a detector retrained from a streamed
     corpus is identical to one trained offline on the same corpus —
     same fitting path, same tree seed, same model. *)
  let corpus = Lazy.force small_corpus in
  let streamed = Retrainer.train_candidate ~tree_seed:1 ~version:9 corpus in
  let offline =
    Xentry_faultinject.Training.detector
      (Xentry_faultinject.Training.train_and_evaluate ~tree_seed:1
         ~train:corpus ~test:corpus ())
  in
  Alcotest.(check bool) "identical model" true
    (Transition_detector.classifier (Detector.model streamed)
    = Transition_detector.classifier (Detector.model offline));
  Alcotest.(check int) "stamped version" 9 (Detector.version streamed);
  Alcotest.(check bool) "stamped streamed origin" true
    (Detector.origin streamed = Detector.Streamed);
  Alcotest.(check int) "corpus size carried"
    (Dataset.length corpus.Xentry_faultinject.Training.dataset)
    (Detector.trained_on streamed)

let test_retrainer_persist_load () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xentry-test-lifecycle-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let det = band_detector ~version:12 () in
      let path = Retrainer.persist ~dir det in
      Alcotest.(check string) "versioned filename"
        (Retrainer.artifact_path ~dir ~version:12)
        path;
      match Retrainer.load_version ~dir ~version:12 with
      | Error e ->
          Alcotest.fail (Xentry_store.Artifact.error_message e)
      | Ok back ->
          Alcotest.(check int) "version" 12 (Detector.version back);
          Alcotest.(check bool) "model" true
            (Transition_detector.classifier (Detector.model det)
            = Transition_detector.classifier (Detector.model back)))

(* --- pareto ------------------------------------------------------------------ *)

let point ?(detection = Pipeline.full_detection) ?(knob = Detector.Stock)
    label coverage fp_rate overhead =
  { Pareto.label; detection; knob; coverage; fp_rate; overhead; comparisons = 0 }

let test_pareto_dominates () =
  let a = point "a" 0.9 0.01 1.0 in
  Alcotest.(check bool) "strictly better coverage dominates" true
    (Pareto.dominates a (point "b" 0.8 0.01 1.0));
  Alcotest.(check bool) "strictly cheaper dominates" true
    (Pareto.dominates a (point "b" 0.9 0.01 2.0));
  Alcotest.(check bool) "equal points do not dominate" false
    (Pareto.dominates a (point "b" 0.9 0.01 1.0));
  Alcotest.(check bool) "trade-offs do not dominate" false
    (Pareto.dominates a (point "b" 0.95 0.01 2.0));
  Alcotest.(check bool) "dominated does not dominate back" false
    (Pareto.dominates (point "b" 0.8 0.01 1.0) a)

let test_pareto_front_filters_and_orders () =
  let pts =
    [
      point "cheap" 0.5 0.0 1.0;
      point "dominated" 0.4 0.02 2.0;
      point "mid" 0.8 0.01 3.0;
      point "best" 0.95 0.01 5.0;
      point "dup" 0.8 0.01 3.0;
    ]
  in
  let front = Pareto.pareto pts in
  Alcotest.(check (list string)) "non-dominated, costliest first, deduped"
    [ "best"; "mid"; "cheap" ]
    (List.map (fun p -> p.Pareto.label) front)

let pareto_points_arbitrary =
  QCheck.make
    ~print:(fun pts -> Printf.sprintf "%d points" (List.length pts))
    QCheck.Gen.(
      list_size (int_range 0 30)
        (map
           (fun ((c, fp), oh) ->
             point "p" (float_of_int c /. 10.0) (float_of_int fp /. 20.0)
               (float_of_int oh /. 5.0))
           (pair (pair (int_bound 10) (int_bound 10)) (int_bound 10))))

let test_pareto_front_properties =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"front is non-dominated and ordered"
       pareto_points_arbitrary
       (fun pts ->
         let front = Pareto.pareto pts in
         (* nothing on the front is dominated by any input point *)
         List.for_all
           (fun f -> not (List.exists (fun p -> Pareto.dominates p f) pts))
           front
         (* overhead is non-increasing along the front *)
         && (match front with
            | [] -> true
            | first :: rest ->
                fst
                  (List.fold_left
                     (fun (ok, prev) p ->
                       (ok && p.Pareto.overhead <= prev.Pareto.overhead, p))
                     (true, first) rest))))

let test_optimizer_grid () =
  let cfg =
    Optimizer.default_config ~depths:[ 3; 6 ] ~thresholds:[ 0.8 ]
      ~benchmark:Xentry_workload.Profile.Postmark ()
  in
  let grid = Optimizer.candidates cfg in
  let labels = List.map (fun (l, _, _) -> l) grid in
  Alcotest.(check bool) "grid covers base + knobs + reduced sets" true
    (List.length grid = 6);
  Alcotest.(check bool) "labels distinct" true
    (List.sort_uniq compare labels = List.sort compare labels);
  (match grid with
  | (label, detection, knob) :: _ ->
      Alcotest.(check string) "first candidate is the full stock config"
        "full" label;
      Alcotest.(check bool) "full detection armed" true
        (detection = Pipeline.full_detection);
      Alcotest.(check bool) "stock knob" true (knob = Detector.Stock)
  | [] -> Alcotest.fail "empty grid");
  Alcotest.(check bool) "filter_only keeps the cheap channels" true
    (Optimizer.filter_only
    = {
        Pipeline.hw_exceptions = true;
        sw_assertions = false;
        vm_transition = false;
        ras_polling = true;
      })

(* The sweep's JSON (schema xentry-optimize-v1), pinned on a hand-built
   result.  Labels reach the serve ladder's rung names and can come
   back from a file, so one carries a quote and a backslash. *)
let test_optimizer_json_golden () =
  let point label detection knob coverage fp_rate overhead comparisons =
    { Pareto.label; detection; knob; coverage; fp_rate; overhead; comparisons }
  in
  let full =
    point "full" Pipeline.full_detection Detector.Stock 0.95 0.001 1.5e-6 12
  in
  let shallow =
    point "depth=2\"q\\" Pipeline.full_detection (Detector.Depth 2) 0.9 0.002
      2e-6 3
  in
  let cheap =
    point "filter" Optimizer.filter_only Detector.Stock 0.5 0. 2.5e-7 0
  in
  let all_points = [ full; shallow; cheap ] in
  let r =
    {
      Optimizer.front = Pareto.make ~source_version:3 all_points;
      all_points;
      manifested = 40;
      clean_runs = 100;
    }
  in
  Alcotest.(check (list bool)) "on the front" [ true; false; true ]
    (List.map (Optimizer.on_front r) all_points);
  Alcotest.(check string) "byte-exact"
    "{\"schema\": \"xentry-optimize-v1\", \"benchmark\": \"postmark\", \
     \"manifested\": 40, \"clean_runs\": 100, \"source_version\": 3, \
     \"points\": [{\"label\": \"full\", \"coverage\": 0.95, \
     \"fp_rate\": 0.001, \"overhead_s\": 1.5e-06, \"comparisons\": 12, \
     \"on_front\": true}, {\"label\": \"depth=2\\\"q\\\\\", \
     \"coverage\": 0.9, \"fp_rate\": 0.002, \"overhead_s\": 2e-06, \
     \"comparisons\": 3, \"on_front\": false}, {\"label\": \"filter\", \
     \"coverage\": 0.5, \"fp_rate\": 0, \"overhead_s\": 2.5e-07, \
     \"comparisons\": 0, \"on_front\": true}]}"
    (Xentry_util.Json.to_string
       (Optimizer.to_json
          (Optimizer.default_config
             ~benchmark:Xentry_workload.Profile.Postmark ())
          r))

(* ------------------------------------------------------------------------------ *)

let () =
  Alcotest.run "xentry_lifecycle"
    [
      ( "miner",
        [
          test_miner_capacity_bound;
          Alcotest.test_case "keeps everything under capacity" `Quick
            test_miner_keeps_everything_under_capacity;
          Alcotest.test_case "deterministic for a fixed seed" `Quick
            test_miner_deterministic;
          Alcotest.test_case "snapshots are cumulative" `Quick
            test_miner_corpus_is_cumulative;
          Alcotest.test_case "capacity validation" `Quick
            test_miner_validates_capacity;
        ] );
      ( "shadow",
        [
          test_shadow_purity;
          Alcotest.test_case "holds until the window fills" `Quick
            test_shadow_holds_until_window;
          Alcotest.test_case "promotes a strictly better candidate" `Quick
            test_shadow_promotes_strictly_better;
          Alcotest.test_case "rejects an exact tie" `Quick
            test_shadow_rejects_exact_tie;
          Alcotest.test_case "rejects an FP regression" `Quick
            test_shadow_rejects_fp_regression;
          Alcotest.test_case "window validation" `Quick
            test_shadow_validates_window;
        ] );
      ( "retrainer",
        [
          Alcotest.test_case "viability floor" `Quick test_retrainer_viable;
          Alcotest.test_case "offline = streaming on the same corpus" `Quick
            test_retrainer_offline_streaming_identity;
          Alcotest.test_case "persist and load" `Quick
            test_retrainer_persist_load;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "dominates" `Quick test_pareto_dominates;
          Alcotest.test_case "front filters, orders, dedups" `Quick
            test_pareto_front_filters_and_orders;
          test_pareto_front_properties;
          Alcotest.test_case "optimizer grid" `Quick test_optimizer_grid;
          Alcotest.test_case "xentry-optimize-v1 golden" `Quick
            test_optimizer_json_golden;
        ] );
    ]
