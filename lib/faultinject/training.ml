open Xentry_core
open Xentry_mlearn

type corpus = {
  dataset : Dataset.t;
  injection_runs : int;
  fault_free_runs : int;
  correct : int;
  incorrect : int;
}

module Tm = Xentry_util.Telemetry
module Json = Xentry_util.Json

let collect ?jobs ~seed ~benchmarks ~mode ~injections_per_benchmark
    ~fault_free_per_benchmark () =
  Tm.with_span "training.collect" @@ fun () ->
  let samples = ref [] in
  let correct = ref 0 and incorrect = ref 0 in
  List.iteri
    (fun i benchmark ->
      let config =
        Campaign.Config.make ~framework:Pipeline.runtime_only ~mode ?jobs
          ~benchmark ~injections:injections_per_benchmark
          ~seed:(seed + (i * 7919)) ()
      in
      let records = Campaign.execute config in
      List.iter
        (fun r ->
          match r.Outcome.signature with
          | None -> () (* stopped before VM entry: no transition *)
          | Some snapshot ->
              let signature_differs = snapshot <> r.Outcome.golden_signature in
              if r.Outcome.activated && signature_differs then begin
                (* Incorrect control flow: the dynamic signature moved
                   (whether or not the corruption ultimately mattered —
                   the label describes the execution, as in the paper's
                   §III-B).  Signature-identical corruptions carry no
                   transition-visible evidence and contribute no
                   sample — they are the paper's Table II undetected
                   classes. *)
                incr incorrect;
                samples :=
                  ( Features.of_run ~reason:r.Outcome.reason snapshot,
                    Features.label_incorrect )
                  :: !samples
              end
              else if not (Outcome.manifested r.Outcome.consequence) then begin
                incr correct;
                samples :=
                  ( Features.of_run ~reason:r.Outcome.reason snapshot,
                    Features.label_correct )
                  :: !samples
              end)
        records;
      let fault_free =
        Campaign.run_fault_free ?jobs ~seed:(seed + (i * 104729)) ~benchmark
          ~mode ~runs:fault_free_per_benchmark ()
      in
      List.iter
        (fun (reason, snapshot) ->
          incr correct;
          samples :=
            (Features.of_run ~reason snapshot, Features.label_correct)
            :: !samples)
        fault_free)
    benchmarks;
  if Tm.enabled () then
    Tm.event "training.corpus"
      [
        ("seed", Json.Int seed);
        ("benchmarks", Json.Int (List.length benchmarks));
        ("samples", Json.Int (List.length !samples));
        ("correct", Json.Int !correct);
        ("incorrect", Json.Int !incorrect);
      ];
  {
    dataset = Features.dataset_of_samples !samples;
    injection_runs = injections_per_benchmark * List.length benchmarks;
    fault_free_runs = fault_free_per_benchmark * List.length benchmarks;
    correct = !correct;
    incorrect = !incorrect;
  }

type trained = {
  train_corpus : corpus;
  test_corpus : corpus;
  decision_tree : Tree.t;
  random_tree : Tree.t;
  decision_tree_eval : Metrics.confusion;
  random_tree_eval : Metrics.confusion;
}

let train_and_evaluate ?(tree_seed = 1) ~train ~test () =
  (* Legitimate signatures cluster at discrete points per (reason,
     request size); carving them out takes deeper trees than generic
     tabular data would. *)
  let depth = { Tree.default_config with max_depth = 24; min_gain = 1e-6 } in
  let decision_tree = Tree.train ~config:depth train.dataset in
  let random_tree =
    Tree.train
      ~config:
        {
          (Tree.random_tree_config
             ~n_features:(Dataset.n_features train.dataset)
             ~seed:tree_seed)
          with
          max_depth = depth.Tree.max_depth;
          min_gain = depth.Tree.min_gain;
        }
      train.dataset
  in
  {
    train_corpus = train;
    test_corpus = test;
    decision_tree;
    random_tree;
    decision_tree_eval = Metrics.evaluate decision_tree test.dataset;
    random_tree_eval = Metrics.evaluate random_tree test.dataset;
  }

let detector ?(version = 1) ?(origin = Detector.Offline) trained =
  Detector.make ~version ~origin
    ~trained_on:(Dataset.length trained.train_corpus.dataset)
    (Transition_detector.of_tree trained.random_tree)

let default_pipeline ?jobs ?(seed = 2014) ?(train_injections = 23_400)
    ?(test_injections = 17_700) () =
  let benchmarks = Array.to_list Xentry_workload.Profile.all_benchmarks in
  let n = List.length benchmarks in
  let train =
    collect ?jobs ~seed ~benchmarks ~mode:Xentry_workload.Profile.PV
      ~injections_per_benchmark:(train_injections / n)
      ~fault_free_per_benchmark:(train_injections / n / 4) ()
  in
  let test =
    collect ?jobs ~seed:(seed lxor 0x7E57) ~benchmarks
      ~mode:Xentry_workload.Profile.PV
      ~injections_per_benchmark:(test_injections / n)
      ~fault_free_per_benchmark:(test_injections / n / 4) ()
  in
  train_and_evaluate ~tree_seed:(seed + 1) ~train ~test ()
