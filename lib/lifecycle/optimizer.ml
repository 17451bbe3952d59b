(* DETOx-style configuration optimizer.

   One measured campaign (full detection, the source detector stock)
   plus one fault-free population are enough to score every candidate
   configuration: each campaign record carries the technique that
   caught it and, when the run reached VM entry, its PMU signature, so
   a candidate's coverage is re-attributed from the records instead of
   re-running the campaign per candidate.

   Re-attribution per record, for a candidate with detection set D and
   detector variant V:
   - caught by H/W exception  -> detected iff D.hw_exceptions
   - caught by S/W assertion  -> detected iff D.sw_assertions
   - caught by RAS record     -> detected iff D.ras_polling
   - caught by VM transition, or undetected, with a signature
     recorded -> re-classified by V iff D.vm_transition
   - anything else            -> undetected under the candidate

   The one conservative approximation: a record whose synchronous
   channel is disarmed under the candidate does not get the original
   run's RAS drain re-checked (the record list is not persisted), so
   candidate coverage is a measured LOWER bound — safe for picking
   rungs, since it can only understate a cheap configuration.

   False-positive rates come from classifying the fault-free
   population with V (0 for candidates without vm_transition);
   overhead is the paper's cost model at the variant's worst-case
   comparison count, times the benchmark interference multiplier. *)

module Detector = Xentry_core.Detector
module Pipeline = Xentry_core.Pipeline
module Pareto = Xentry_core.Pareto
module Features = Xentry_core.Features
module Cost_model = Xentry_core.Cost_model
module Td = Xentry_core.Transition_detector
module Campaign = Xentry_faultinject.Campaign
module Outcome = Xentry_faultinject.Outcome
module Profile = Xentry_workload.Profile

type config = {
  seed : int;
  benchmark : Profile.benchmark;
  mode : Profile.virt_mode;
  injections : int;
  fault_free_runs : int;
  depths : int list;  (* Depth knob candidates on full detection *)
  thresholds : float list;  (* Threshold knob candidates *)
  params : Cost_model.params;
  jobs : int option;
}

let default_config ?(seed = 2014) ?(mode = Profile.PV) ?(injections = 600)
    ?(fault_free_runs = 200) ?(depths = [ 4; 8 ]) ?(thresholds = [ 0.9 ])
    ?(params = Cost_model.default_params) ?jobs ~benchmark () =
  {
    seed;
    benchmark;
    mode;
    injections;
    fault_free_runs;
    depths;
    thresholds;
    params;
    jobs;
  }

let filter_only =
  {
    Pipeline.hw_exceptions = true;
    sw_assertions = false;
    vm_transition = false;
    ras_polling = true;
  }

(* The candidate grid: the three historical rungs plus knob-derived
   variants of full detection.  Dominated candidates fall out in the
   Pareto filter. *)
let candidates cfg =
  (("full", Pipeline.full_detection, Detector.Stock)
  :: List.map
       (fun d ->
         ( Printf.sprintf "full/depth=%d" d,
           Pipeline.full_detection,
           Detector.Depth d ))
       cfg.depths
  @ List.map
      (fun tau ->
        ( Printf.sprintf "full/tau=%.2f" tau,
          Pipeline.full_detection,
          Detector.Threshold tau ))
      cfg.thresholds)
  @ [
      ("runtime_only", Pipeline.runtime_only, Detector.Stock);
      ("filter_only", filter_only, Detector.Stock);
    ]

let vetoes variant features =
  match Detector.classify_features variant features with
  | Td.Incorrect, _ -> true
  | Td.Correct, _ -> false

let detected_under ~detection ~variant (r : Outcome.record) =
  let reclassify () =
    detection.Pipeline.vm_transition
    &&
    match r.Outcome.signature with
    | Some snapshot ->
        vetoes variant (Features.of_run ~reason:r.Outcome.reason snapshot)
    | None -> false
  in
  match r.Outcome.verdict with
  | Pipeline.Detected { technique = Pipeline.Hw_exception_detection; _ } ->
      detection.Pipeline.hw_exceptions
  | Pipeline.Detected { technique = Pipeline.Sw_assertion; _ } ->
      detection.Pipeline.sw_assertions
  | Pipeline.Detected { technique = Pipeline.Ras_report; _ } ->
      detection.Pipeline.ras_polling || reclassify ()
  | Pipeline.Detected { technique = Pipeline.Vm_transition; _ }
  | Pipeline.Clean ->
      reclassify ()

type sweep_result = {
  front : Pareto.front;
  all_points : Pareto.point list;
  manifested : int;
  clean_runs : int;
}

let sweep ?(detector_version = 0) cfg ~detector =
  let campaign =
    Campaign.Config.make ~detector ?jobs:cfg.jobs ~mode:cfg.mode
      ~benchmark:cfg.benchmark ~injections:cfg.injections ~seed:cfg.seed ()
  in
  let records = Campaign.execute campaign in
  let manifested_records =
    List.filter
      (fun (r : Outcome.record) -> Outcome.manifested r.Outcome.consequence)
      records
  in
  let manifested = List.length manifested_records in
  let clean_pop =
    Campaign.run_fault_free ?jobs:cfg.jobs ~seed:(cfg.seed lxor 0xFA15E)
      ~benchmark:cfg.benchmark ~mode:cfg.mode ~runs:cfg.fault_free_runs ()
  in
  let clean_features =
    List.map
      (fun (reason, snapshot) -> Features.of_run ~reason snapshot)
      clean_pop
  in
  let clean_runs = List.length clean_features in
  let interference = Cost_model.interference (Profile.get cfg.benchmark) in
  let point (label, detection, knob) =
    let variant = Detector.apply_knob detector knob in
    let comparisons =
      if detection.Pipeline.vm_transition then
        Detector.worst_case_comparisons variant
      else 0
    in
    let covered =
      List.length
        (List.filter (detected_under ~detection ~variant) manifested_records)
    in
    let coverage =
      if manifested = 0 then 0.
      else float_of_int covered /. float_of_int manifested
    in
    let fp =
      if not detection.Pipeline.vm_transition then 0
      else List.length (List.filter (vetoes variant) clean_features)
    in
    let fp_rate =
      if clean_runs = 0 then 0. else float_of_int fp /. float_of_int clean_runs
    in
    let overhead =
      Cost_model.per_exit_seconds cfg.params detection
        ~tree_comparisons:comparisons
      *. interference
    in
    { Pareto.label; detection; knob; coverage; fp_rate; overhead; comparisons }
  in
  let all_points = List.map point (candidates cfg) in
  {
    front = Pareto.make ~source_version:detector_version all_points;
    all_points;
    manifested;
    clean_runs;
  }

let on_front r (p : Pareto.point) = List.memq p r.front.Pareto.points

let to_json cfg r =
  let open Xentry_util.Json in
  let point (p : Pareto.point) =
    Obj
      [ ("label", String p.Pareto.label); ("coverage", Float p.Pareto.coverage);
        ("fp_rate", Float p.Pareto.fp_rate);
        ("overhead_s", Float p.Pareto.overhead);
        ("comparisons", Int p.Pareto.comparisons);
        ("on_front", Bool (on_front r p)) ]
  in
  Obj
    [ ("schema", String "xentry-optimize-v1");
      ("benchmark", String (Profile.benchmark_name cfg.benchmark));
      ("manifested", Int r.manifested); ("clean_runs", Int r.clean_runs);
      ("source_version", Int r.front.Pareto.source_version);
      ("points", List (List.map point r.all_points)) ]
