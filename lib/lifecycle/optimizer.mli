(** DETOx-style detector configuration optimizer.

    Sweeps a candidate grid — detection-technique subsets crossed with
    detector knobs (tree-depth truncation, veto-threshold) — against
    one measured fault-injection campaign and one fault-free
    population, scoring each candidate's coverage / false-positive
    rate / per-exit overhead, and emits the non-dominated set as a
    {!Xentry_core.Pareto.front}.  The front feeds the serve layer's
    degradation ladder ({!Xentry_serve.Ladder.rungs_of_front}) and
    persists through {!Xentry_store.Codec.pareto}.

    Coverage re-attribution is record-based: the campaign runs once
    under full detection and every candidate is scored from the same
    records (see the implementation header for the per-technique
    rules), so the sweep costs one campaign regardless of grid size.
    Candidate coverage is a measured lower bound. *)

type config = {
  seed : int;
  benchmark : Xentry_workload.Profile.benchmark;
  mode : Xentry_workload.Profile.virt_mode;
  injections : int;
  fault_free_runs : int;
  depths : int list;  (** [Depth] knob candidates applied to full detection *)
  thresholds : float list;  (** [Threshold] knob candidates *)
  params : Xentry_core.Cost_model.params;
  jobs : int option;
}

val default_config :
  ?seed:int ->
  ?mode:Xentry_workload.Profile.virt_mode ->
  ?injections:int ->
  ?fault_free_runs:int ->
  ?depths:int list ->
  ?thresholds:float list ->
  ?params:Xentry_core.Cost_model.params ->
  ?jobs:int ->
  benchmark:Xentry_workload.Profile.benchmark ->
  unit ->
  config

val filter_only : Xentry_core.Pipeline.detection
(** Exception filter + RAS polling only — the cheapest armed rung. *)

val candidates :
  config ->
  (string * Xentry_core.Pipeline.detection * Xentry_core.Detector.knob) list
(** The sweep grid, labels included (exposed for tests and the CLI). *)

type sweep_result = {
  front : Xentry_core.Pareto.front;
  all_points : Xentry_core.Pareto.point list;
      (** every candidate, dominated ones included *)
  manifested : int;  (** manifested-fault records the coverage is over *)
  clean_runs : int;  (** fault-free runs the FP rate is over *)
}

val sweep :
  ?detector_version:int -> config -> detector:Xentry_core.Detector.t -> sweep_result
(** Run the measurement campaign and score the grid.  [detector] is
    the model whose knob variants are swept; [detector_version] stamps
    the emitted front's [source_version]. *)

val on_front : sweep_result -> Xentry_core.Pareto.point -> bool
(** [on_front r p]: [p] (one of [r.all_points]) is on the emitted
    front. *)

val to_json : config -> sweep_result -> Xentry_util.Json.t
(** JSON object, schema [xentry-optimize-v1]: the benchmark, the
    populations the scores are over, the front's source version, and
    every candidate point with its scores and an [on_front] flag. *)
