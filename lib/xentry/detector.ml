(* First-class detector artifact: a trained transition classifier plus
   the lifecycle metadata the serve tier needs to swap it live —
   a monotonic version, where it came from, and how much data built it.
   Everything downstream (Pipeline.Config, Campaign.Config, the store
   codecs, the cluster protocol) consumes this type; the bare
   Transition_detector.t is now just the model inside. *)

open Xentry_mlearn

type origin = Offline | Streamed

type t = {
  version : int;
  origin : origin;
  trained_on : int;
  model : Transition_detector.t;
}

(* A knob names a cheap, deterministic rewrite of the model — the
   degradation ladder and the configuration optimizer both use knobs
   to derive cost-reduced variants of the incumbent without retraining. *)
type knob = Stock | Depth of int | Threshold of float

let make ?(version = 1) ?(origin = Offline) ?(trained_on = 0) model =
  if version < 0 then invalid_arg "Detector.make: negative version";
  if trained_on < 0 then invalid_arg "Detector.make: negative trained_on";
  { version; origin; trained_on; model }

let with_version t version =
  if version < 0 then invalid_arg "Detector.with_version: negative version";
  { t with version }

let version t = t.version
let origin t = t.origin
let trained_on t = t.trained_on
let model t = t.model

let origin_name = function Offline -> "offline" | Streamed -> "streamed"

let classify t ~reason pmu = Transition_detector.classify t.model ~reason pmu

let classify_features t features =
  Transition_detector.classify_features t.model features

let worst_case_comparisons t =
  Transition_detector.worst_case_comparisons t.model

let knob_name = function
  | Stock -> "stock"
  | Depth d -> Printf.sprintf "depth=%d" d
  | Threshold tau -> Printf.sprintf "tau=%.2f" tau

(* Depth truncates the underlying tree; Threshold re-tunes the veto
   probability.  Ensembles expose no cheap rewrite, so non-stock knobs
   on them fall back to the stock model rather than guessing. *)
let apply_knob t knob =
  match (knob, Transition_detector.classifier t.model) with
  | Stock, _ -> t
  | _, Transition_detector.Ensemble _ -> t
  | Depth d, Transition_detector.Single_tree tree
  | Depth d, Transition_detector.Thresholded (tree, _) ->
      if d < 1 then invalid_arg "Detector.apply_knob: depth < 1";
      {
        t with
        model = Transition_detector.of_tree (Tree.truncate tree ~max_depth:d);
      }
  | Threshold tau, Transition_detector.Single_tree tree
  | Threshold tau, Transition_detector.Thresholded (tree, _) ->
      {
        t with
        model =
          Transition_detector.with_threshold tree
            ~min_incorrect_probability:tau;
      }

let pp ppf t =
  Format.fprintf ppf "detector v%d (%s, %d samples, depth<=%d)" t.version
    (origin_name t.origin) t.trained_on
    (worst_case_comparisons t)
