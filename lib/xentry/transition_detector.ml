open Xentry_mlearn

type classifier =
  | Single_tree of Tree.t
  | Ensemble of Forest.t
  | Thresholded of Tree.t * float

type t = { classifier : classifier }

type verdict = Correct | Incorrect

let create classifier = { classifier }
let of_tree tree = create (Single_tree tree)

let with_threshold tree ~min_incorrect_probability =
  if min_incorrect_probability < 0.0 || min_incorrect_probability > 1.0 then
    invalid_arg "Transition_detector.with_threshold: probability out of [0, 1]";
  create (Thresholded (tree, min_incorrect_probability))

let verdict_of_label l =
  if l = Features.label_incorrect then Incorrect else Correct

(* Telemetry: feature-comparison counts per classification — the
   per-VM-entry work the detector adds (the paper's overhead knob). *)
let tm_comparisons = Xentry_util.Telemetry.histogram "detector.comparisons"

let classify_features_raw t features =
  match t.classifier with
  | Single_tree tree ->
      let label, _, comparisons = Tree.predict_detail tree features in
      (verdict_of_label label, comparisons)
  | Thresholded (tree, tau) ->
      let label, confidence, comparisons = Tree.predict_detail tree features in
      (* Leaf class frequencies give P(incorrect | leaf). *)
      let p_incorrect =
        if label = Features.label_incorrect then confidence
        else 1.0 -. confidence
      in
      ((if p_incorrect >= tau then Incorrect else Correct), comparisons)
  | Ensemble forest ->
      let label = Forest.predict forest features in
      (verdict_of_label label, Forest.total_comparisons forest features)

let classify_features t features =
  let ((_, comparisons) as r) = classify_features_raw t features in
  if !Xentry_util.Telemetry.enabled_ref then
    Xentry_util.Telemetry.observe tm_comparisons comparisons;
  r

let classify t ~reason snapshot =
  classify_features t (Features.of_run ~reason snapshot)

let worst_case_comparisons t =
  match t.classifier with
  | Single_tree tree | Thresholded (tree, _) -> Tree.max_comparisons tree
  | Ensemble forest ->
      Array.fold_left
        (fun acc tree -> acc + Tree.max_comparisons tree)
        0 (Forest.trees forest)

let classifier t = t.classifier

let pp_verdict ppf = function
  | Correct -> Format.pp_print_string ppf "correct"
  | Incorrect -> Format.pp_print_string ppf "incorrect"
