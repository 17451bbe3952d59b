(** Versioned, costed, swappable detector artifact.

    The lifecycle layer (streaming retraining, shadow-mode hot-swap,
    Pareto-driven ladders) needs more than a bare
    {!Transition_detector.t}: it needs to know {e which} detector is
    installed ([version], monotonic per serve instance), where it came
    from ([origin]), and how much evidence built it ([trained_on]).
    This record is the single detector currency across
    [Pipeline.Config], [Campaign.Config], the store codecs, and the
    cluster protocol. *)

type origin = Offline  (** trained from a fault-injection campaign *)
            | Streamed  (** retrained from mined serve telemetry *)

type t = {
  version : int;
  origin : origin;
  trained_on : int;  (** samples in the training corpus; 0 = unknown *)
  model : Transition_detector.t;
}

(** Cheap deterministic model rewrites used by the degradation ladder
    and the configuration optimizer to derive cost-reduced variants
    without retraining. *)
type knob =
  | Stock  (** the model as trained *)
  | Depth of int  (** truncate the tree to at most this many levels *)
  | Threshold of float
      (** veto only when P(incorrect | leaf) reaches this bound *)

val make :
  ?version:int ->
  ?origin:origin ->
  ?trained_on:int ->
  Transition_detector.t ->
  t
(** Defaults: version 1, [Offline], 0 samples.  Raises
    [Invalid_argument] on negative version or sample count. *)

val with_version : t -> int -> t
(** Raises [Invalid_argument] on a negative version. *)

val version : t -> int
val origin : t -> origin
val trained_on : t -> int
val model : t -> Transition_detector.t
val origin_name : origin -> string

val classify :
  t ->
  reason:Xentry_vmm.Exit_reason.t ->
  Xentry_machine.Pmu.snapshot ->
  Transition_detector.verdict * int
(** Delegates to the underlying model (verdict, comparisons). *)

val classify_features :
  t -> float array -> Transition_detector.verdict * int

val worst_case_comparisons : t -> int

val apply_knob : t -> knob -> t
(** [Stock] is the identity.  [Depth d] truncates the underlying tree
    ({!Xentry_mlearn.Tree.truncate}); [Threshold tau] re-tunes the veto
    probability.  Ensemble models expose no cheap rewrite, so non-stock
    knobs return the detector unchanged.  Raises [Invalid_argument] on
    [Depth d] with [d < 1] and on an out-of-range threshold. *)

val knob_name : knob -> string
val pp : Format.formatter -> t -> unit
