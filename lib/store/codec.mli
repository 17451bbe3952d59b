(** Binary codecs for the expensive products of the pipeline.

    One codec per artifact kind: campaign outcome records, datasets,
    trees, forests, deployed detectors, training corpora and the full
    trained pipeline.  Each codec carries its artifact [kind] tag and a
    [version]; {!Artifact} frames the payload with a magic, the kind,
    the version, a length and a CRC-32, so version skew and corruption
    surface as typed load errors rather than exceptions.

    Encodings are explicit field-by-field writes over {!Wire} — sum
    types become validated tag bytes, floats travel as IEEE bits, and
    enumerations (registers, exit reasons) travel as their stable
    dense ids — so every value round-trips bit-identically and a
    reader rejects any byte it does not understand. *)

type 'a t = {
  kind : string;  (** artifact kind tag, e.g. ["records"] *)
  version : int;  (** schema version of this codec *)
  write : Buffer.t -> 'a -> unit;
  read : Wire.reader -> 'a;
      (** raises {!Wire.Corrupt} on malformed input (callers go
          through {!Artifact.load}, which returns typed errors) *)
}

val outcome_records : Xentry_faultinject.Outcome.record list t
(** A batch of campaign records (the journal's shard payload). *)

val dataset : Xentry_mlearn.Dataset.t t
val tree : Xentry_mlearn.Tree.t t
val forest : Xentry_mlearn.Forest.t t

val detector : Xentry_core.Transition_detector.t t
(** The legacy bare classifier: single tree, thresholded tree or
    ensemble — what pre-lifecycle [train --save] artifacts hold.
    Loaders should prefer {!versioned_detector} and fall back to this
    plus [Detector.v0] on [Version_skew { found = 1; _ }]. *)

val versioned_detector : Xentry_core.Detector.t t
(** The lifecycle detector artifact: version, origin, corpus size and
    the model.  Same ["detector"] kind as {!detector} but frame
    version 2, so an old reader meeting a lifecycle artifact reports
    [Version_skew] instead of misparsing. *)

val pareto : Xentry_core.Pareto.front t
(** A coverage-vs-overhead Pareto front from the configuration
    optimizer — what [optimize --save] writes and [serve --rungs]
    reloads. *)

val corpus : Xentry_faultinject.Training.corpus t

val trained : Xentry_faultinject.Training.trained t
(** The full training-pipeline result: both corpora, both trees and
    their evaluations. *)

(** {2 Building blocks}

    Exposed for the journal and for tests that compose or fuzz
    encodings directly. *)

val write_record : Buffer.t -> Xentry_faultinject.Outcome.record -> unit
val read_record : Wire.reader -> Xentry_faultinject.Outcome.record
val write_tree : Buffer.t -> Xentry_mlearn.Tree.t -> unit
val read_tree : Wire.reader -> Xentry_mlearn.Tree.t
val write_detector : Buffer.t -> Xentry_core.Transition_detector.t -> unit
