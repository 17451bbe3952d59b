(** Binary codecs for the expensive products of the pipeline.

    One codec per artifact kind: campaign outcome records, versioned
    detectors and the optimizer's Pareto fronts.
    Each codec carries its artifact [kind] tag and a [version];
    {!Artifact} frames the payload with a magic, the kind, the
    version, a length and a CRC-32, so version skew and corruption
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

val versioned_detector : Xentry_core.Detector.t t
(** The detector artifact: version, origin, corpus size and the
    model.  Kind ["detector"], frame version 2: a version-1 file (the
    bare model that pre-lifecycle [train --save] wrote) fails to load
    with [Version_skew] instead of misparsing. *)

val pareto : Xentry_core.Pareto.front t
(** A coverage-vs-overhead Pareto front from the configuration
    optimizer — what [optimize --save] writes and [serve --rungs]
    reloads. *)

(** {2 Building blocks}

    Exposed for the journal and for tests that compose or fuzz
    encodings directly. *)

val write_reason : Buffer.t -> Xentry_vmm.Exit_reason.t -> unit
(** An exit reason as its dense id, a little-endian u16. *)

val read_reason : Wire.reader -> Xentry_vmm.Exit_reason.t

val write_detection_set : Buffer.t -> Xentry_core.Pipeline.detection -> unit
(** The four technique switches as bools, in declaration order. *)

val read_detection_set : Wire.reader -> Xentry_core.Pipeline.detection
val write_record : Buffer.t -> Xentry_faultinject.Outcome.record -> unit
val read_record : Wire.reader -> Xentry_faultinject.Outcome.record
val write_tree : Buffer.t -> Xentry_mlearn.Tree.t -> unit
val read_tree : Wire.reader -> Xentry_mlearn.Tree.t
val write_detector : Buffer.t -> Xentry_core.Transition_detector.t -> unit
