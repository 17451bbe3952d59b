(** Campaign aggregation: the numbers behind Figs 8–10 and Table II. *)

type technique_counts = {
  hw_exception : int;
  sw_assertion : int;
  vm_transition : int;
  ras_report : int;  (** RAS error-record channel (hypervisor poll) *)
  undetected : int;
}

type summary = {
  total_injections : int;
  activated : int;
  manifested : int;  (** failures or data corruptions (paper: ~17,700/30,000) *)
  techniques : technique_counts;  (** over manifested faults (Fig 8) *)
  coverage : float;  (** detected / manifested *)
  long_latency_by_consequence :
    (Outcome.long_kind * int (* detected *) * int (* undetected *)) list;
      (** Fig 9's four groups *)
  latencies_by_technique :
    (Xentry_core.Pipeline.technique * int array) list;
      (** detection latencies in instructions, per technique (Fig 10) *)
  undetected_breakdown : (Outcome.undetected_class * int) list;  (** Table II *)
}

val summarize : Outcome.record list -> summary

val coverage_of : technique_counts -> float

val technique_percentages : summary -> (string * float) list
(** Fig 8's stack: per-technique share of manifested faults plus the
    undetected remainder, in percent. *)

val undetected_percentages : summary -> (string * float) list
(** Table II rows, percent of undetected faults. *)

val latency_fraction_below : summary -> Xentry_core.Pipeline.technique -> int -> float
(** Fraction of a technique's detections with latency below the given
    instruction count (e.g. the paper's "95% within 700"). *)

val by_class : Outcome.record list -> (Fault.cls * summary) list
(** Group records by fault class and summarize each — the per-class
    coverage/latency rows the CLI and bench tables print.  Classes in
    {!Fault.all_classes} order; absent classes omitted. *)

val pp : Format.formatter -> summary -> unit
