(** Fault-free performance overhead model (paper Fig 7).

    Xentry's fault-free cost per hypervisor execution is: programming
    the performance counters at VM exit, reading them at VM entry,
    traversing the decision tree, plus the inline software assertions.
    Composed with a workload's activation rate on the measurement host
    (Xeon E5506 at 2.13 GHz) this yields the application-visible
    overhead.  Absolute magnitudes are a calibrated model — the
    reproduction target is the Fig 7 shape: postmark worst (maximum
    near 11.7%), mcf/bzip2/freqmine/canneal under ~1%, runtime-only
    detection nearly free. *)

type params = {
  cpu_ghz : float;  (** 2.13 — Xeon E5506 *)
  pmu_program_cycles : int;  (** arm 4 counters at VM exit *)
  pmu_read_cycles : int;  (** read 4 counters at VM entry *)
  tree_comparison_cycles : int;  (** per decision-tree node *)
  assertion_cycles : int;  (** per executed assertion *)
  assertions_per_exit : float;  (** mean assertions on a handler path *)
}

val default_params : params

val per_exit_seconds :
  params -> Pipeline.detection -> tree_comparisons:int -> float
(** Detection time added to one hypervisor execution under a
    configuration (0 when everything is disabled). *)

val interference : Xentry_workload.Profile.t -> float
(** Per-benchmark cache/TLB interference multiplier applied to the
    per-exit detection cost: the paper's measured overheads on
    I/O-intensive workloads exceed the pure instruction cost, and the
    residual is attributed to microarchitectural contention. *)

type series = { avg : float; max : float }
(** Overhead fractions over repeated runs (Fig 7 reports both). *)

val overhead :
  params ->
  Pipeline.detection ->
  tree_comparisons:int ->
  Xentry_workload.Profile.t ->
  Xentry_util.Rng.t ->
  runs:int ->
  seconds_per_run:int ->
  series
(** Model the paper's measurement: [runs] executions of the benchmark
    (10 in the paper), each observing the physical host's activation
    rate for a window of seconds; overhead of a run = mean rate x
    per-exit cost. *)

val fig7 :
  tree_comparisons:int -> seed:int -> unit -> (string * series * series) list
(** Per benchmark: (name, runtime-detection-only overhead,
    runtime + VM transition overhead) — the two Fig 7 series, over 10
    runs each under {!default_params}. *)
