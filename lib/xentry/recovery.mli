(** False-positive recovery overhead model (paper §VI, Fig 11).

    The paper assumes a lightweight recovery that snapshots critical
    hypervisor data (VCPU/domain structures, VM exit reason) at every
    VM exit — measured at about 1,900 ns on the Xeon E5506 — and, on a
    positive detection (true or false), restores the snapshot and
    re-executes the hypervisor execution, roughly doubling its time.
    With the classifier's 0.7% false-positive rate, this estimates the
    overhead a false alarm imposes on fault-free runs.  The paper
    repeats the random selection of false-positive executions 100
    times per application. *)

type params = {
  copy_ns : float;  (** per-exit state copy (1,900 ns in the paper) *)
  false_positive_rate : float;  (** 0.7% from §III-B *)
  cpu_ghz : float;
  instructions_per_cycle : float;  (** to price a re-execution *)
}

val default_params : params

type series = { avg : float; min : float; max : float }

val overhead :
  params ->
  Xentry_workload.Profile.t ->
  mean_handler_instructions:float ->
  Xentry_util.Rng.t ->
  trials:int ->
  series
(** One trial replays one second of the recorded trace: every exit
    pays the copy; each exit is independently a false positive with
    the configured rate, paying a re-execution.  Returns the overhead
    fraction over [trials] repetitions (100 in the paper). *)

val fig11 : ?trials:int -> seed:int -> unit -> (string * series) list
(** Per benchmark recovery overhead with false positives, under
    {!default_params}. *)
