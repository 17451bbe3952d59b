(** The unified detection pipeline: one configuration record, one
    entry point.

    {!Config.t} names every knob once, {!verdict} is the single
    verdict-attribution function, and {!run} executes one request end
    to end: prepare, execute, drain RAS, verdict, retire.  [Campaign],
    the serving layer ([Xentry_serve]), the recovery campaign
    ([Xentry_recover]) and the detector lifecycle ([Xentry_lifecycle])
    all build on this module directly. *)

(** {1 Detection types} *)

type technique =
  | Hw_exception_detection
  | Sw_assertion
  | Vm_transition
  | Ras_report
      (** hypervisor poll of the CPU's RAS error-record bank found a
          logged (but otherwise silent) corrupted access *)

type detection = {
  hw_exceptions : bool;
  sw_assertions : bool;
  vm_transition : bool;
  ras_polling : bool;
      (** drain the RAS bank after each execution and count pending
          records as detections when no synchronous technique fired *)
}
(** Which of the detection techniques are armed. *)

val full_detection : detection

val runtime_only : detection
(** Fig 7's "runtime detection" series: exception filter + assertions,
    no transition detector. *)

val detection_disabled : detection
(** The unprotected baseline. *)

type verdict =
  | Clean
      (** execution completed and the transition detector (if enabled)
          accepted its signature *)
  | Detected of { technique : technique; latency : int option }
      (** [latency] = instructions from fault activation to detection,
          when a fault was injected and activated (Fig 10's metric) *)

val technique_name : technique -> string
val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Configuration} *)

module Config : sig
  type t = {
    detection : detection;  (** armed techniques *)
    detector : Detector.t option;
        (** versioned transition detector; [None] disarms the
            [vm_transition] technique even when enabled *)
    fuel : int;  (** watchdog budget per execution *)
  }

  val default : t
  (** Full detection, no detector, fuel 20_000. *)

  val make :
    ?detection:detection -> ?detector:Detector.t -> ?fuel:int -> unit -> t
end

(** {1 Entry points} *)

val verdict :
  Config.t ->
  ?ras:Xentry_ras.Ras.record list ->
  reason:Xentry_vmm.Exit_reason.t ->
  Xentry_machine.Cpu.run_result ->
  verdict
(** Interpret one hypervisor execution's outcome.

    - A hardware fault stop is a detection when
      [detection.hw_exceptions] is on and the exception is fatal in
      the filter context the execution runs under
      ({!Exception_filter.context_of_reason} of [reason]); a watchdog
      (out-of-fuel) stop counts as a hardware detection too.
    - An assertion-failure stop is a detection when
      [detection.sw_assertions] is on.
    - On VM entry, the transition detector classifies the PMU
      signature when [detection.vm_transition] is on and a detector is
      configured.
    - [ras] is the list drained from the host's RAS bank after the
      run ({!Xentry_vmm.Hypervisor.drain_ras}); when non-empty,
      [detection.ras_polling] is on and {e no other} technique
      claimed the run, the verdict is [Detected] with
      [technique = Ras_report] — the channel only counts faults the
      synchronous techniques missed. *)

val create_host : ?seed:int -> Config.t -> Xentry_vmm.Hypervisor.t
(** A host to run the config's requests on: {!Xentry_vmm.Hypervisor.create}
    with [seed], on the process's default engine
    ({!Xentry_machine.Cpu.set_default_engine}).  No field of the config
    changes the host. *)

type outcome = { result : Xentry_machine.Cpu.run_result; verdict : verdict }

val run :
  Config.t ->
  host:Xentry_vmm.Hypervisor.t ->
  ?prepare:bool ->
  ?retire:bool ->
  ?inject:Xentry_machine.Cpu.injection ->
  Xentry_vmm.Request.t ->
  outcome
(** Execute one request through the configured pipeline on [host]:
    arm assertions per [detection.sw_assertions], prepare the host
    (skip with [~prepare:false] when the caller already prepared it —
    [Hypervisor.prepare] is not idempotent), execute (optionally with
    an injected fault), drain the RAS bank, attribute a verdict, and
    retire with [~retire:true] (default false, matching the campaign
    engine's clone discipline where only the live host retires).
    Recovery is the caller's: see [Xentry_recover]. *)
