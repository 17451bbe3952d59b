(** The recovery campaign: checkpoint restore and micro-reboot vs.
    restart-everything, at fault-injection scale.

    Per injection the campaign prepares a request on the live host,
    captures the {!Microboot.context}, runs a golden clone fault-free
    and a detection clone with an injected fault.  Every detected fault
    is then recovered both ways from that one context:

    - {b checkpoint} (the paper's §VI sketch): {!Microboot.restore} and
      re-execute.  Identity is bit-exact over everything
      {!Xentry_faultinject.Classify.diffs} compares, hypervisor stack
      included.
    - {b micro-reboot} (ReHype): {!Microboot.reboot} and replay.
      Identity is judged over every guest-visible structure (the diffs
      minus the hypervisor-stack entry); carryover then drives both
      hosts through [follow_ups] further fault-free requests and
      reports any divergence that appears only later.

    Both are compared with the paper's restart-everything baseline,
    which recovers the hypervisor by destroying every domain with it,
    so each detected fault costs all guest state by construction.
    Undetected-but-manifested faults are reported separately — no
    recovery triggers without a verdict, which is the coverage story
    the detection pipeline owns. *)

type config = {
  seed : int;
  benchmark : Xentry_workload.Profile.benchmark;
  injections : int;
  follow_ups : int;
      (** fault-free requests run after each micro-reboot to expose
          corruption that survives an exact-looking recovery *)
  pipeline : Xentry_core.Pipeline.Config.t;
      (** detection/detector/engine/fuel knobs *)
}

val default_config : config
(** Seed 7, Mcf, 1000 injections, 2 follow-ups, default pipeline. *)

type fault_class =
  | Detected_hw
  | Detected_assertion
  | Detected_transition
  | Undetected_manifested
  | Masked

val class_name : fault_class -> string

type class_stats = {
  cls : fault_class;
  faults : int;
  checkpoint_recovered : int;
      (** restore + re-execution completed, bit-exact vs. golden *)
  recovered_exactly : int;
      (** micro-reboot replay completed, bit-exact vs. golden *)
  mismatches : int;  (** micro-reboot recoveries that were not *)
  carryover : int;
      (** micro-reboot recoveries that looked exact but diverged within
          [follow_ups] subsequent fault-free requests *)
}

type result = {
  injections : int;
  detected : int;
  undetected_manifested : int;
  masked : int;
  classes : class_stats list;  (** one entry per {!fault_class} *)
  checkpoint_work_recovered : int;
      (** in-flight requests completed bit-exactly after checkpoint
          restore *)
  micro_work_recovered : int;
      (** in-flight requests completed bit-exactly after micro-reboot *)
  micro_work_lost : int;
  micro_state_lost : int;
      (** mismatches + carryover: detected faults where micro-reboot
          failed to preserve guest state *)
  restart_work_lost : int;  (** = detected: restart drops the request *)
  restart_state_lost : int;  (** = detected: restart drops every domain *)
  mttf_improvement : float;
      (** restart guest-state losses per micro-reboot loss;
          [infinity] when micro-reboot lost nothing *)
  image_bytes : int;  (** boot image size (one-time cost) *)
  reboot_ns_mean : float;
  reboot_ns_p99 : float;
}

val run : config -> result

val pp : Format.formatter -> result -> unit

val to_json :
  benchmark:Xentry_workload.Profile.benchmark -> result -> Xentry_util.Json.t
(** JSON object, schema [xentry-recover-v2]: the [result] fields with
    [mttf_improvement] [null] when infinite, and [classes] as an array
    of per-class objects. *)
