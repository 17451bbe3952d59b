(** The streaming request engine: Xentry's first always-on,
    latency-bound execution mode.

    A service run multiplexes [streams] guest workload streams
    ({!Xentry_workload.Stream} over a benchmark {!Xentry_workload.Profile})
    across [jobs] worker domains, each owning one hypervisor for the
    whole service lifetime.  Requests arrive at an offered [rate]
    (optionally with a burst window), land in bounded per-stream
    ingress queues ({!Bounded_queue}), and are executed through
    {!Xentry_core.Pipeline.run} under the rung the degradation
    {!Ladder} currently prescribes (detection set + detector knob).

    Backpressure is explicit and counted per cause: a full queue
    sheds at admission, an expired deadline sheds at dequeue, and
    shutdown sheds the backlog.  The producer ticks every {!tick_s},
    feeding aggregate queue occupancy to the ladder; every admission,
    shed, completion, transition and latency is mirrored into
    {!Xentry_util.Telemetry} ([serve.*]).

    Accounting invariants (asserted by the serve-smoke test):
    [offered = admitted + shed_queue_full] and
    [admitted = completed + shed_deadline + shed_draining].

    Failover: under a fault [storm] (injected bit flips, paper §V-B) a
    worker whose pipeline trips a verdict recovers per the configured
    {!recovery_policy}, through the serving {!Step}.  [Microboot]
    rebuilds only the hypervisor-private scratch from a boot-time
    image ({!Xentry_recover.Microboot}) and replays the in-flight
    request on the recovered host; [Restart] boots a whole new
    hypervisor (the baseline, losing all accumulated guest state).
    During the recovery window the worker's home streams are
    re-assigned to its neighbour so their queues keep draining.
    Either way the in-flight request completes exactly once — the
    conservation invariants above hold verbatim under fault storms.

    Detector lifecycle (when [retrain] is configured): every execution
    that reaches VM entry feeds a bounded corpus miner
    ({!Xentry_lifecycle.Miner}); a manager domain periodically trains
    a candidate detector from the mined corpus
    ({!Xentry_lifecycle.Retrainer}, monotonic version bump, optional
    artifact persistence), runs it in shadow mode
    ({!Xentry_lifecycle.Shadow} — the candidate scores every request
    but never vetoes), and atomically installs it as the service-wide
    incumbent once its live coverage/false-positive estimates beat the
    incumbent's over [shadow_window] requests.  Workers pick a swap up
    at their next dequeue — a request executes under exactly one
    detector version end to end, so the conservation invariants hold
    across swaps. *)

type burst = {
  burst_start : float;  (** seconds after service start *)
  burst_end : float;
  burst_factor : float;  (** offered-rate multiplier inside the window *)
}

type storm = {
  storm_start : float;  (** seconds after service start *)
  storm_end : float;
  storm_prob : float;  (** per-request injection probability, 0..1 *)
}

type recovery_policy =
  | Keep_serving
      (** record the verdict and keep the host (pre-recovery behavior) *)
  | Microboot  (** ReHype-style micro-reboot + in-place replay *)
  | Restart  (** restart-everything baseline: new host, guest state lost *)

val recovery_policy_name : recovery_policy -> string

type retrain = {
  retrain_interval_s : float;  (** manager wake-up cadence *)
  shadow_window : int;  (** scored requests before the gate decides *)
  artifact_dir : string option;
      (** persist each candidate as [detector-v%04d.xart] when set
          (directory is created if missing) *)
}
(** A candidate trains once the miner holds 8 samples of each class;
    the miner keeps at most 512 per class. *)

val default_retrain : retrain
(** 0.25 s interval, window 64, no persistence. *)

type config = {
  pipeline : Xentry_core.Pipeline.Config.t;
      (** detection set (the ladder's top rung), detector, fuel *)
  benchmark : Xentry_workload.Profile.benchmark;
  mode : Xentry_workload.Profile.virt_mode;
  streams : int;  (** workload streams = ingress queues *)
  rate : float;  (** aggregate offered requests/second *)
  burst : burst option;
  storm : storm option;  (** fault-injection window (none = no faults) *)
  recovery : recovery_policy;
  retrain : retrain option;  (** detector lifecycle (none = static) *)
  deadline_us : int option;  (** per-request queueing deadline *)
  duration_s : float;
  jobs : int;  (** worker domains (the producer is separate) *)
  queue_capacity : int;  (** per-stream ingress bound *)
  ladder : Ladder.config;
  seed : int;
  max_samples : int;  (** latency samples retained across all workers *)
}

val make :
  ?pipeline:Xentry_core.Pipeline.Config.t ->
  ?mode:Xentry_workload.Profile.virt_mode ->
  ?streams:int ->
  ?burst:burst ->
  ?storm:storm ->
  ?recovery:recovery_policy ->
  ?retrain:retrain ->
  ?deadline_us:int ->
  ?duration_s:float ->
  ?jobs:int ->
  ?queue_capacity:int ->
  ?ladder:Ladder.config ->
  ?seed:int ->
  ?max_samples:int ->
  benchmark:Xentry_workload.Profile.benchmark ->
  rate:float ->
  unit ->
  config
(** Defaults: default pipeline, PV, 8 streams, no burst, no storm,
    [Keep_serving], no retraining, no deadline, 2 s, 2 jobs, capacity
    64, default ladder, seed 42, 200k samples.  Raises
    [Invalid_argument] on nonsensical values. *)

val tick_s : float
(** The producer's tick, 2 ms: arrivals and the ladder's occupancy
    observation happen once per tick. *)

(** {1 The serving step}

    What every server serves a request through: a host, the detection
    run, and on a verdict the recovery.  The service's workers, the
    cluster's executors and {!calibrate} all call it. *)
module Step : sig
  type t

  val create : recovery_policy -> seed:int -> t
  (** A host booted from [seed]; under [Microboot] also its boot image
      ({!Xentry_recover.Microboot.capture_image}). *)

  val host : t -> Xentry_vmm.Hypervisor.t
  (** The host the next request runs on. *)

  val detect :
    t ->
    Xentry_core.Pipeline.Config.t ->
    ?inject:Xentry_machine.Cpu.injection ->
    Xentry_vmm.Request.t ->
    Xentry_core.Pipeline.outcome
  (** The detection run: prepare, capture the micro-reboot context
      under [Microboot], execute (with the fault [inject] when given),
      and retire.  Under [Keep_serving] the run always retires; under
      [Microboot] and [Restart] only a [Clean] one does, and a
      detected one waits for {!recover}. *)

  val recover :
    t ->
    Xentry_core.Pipeline.Config.t ->
    Xentry_vmm.Request.t ->
    Xentry_core.Pipeline.outcome
  (** Replace the host after a verdict on the request of the last
      {!detect}, and replay that request on the new host exactly once,
      with retire.  Under [Microboot] the new host is the micro-reboot
      of the captured context; otherwise a whole new host boots, from
      a seed derived from the step's seed and its restart count. *)
end

val arrivals :
  config ->
  elapsed:float ->
  dt:float ->
  (int -> Xentry_workload.Stream.t -> unit) ->
  unit
(** The open-loop arrival clock of this service and of the cluster's
    front tier: [let tick = arrivals cfg] builds one workload stream
    per [streams] (stream [i] seeded from [Rng.derive seed i]), and
    [tick ~elapsed ~dt f] calls [f s stream] once per arrival due in a
    tick of [dt] seconds starting [elapsed] seconds into the run —
    [rate] (times [burst_factor] inside the burst window) times [dt],
    plus the fraction carried over from earlier ticks — drawing the
    streams round-robin.  Each producer keeps its own tick cadence,
    admission rule and stream ownership, and generates a request
    ({!Xentry_workload.Stream.next_request}) only for an arrival it
    admits. *)

type swap = {
  swap_t_s : float;  (** seconds since service start *)
  swap_version : int;  (** the promoted candidate's version *)
  swap_stats : Xentry_lifecycle.Shadow.stats;
      (** the gate evidence the promotion was decided on *)
}

type summary = {
  wall_s : float;  (** measured service wall clock (includes drain) *)
  offered : int;
  admitted : int;
  completed : int;
  detected : int;
      (** pipeline verdicts, including detections whose request then
          completed cleanly via recovery replay *)
  injected : int;  (** storm bit flips actually injected *)
  recoveries : int;  (** micro-reboots or restarts performed *)
  recovery_us : float array;
      (** per-recovery reboot-to-replay-complete durations (unsorted) *)
  recovery_total_s : float;
  availability : float;
      (** {!availability_of} of the recovery total: the fraction of
          serving capacity that stayed up, always within [0, 1] *)
  shed_queue_full : int;
  shed_deadline : int;
  shed_draining : int;
  throughput_rps : float;  (** completed / wall_s (0 on a zero wall) *)
  latency_us : float array;
      (** enqueue-to-completion latencies of completed requests
          (unsorted; capped at [max_samples]) *)
  transitions : (float * int) list;
      (** ladder transitions: (seconds since start, new rung index) *)
  time_at_rung : float array;  (** seconds, indexed by rung *)
  rung_names : string array;  (** the ladder's rung names, in order *)
  final_rung : int;
  deepest_rung : int;
  peak_occupancy : float;  (** max aggregate queue occupancy, 0..1 *)
  mined : int;  (** samples accepted into the lifecycle reservoirs *)
  mine_dropped : int;  (** offers dropped on reservoir-lock contention *)
  retrained : int;  (** candidate detectors trained *)
  shadow_rejected : int;  (** candidates the shadow gate turned away *)
  swaps : swap list;  (** incumbent promotions, oldest first *)
  final_detector_version : int;  (** -1 when no detector is configured *)
}

val shed_total : summary -> int
val shed_fraction : summary -> float

val availability_of :
  recovery_total_s:float -> wall_s:float -> jobs:int -> float
(** [1 - recovery_total_s / (wall_s * jobs)], clamped to [0, 1]; a
    non-positive wall or job count reads as fully available (nothing
    ran, nothing was lost). *)

val throughput_of : completed:int -> wall_s:float -> float
(** [completed / wall_s], 0 when the wall is non-positive. *)

val latency_quantile : summary -> float -> float
(** Latency quantile in microseconds (0 when nothing completed). *)

val recovery_quantile : summary -> float -> float
(** Recovery-duration quantile in microseconds (0 when none). *)

val run : config -> summary
(** Run the service to completion (duration + drain) and summarize. *)

val calibrate : config -> float
(** Measured single-worker service rate (requests/second) under the
    config's pipeline at full detection, over 0.25 s of [Keep_serving]
    steps — the capacity unit callers use to pick overload [rate]s. *)

val summary_json : config -> summary -> Xentry_util.Json.t
(** Self-contained JSON object (schema [xentry-serve-summary-v2]):
    config echo plus every summary metric, latencies as
    mean/p50/p90/p99/max, rung names for ladder fields, and a
    [lifecycle] object with mining/retraining/swap counts.  Rung names
    can come from a Pareto front loaded from a file; the emitter
    escapes them. *)

val pp_summary : Format.formatter -> summary -> unit
