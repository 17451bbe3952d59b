(** The serve front tier: one producer process fanning a request
    stream out to worker processes over the cluster protocol.

    The front owns everything the single-process engine's producer
    owns — the workload streams and the offered-rate clock of
    {!Xentry_serve.Server.arrivals}, admission control — but executes
    nothing itself: each admitted request is framed and sent to the worker
    that the consistent-hash {!Ring} assigns its stream, bounded by a
    per-worker in-flight window (the cluster analogue of the ingress
    queue bound).  Responses stream back asynchronously and are
    matched by sequence number for latency accounting.

    {b Worker loss.}  A worker's death (EOF or socket error) removes
    it from the ring — only its streams remap, counted in
    [streams_remapped] — and every request in flight to it is shed as
    [shed_worker_lost].  Traffic to the survivors is undisturbed; a
    front with an empty ring sheds every arrival rather than
    blocking.

    {b Drain.}  After the duration the front sends [Drain]; workers
    flush their queues (executing nothing more — queued items come
    back flagged [shed], counted as [shed_draining]), dump telemetry
    and say [Bye].  A [Bye], EOF or socket error now retires a worker
    quietly, its remaining in-flight requests counted as
    [shed_draining].  A 15 s grace period bounds the wait on a wedged
    worker; one still alive after it is counted lost. *)

type summary = {
  wall_s : float;
  offered : int;
  sent : int;  (** admitted into some worker's in-flight window *)
  completed : int;
  detected : int;
  shed_window_full : int;  (** target worker's window at capacity *)
  shed_worker_lost : int;
      (** in flight to a dead worker, or arrived on an empty ring *)
  shed_draining : int;  (** flushed unexecuted at shutdown *)
  throughput_rps : float;  (** completed / wall_s *)
  latency_us : float array;
      (** send-to-response latencies of completed requests (unsorted,
          capped at the config's [max_samples]) *)
  workers_lost : int;
  streams_remapped : int;  (** streams that changed owner, summed over deaths *)
  worker_telemetry : string list;  (** final telemetry dump per worker *)
  detector_pushes : int;  (** hot-swap broadcasts sent (per fleet) *)
  detector_acks : (int * int) list;
      (** (worker index, highest detector version it acknowledged
          installing; -1 = none), in fleet order — equal versions
          across live workers = the fleet converged *)
}

val latency_quantile : summary -> float -> float
(** Latency quantile in microseconds (0 when nothing completed), by
    {!Xentry_util.Stats.quantile} — the definition
    {!Xentry_serve.Server.latency_quantile} uses, so single-process
    and cluster serve report percentiles alike. *)

val summary_json : workers:int -> summary -> Xentry_util.Json.t
(** JSON object, schema [xentry-cluster-serve-v1]: the fleet size,
    the summary's counters, throughput, latency p50/p90/p99, and the
    worker-loss tallies. *)

val run :
  ?on_tick:(elapsed:float -> unit) ->
  ?push:(elapsed:float -> Xentry_core.Detector.t option) ->
  listen:Protocol.addr ->
  workers:int ->
  Xentry_serve.Server.config ->
  summary
(** Listen, wait for [workers] workers to connect and greet, arm each
    with a [Serve_spec] derived from the config's pipeline, then drive
    the load for [duration_s] and drain.  [queue_capacity] becomes the
    per-worker in-flight window; [jobs] is ignored (each worker
    announced its own domain count).  [on_tick] fires once per
    producer tick — the bench's worker-kill hook.  [push] is polled
    once per tick; returning [Some det] broadcasts a [Detector_push]
    to every live worker (the caller runs the shadow gate — the front
    only distributes already-published versions; workers answer with
    [Detector_ack], surfaced in [detector_acks]).  Raises [Failure]
    when fewer than [workers] workers arrive within the setup grace
    period. *)

val append_worker_telemetry : path:string -> string list -> unit
(** Append each worker's telemetry dump as one JSON line
    [{"type":"cluster-worker","worker":i,"telemetry":…}] to [path] —
    the per-worker tail of the front's own JSONL export. *)
