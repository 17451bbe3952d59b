open Xentry_vmm
open Xentry_core
module Profile = Xentry_workload.Profile
module Stream = Xentry_workload.Stream
module Fault = Xentry_faultinject.Fault
module Mb = Xentry_recover.Microboot
module Cpu = Xentry_machine.Cpu
module Rng = Xentry_util.Rng
module Tm = Xentry_util.Telemetry
module Json = Xentry_util.Json
module Stats = Xentry_util.Stats
module Miner = Xentry_lifecycle.Miner
module Shadow = Xentry_lifecycle.Shadow
module Retrainer = Xentry_lifecycle.Retrainer

(* --- configuration -------------------------------------------------- *)

type burst = { burst_start : float; burst_end : float; burst_factor : float }
type storm = { storm_start : float; storm_end : float; storm_prob : float }
type recovery_policy = Keep_serving | Microboot | Restart

let recovery_policy_name = function
  | Keep_serving -> "keep_serving"
  | Microboot -> "microboot"
  | Restart -> "restart"

type retrain = {
  retrain_interval_s : float;
  shadow_window : int;
  artifact_dir : string option;
}

let default_retrain =
  { retrain_interval_s = 0.25; shadow_window = 64; artifact_dir = None }

(* Per-class samples a corpus needs before a candidate trains, and the
   miner's per-class reservoir bound. *)
let min_corpus = 8
let reservoir_capacity = 512

type config = {
  pipeline : Pipeline.Config.t;
  benchmark : Profile.benchmark;
  mode : Profile.virt_mode;
  streams : int;
  rate : float;
  burst : burst option;
  storm : storm option;
  recovery : recovery_policy;
  retrain : retrain option;
  deadline_us : int option;
  duration_s : float;
  jobs : int;
  queue_capacity : int;
  ladder : Ladder.config;
  seed : int;
  max_samples : int;
}

let make ?(pipeline = Pipeline.Config.default) ?(mode = Profile.PV)
    ?(streams = 8) ?burst ?storm ?(recovery = Keep_serving) ?retrain
    ?deadline_us ?(duration_s = 2.0) ?(jobs = 2) ?(queue_capacity = 64)
    ?(ladder = Ladder.default_config) ?(seed = 42)
    ?(max_samples = 200_000) ~benchmark ~rate () =
  let cfg =
    {
      pipeline;
      benchmark;
      mode;
      streams;
      rate;
      burst;
      storm;
      recovery;
      retrain;
      deadline_us;
      duration_s;
      jobs;
      queue_capacity;
      ladder;
      seed;
      max_samples;
    }
  in
  if
    not
      (streams >= 1 && jobs >= 1 && rate > 0. && duration_s > 0.
     && queue_capacity >= 1 && max_samples >= 1
     && (match deadline_us with Some d -> d >= 1 | None -> true)
     && (match retrain with
        | Some r -> r.retrain_interval_s > 0. && r.shadow_window >= 1
        | None -> true)
     &&
     match storm with
     | Some s ->
         s.storm_start >= 0.
         && s.storm_end > s.storm_start
         && s.storm_prob > 0. && s.storm_prob <= 1.
     | None -> true)
  then invalid_arg "Server.make: invalid configuration";
  cfg

let tick_s = 0.002

(* --- telemetry ------------------------------------------------------ *)

let tm_offered = Tm.counter "serve.offered"
let tm_admitted = Tm.counter "serve.admitted"
let tm_completed = Tm.counter "serve.completed"
let tm_detected = Tm.counter "serve.detected"
let tm_shed_full = Tm.counter "serve.shed.queue_full"
let tm_shed_deadline = Tm.counter "serve.shed.deadline_expired"
let tm_shed_draining = Tm.counter "serve.shed.draining"
let tm_degraded = Tm.counter "serve.degraded"
let tm_recovered = Tm.counter "serve.recovered"
let tm_injected = Tm.counter "serve.faults.injected"
let tm_microboots = Tm.counter "serve.microboots"
let tm_restarts = Tm.counter "serve.restarts"
let tm_retrained = Tm.counter "serve.lifecycle.retrained"
let tm_swapped = Tm.counter "serve.lifecycle.swapped"
let tm_latency = Tm.histogram "serve.latency_us"
let tm_level = Tm.histogram "serve.degraded_level"
let tm_recovery = Tm.histogram "serve.recovery_us"

(* --- the serving step ----------------------------------------------- *)

module Step = struct
  type t = {
    policy : recovery_policy;
    seed : int;
    mutable host : Hypervisor.t;
    image : Mb.image option;
    mutable ctx : Mb.context option;
    mutable restarts : int;
  }

  let create policy ~seed =
    let host = Hypervisor.create ~seed () in
    (* The micro-reboot boot image: hypervisor-private scratch captured
       from the freshly booted host, before any request dirties it. *)
    let image =
      if policy = Microboot then Some (Mb.capture_image host) else None
    in
    { policy; seed; host; image; ctx = None; restarts = 0 }

  let host t = t.host

  let detect t pcfg ?inject req =
    match t.policy with
    | Keep_serving -> Pipeline.run pcfg ~host:t.host ?inject ~retire:true req
    | Microboot | Restart ->
        (* Stage by hand so the micro-reboot context is captured
           between staging and execution — exactly the state a replay
           must resume from. *)
        Hypervisor.prepare t.host req;
        if t.policy = Microboot then t.ctx <- Some (Mb.capture t.host req);
        let out = Pipeline.run pcfg ~host:t.host ~prepare:false ?inject req in
        (match out.Pipeline.verdict with
        | Pipeline.Clean -> Hypervisor.retire t.host req
        | Pipeline.Detected _ -> ());
        out

  let recover t pcfg req =
    match (t.image, t.ctx) with
    | Some image, Some ctx ->
        (* [reboot] already restaged the request on the fresh host. *)
        t.host <- Mb.reboot image ctx;
        Pipeline.run pcfg ~host:t.host ~prepare:false ~retire:true req
    | _ ->
        (* Restart-everything baseline: a whole new hypervisor, and
           with it every guest's accumulated state. *)
        t.restarts <- t.restarts + 1;
        t.host <- Hypervisor.create ~seed:(Rng.derive t.seed t.restarts) ();
        Pipeline.run pcfg ~host:t.host ~retire:true req
end

(* --- arrivals ------------------------------------------------------- *)

let arrivals (cfg : config) =
  let profile = Profile.get cfg.benchmark in
  let streams =
    Array.init cfg.streams (fun i ->
        Stream.create profile cfg.mode (Rng.create (Rng.derive cfg.seed i)))
  in
  let carry = ref 0. and next = ref 0 in
  fun ~elapsed ~dt f ->
    let rate =
      match cfg.burst with
      | Some b when elapsed >= b.burst_start && elapsed < b.burst_end ->
          cfg.rate *. b.burst_factor
      | _ -> cfg.rate
    in
    (* Carrying the fractional arrival across ticks makes the offered
       load integrate to rate * duration regardless of tick jitter. *)
    carry := !carry +. (rate *. dt);
    let n = int_of_float !carry in
    carry := !carry -. float_of_int n;
    for _ = 1 to n do
      let s = !next mod cfg.streams in
      incr next;
      f s streams.(s)
    done

(* --- the engine ----------------------------------------------------- *)

type item = { it_req : Request.t; it_enqueued : float }

type tally = {
  mutable t_completed : int;
  mutable t_detected : int;
  mutable t_injected : int;
  mutable t_recoveries : int;
  mutable t_recovery_s : float; (* total wall time spent recovering *)
  mutable t_recovery_us : float list; (* per-recovery durations *)
  mutable t_shed_deadline : int;
  mutable t_shed_draining : int;
  mutable t_latencies : float list; (* seconds, newest first, bounded *)
  mutable t_n_latencies : int;
}

type swap = {
  swap_t_s : float;  (* seconds since service start *)
  swap_version : int;
  swap_stats : Shadow.stats;
}

type summary = {
  wall_s : float;
  offered : int;
  admitted : int;
  completed : int;
  detected : int;
  injected : int;
  recoveries : int;
  recovery_us : float array; (* per-recovery reboot+replay durations *)
  recovery_total_s : float;
  availability : float;
  shed_queue_full : int;
  shed_deadline : int;
  shed_draining : int;
  throughput_rps : float;
  latency_us : float array; (* completed-request latencies, unsorted *)
  transitions : (float * int) list; (* (seconds since start, new rung) *)
  time_at_rung : float array; (* seconds, indexed by rung *)
  rung_names : string array;
  final_rung : int;
  deepest_rung : int;
  peak_occupancy : float;
  mined : int; (* samples accepted into the lifecycle reservoirs *)
  mine_dropped : int; (* offers dropped on reservoir-lock contention *)
  retrained : int; (* candidate detectors trained *)
  shadow_rejected : int; (* candidates the shadow gate turned away *)
  swaps : swap list; (* promotions, oldest first *)
  final_detector_version : int; (* -1 when no detector is configured *)
}

let shed_total s = s.shed_queue_full + s.shed_deadline + s.shed_draining

let shed_fraction s =
  if s.offered = 0 then 0. else float_of_int (shed_total s) /. float_of_int s.offered

(* Worker-seconds lost to recovery over worker-seconds of service.  A
   service that never ran lost nothing, so a zero (or negative: clock
   steps) wall reads as fully available, and rounding noise in the
   recovery total cannot push the ratio outside [0, 1]. *)
let availability_of ~recovery_total_s ~wall_s ~jobs =
  if wall_s <= 0. || jobs <= 0 then 1.
  else
    Float.min 1.
      (Float.max 0.
         (1. -. (recovery_total_s /. (wall_s *. float_of_int jobs))))

let throughput_of ~completed ~wall_s =
  if wall_s <= 0. then 0. else float_of_int completed /. wall_s

let latency_quantile s q =
  if Array.length s.latency_us = 0 then 0.
  else Stats.quantile s.latency_us q

let recovery_quantile s q =
  if Array.length s.recovery_us = 0 then 0.
  else Stats.quantile s.recovery_us q

(* Monotonic: deadlines and the duration budget must not move when NTP
   steps the wall clock mid-run. *)
let now () = Xentry_util.Clock.monotonic ()

(* Lifecycle plumbing shared by the workers and the retrain manager.
   [incumbent] is the versioned detector the whole service currently
   trusts; a candidate lives in [shadow] until the gate promotes it. *)
type lifecycle = {
  lc_miner : Miner.t;
  lc_shadow : Shadow.t option Atomic.t;
}

(* One worker: owns a hypervisor for the service lifetime and polls
   the queues of the streams it currently owns.  Stream i starts as
   worker [i mod jobs]'s; ownership is dynamic only during a recovery
   window, when the rebooting worker hands its home streams to its
   neighbour so their queues keep draining while it is down.  The
   queue itself is mutex-protected, so the brief overlap at the
   hand-off edges is safe; per-stream order still holds because at any
   instant at most one worker is actively sweeping a given stream. *)
let worker_loop (cfg : config) queues ~t0 ~draining ~rung_cell ~incumbent
    ~lifecycle ~owners w =
  let step =
    Step.create cfg.recovery ~seed:(Rng.derive cfg.seed (0x5E12 + w))
  in
  let fault_rng = Rng.create (Rng.derive cfg.seed (0xFA17 + w)) in
  (* Adaptive injection window: faults land inside the dynamic
     instruction count of recent requests, like the campaign tiers. *)
  let last_steps = ref 256 in
  let neighbour = (w + 1) mod cfg.jobs in
  (* Per-(rung, detector version) pipeline configs, built lazily: a
     hot-swap invalidates nothing, it just starts hitting new cache
     keys, so a request executes under exactly one (detection set,
     detector version) pair end to end. *)
  let config_cache : (int * int, Pipeline.Config.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let config_for rung_idx =
    let det = Atomic.get incumbent in
    let ver = match det with None -> -1 | Some d -> Detector.version d in
    match Hashtbl.find_opt config_cache (rung_idx, ver) with
    | Some c -> c
    | None ->
        let r = cfg.ladder.Ladder.rungs.(rung_idx) in
        let c =
          {
            cfg.pipeline with
            Pipeline.Config.detection = r.Ladder.rung_detection;
            detector =
              Option.map (fun d -> Detector.apply_knob d r.Ladder.rung_knob) det;
          }
        in
        Hashtbl.add config_cache (rung_idx, ver) c;
        c
  in
  let tally =
    {
      t_completed = 0;
      t_detected = 0;
      t_injected = 0;
      t_recoveries = 0;
      t_recovery_s = 0.;
      t_recovery_us = [];
      t_shed_deadline = 0;
      t_shed_draining = 0;
      t_latencies = [];
      t_n_latencies = 0;
    }
  in
  let sample_cap = max 1 (cfg.max_samples / cfg.jobs) in
  let deadline_s =
    Option.map (fun d -> float_of_int d *. 1e-6) cfg.deadline_us
  in
  let set_home_owner o =
    Array.iteri
      (fun i cell -> if i mod cfg.jobs = w then Atomic.set cell o)
      owners
  in
  (* The faulted host is condemned; recover a fresh one and replay the
     in-flight request on it, exactly once.  The request was admitted,
     so its completion is counted from the replay outcome alone — the
     detection run produced no completion. *)
  let recover_and_replay rung_cfg item =
    if neighbour <> w then set_home_owner neighbour;
    let t_rec = now () in
    let replayed = Step.recover step rung_cfg item.it_req in
    let dt = now () -. t_rec in
    Tm.incr (if cfg.recovery = Microboot then tm_microboots else tm_restarts);
    tally.t_recoveries <- tally.t_recoveries + 1;
    tally.t_recovery_s <- tally.t_recovery_s +. dt;
    tally.t_recovery_us <- (dt *. 1e6) :: tally.t_recovery_us;
    if !Tm.enabled_ref then
      Tm.observe tm_recovery (int_of_float (dt *. 1e6));
    if neighbour <> w then set_home_owner w;
    replayed
  in
  (* The lifecycle tap: every execution that reached VM entry feeds the
     corpus miner (online label: did an injected fault go live?) and,
     when a candidate is in shadow, scores it against the incumbent's
     verdict.  [Shadow.score] returns the incumbent verdict verbatim —
     the tap observes, it never decides. *)
  let observe req (out : Pipeline.outcome) =
    match lifecycle with
    | None -> ()
    | Some lc ->
        if out.Pipeline.result.Cpu.stop = Cpu.Vm_entry then begin
          let features =
            Features.of_run ~reason:req.Request.reason
              out.Pipeline.result.Cpu.final_pmu
          in
          let faulty =
            match out.Pipeline.result.Cpu.activation with
            | Some { Cpu.fate = Cpu.Activated _; _ } -> true
            | _ -> false
          in
          ignore (Miner.offer lc.lc_miner ~features ~incorrect:faulty);
          match Atomic.get lc.lc_shadow with
          | Some sh ->
              ignore
                (Shadow.score sh ~incumbent:out.Pipeline.verdict
                   ~injected:faulty ~features)
          | None -> ()
        end
  in
  let serve_one item =
    let t_dequeue = now () in
    let expired =
      match deadline_s with
      | Some d -> t_dequeue -. item.it_enqueued > d
      | None -> false
    in
    if Atomic.get draining then begin
      tally.t_shed_draining <- tally.t_shed_draining + 1;
      Tm.incr tm_shed_draining
    end
    else if expired then begin
      tally.t_shed_deadline <- tally.t_shed_deadline + 1;
      Tm.incr tm_shed_deadline
    end
    else begin
      let rung_cfg = config_for (Atomic.get rung_cell) in
      let inject =
        match cfg.storm with
        | Some st
          when t_dequeue -. t0 >= st.storm_start
               && t_dequeue -. t0 < st.storm_end
               && Rng.bernoulli fault_rng st.storm_prob ->
            tally.t_injected <- tally.t_injected + 1;
            Tm.incr tm_injected;
            Some (Fault.to_injection (Fault.sample fault_rng ~max_step:!last_steps))
        | _ -> None
      in
      let first = Step.detect step rung_cfg ?inject item.it_req in
      (* Mine the detection run, not the replay: the replay is a
         synthetic re-execution, not arriving traffic. *)
      observe item.it_req first;
      let outcome =
        match (cfg.recovery, first.Pipeline.verdict) with
        | (Microboot | Restart), Pipeline.Detected _ ->
            (* Count the verdict here: the detection run is dropped with
               its host, so only the replay reaches the completion
               accounting below. *)
            tally.t_detected <- tally.t_detected + 1;
            Tm.incr tm_detected;
            recover_and_replay rung_cfg item
        | _ -> first
      in
      let latency = now () -. item.it_enqueued in
      tally.t_completed <- tally.t_completed + 1;
      last_steps := max 1 outcome.Pipeline.result.Cpu.steps;
      (match outcome.Pipeline.verdict with
      | Pipeline.Detected _ ->
          tally.t_detected <- tally.t_detected + 1;
          Tm.incr tm_detected
      | Pipeline.Clean -> ());
      if tally.t_n_latencies < sample_cap then begin
        tally.t_latencies <- latency :: tally.t_latencies;
        tally.t_n_latencies <- tally.t_n_latencies + 1
      end;
      Tm.incr tm_completed;
      if !Tm.enabled_ref then
        Tm.observe tm_latency (int_of_float (latency *. 1e6))
    end
  in
  let rec loop () =
    let served = ref false in
    Array.iteri
      (fun i q ->
        if Atomic.get owners.(i) = w then
          match Bounded_queue.pop_opt q with
          | Some item ->
              served := true;
              serve_one item
          | None -> ())
      queues;
    if !served then loop ()
    else if Atomic.get draining then
      (* Producer closes queues before we see [draining], and a closed
         queue still drains — one last empty sweep means done. *)
      ()
    else begin
      Stdlib.Domain.cpu_relax ();
      Unix.sleepf 2e-4;
      loop ()
    end
  in
  loop ();
  tally

(* The retrain manager, run in its own domain so tree fitting never
   steals worker or producer time.  One candidate at a time: drain the
   miner, train version n+1, put it in shadow, and act on the gate's
   decision — Promote installs the candidate as the service-wide
   incumbent (workers pick it up at their next dequeue), Reject drops
   it and mining continues. *)
let manager_loop (rt : retrain) ~t0 ~stop ~incumbent (lc : lifecycle) =
  let swaps = ref [] in
  let retrained = ref 0 in
  let rejected = ref 0 in
  let next_version =
    ref
      (1
      +
      match Atomic.get incumbent with
      | None -> 0
      | Some d -> Detector.version d)
  in
  let promote sh stats =
    let cand = Shadow.candidate sh in
    Atomic.set incumbent (Some cand);
    Atomic.set lc.lc_shadow None;
    Tm.incr tm_swapped;
    swaps :=
      {
        swap_t_s = now () -. t0;
        swap_version = Detector.version cand;
        swap_stats = stats;
      }
      :: !swaps
  in
  let step () =
    match Atomic.get lc.lc_shadow with
    | Some sh -> (
        match Shadow.decision sh with
        | Shadow.Hold -> ()
        | Shadow.Promote stats -> promote sh stats
        | Shadow.Reject _ ->
            Atomic.set lc.lc_shadow None;
            incr rejected)
    | None ->
        let corpus = Miner.corpus lc.lc_miner in
        if Retrainer.viable ~min_per_class:min_corpus corpus then begin
          let det = Retrainer.train_candidate ~version:!next_version corpus in
          incr next_version;
          incr retrained;
          Tm.incr tm_retrained;
          (match rt.artifact_dir with
          | Some dir -> ignore (Retrainer.persist ~dir det)
          | None -> ());
          Atomic.set lc.lc_shadow
            (Some (Shadow.create ~window:rt.shadow_window ~candidate:det))
        end
  in
  let last = ref (now ()) in
  while not (Atomic.get stop) do
    Unix.sleepf (Float.min 0.002 rt.retrain_interval_s);
    if now () -. !last >= rt.retrain_interval_s then begin
      last := now ();
      step ()
    end
  done;
  (* One final gate check: a window that filled during the last
     interval still gets its verdict recorded (and, on Promote, the
     swap — the incumbent cell outlives the service loop). *)
  (match Atomic.get lc.lc_shadow with
  | Some sh -> (
      match Shadow.decision sh with
      | Shadow.Hold -> ()
      | Shadow.Promote stats -> promote sh stats
      | Shadow.Reject _ -> incr rejected)
  | None -> ());
  (List.rev !swaps, !retrained, !rejected)

let run (cfg : config) =
  let arrivals = arrivals cfg in
  let queues =
    Array.init cfg.streams (fun _ ->
        Bounded_queue.create ~capacity:cfg.queue_capacity)
  in
  let total_capacity = float_of_int (cfg.streams * cfg.queue_capacity) in
  let draining = Atomic.make false in
  let rung_cell = Atomic.make 0 in
  let incumbent = Atomic.make cfg.pipeline.Pipeline.Config.detector in
  let lifecycle =
    Option.map
      (fun rt ->
        (match rt.artifact_dir with
        | Some dir -> (
            try Unix.mkdir dir 0o755
            with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
        | None -> ());
        {
          lc_miner =
            Miner.create
              ~seed:(Rng.derive cfg.seed 0x4C1F)
              ~capacity:reservoir_capacity ();
          lc_shadow = Atomic.make None;
        })
      cfg.retrain
  in
  let owners =
    Array.init cfg.streams (fun i -> Atomic.make (i mod cfg.jobs))
  in
  let t0 = now () in
  let manager_stop = Atomic.make false in
  let manager =
    match (cfg.retrain, lifecycle) with
    | Some rt, Some lc ->
        Some
          (Stdlib.Domain.spawn (fun () ->
               manager_loop rt ~t0 ~stop:manager_stop ~incumbent lc))
    | _ -> None
  in
  let workers =
    Xentry_util.Pool.spawn ~jobs:cfg.jobs
      (worker_loop cfg queues ~t0 ~draining ~rung_cell ~incumbent ~lifecycle
         ~owners)
  in
  let offered = ref 0 in
  let admitted = ref 0 in
  let shed_queue_full = ref 0 in
  let ladder = ref (Ladder.create ~config:cfg.ladder ()) in
  let rung_count = Array.length cfg.ladder.Ladder.rungs in
  let transitions = ref [] in
  let deepest = ref 0 in
  let time_at_rung = Array.make rung_count 0. in
  let peak_occupancy = ref 0. in
  let last_tick = ref t0 in
  let sheds_last_tick = ref 0 in
  while now () -. t0 < cfg.duration_s do
    let t = now () in
    let dt = t -. !last_tick in
    last_tick := t;
    let elapsed = t -. t0 in
    (* The ladder's occupancy signal, observed at tick start BEFORE
       this tick's arrivals: the backlog the workers failed to drain
       over a whole tick (sampling right after pushing a batch would
       read one tick's arrivals as permanent load and pin the ladder
       down forever).  A shed during the previous tick means a queue
       was at capacity at push time — instantaneous occupancy reached
       1.0 even if the workers drained it before this sample — so any
       shed reports as full. *)
    let occupancy =
      if !sheds_last_tick > 0 then 1.0
      else
        float_of_int
          (Array.fold_left
             (fun acc q -> acc + Bounded_queue.length q)
             0 queues)
        /. total_capacity
    in
    sheds_last_tick := 0;
    arrivals ~elapsed ~dt (fun s stream ->
      incr offered;
      Tm.incr tm_offered;
      let q = queues.(s) in
      if Bounded_queue.length q >= Bounded_queue.capacity q then begin
        (* Admission control without generation: the target queue is
           already full, so the arrival sheds without paying to
           synthesize the request.  This bounds a tick's generation
           work to what can actually be admitted — without it, a deep
           overload burst turns into one enormous generation batch
           that destroys the tick cadence (and with it the ladder's
           observation stream and the duration bound). *)
        incr shed_queue_full;
        incr sheds_last_tick;
        Tm.incr tm_shed_full
      end
      else begin
        let req = Stream.next_request stream in
        (* Stamped at the actual push, not tick start: generating a
           batch takes real time, and a stale stamp would bill that
           generation time as queueing latency. *)
        match Bounded_queue.try_push q { it_req = req; it_enqueued = now () }
        with
        | Ok () ->
            incr admitted;
            Tm.incr tm_admitted
        | Error _ ->
            incr shed_queue_full;
            incr sheds_last_tick;
            Tm.incr tm_shed_full
      end);
    if occupancy > !peak_occupancy then peak_occupancy := occupancy;
    let ladder', transition = Ladder.observe !ladder ~occupancy in
    ladder := ladder';
    (match transition with
    | None -> ()
    | Some { Ladder.from_rung; to_rung } ->
        Atomic.set rung_cell to_rung;
        transitions := (elapsed, to_rung) :: !transitions;
        if to_rung > !deepest then deepest := to_rung;
        if to_rung > from_rung then Tm.incr tm_degraded
        else Tm.incr tm_recovered;
        if !Tm.enabled_ref then
          Tm.event "serve.transition"
            [
              ("t_s", Json.Float elapsed);
              ("from", Json.String (Ladder.name cfg.ladder from_rung));
              ("to", Json.String (Ladder.name cfg.ladder to_rung));
              ("occupancy", Json.Float occupancy);
            ]);
    time_at_rung.(Ladder.rung !ladder) <-
      time_at_rung.(Ladder.rung !ladder) +. dt;
    if !Tm.enabled_ref then
      Tm.observe tm_level (Ladder.rung !ladder);
    Unix.sleepf tick_s
  done;
  (* Shutdown: stop admitting, then let workers shed the backlog as
     draining (a latency-bound service must not stretch its shutdown
     by executing stale work). *)
  Atomic.set draining true;
  Array.iter Bounded_queue.close queues;
  let tallies = Xentry_util.Pool.join workers in
  Atomic.set manager_stop true;
  let swaps, retrained, shadow_rejected =
    match manager with
    | Some d -> Stdlib.Domain.join d
    | None -> ([], 0, 0)
  in
  let wall_s = now () -. t0 in
  let completed =
    Array.fold_left (fun acc t -> acc + t.t_completed) 0 tallies
  in
  let detected = Array.fold_left (fun acc t -> acc + t.t_detected) 0 tallies in
  let injected = Array.fold_left (fun acc t -> acc + t.t_injected) 0 tallies in
  let recoveries =
    Array.fold_left (fun acc t -> acc + t.t_recoveries) 0 tallies
  in
  let recovery_total_s =
    Array.fold_left (fun acc t -> acc +. t.t_recovery_s) 0. tallies
  in
  let recovery_us =
    Array.of_list
      (List.concat_map
         (fun t -> List.rev t.t_recovery_us)
         (Array.to_list tallies))
  in
  let shed_deadline =
    Array.fold_left (fun acc t -> acc + t.t_shed_deadline) 0 tallies
  in
  let shed_draining =
    Array.fold_left (fun acc t -> acc + t.t_shed_draining) 0 tallies
  in
  let latency_us =
    Array.of_list
      (List.concat_map
         (fun t -> List.rev_map (fun s -> s *. 1e6) t.t_latencies)
         (Array.to_list tallies))
  in
  let mined, mine_dropped =
    match lifecycle with
    | Some lc ->
        let offered = Miner.offered lc.lc_miner in
        let contended = Miner.contended lc.lc_miner in
        (offered - contended, contended)
    | None -> (0, 0)
  in
  {
    wall_s;
    offered = !offered;
    admitted = !admitted;
    completed;
    detected;
    injected;
    recoveries;
    recovery_us;
    recovery_total_s;
    availability = availability_of ~recovery_total_s ~wall_s ~jobs:cfg.jobs;
    shed_queue_full = !shed_queue_full;
    shed_deadline;
    shed_draining;
    throughput_rps = throughput_of ~completed ~wall_s;
    latency_us;
    transitions = List.rev !transitions;
    time_at_rung;
    rung_names =
      Array.init rung_count (fun i -> Ladder.name cfg.ladder i);
    final_rung = Ladder.rung !ladder;
    deepest_rung = !deepest;
    peak_occupancy = !peak_occupancy;
    mined;
    mine_dropped;
    retrained;
    shadow_rejected;
    swaps;
    final_detector_version =
      (match Atomic.get incumbent with
      | Some d -> Detector.version d
      | None -> -1);
  }

(* --- calibration ---------------------------------------------------- *)

let calibrate (cfg : config) =
  let step = Step.create Keep_serving ~seed:(Rng.derive cfg.seed 0xCA1B) in
  let stream =
    Stream.create (Profile.get cfg.benchmark) cfg.mode
      (Rng.create (Rng.derive cfg.seed 0xCA1C))
  in
  let t0 = now () in
  let n = ref 0 in
  while now () -. t0 < 0.25 do
    let req = Stream.next_request stream in
    ignore (Step.detect step cfg.pipeline req : Pipeline.outcome);
    incr n
  done;
  float_of_int !n /. (now () -. t0)

(* --- JSON ----------------------------------------------------------- *)

let rung_name (s : summary) i =
  if i >= 0 && i < Array.length s.rung_names then s.rung_names.(i)
  else string_of_int i

let summary_json (cfg : config) (s : summary) =
  let open Json in
  (* count, mean, the named quantiles and max; zeros when empty *)
  let samples xs quantiles =
    let stat f = Float (if Array.length xs = 0 then 0. else f xs) in
    let quantile (k, q) = (k, stat (fun xs -> Stats.quantile xs q)) in
    Obj
      ((("count", Int (Array.length xs)) :: ("mean", stat Stats.mean)
       :: List.map quantile quantiles)
      @ [ ("max", stat Stats.maximum) ])
  in
  Obj
    [ ("schema", String "xentry-serve-summary-v2");
      ("benchmark", String (Profile.benchmark_name cfg.benchmark));
      ("mode", String (Profile.mode_name cfg.mode));
      ("streams", Int cfg.streams); ("jobs", Int cfg.jobs);
      ("rate_rps", Float cfg.rate);
      ( "burst",
        option
          (fun b ->
            Obj
              [ ("start_s", Float b.burst_start); ("end_s", Float b.burst_end);
                ("factor", Float b.burst_factor) ])
          cfg.burst );
      ( "storm",
        option
          (fun st ->
            Obj
              [ ("start_s", Float st.storm_start);
                ("end_s", Float st.storm_end); ("prob", Float st.storm_prob) ])
          cfg.storm );
      ("deadline_us", option (fun d -> Int d) cfg.deadline_us);
      ("queue_capacity", Int cfg.queue_capacity);
      ("duration_s", Float cfg.duration_s); ("wall_s", Float s.wall_s);
      ("offered", Int s.offered); ("admitted", Int s.admitted);
      ("completed", Int s.completed); ("detected", Int s.detected);
      ( "recovery",
        Obj
          [ ("policy", String (recovery_policy_name cfg.recovery));
            ("injected", Int s.injected); ("recoveries", Int s.recoveries);
            ("total_s", Float s.recovery_total_s);
            ("availability", Float s.availability);
            ( "recovery_us",
              samples s.recovery_us [ ("p50", 0.5); ("p99", 0.99) ] ) ] );
      ( "lifecycle",
        Obj
          [ ("mined", Int s.mined); ("dropped", Int s.mine_dropped);
            ("retrained", Int s.retrained); ("rejected", Int s.shadow_rejected);
            ("final_detector_version", Int s.final_detector_version);
            ( "swaps",
              List
                (List.map
                   (fun sw ->
                     Obj
                       [ ("t_s", Float sw.swap_t_s);
                         ("version", Int sw.swap_version);
                         ("scored", Int sw.swap_stats.Shadow.scored) ])
                   s.swaps) ) ] );
      ( "shed",
        Obj
          [ ("queue_full", Int s.shed_queue_full);
            ("deadline_expired", Int s.shed_deadline);
            ("draining", Int s.shed_draining);
            ("total", Int (shed_total s)) ] );
      ("shed_fraction", Float (shed_fraction s));
      ("throughput_rps", Float s.throughput_rps);
      ( "latency_us",
        samples s.latency_us [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ] );
      ( "transitions",
        List
          (List.map
             (fun (t, r) ->
               Obj [ ("t_s", Float t); ("to", String (rung_name s r)) ])
             s.transitions) );
      ( "time_at_level",
        Obj
          (List.mapi
             (fun i dt -> (rung_name s i, Float dt))
             (Array.to_list s.time_at_rung)) );
      ("final_level", String (rung_name s s.final_rung));
      ("deepest_level", String (rung_name s s.deepest_rung));
      ("peak_occupancy", Float s.peak_occupancy) ]

let pp_summary ppf (s : summary) =
  let rung_name = rung_name s in
  Format.fprintf ppf
    "wall %.2fs offered %d admitted %d completed %d (%.0f req/s) shed %d \
     (%.1f%%: full %d, deadline %d, draining %d) p50 %.0fus p99 %.0fus \
     transitions %d deepest %s final %s"
    s.wall_s s.offered s.admitted s.completed s.throughput_rps (shed_total s)
    (100. *. shed_fraction s)
    s.shed_queue_full s.shed_deadline s.shed_draining (latency_quantile s 0.5)
    (latency_quantile s 0.99)
    (List.length s.transitions)
    (rung_name s.deepest_rung) (rung_name s.final_rung);
  if s.injected > 0 || s.recoveries > 0 then
    Format.fprintf ppf
      " injected %d recoveries %d rec_p99 %.0fus availability %.4f" s.injected
      s.recoveries (recovery_quantile s 0.99) s.availability;
  if s.retrained > 0 || s.swaps <> [] then
    Format.fprintf ppf " mined %d retrained %d swaps %d final_detector v%d"
      s.mined s.retrained (List.length s.swaps) s.final_detector_version
