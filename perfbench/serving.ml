(* The two serve workloads: [Server.run] as an open loop at a fixed
   offered rate, 1 worker domain plus the producer, 8 postmark PV
   streams, the default ladder, no faults and no deadline.
   serve-steady keeps serving on a detection; serve-microboot
   micro-reboots, so every request also pays a context capture and its
   copy-on-write page copies, and each detection (a false positive on
   clean traffic) pays a reboot and a replay. *)

open Common
module Server = Xentry_serve.Server
module Bq = Xentry_serve.Bounded_queue
module Pipeline = Xentry_core.Pipeline
module Hypervisor = Xentry_vmm.Hypervisor
module Request = Xentry_vmm.Request
module Mb = Xentry_recover.Microboot
module Stream = Xentry_workload.Stream
module Profile = Xentry_workload.Profile
module Rng = Xentry_util.Rng
module Cpu = Xentry_machine.Cpu

type spec = {
  rate : float;  (** offered requests/second *)
  recovery : Server.recovery_policy;
  limit_us : float;  (** latency limit a completion must meet to count as goodput *)
}

(* 10k req/s is about a fifth of one worker's capacity at full
   detection and keep-serving (about 47k req/s); 2.5k req/s about a
   sixth of what micro-reboot sustains (about 15k req/s).  At twice
   these rates, 3 of 10 runs on a busy shared 2-vCPU x86-64 VM lost so
   much CPU that the service fell behind, and goodput's spread over 10
   seeds reached 0.17; the margin keeps the open loop below saturation
   however busy the host gets. *)
let steady = { rate = 10_000.; recovery = Server.Keep_serving; limit_us = 10_000. }
let microboot = { rate = 2_500.; recovery = Server.Microboot; limit_us = 20_000. }

let streams = 8

(* Ingress queues deep enough that an 800 ms stall of the worker at
   10k req/s sheds nothing: on a shared host such stalls come from
   outside the program, and a shed would also push the ladder down. *)
let queue_capacity = 1024

(* Every service run offers load for [load_s], then offers nothing for
   [quiet_s] before it stops.  [Server.run] sheds whatever is still
   queued when it stops, so without the quiet tail a run whose worker
   was descheduled during the last tick shed that tick's arrivals (0 to
   62 of 10,000 in a 1 s run on a shared 2-vCPU x86-64 VM, with the
   longest live latency 11 ms), and the failed count read differently
   from run to run.  The tail is about 20 times that latency. *)
let quiet_s = 0.2

let config spec ~detector ~seed ~load_s =
  Server.make
    ~pipeline:(Pipeline.Config.make ~detector ())
    ~streams ~recovery:spec.recovery ~duration_s:(load_s +. quiet_s)
    ~burst:{ Server.burst_start = load_s; burst_end = infinity; burst_factor = 0. }
    ~jobs:1 ~seed ~queue_capacity
    ~max_samples:(int_of_float (spec.rate *. load_s *. 2.) + 1024)
    ~benchmark:Profile.Postmark ~rate:spec.rate ()

(* Completions within the limit per second of the loaded part of the
   run: the wall time less the quiet tail. *)
let goodput spec (s : Server.summary) =
  let ok = Array.fold_left (fun n l -> if l <= spec.limit_us then n + 1 else n) 0 s.Server.latency_us in
  ratio (float_of_int ok) (s.Server.wall_s -. quiet_s)

(* Accounting and gates for one service run. *)
let check (s : Server.summary) ~label =
  info
    "%s: offered %d, admitted %d, completed %d, shed %d (queue_full %d, \
     deadline %d, draining %d), detected %d, recoveries %d, wall %.3f s"
    label s.Server.offered s.Server.admitted s.Server.completed
    (Server.shed_total s) s.Server.shed_queue_full s.Server.shed_deadline
    s.Server.shed_draining s.Server.detected s.Server.recoveries s.Server.wall_s;
  gate
    (s.Server.offered = s.Server.admitted + s.Server.shed_queue_full)
    (label ^ ": offered = admitted + shed_queue_full");
  gate
    (s.Server.admitted
    = s.Server.completed + s.Server.shed_deadline + s.Server.shed_draining)
    (label ^ ": admitted = completed + shed_deadline + shed_draining")

(* --- the replay -------------------------------------------------------- *)

(* A service run's request sequence, replayed on one domain with no
   queueing: the same stream seeds drawn round-robin, on a host seeded
   as worker 0's, each request through the public calls [Server.run]
   makes for it.  Every array is indexed by request id. *)
type replay = {
  service_us : float array;
      (** draw to done: everything the service spends on the request *)
  next_us : float array;  (** [Stream.next_request] *)
  run_us : float array;  (** [Pipeline.run] *)
  steps : int array;
  capture_us : float array;  (** [Microboot.capture]; empty on keep-serving *)
  reboot_us : float array;  (** [Microboot.reboot], one per detection *)
  recovery_us : float array;  (** reboot plus replay, one per detection *)
  signatures : (Xentry_vmm.Exit_reason.t * Xentry_machine.Pmu.snapshot) array;
  detected : int;
}

let replay spec ~detector ~seed ~requests =
  let pcfg = Pipeline.Config.make ~detector () in
  let profile = Profile.get Profile.Postmark in
  let streams =
    Array.init streams (fun i ->
        Stream.create profile Profile.PV (Rng.create (Rng.derive seed i)))
  in
  let host = ref (Pipeline.create_host ~seed:(Rng.derive seed 0x5E12) pcfg) in
  let microboot = spec.recovery = Server.Microboot in
  let image = if microboot then Some (Mb.capture_image !host) else None in
  let service_us = Array.make requests 0. in
  let next_us = Array.make requests 0. and run_us = Array.make requests 0. in
  let steps = Array.make requests 0 in
  let capture_us = Array.make (if microboot then requests else 0) 0. in
  let reboots = ref [] and recoveries = ref [] and signatures = ref [] in
  let detected = ref 0 in
  let us t0 t1 = (t1 -. t0) *. 1e6 in
  for i = 0 to requests - 1 do
    let t0 = now () in
    let req = Stream.next_request streams.(i mod Array.length streams) in
    let t1 = now () in
    next_us.(i) <- us t0 t1;
    let out =
      match image with
      | None ->
          let out = Pipeline.run pcfg ~host:!host ~retire:true req in
          run_us.(i) <- us t1 (now ());
          out
      | Some image -> (
          Hypervisor.prepare !host req;
          let t2 = now () in
          let ctx = Mb.capture !host req in
          let t3 = now () in
          let out = Pipeline.run pcfg ~host:!host ~prepare:false req in
          run_us.(i) <- us t3 (now ());
          capture_us.(i) <- us t2 t3;
          match out.Pipeline.verdict with
          | Pipeline.Clean ->
              Hypervisor.retire !host req;
              out
          | Pipeline.Detected _ ->
              let t4 = now () in
              let fresh = Mb.reboot image ctx in
              let t5 = now () in
              ignore (Pipeline.run pcfg ~host:fresh ~prepare:false ~retire:true req);
              reboots := us t4 t5 :: !reboots;
              recoveries := us t4 (now ()) :: !recoveries;
              host := fresh;
              out)
    in
    service_us.(i) <- us t0 (now ());
    steps.(i) <- out.Pipeline.result.Cpu.steps;
    (match out.Pipeline.verdict with
    | Pipeline.Detected _ -> incr detected
    | Pipeline.Clean -> ());
    if out.Pipeline.result.Cpu.stop = Cpu.Vm_entry then
      signatures :=
        (req.Request.reason, out.Pipeline.result.Cpu.final_pmu) :: !signatures
  done;
  {
    service_us;
    next_us;
    run_us;
    steps;
    capture_us;
    reboot_us = Array.of_list !reboots;
    recovery_us = Array.of_list !recoveries;
    signatures = Array.of_list !signatures;
    detected = !detected;
  }

(* An uncontended [try_push] + [pop_opt] pair, timed in blocks of 1,000
   pairs: nanoseconds per pair, one value per block. *)
let queue_op_ns () =
  let q = Bq.create ~capacity:64 in
  Array.init 200 (fun _ ->
      let t0 = now () in
      for i = 1 to 1000 do
        ignore (Bq.try_push q i);
        ignore (Sys.opaque_identity (Bq.pop_opt q))
      done;
      (now () -. t0) *. 1e9 /. 1000.)

(* --- the workload ------------------------------------------------------ *)

(* A run is cut into live service runs of 1 s of load and the quiet
   tail, each followed by the replay of its request sequence.  Goodput
   comes from the live runs, service time from the replays: the median
   over runs of each run's p90.  bench.ml's header gives the spreads
   that keep the live latency percentiles out of the result line. *)
let subrun_s = 1.

let run spec ~(setup : Setup.t) ~seed ~seconds ~trace =
  let detector = setup.Setup.detector in
  let budget = if trace then seconds /. 2. else seconds in
  let k = max 3 (int_of_float (Float.round (budget /. 2.))) in
  info
    "service: %.0f req/s offered, %d streams of queue %d, 1 worker domain, \
     %s, %d runs of %.0f s + %.1f s quiet, latency limit %.0f us"
    spec.rate streams queue_capacity
    (Server.recovery_policy_name spec.recovery)
    k subrun_s quiet_s spec.limit_us;
  let runs =
    Array.init k (fun i ->
        let seed = Rng.derive seed i in
        settle ();
        let s = Server.run (config spec ~detector ~seed ~load_s:subrun_s) in
        check s ~label:(Printf.sprintf "run %d" i);
        percentile_line "live latency" "us" s.Server.latency_us;
        settle ();
        let r = replay spec ~detector ~seed ~requests:s.Server.offered in
        percentile_line "replay service time" "us" r.service_us;
        (s, r))
  in
  let rss = peak_rss_kib () in
  let of_runs f = Array.map f runs in
  let sum f = Array.fold_left (fun acc run -> acc + f run) 0 runs in
  let acct =
    {
      attempted = sum (fun (s, _) -> s.Server.offered);
      failed = sum (fun (s, _) -> Server.shed_total s);
    }
  in
  let pooled f = Array.concat (Array.to_list (of_runs f)) in
  if spec.recovery = Server.Microboot then
    gate (sum (fun (s, _) -> s.Server.recoveries) >= 1) "at least one micro-reboot";
  percentile_line "live latency, all runs (not gated)" "us"
    (pooled (fun (s, _) -> s.Server.latency_us));
  if spec.recovery = Server.Microboot then begin
    percentile_line "live recovery_us (reboot + replay)" "us"
      (pooled (fun (s, _) -> s.Server.recovery_us));
    percentile_line "replay recovery_us (reboot + replay)" "us"
      (pooled (fun (_, r) -> r.recovery_us))
  end;
  if not trace then begin
    let n = sum (fun (_, r) -> Array.length r.service_us) in
    metric "setup_s" "s" (median setup.Setup.setup_s);
    metric "goodput_per_s" "1/s"
      (median (of_runs (fun (s, _) -> goodput spec s)))
      ~note:(Printf.sprintf "live completions within %.0f us / wall, median of %d runs"
               spec.limit_us k);
    percentile_line "replay service time, all runs (p50 not gated)" "us"
      (pooled (fun (_, r) -> r.service_us));
    metric "service_p90_us" "us"
      (median (of_runs (fun (_, r) -> quantile r.service_us 0.9)))
      ~note:(Printf.sprintf "request service time, median of %d run p90s, n=%d" k n);
    metric "peak_rss_mib" "MiB" (float_of_int rss /. 1024.);
    acct
  end
  else begin
    settle ();
    Tm.reset ();
    Tm.enable ();
    let g0 = gc_read () in
    let t = Server.run (config spec ~detector ~seed ~load_s:budget) in
    let g = gc_since g0 in
    Tm.disable ();
    check t ~label:"traced";
    if spec.recovery = Server.Microboot then
      gate (t.Server.recoveries >= 1) "traced: at least one micro-reboot";
    let ops = t.Server.offered in
    machine_layers ~get_counter:counter ~get_hist:hist ~ops;
    gc_metrics g ~ops;
    let total = Array.fold_left ( +. ) 0. t.Server.time_at_rung in
    metric "serve.full_rung_frac" "frac" (ratio t.Server.time_at_rung.(0) total);
    metric "serve.transitions" "count" (float_of_int (List.length t.Server.transitions));
    metric "serve.peak_occupancy" "frac" t.Server.peak_occupancy;
    metric "serve.offered_ratio" "ratio"
      (float_of_int t.Server.offered /. (spec.rate *. budget));
    metric "serve.shed_queue_full" "count" (float_of_int t.Server.shed_queue_full);
    metric "serve.shed_draining" "count" (float_of_int t.Server.shed_draining);
    detail "serve.drain_s" "s" (t.Server.wall_s -. budget -. quiet_s);
    (* Tracing overhead on the end-to-end figure: the traced run's
       sequence replayed with telemetry on, then off.  The second replay
       also gives the per-call breakdown, so the library's own recording
       does not inflate the timed calls. *)
    settle ();
    Tm.enable ();
    let traced = replay spec ~detector ~seed ~requests:t.Server.offered in
    Tm.disable ();
    settle ();
    let r = replay spec ~detector ~seed ~requests:t.Server.offered in
    metric "util.tracing_overhead_frac" "frac"
      ((quantile traced.service_us 0.9 /. quantile r.service_us 0.9) -. 1.)
      ~note:"replayed p90 service time, telemetry on / off, minus 1";
    let n = Array.length r.steps in
    let steps = Array.fold_left ( + ) 0 r.steps in
    let run_s = Array.fold_left ( +. ) 0. r.run_us /. 1e6 in
    info "replay: %d requests, %d detections, %d reboots" n r.detected
      (Array.length r.reboot_us);
    detail "machine.steps_per_s" "1/s" (float_of_int steps /. run_s)
      ~note:"simulated instructions / Pipeline.run time";
    detail "machine.steps_per_request" "count" (float_of_int steps /. float_of_int n);
    let run_label =
      if spec.recovery = Server.Microboot then "xentry.pipeline_run_after_capture_us_p50"
      else "xentry.pipeline_run_us_p50"
    in
    detail run_label "us" (median r.run_us) ~note:(Printf.sprintf "n=%d" n);
    metric "xentry.classify_ns_p50" "ns" (median (classify_ns detector r.signatures));
    metric "xentry.detected_per_1k" "count" (per_1k r.detected n);
    detail "workload.next_request_us" "us" (mean r.next_us) ~note:"mean";
    detail "serve.queue_op_ns" "ns" (median (queue_op_ns ())) ~note:"push + pop";
    if spec.recovery = Server.Microboot then begin
      gate (Array.length r.reboot_us >= 1) "replay: at least one micro-reboot";
      metric "recover.capture_use_ratio" "ratio"
        (ratio (float_of_int (Array.length r.reboot_us)) (float_of_int n));
      detail "recover.capture_us_p50" "us" (median r.capture_us)
        ~note:(Printf.sprintf "n=%d" n);
      detail "recover.reboot_us_p50" "us" (median r.reboot_us)
        ~note:(Printf.sprintf "n=%d" (Array.length r.reboot_us));
      unavailable "xentry.pipeline_run_us_p50" "every execution follows a capture"
    end
    else begin
      metric "recover.capture_use_ratio" "ratio" 0. ~note:"(keep-serving captures nothing)";
      unavailable "xentry.pipeline_run_after_capture_us_p50" "keep-serving captures nothing";
      unavailable "recover.capture_us_p50" "keep-serving captures nothing";
      unavailable "recover.reboot_us_p50" "keep-serving never reboots"
    end;
    (* Layers only campaigns exercise. *)
    List.iter
      (fun (name, unit_) -> metric name unit_ 0. ~note:"(serve runs no campaign)")
      [
        ("faultinject.pruned_frac", "frac");
        ("faultinject.collapsed_frac", "frac");
        ("faultinject.fast_forwarded_frac", "frac");
        ("faultinject.simulated_frac", "frac");
        ("vmm.snapshot_captures_per_1k", "count");
        ("vmm.snapshot_use_ratio", "ratio");
        ("cluster.frame_kib_per_shard", "KiB");
        ("cluster.bytes_received", "bytes");
      ];
    List.iter
      (fun name -> unavailable name "serve runs no campaign")
      [
        "faultinject.shard_ms_p50"; "faultinject.shard_ms_max";
        "faultinject.golden_ms"; "faultinject.plan_ms"; "faultinject.resume_ms";
        "faultinject.classify_ms"; "vmm.snapshot_capture_us_mean";
        "cluster.encode_ms_per_shard"; "cluster.decode_ms_per_shard";
        "cluster.shard_rtt_ms_mean"; "cluster.lease_wait_ms_mean";
        "cluster.progress_gap_ms_max"; "util.pool_queue_wait_us_mean";
      ];
    {
      attempted = acct.attempted + t.Server.offered;
      failed = acct.failed + Server.shed_total t;
    }
  end
