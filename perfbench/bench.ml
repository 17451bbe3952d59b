(* The repository's benchmark: one workload per invocation.

     bench.exe WORKLOAD SEED SECONDS TRACE
     bench.exe --worker SOCKET TRACE        (a campaign-cluster worker)

   run.py builds this executable and is the entry point.  The last
   line of stdout is one JSON object: whether every correctness gate
   held, operations attempted and failed, and the metrics, which are
   the end-to-end ones with TRACE 0 and the per-layer ones with
   TRACE 1.  Any failed gate makes the exit code 1.

   Every workload is fixed work: offered rates and campaign sizes are
   constants, the rep count follows from SECONDS alone, set-up has no
   time-boxed loop, and no workload runs more busy threads than the
   2 cores it was sized on.  All use the postmark PV guest profile,
   the paper's worst-overhead benchmark (Fig 7), and a random-tree
   detector trained in set-up from a fixed seed; SECONDS and SEED
   shape only the workload itself.

   End-to-end metrics (TRACE 0), the same four on every workload so
   that every result line has the same keys:
   - setup_s: median of 7 detector trainings (Training.collect and
     train_and_evaluate on 1 domain); campaign-cluster adds the median
     time to spawn its worker.
   - goodput_per_s: campaigns, injection records returned per second
     of the timed campaign (median over reps); serve, completions
     within the workload's latency limit per second of wall time,
     less the quiet tail that ends each service run (median over
     1 s service runs; a shed request is a miss).
   - service_p90_us: campaigns, the shard service time, the gap between
     consecutive shard completions, p90 per rep; serve, the request
     service time, from draw to done, of each service run's request
     sequence replayed on one domain with no queueing
     (Serving.replay), p90 per run; either way the median over reps or
     runs.
   - peak_rss_mib: VmHWM of the workload's process after the timed
     part; campaign-cluster adds its workers' (median over reps).
   Printed with their sample counts but not gated (spreads measured on
   a shared 2-vCPU x86-64 VM): the service-time p50 (over 10 seeds its
   spread, the interquartile range over the median, reached 0.27 on
   serve-steady and 0.21 on campaign-cluster against 0.09 and 0.13 for
   p90: short requests and shards slow down most when the host is
   busy), the live enqueue-to-completion latencies (dominated by how
   fast the sleeping worker and producer are woken: p50 464 to 712 us
   and p90 0.8 to 3.2 ms over 5 seeds), and serve-microboot's recovery
   times.

   Per-layer metrics (TRACE 1): the same untraced measurement, then a
   traced one with Telemetry on, timed from these files around calls
   into each layer's public functions.  The result line carries what
   every workload measures, plus counts and ratios that read 0 where a
   workload leaves a layer unused; the layer timings only one kind of
   workload has are printed, and so is the reason for every metric a
   workload does not measure.

   BENCHMARK.json runs two workloads, campaign-planned and
   serve-microboot; between them they exercise every layer the
   per-layer metrics name (the cluster layer through its frame codec
   only).  campaign-cluster and serve-steady run by name too, for
   comparison, but stay out of BENCHMARK.json.  On the shared 2-vCPU
   x86-64 VM they were sized on, load from outside the VM slows
   CPU-bound code by up to a third for minutes at a time, and each
   timing metric of each workload is one more chance for that to push
   a spread (interquartile range over median, 10 seeds) past its bound
   of 0.24.  campaign-cluster suffers most, since every shard's round
   trip to the coordinator waits on a process wake-up: in a slow spell,
   5 runs of each interleaved ranged 12% in goodput and 12% in shard
   p90 for campaign-planned, and 19% and 37% for campaign-cluster,
   whose 10-seed spreads reached 0.37 and 0.45.  serve-steady's service
   p90 spread 0.05, 0.17 and 0.05 in three sets, and it adds no layer.
   The run length, 30 s, is a compromise: serve-microboot's service
   p90 spread reached 0.22 at 15 s and 0.06 at 45 s, but a longer run
   makes a set of 10 runs more likely to straddle a slow spell.

   Why each workload exists:
   - campaign-planned: [Campaign.execute], planner on, all six fault
     classes, 64 faults per golden run, fuel 2,000, 1 domain.  The
     paper's coverage-campaign path (Fig 8), the only heavy user of
     the planner, golden traces, snapshots and RAS records; its closed
     batch measures the simulator at full speed.
   - campaign-cluster: the same campaign sharded by [Coordinator.run]
     over 1 worker process of 1 domain, the worker being this
     executable re-run.  Same simulation work, so the gap to
     campaign-planned isolates the cluster layer's framing, socket and
     lease costs.  Both campaigns use 1 domain, not the host's 2:
     Campaigns.domains gives the measurement that ruled out 2.
   - serve-steady: [Server.run] open loop at a fixed 10,000 req/s,
     1 worker domain plus the producer, 8 streams, default ladder,
     keep-serving, no faults, no deadline: about a fifth of one
     worker's capacity, so the loop stays below saturation even when
     the host takes most of the CPU (Serving.steady gives the spread
     that ruled out twice the rate).  Each request costs
     Stream.next_request plus Pipeline.run.
   - serve-microboot: the same service with micro-reboot recovery at a
     fixed 2,500 req/s, about a sixth of what that policy sustains.
     No fault storm: its micro-reboots come from the detector's false
     positives on clean traffic (about 3 per 1,000 requests).  Every
     request pays Microboot.capture and the copy-on-write page copies
     of the next execution; each detection pays Microboot.reboot.  A
     change that speeds one serve path at the other's cost shows here.

   Left out, each with the spread that keeps it out (measured on a
   2-core host); bring one back only after fixing its cause:
   - overload serve: 100k req/s offered to one worker completed
     between 38k and 59k req/s over 10 identical runs; the ladder's
     path near its watermarks is chaotic.
   - fault-storm serve: with 0.5% of requests injected at 5k req/s,
     p50 ranged from 497 us to 12.8 ms over 6 runs (470 to 582 us
     without injection): which request a fault lands on depends on the
     producer's timing.
   - cluster serve: two runs of the same code differed by 8-18%.
   - Xentry_store: bound by fsync, so disk noise would dominate; no
     workload persists anything.
   - Xentry_lifecycle: needs a third domain, and its hot-swaps make
     the work done per request depend on timing.
   - Xentry_isa is static and has nothing to time. *)

open Common

let workloads =
  [ "campaign-planned"; "campaign-cluster"; "serve-steady"; "serve-microboot" ]

(* The seed whose campaign records are pinned by digest. *)
let default_seed = 1

(* Trainings per run; set-up time is their median. *)
let setup_reps = 7

let usage () =
  prerr_endline
    ("usage: bench.exe WORKLOAD SEED SECONDS TRACE\n       workloads: "
    ^ String.concat " " workloads);
  exit 2

let main ~workload ~seed ~seconds ~trace =
  info "workload %s  seed %d  seconds %g  trace %b" workload seed seconds trace;
  info "host: %d cores, OCaml %s, %s engine" (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Xentry_machine.Cpu.engine_name (Xentry_machine.Cpu.default_engine ()));
  let setup = Setup.run ~reps:setup_reps in
  percentile_line "setup: training" "s" setup.Setup.setup_s;
  if trace then begin
    metric "faultinject.training_collect_s" "s" (median setup.Setup.collect_s)
      ~note:"Training.collect, median";
    metric "mlearn.fit_s" "s" (median setup.Setup.fit_s)
      ~note:"Training.train_and_evaluate, median"
  end;
  let acct =
    match workload with
    | "campaign-planned" ->
        Campaigns.run_planned ~setup ~seed ~seconds ~trace
          ~check:(seed = default_seed)
    | "campaign-cluster" ->
        Campaigns.run_cluster ~setup ~seed ~seconds ~trace ~check:(seed = default_seed)
    | "serve-steady" -> Serving.run Serving.steady ~setup ~seed ~seconds ~trace
    | "serve-microboot" -> Serving.run Serving.microboot ~setup ~seed ~seconds ~trace
    | _ -> usage ()
  in
  info "attempted %d, failed %d" acct.attempted acct.failed;
  result_line ~attempted:acct.attempted ~failed:acct.failed;
  exit (if !gates_failed = 0 then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | [ _; "--worker"; sock; traced ] -> Campaigns.worker_main ~sock ~traced:(traced = "1")
  | [ _; workload; seed; seconds; trace ] when List.mem workload workloads -> (
      match (int_of_string_opt seed, float_of_string_opt seconds, trace) with
      | Some seed, Some seconds, ("0" | "1") when seconds > 0. ->
          main ~workload ~seed ~seconds ~trace:(trace = "1")
      | _ -> usage ())
  | _ -> usage ()
