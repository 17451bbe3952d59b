(* The two campaign workloads.  Both run one fixed campaign config
   (postmark PV, planner on, all six fault classes, 64 faults per
   golden run, fuel 2,000) several times and report the median rate:
   campaign-planned through [Campaign.execute] on 1 domain,
   campaign-cluster through [Coordinator.run] over 1 worker process
   of 1 domain.  The simulation work is identical, so the gap between
   the two is the cluster layer's framing, socket and lease cost. *)

open Common
module Campaign = Xentry_faultinject.Campaign
module Outcome = Xentry_faultinject.Outcome
module Fault = Xentry_faultinject.Fault
module Pipeline = Xentry_core.Pipeline
module Profile = Xentry_workload.Profile
module P = Xentry_cluster.Protocol
module Coordinator = Xentry_cluster.Coordinator

let shards = 16

(* Campaign domains, and campaign-cluster's worker processes.  One
   each: with 2 domains, OCaml's stop-the-world minor collections make
   each domain wait for the other, so a core taken by another tenant
   stalls both.  With a busy loop holding one of the 2 cores of a
   2-vCPU x86-64 VM, 2 domains fell from 134k-140k to 50k-55k
   injections/s while 1 domain held 70k-84k; over 10 seeds in a busy
   hour, the 2-domain rate spread 0.38 (interquartile range over
   median). *)
let domains = 1

let config ~detector ~seed =
  Campaign.Config.make ~detector ~framework:Pipeline.full_detection
    ~fault_classes:(Array.to_list Fault.all_classes)
    ~fuel:2_000 ~faults_per_run:64 ~prune:true ~jobs:domains
    ~benchmark:Profile.Postmark
    ~injections:(shards * Campaign.shard_size)
    ~seed ()

let planned (c : Campaign.Config.t) = c.injections * c.faults_per_run

(* Records digested through the store's record codec, which writes
   every field explicitly, so equal digests mean equal records.  Chunks
   of 1,024 records are encoded and digested one at a time, so checking
   a rep adds no large transient buffer to the process's peak memory. *)
let digest records =
  let b = Buffer.create (1 lsl 20) in
  let digests = Buffer.create 4096 in
  List.iter
    (fun chunk ->
      Buffer.clear b;
      Xentry_store.Codec.outcome_records.Xentry_store.Codec.write b chunk;
      Buffer.add_string digests (Digest.string (Buffer.contents b)))
    (chunks 1024 records);
  Digest.to_hex (Digest.string (Buffer.contents digests))

(* The campaign's records for [default_seed] (see bench.ml), through
   [Campaign.execute] or the cluster alike, pinned so that a change to
   any layer that alters a record fails the run. *)
let reference_digest = "ab84c8da0145c874005a2de34bf27638"

(* Shard service times from completion stamps: the gaps between
   consecutive completions, the first measured from the start of the
   run.  With one executor (see [domains]) each gap is one shard's
   service time. *)
let shard_gaps ~t0 stamps =
  List.fold_left
    (fun (prev, gs) t -> (t, (t -. prev) :: gs))
    (t0, [])
    (List.sort compare stamps)
  |> snd

(* One timed [Campaign.execute].  The checkpoint hook journals nothing;
   it only stamps each shard's completion. *)
let execute_once config =
  let m = Mutex.create () in
  let stamps = ref [] in
  let commit _ _ =
    let t = now () in
    Mutex.protect m (fun () -> stamps := t :: !stamps)
  in
  let checkpoint = { Campaign.lookup = (fun _ -> None); commit } in
  let t0 = now () in
  let records = Campaign.execute ~checkpoint config in
  let wall = now () -. t0 in
  (records, wall, shard_gaps ~t0 !stamps)

(* --- cluster workers ------------------------------------------------- *)

(* A worker is this executable re-run with [--worker]; it reports on
   its stdout: "ready" once started, then one "done" line with its
   peak RSS and GC counts after the coordinator says goodbye. *)
type worker = { pid : int; out : in_channel }

type worker_report = { w_rss_kib : int; w_gc : gc; w_ok : bool }

(* Whether [sock] is bound and listening, from /proc/net/unix (flag
   0x10000 is __SO_ACCEPTCON, set by listen(2)).  Without /proc the
   socket file's existence is the best evidence there is. *)
let listening sock =
  match open_in "/proc/net/unix" with
  | exception Sys_error _ -> Sys.file_exists sock
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> false
        | line -> (
            match String.split_on_char ' ' line |> List.filter (( <> ) "") with
            | [ _; _; _; flags; _; _; _; path ] when path = sock ->
                flags = "00010000" || scan ()
            | _ -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Worker process body.  It connects only once the coordinator is
   listening, so [Protocol.connect] never meets a refused connection
   and never sleeps its 100 ms retry inside the timed run. *)
let worker_main ~sock ~traced =
  print_string "ready\n";
  flush stdout;
  let deadline = now () +. 60. in
  while (not (listening sock)) && now () < deadline do
    Unix.sleepf 5e-5
  done;
  if traced then Tm.enable ();
  let g0 = gc_read () in
  Xentry_cluster.Worker.run ~jobs:1 ~connect:(P.Unix_sock sock) ();
  let g = gc_since g0 in
  Printf.printf "done %d %d %d %.0f\n%!" (peak_rss_kib ()) g.minor g.major
    g.minor_words

let spawn_worker ~sock ~traced =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--worker"; sock; (if traced then "1" else "0") |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  { pid; out = Unix.in_channel_of_descr r }

let reap w =
  let report =
    match input_line w.out with
    | line -> (
        try
          Scanf.sscanf line "done %d %d %d %f" (fun rss minor major words ->
              {
                w_rss_kib = rss;
                w_gc = { minor; major; minor_words = words };
                w_ok = true;
              })
        with Scanf.Scan_failure _ | Failure _ | End_of_file ->
          { w_rss_kib = 0; w_gc = gc_zero; w_ok = false })
    | exception End_of_file -> { w_rss_kib = 0; w_gc = gc_zero; w_ok = false }
  in
  close_in_noerr w.out;
  let _, status = Unix.waitpid [] w.pid in
  { report with w_ok = report.w_ok && status = Unix.WEXITED 0 }

let kill_and_reap w =
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  close_in_noerr w.out;
  try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ()

type cluster_rep = {
  c_records : Outcome.record list;
  c_wall : float;
  c_spawn_s : float;
  c_gaps : float list;  (** shard service times, seen by the coordinator *)
  c_reports : worker_report list;
  c_telemetry : string list;  (** the workers' final telemetry dumps *)
}

let cluster_once ~config ~traced =
  let sock = Printf.sprintf "perfbench-%d.sock" (Unix.getpid ()) in
  let t_spawn = now () in
  let workers = List.init domains (fun _ -> spawn_worker ~sock ~traced) in
  match
    List.iter
      (fun w ->
        if input_line w.out <> "ready" then failwith "worker did not start")
      workers;
    let spawn_s = now () -. t_spawn in
    let stamps = ref [] in
    let dumps = ref [] in
    let on_progress (_ : Coordinator.progress) = stamps := now () :: !stamps in
    let t0 = now () in
    let records =
      Coordinator.run ~idle_timeout_s:30. ~on_progress
        ~on_worker_telemetry:(fun j -> dumps := j :: !dumps)
        ~listen:(P.Unix_sock sock) config
    in
    let wall = now () -. t0 in
    (records, wall, spawn_s, shard_gaps ~t0 !stamps, !dumps)
  with
  | records, wall, spawn_s, gaps, dumps ->
      let reports = List.map reap workers in
      {
        c_records = records;
        c_wall = wall;
        c_spawn_s = spawn_s;
        c_gaps = gaps;
        c_reports = reports;
        c_telemetry = dumps;
      }
  | exception e ->
      List.iter kill_and_reap workers;
      raise e

(* --- per-layer readings ---------------------------------------------- *)

(* [Protocol.encode] and [decoder]/[feed]/[next] on one shard's
   [Shard_result]: (encode s, decode s, frame bytes, whether the frame
   decoded to the records it encoded). *)
let frame_costs shard records =
  let frame, enc =
    timed (fun () -> P.encode (P.Shard_result { shard; records }))
  in
  let decoded, dec =
    timed (fun () ->
        let d = P.decoder () in
        P.feed d frame;
        P.next d)
  in
  let ok =
    match decoded with
    | Ok (Some (P.Shard_result { shard = s; records = r })) ->
        s = shard && r = records
    | _ -> false
  in
  (enc, dec, String.length frame, ok)

(* The (reason, signature) pairs of records that reached VM entry:
   the transition detector's inputs. *)
let signatures records =
  Array.of_list
    (List.filter_map
       (fun (r : Outcome.record) ->
         Option.map (fun s -> (r.Outcome.reason, s)) r.Outcome.signature)
       records)

let detected records =
  List.length
    (List.filter
       (fun (r : Outcome.record) ->
         match r.Outcome.verdict with Pipeline.Detected _ -> true | Pipeline.Clean -> false)
       records)

(* --- workloads -------------------------------------------------------- *)

(* One campaign rep took about [rep_s] seconds on a 2-vCPU x86-64 VM
   (1.4 s through Campaign.execute, 1.8 s through the cluster); the rep
   count is a function of the run length only, so every run does the
   same work. *)
let reps_for ~rep_s seconds = max 3 (int_of_float (Float.round (seconds /. rep_s)))

let layer_common ~detector ~records ~ops =
  metric "xentry.classify_ns_p50" "ns"
    (median (classify_ns detector (signatures records)));
  metric "xentry.detected_per_1k" "count" (per_1k (detected records) ops)

let planned_stats_metrics (s : Campaign.stats) =
  let frac n = ratio (float_of_int n) (float_of_int s.Campaign.planned) in
  metric "faultinject.pruned_frac" "frac" (frac s.Campaign.pruned);
  metric "faultinject.collapsed_frac" "frac" (frac s.Campaign.collapsed);
  metric "faultinject.fast_forwarded_frac" "frac" (frac s.Campaign.fast_forwarded);
  metric "faultinject.simulated_frac" "frac" (frac s.Campaign.simulated)

let add_stats (a : Campaign.stats) (b : Campaign.stats) =
  {
    Campaign.planned = a.planned + b.planned;
    pruned = a.pruned + b.pruned;
    collapsed = a.collapsed + b.collapsed;
    fast_forwarded = a.fast_forwarded + b.fast_forwarded;
    simulated = a.simulated + b.simulated;
    trace_hits = a.trace_hits + b.trace_hits;
    trace_misses = a.trace_misses + b.trace_misses;
  }

let zero_stats =
  {
    Campaign.planned = 0;
    pruned = 0;
    collapsed = 0;
    fast_forwarded = 0;
    simulated = 0;
    trace_hits = 0;
    trace_misses = 0;
  }

(* Campaign-side layer readings from telemetry, recorded in this
   process or in the workers' dumps; [reps] campaigns ran. *)
let campaign_layers ~get_counter ~get_hist ~ops ~reps ~fast_forwarded =
  machine_layers ~get_counter ~get_hist ~ops;
  let captures, capture_ns = get_hist "hv.snapshot.capture.ns" in
  metric "vmm.snapshot_captures_per_1k" "count" (per_1k captures ops);
  metric "vmm.snapshot_use_ratio" "ratio"
    (ratio (float_of_int fast_forwarded) (float_of_int captures));
  detail "vmm.snapshot_capture_us_mean" "us"
    (ratio (float_of_int capture_ns) (1e3 *. float_of_int captures));
  List.iter
    (fun span ->
      let _, ns = get_hist ("campaign." ^ span ^ ".ns") in
      detail
        (Printf.sprintf "faultinject.%s_ms" span)
        "ms"
        (float_of_int ns /. 1e6 /. float_of_int reps)
        ~note:"per campaign")
    [ "golden"; "plan"; "resume"; "classify" ]

(* The serve layers, which no campaign exercises. *)
let serve_layers_absent () =
  List.iter
    (fun (name, unit_) ->
      metric name unit_ 0. ~note:"(campaigns run no service)")
    [
      ("recover.capture_use_ratio", "ratio");
      ("serve.full_rung_frac", "frac");
      ("serve.transitions", "count");
      ("serve.peak_occupancy", "frac");
      ("serve.offered_ratio", "ratio");
      ("serve.shed_queue_full", "count");
      ("serve.shed_draining", "count");
    ];
  List.iter
    (fun name -> unavailable name "campaigns run no service")
    [
      "machine.steps_per_s"; "xentry.pipeline_run_us_p50";
      "xentry.pipeline_run_after_capture_us_p50"; "recover.capture_us_p50";
      "recover.reboot_us_p50"; "workload.next_request_us"; "serve.queue_op_ns";
      "serve.drain_s";
    ]

let frame_metrics shard_records =
  let costs = List.map (fun (i, r) -> frame_costs i r) shard_records in
  gate
    (List.for_all (fun (_, _, _, ok) -> ok) costs)
    "every shard's frame decodes to the records it encoded";
  let n = float_of_int (List.length costs) in
  let sum f = List.fold_left (fun acc c -> acc +. f c) 0. costs in
  detail "cluster.encode_ms_per_shard" "ms" (1e3 *. sum (fun (e, _, _, _) -> e) /. n);
  detail "cluster.decode_ms_per_shard" "ms" (1e3 *. sum (fun (_, d, _, _) -> d) /. n);
  metric "cluster.frame_kib_per_shard" "KiB"
    (sum (fun (_, _, b, _) -> float_of_int b) /. 1024. /. n)

(* The untraced, timed reps shared by both campaign workloads:
   [once] runs one campaign and returns (records, wall, shard gaps);
   every rep must return the same records. *)
type reps = {
  rates : float array;  (** records / wall, one per rep *)
  gaps_us : float array;  (** every rep's shard service times *)
  p90_us : float array;  (** each rep's p90 shard service time *)
  returned : int;
  digest : string;  (** of the records, the same for every rep *)
  last : Outcome.record list;  (** the last rep's records *)
}

let timed_reps ~reps once =
  let digests = ref [] and rates = ref [] and gaps = ref [] and p90s = ref [] in
  let returned = ref 0 and last = ref [] in
  for _ = 1 to reps do
    last := [];
    settle ();
    let records, wall, g = once () in
    let n = List.length records in
    returned := !returned + n;
    rates := (float_of_int n /. wall) :: !rates;
    let us = List.map (fun g -> g *. 1e6) g in
    gaps := us @ !gaps;
    p90s := quantile (Array.of_list us) 0.9 :: !p90s;
    digests := digest records :: !digests;
    last := records
  done;
  let d0 = List.hd !digests in
  gate
    (List.for_all (( = ) d0) !digests)
    (Printf.sprintf "%d reps of one config return identical records" reps);
  {
    rates = Array.of_list !rates;
    gaps_us = Array.of_list !gaps;
    p90_us = Array.of_list !p90s;
    returned = !returned;
    digest = d0;
    last = !last;
  }

(* The p90 is taken per rep and the median over reps reported: a tail
   pooled over the whole run would be set by its slowest tenth, which on
   a shared host is whenever another tenant was busiest. *)
let end_to_end ~setup_s (r : reps) =
  metric "setup_s" "s" setup_s;
  metric "goodput_per_s" "1/s" (median r.rates) ~note:"injections_per_s: records / wall";
  percentile_line "shard service time, all reps (not gated)" "us" r.gaps_us;
  metric "service_p90_us" "us" (median r.p90_us)
    ~note:
      (Printf.sprintf "shard service time, median of %d rep p90s, n=%d"
         (Array.length r.p90_us) (Array.length r.gaps_us))

let accounting ~planned ~returned ~lost =
  info "accounting: planned injections %d, records returned %d, lost workers %d"
    planned returned lost;
  gate (returned = planned) "every planned injection returned a record";
  { attempted = planned; failed = planned - returned }

let check_reference ~check d =
  if check then
    gate (d = reference_digest)
      (Printf.sprintf "records match the pinned digest %s (got %s)" reference_digest d)
  else info "digest %s (pinned only for the default seed)" d

let run_planned ~(setup : Setup.t) ~seed ~seconds ~trace ~check =
  let config = config ~detector:setup.Setup.detector ~seed in
  let reps = reps_for ~rep_s:1.4 (if trace then seconds /. 2. else seconds) in
  info "campaign: %d injections x %d faults, %d domain(s), %d reps"
    config.Campaign.injections config.Campaign.faults_per_run domains reps;
  let r = timed_reps ~reps (fun () -> execute_once config) in
  check_reference ~check r.digest;
  let rss = peak_rss_kib () in
  let acct = accounting ~planned:(reps * planned config) ~returned:r.returned ~lost:0 in
  if not trace then begin
    end_to_end ~setup_s:(median setup.Setup.setup_s) r;
    metric "peak_rss_mib" "MiB" (float_of_int rss /. 1024.);
    acct
  end
  else begin
    (* Traced: the same campaign decomposed into [shard_plan] +
       [run_shard], run one shard after another, each shard timed. *)
    let plan = Campaign.shard_plan config in
    Tm.reset ();
    Tm.enable ();
    let gc = ref gc_zero in
    let shard_ms = ref [] and traced_rates = ref [] and stats = ref zero_stats in
    let digests_ok = ref true and last = ref [] in
    for _ = 1 to reps do
      last := [];
      settle ();
      let g0 = gc_read () in
      let t0 = now () in
      let results =
        List.map
          (fun (i, shard) ->
            let (r, s), dt = timed (fun () -> Campaign.run_shard shard) in
            (i, r, s, dt))
          plan
      in
      let wall = now () -. t0 in
      gc := gc_add !gc (gc_since g0);
      let recs = List.concat_map (fun (_, r, _, _) -> r) results in
      traced_rates := (float_of_int (List.length recs) /. wall) :: !traced_rates;
      digests_ok := !digests_ok && digest recs = r.digest;
      List.iter
        (fun (_, _, s, dt) ->
          shard_ms := (dt *. 1e3) :: !shard_ms;
          stats := add_stats !stats s)
        results;
      last := List.map (fun (i, r, _, _) -> (i, r)) results
    done;
    let g = !gc in
    Tm.disable ();
    gate !digests_ok "run_shard records equal execute's";
    let ops = reps * planned config in
    let shard_ms = Array.of_list !shard_ms in
    detail "faultinject.shard_ms_p50" "ms" (median shard_ms)
      ~note:(Printf.sprintf "n=%d" (Array.length shard_ms));
    detail "faultinject.shard_ms_max" "ms" (maximum shard_ms)
      ~note:(Printf.sprintf "n=%d" (Array.length shard_ms));
    planned_stats_metrics !stats;
    campaign_layers ~get_counter:counter ~get_hist:hist ~ops ~reps
      ~fast_forwarded:!stats.Campaign.fast_forwarded;
    unavailable "util.pool_queue_wait_us_mean" "1 domain runs its shards serially";
    frame_metrics !last;
    metric "cluster.bytes_received" "bytes" 0. ~note:"(no cluster in this workload)";
    List.iter
      (fun name -> unavailable name "single process: no coordinator")
      [ "cluster.shard_rtt_ms_mean"; "cluster.lease_wait_ms_mean";
        "cluster.progress_gap_ms_max" ];
    layer_common ~detector:setup.Setup.detector ~records:r.last ~ops:(List.length r.last);
    gc_metrics g ~ops;
    let overhead = (median r.rates /. median (Array.of_list !traced_rates)) -. 1. in
    metric "util.tracing_overhead_frac" "frac" overhead
      ~note:"traced / untraced time per injection, minus 1";
    serve_layers_absent ();
    acct
  end

let run_cluster ~(setup : Setup.t) ~seed ~seconds ~trace ~check =
  let config = config ~detector:setup.Setup.detector ~seed in
  let reps = reps_for ~rep_s:1.8 (if trace then seconds /. 2. else seconds) in
  info "campaign: %d injections x %d faults, %d worker process(es) x 1 domain, %d reps"
    config.Campaign.injections config.Campaign.faults_per_run domains reps;
  let spawn_s = ref [] and worker_rss = ref [] and lost = ref 0 in
  let note_rep (c : cluster_rep) =
    spawn_s := c.c_spawn_s :: !spawn_s;
    worker_rss :=
      List.fold_left (fun acc r -> acc + r.w_rss_kib) 0 c.c_reports :: !worker_rss;
    lost := !lost + List.length (List.filter (fun r -> not r.w_ok) c.c_reports)
  in
  let r =
    timed_reps ~reps (fun () ->
        let c = cluster_once ~config ~traced:false in
        note_rep c;
        (c.c_records, c.c_wall, c.c_gaps))
  in
  let rss = peak_rss_kib () in
  let worker_rss_med = median (Array.of_list (List.map float_of_int !worker_rss)) in
  (* Reference after the timed reps, so its memory peak stays out of
     [peak_rss_mib]. *)
  let reference = Campaign.execute config in
  check_reference ~check (digest reference);
  gate (digest reference = r.digest) "cluster records equal campaign-planned's";
  gate (!lost = 0) "no worker lost";
  let acct = accounting ~planned:(reps * planned config) ~returned:r.returned ~lost:!lost in
  let spawn_med = median (Array.of_list !spawn_s) in
  info "setup: training %.3f s + worker spawn %.3f s (medians)"
    (median setup.Setup.setup_s) spawn_med;
  if not trace then begin
    end_to_end ~setup_s:(median setup.Setup.setup_s +. spawn_med) r;
    metric "peak_rss_mib" "MiB" ((float_of_int rss +. worker_rss_med) /. 1024.)
      ~note:"coordinator + workers";
    acct
  end
  else begin
    Tm.reset ();
    Tm.enable ();
    let traced_rates = ref [] and dumps = ref [] and gaps = ref [] in
    let progress_gap_max = ref 0. in
    let gc = ref gc_zero and ok = ref true and last = ref [] in
    for _ = 1 to reps do
      last := [];
      settle ();
      let g0 = gc_read () in
      let c = cluster_once ~config ~traced:true in
      gc := gc_add !gc (gc_since g0);
      traced_rates := (float_of_int (List.length c.c_records) /. c.c_wall) :: !traced_rates;
      ok := !ok && digest c.c_records = r.digest;
      dumps := c.c_telemetry @ !dumps;
      gaps := c.c_gaps @ !gaps;
      progress_gap_max := List.fold_left Float.max !progress_gap_max c.c_gaps;
      List.iter (fun r -> gc := gc_add !gc r.w_gc) c.c_reports;
      last := c.c_records
    done;
    let g = !gc in
    Tm.disable ();
    gate !ok "traced cluster records equal campaign-planned's";
    let ops = reps * planned config in
    let sum_counter name =
      List.fold_left (fun acc j -> acc + json_counter j name) 0 !dumps
    in
    let sum_hist name =
      List.fold_left
        (fun (n, s) j ->
          let n', s' = json_hist j name in
          (n + n', s + s'))
        (0, 0) !dumps
    in
    let gaps_ms = Array.of_list (List.map (fun g -> g *. 1e3) !gaps) in
    detail "faultinject.shard_ms_p50" "ms" (median gaps_ms)
      ~note:(Printf.sprintf "coordinator-side gaps, n=%d" (Array.length gaps_ms));
    detail "faultinject.shard_ms_max" "ms" (maximum gaps_ms)
      ~note:(Printf.sprintf "coordinator-side gaps, n=%d" (Array.length gaps_ms));
    planned_stats_metrics
      {
        zero_stats with
        Campaign.planned = ops;
        pruned = sum_counter "campaign.pruned";
        collapsed = sum_counter "campaign.class_collapsed";
        fast_forwarded = sum_counter "campaign.fast_forwarded";
        simulated = sum_counter "campaign.simulated";
      };
    campaign_layers ~get_counter:sum_counter ~get_hist:sum_hist ~ops ~reps
      ~fast_forwarded:(sum_counter "campaign.fast_forwarded");
    unavailable "util.pool_queue_wait_us_mean" "a 1-domain worker runs its shards serially";
    (* Merged records are in shard order, a full shard's worth each. *)
    frame_metrics
      (List.mapi
         (fun s r -> (s, r))
         (chunks (Campaign.shard_size * config.Campaign.faults_per_run) !last));
    metric "cluster.bytes_received" "bytes"
      (float_of_int (counter "cluster.bytes_received") /. float_of_int reps)
      ~note:"per campaign";
    detail "cluster.shard_rtt_ms_mean" "ms" (hist_mean "cluster.worker.rtt_ns" /. 1e6);
    detail "cluster.lease_wait_ms_mean" "ms" (hist_mean "cluster.lease.wait_ns" /. 1e6);
    detail "cluster.progress_gap_ms_max" "ms" (1e3 *. !progress_gap_max)
      ~note:"between consecutive on_progress callbacks";
    layer_common ~detector:setup.Setup.detector ~records:!last ~ops:(List.length !last);
    gc_metrics g ~ops;
    let overhead = (median r.rates /. median (Array.of_list !traced_rates)) -. 1. in
    metric "util.tracing_overhead_frac" "frac" overhead
      ~note:"traced / untraced time per injection, minus 1";
    serve_layers_absent ();
    acct
  end
