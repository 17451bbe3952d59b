open Xentry_machine
open Xentry_vmm
open Xentry_core

module Config = struct
  type t = {
    seed : int;
    injections : int;
    faults_per_run : int;
    benchmark : Xentry_workload.Profile.benchmark;
    mode : Xentry_workload.Profile.virt_mode;
    detector : Detector.t option;
    framework : Pipeline.detection;
    fault_classes : Fault.cls list;
    fuel : int;
    hardened : bool;
    prune : bool;
    snapshot_interval : int;
    jobs : int option;
  }

  let prune_default () = Sys.getenv_opt "XENTRY_PRUNE" <> Some "0"

  let make ?detector ?(framework = Pipeline.full_detection)
      ?(fault_classes = [ Fault.Reg_single_bit ])
      ?(mode = Xentry_workload.Profile.PV) ?(fuel = 20_000) ?(hardened = false)
      ?(faults_per_run = 1) ?prune ?(snapshot_interval = 64) ?jobs ~benchmark
      ~injections ~seed () =
    let prune = match prune with Some p -> p | None -> prune_default () in
    {
      seed;
      injections;
      faults_per_run;
      benchmark;
      mode;
      detector;
      framework;
      fault_classes;
      fuel;
      hardened;
      prune;
      snapshot_interval;
      jobs;
    }

  let pipeline t =
    {
      Pipeline.Config.default with
      Pipeline.Config.detection = t.framework;
      detector = t.detector;
      fuel = t.fuel;
    }

  (* The canonical encoding destructures EVERY field (warning 9 is an
     error in this repo), so adding a field without deciding whether it
     belongs in the fingerprint refuses to compile.  Three fields are
     execution-only and excluded: [jobs] (campaigns are bit-identical
     for any worker count), and [prune]/[snapshot_interval] (the
     planner's verdict-identity invariant makes records identical with
     pruning and fast-forwarding on or off, enforced by the
     prune-vs-exhaustive differential tests; the one known exception,
     a [tlb] strike whose outcome moves with the snapshot it resumes
     from, is documented in campaign.mli). *)
  let canonical ~detector_digest
      {
        seed;
        injections;
        faults_per_run;
        benchmark;
        mode;
        detector;
        framework =
          { Pipeline.hw_exceptions; sw_assertions; vm_transition; ras_polling };
        fault_classes;
        fuel;
        hardened;
        prune = _;
        snapshot_interval = _;
        jobs = _;
      } =
    String.concat ";"
      [
        Printf.sprintf "seed=%d" seed;
        Printf.sprintf "injections=%d" injections;
        Printf.sprintf "faults_per_run=%d" faults_per_run;
        "benchmark=" ^ Xentry_workload.Profile.benchmark_name benchmark;
        "mode=" ^ Xentry_workload.Profile.mode_name mode;
        (match detector with
        | None -> "detector=none"
        | Some d -> "detector=" ^ detector_digest d);
        Printf.sprintf "hw_exceptions=%b" hw_exceptions;
        Printf.sprintf "sw_assertions=%b" sw_assertions;
        Printf.sprintf "vm_transition=%b" vm_transition;
        Printf.sprintf "ras_polling=%b" ras_polling;
        "fault_classes=" ^ Fault.classes_to_string fault_classes;
        Printf.sprintf "fuel=%d" fuel;
        Printf.sprintf "hardened=%b" hardened;
      ]
end

type config = Config.t = {
  seed : int;
  injections : int;
  faults_per_run : int;
  benchmark : Xentry_workload.Profile.benchmark;
  mode : Xentry_workload.Profile.virt_mode;
  detector : Detector.t option;
  framework : Pipeline.detection;
  fault_classes : Fault.cls list;
  fuel : int;
  hardened : bool;
  prune : bool;
  snapshot_interval : int;
  jobs : int option;
}

let snapshot_equal (a : Pmu.snapshot) (b : Pmu.snapshot) =
  a.Pmu.inst = b.Pmu.inst
  && a.Pmu.branches = b.Pmu.branches
  && a.Pmu.loads = b.Pmu.loads
  && a.Pmu.stores = b.Pmu.stores

let activated (result : Cpu.run_result) =
  match result.Cpu.activation with
  | Some { fate = Cpu.Activated _; _ } -> true
  | _ -> false

(* --- planner statistics ------------------------------------------------ *)

type stats = {
  planned : int;
  pruned : int;
  collapsed : int;
  fast_forwarded : int;
  simulated : int;
  trace_hits : int;
  trace_misses : int;
}

let zero_stats =
  {
    planned = 0;
    pruned = 0;
    collapsed = 0;
    fast_forwarded = 0;
    simulated = 0;
    trace_hits = 0;
    trace_misses = 0;
  }

let add_stats a b =
  {
    planned = a.planned + b.planned;
    pruned = a.pruned + b.pruned;
    collapsed = a.collapsed + b.collapsed;
    fast_forwarded = a.fast_forwarded + b.fast_forwarded;
    simulated = a.simulated + b.simulated;
    trace_hits = a.trace_hits + b.trace_hits;
    trace_misses = a.trace_misses + b.trace_misses;
  }

(* Telemetry: verdict tallies across the campaign, planner counters, a
   shard wall-time histogram, and one event per shard (seed, size, wall
   clock, verdict breakdown).  Recording happens after a shard's
   records are final, so it cannot perturb the RNG streams or the
   records themselves — campaigns stay bit-identical with telemetry on
   or off. *)
module Tm = Xentry_util.Telemetry

let tm_verdict_hw = Tm.counter "campaign.verdict.hw_exception"
let tm_verdict_sw = Tm.counter "campaign.verdict.sw_assertion"
let tm_verdict_vm = Tm.counter "campaign.verdict.vm_transition"
let tm_verdict_ras = Tm.counter "campaign.verdict.ras_report"
let tm_verdict_clean = Tm.counter "campaign.verdict.clean"
let tm_pruned = Tm.counter "campaign.pruned"
let tm_collapsed = Tm.counter "campaign.class_collapsed"
let tm_fast_forwarded = Tm.counter "campaign.fast_forwarded"
let tm_simulated = Tm.counter "campaign.simulated"
let tm_shard_wall = Tm.histogram "campaign.shard.ns"

let record_shard_telemetry config records stats ~wall =
  let hw = ref 0 and sw = ref 0 and vm = ref 0 and ras = ref 0 and clean = ref 0 in
  List.iter
    (fun r ->
      match r.Outcome.verdict with
      | Pipeline.Clean -> incr clean
      | Pipeline.Detected { technique = Pipeline.Hw_exception_detection; _ }
        ->
          incr hw
      | Pipeline.Detected { technique = Pipeline.Sw_assertion; _ } -> incr sw
      | Pipeline.Detected { technique = Pipeline.Vm_transition; _ } ->
          incr vm
      | Pipeline.Detected { technique = Pipeline.Ras_report; _ } -> incr ras)
    records;
  Tm.add tm_verdict_hw !hw;
  Tm.add tm_verdict_sw !sw;
  Tm.add tm_verdict_vm !vm;
  Tm.add tm_verdict_ras !ras;
  Tm.add tm_verdict_clean !clean;
  Tm.add tm_pruned stats.pruned;
  Tm.add tm_collapsed stats.collapsed;
  Tm.add tm_fast_forwarded stats.fast_forwarded;
  Tm.add tm_simulated stats.simulated;
  Tm.observe_span tm_shard_wall wall;
  Tm.event "campaign.shard"
    [
      ("seed", Tm.Int config.seed);
      ("injections", Tm.Int config.injections);
      ("wall_s", Tm.Float wall);
      ("hw_exception", Tm.Int !hw);
      ("sw_assertion", Tm.Int !sw);
      ("vm_transition", Tm.Int !vm);
      ("ras_report", Tm.Int !ras);
      ("clean", Tm.Int !clean);
      ("pruned", Tm.Int stats.pruned);
      ("fast_forwarded", Tm.Int stats.fast_forwarded);
      ("simulated", Tm.Int stats.simulated);
    ]

(* --- per-fault classification ------------------------------------------ *)

(* The record for one actually-simulated faulted execution, shared by
   the exhaustive and planner paths.  [host] is the live host after its
   golden run; [nat_host]/[nat_result] describe the fault's unimpeded
   behaviour (the detected run itself unless an assertion cut it
   short). *)
let classify_faulted config ~(req : Request.t) ~host ~golden_result ~fault
    ~det_result ~det_ras ~nat_host ~nat_result =
  let is_activated = activated nat_result in
  let diff_list =
    match nat_result.Cpu.stop with
    | Cpu.Vm_entry -> Classify.diffs ~golden:host ~faulted:nat_host
    | _ -> []
  in
  let consequence =
    if not is_activated then Outcome.Not_activated
    else
      Classify.consequence
        ~current_dom:(Hypervisor.current_domain host).Domain.id
        ~faulted_stop:nat_result.Cpu.stop diff_list
  in
  let verdict =
    Pipeline.verdict (Config.pipeline config) ~ras:det_ras
      ~reason:req.Request.reason det_result
  in
  let latency =
    match verdict with
    | Pipeline.Detected { latency; _ } -> latency
    | Pipeline.Clean -> None
  in
  let undetected =
    if Outcome.manifested consequence && verdict = Pipeline.Clean then
      Some
        (Classify.undetected_class ~fault
           ~signature_differs:
             (not
                (snapshot_equal det_result.Cpu.final_pmu
                   golden_result.Cpu.final_pmu))
           diff_list)
    else None
  in
  {
    Outcome.fault;
    reason = req.Request.reason;
    activated = is_activated;
    consequence;
    verdict;
    latency;
    undetected;
    signature =
      (match det_result.Cpu.stop with
      | Cpu.Vm_entry -> Some det_result.Cpu.final_pmu
      | _ -> None);
    golden_signature = golden_result.Cpu.final_pmu;
  }

(* The record for a fault the planner pruned: the corrupted value is
   provably never consumed, so the detected execution is step-identical
   to the golden one — same stop, same PMU signature, same (absent)
   detection latency — and the record is synthesized from the golden
   result with zero simulation.  Field-by-field this matches what the
   exhaustive path computes for the same fault. *)
let synthesize_pruned config ~(req : Request.t) ~golden_result fault =
  let verdict =
    Pipeline.verdict (Config.pipeline config) ~reason:req.Request.reason
      golden_result
  in
  let latency =
    match verdict with
    | Pipeline.Detected { latency; _ } -> latency
    | Pipeline.Clean -> None
  in
  {
    Outcome.fault;
    reason = req.Request.reason;
    activated = false;
    consequence = Outcome.Not_activated;
    verdict;
    latency;
    undetected = None;
    signature =
      (match golden_result.Cpu.stop with
      | Cpu.Vm_entry -> Some golden_result.Cpu.final_pmu
      | _ -> None);
    golden_signature = golden_result.Cpu.final_pmu;
  }

(* --- shard execution ---------------------------------------------------- *)

let shard_rngs config =
  let rng = Xentry_util.Rng.create config.seed in
  let request_rng = Xentry_util.Rng.split rng in
  let fault_rng = Xentry_util.Rng.split rng in
  (request_rng, fault_rng)

let shard_host config =
  let host =
    Hypervisor.create ~seed:(config.seed lxor 0x5EED) ~hardened:config.hardened
      ()
  in
  Hypervisor.set_assertions_enabled host true;
  host

(* One shard, exhaustively: the original strictly-serial campaign loop
   (generalized to [faults_per_run] faults per golden execution) on a
   host whose state evolves injection to injection within the shard.
   This is the planner's oracle: the planned path below must produce
   bit-identical records. *)
let run_shard_exhaustive config =
  let profile = Xentry_workload.Profile.get config.benchmark in
  let request_rng, fault_rng = shard_rngs config in
  let host = shard_host config in
  let records = ref [] in
  let simulated = ref 0 in
  for _ = 1 to config.injections do
    let req =
      Xentry_workload.Profile.sample_request profile config.mode request_rng
    in
    Hypervisor.prepare host req;
    (* Pre-execution state for the faulted replays. *)
    let base = Hypervisor.clone host in
    (* Golden run on the live host (which thereby advances). *)
    let golden_result = Hypervisor.execute host ~fuel:config.fuel req in
    for _ = 1 to config.faults_per_run do
      let fault =
        Fault.sample ~classes:config.fault_classes fault_rng
          ~max_step:(max 1 golden_result.Cpu.steps)
      in
      let inject = Fault.to_injection fault in
      (* Detected run: Xentry active as configured. *)
      let det_host = Hypervisor.clone base in
      Hypervisor.set_assertions_enabled det_host
        config.framework.Pipeline.sw_assertions;
      let det_result =
        Hypervisor.execute det_host ~inject ~fuel:config.fuel req
      in
      let det_ras = Hypervisor.drain_ras det_host in
      (* Natural run: only needed when an assertion cut the detected
         run short; otherwise the detected run already shows the
         fault's unimpeded behaviour. *)
      let nat_host, nat_result =
        match det_result.Cpu.stop with
        | Cpu.Assertion_failure _ ->
            let h = Hypervisor.clone base in
            Hypervisor.set_assertions_enabled h false;
            let r = Hypervisor.execute h ~inject ~fuel:config.fuel req in
            (h, r)
        | _ -> (det_host, det_result)
      in
      incr simulated;
      records :=
        classify_faulted config ~req ~host ~golden_result ~fault ~det_result
          ~det_ras ~nat_host ~nat_result
        :: !records;
      if nat_host != det_host then Hypervisor.release nat_host;
      Hypervisor.release det_host
    done;
    Hypervisor.release base;
    Hypervisor.retire host req
  done;
  Hypervisor.release host;
  let n = config.injections * config.faults_per_run in
  (List.rev !records, { zero_stats with planned = n; simulated = !simulated })

(* One shard, planned: each golden execution is recorded with its
   def/use trace and periodic snapshots; every sampled fault is
   classified against the trace, dead ones are pruned, equivalence
   classes collapse, and only the representatives run — each resumed
   from the nearest snapshot at or before its activation step. *)
let run_shard_planned config =
  let profile = Xentry_workload.Profile.get config.benchmark in
  let request_rng, fault_rng = shard_rngs config in
  let host = shard_host config in
  let periodic =
    if config.snapshot_interval <= 0 then [| 0 |]
    else
      Array.init
        ((config.fuel / config.snapshot_interval) + 1)
        (fun k -> k * config.snapshot_interval)
  in
  let records = ref [] in
  let pruned = ref 0 in
  let collapsed = ref 0 in
  let fast_forwarded = ref 0 in
  let simulated = ref 0 in
  (* Greatest snapshot at or before [step]; the step-0 snapshot
     guarantees one exists. *)
  let nearest_snap snaps step =
    let rec go best = function
      | [] -> best
      | s :: rest ->
          if Hypervisor.snapshot_step s <= step then go (Some s) rest else best
    in
    match go None snaps with
    | Some s -> s
    | None -> failwith "Campaign: no snapshot at or before fault step"
  in
  (* A representative's record.  Inject at the activation step, from
     the nearest snapshot at or before it: the target is untouched
     between the sampled step and activation, so skipping the dead
     interval leaves the execution (and the derived record)
     bit-identical.  The natural run repeats the detected one with
     assertions off when an assertion cut it short. *)
  let simulate req ~golden_result snaps fault ~act =
    let snap = nearest_snap snaps act in
    let inject = Fault.to_injection { fault with Fault.step = act } in
    let run ~assertions =
      let h =
        Tm.with_span "campaign.snapshot.restore" (fun () ->
            Hypervisor.restore snap)
      in
      Hypervisor.set_assertions_enabled h assertions;
      let r =
        Tm.with_span "campaign.resume" (fun () ->
            Hypervisor.resume h snap ~inject ~fuel:config.fuel req)
      in
      (h, r)
    in
    let det_host, det_result =
      run ~assertions:config.framework.Pipeline.sw_assertions
    in
    let det_ras = Hypervisor.drain_ras det_host in
    let nat_host, nat_result =
      match det_result.Cpu.stop with
      | Cpu.Assertion_failure _ ->
          Hypervisor.release det_host;
          run ~assertions:false
      | _ -> (det_host, det_result)
    in
    incr simulated;
    if Hypervisor.snapshot_step snap > 0 then incr fast_forwarded;
    let record =
      Tm.with_span "campaign.classify" (fun () ->
          classify_faulted config ~req ~host ~golden_result ~fault ~det_result
            ~det_ras ~nat_host ~nat_result)
    in
    Hypervisor.release nat_host;
    record
  in
  for _ = 1 to config.injections do
    let req =
      Xentry_workload.Profile.sample_request profile config.mode request_rng
    in
    Hypervisor.prepare host req;
    let golden_result, trace, snaps =
      Tm.with_span "campaign.golden" (fun () ->
          Hypervisor.execute_recorded host ~fuel:config.fuel
            ~snapshot_at:periodic req)
    in
    let max_step = max 1 golden_result.Cpu.steps in
    let faults =
      Array.init config.faults_per_run (fun _ ->
          Fault.sample ~classes:config.fault_classes fault_rng ~max_step)
    in
    let plan =
      Tm.with_span "campaign.plan" (fun () -> Planner.plan trace faults)
    in
    (* Records in fault order.  Pruned faults share one synthesized
       record modulo their fault identity — the verdict re-judges the
       same golden result each time, so the synthesis (in particular
       the transition-detector classification of the golden PMU) runs
       at most once per golden execution.  A representative precedes
       the members of its class, which share its record. *)
    let pruned_template =
      lazy (synthesize_pruned config ~req ~golden_result faults.(0))
    in
    let rep_records = Array.make (Array.length faults) None in
    Array.iteri
      (fun i fault ->
        let record =
          match plan.Planner.dispositions.(i) with
          | Planner.Pruned _ ->
              incr pruned;
              { (Lazy.force pruned_template) with Outcome.fault }
          | Planner.Run { rep; act } when rep = i ->
              let r = simulate req ~golden_result snaps fault ~act in
              rep_records.(i) <- Some r;
              r
          | Planner.Run { rep; act = _ } -> (
              incr collapsed;
              match rep_records.(rep) with
              | Some r -> { r with Outcome.fault }
              | None -> assert false)
        in
        records := record :: !records)
      faults;
    (* Every restore is done: the snapshots' TLB arrays go back to the
       pool for the next iteration's captures. *)
    List.iter Hypervisor.release_snapshot snaps;
    Hypervisor.retire host req
  done;
  Hypervisor.release host;
  let n = config.injections * config.faults_per_run in
  ( List.rev !records,
    {
      zero_stats with
      planned = n;
      pruned = !pruned;
      collapsed = !collapsed;
      fast_forwarded = !fast_forwarded;
      simulated = !simulated;
    } )

let run_shard config =
  let t0 = if !Tm.enabled_ref then Xentry_util.Clock.monotonic () else 0.0 in
  let records, stats =
    if config.prune then run_shard_planned config
    else run_shard_exhaustive config
  in
  if !Tm.enabled_ref then
    record_shard_telemetry config records stats
      ~wall:(Xentry_util.Clock.monotonic () -. t0);
  (records, stats)

(* Campaigns are cut into fixed-size shards whose seeds derive from
   (campaign seed, shard index) alone.  The decomposition is a pure
   function of the config — never of the worker count — so merging
   shard results in shard order yields bit-identical records for any
   [jobs].  100 injections is enough intra-shard host evolution to
   keep the "successive injections see evolving system state" property
   while leaving paper-scale campaigns hundreds of shards to balance
   across workers. *)
let shard_size = 100

let shard_configs config =
  if config.injections <= 0 then []
  else
    let nshards = (config.injections + shard_size - 1) / shard_size in
    List.init nshards (fun s ->
        {
          config with
          injections = min shard_size (config.injections - (s * shard_size));
          seed = Xentry_util.Rng.derive config.seed s;
        })

(* The shard decomposition, exposed as the unit of distribution: a
   cluster coordinator leases shard *indices* and any worker process
   rebuilds the identical shard config from the campaign config alone,
   so results merge bit-identically no matter which process ran what. *)
let shard_plan config = List.mapi (fun i shard -> (i, shard)) (shard_configs config)

type checkpoint = {
  lookup : int -> Outcome.record list option;
  commit : int -> Outcome.record list -> unit;
}

let execute_with_stats ?checkpoint (config : Config.t) =
  let jobs =
    match config.jobs with
    | Some j -> j
    | None -> Xentry_util.Pool.default_jobs ()
  in
  let pool = Xentry_util.Pool.create ~jobs in
  (* Each work item is (shard index, shard config); the index keys the
     record checkpoint.  Journaled shards replay from storage, the rest
     run and commit from whichever worker computed them — either way
     the per-shard records are identical, so the shard-order merge is
     unchanged by interruption, resumption or the worker count. *)
  let run_one =
    match checkpoint with
    | None -> fun (_, shard) -> run_shard shard
    | Some cp -> (
        fun (index, shard) ->
          match cp.lookup index with
          | Some records -> (records, zero_stats)
          | None ->
              let records, stats = run_shard shard in
              cp.commit index records;
              (records, stats))
  in
  Tm.with_span "campaign.run" (fun () ->
      let results =
        Xentry_util.Pool.map_list pool run_one (shard_plan config)
      in
      (* The calling domain ran shards too; what its pools still hold
         would otherwise stay live for the rest of the process (worker
         domains take theirs with them when they exit). *)
      Memory.drop_pools ();
      let records = List.concat_map fst results in
      let stats =
        List.fold_left (fun acc (_, s) -> add_stats acc s) zero_stats results
      in
      (records, stats))

let execute ?checkpoint (config : Config.t) =
  fst (execute_with_stats ?checkpoint config)

let fault_free_shard ~seed ~benchmark ~mode ~runs =
  let profile = Xentry_workload.Profile.get benchmark in
  let rng = Xentry_util.Rng.create seed in
  let host = Hypervisor.create ~seed:(seed lxor 0xFACE) () in
  Hypervisor.set_assertions_enabled host true;
  List.init runs (fun _ ->
      let req = Xentry_workload.Profile.sample_request profile mode rng in
      let result = Hypervisor.handle host req in
      (req.Request.reason, result.Cpu.final_pmu))

let run_fault_free ?jobs ~seed ~benchmark ~mode ~runs () =
  let jobs =
    match jobs with Some j -> j | None -> Xentry_util.Pool.default_jobs ()
  in
  let pool = Xentry_util.Pool.create ~jobs in
  let nshards = if runs <= 0 then 0 else (runs + shard_size - 1) / shard_size in
  let shards =
    List.init nshards (fun s ->
        (Xentry_util.Rng.derive seed s, min shard_size (runs - (s * shard_size))))
  in
  List.concat
    (Xentry_util.Pool.map_list pool
       (fun (seed, runs) -> fault_free_shard ~seed ~benchmark ~mode ~runs)
       shards)
