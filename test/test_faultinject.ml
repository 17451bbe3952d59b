(* Tests for Xentry_faultinject: the fault model, consequence
   classification, campaign mechanics, aggregation and the training
   pipeline. *)

open Xentry_machine
open Xentry_vmm
open Xentry_core
open Xentry_faultinject

(* --- Fault model ------------------------------------------------------- *)

let test_fault_sample_ranges () =
  let rng = Xentry_util.Rng.create 3 in
  for _ = 1 to 500 do
    let f = Fault.sample rng ~max_step:100 in
    Alcotest.(check bool) "bit range" true (f.Fault.bit >= 0 && f.Fault.bit < 64);
    Alcotest.(check bool) "step range" true (f.Fault.step >= 0 && f.Fault.step < 100)
  done

let test_fault_targets_all_arch_registers () =
  let rng = Xentry_util.Rng.create 4 in
  let seen = Hashtbl.create 18 in
  for _ = 1 to 2000 do
    let f = Fault.sample rng ~max_step:10 in
    match f.Fault.target with
    | Fault.Reg r -> Hashtbl.replace seen (Xentry_isa.Reg.arch_name r) ()
    | _ -> Alcotest.fail "default sampler drew a non-register target"
  done;
  (* All 18 architectural registers should be hit eventually. *)
  Alcotest.(check int) "all registers targeted" 18 (Hashtbl.length seen)

let test_fault_to_injection () =
  let f = Fault.reg Xentry_isa.Reg.Rip ~bit:5 ~step:9 in
  let i = Fault.to_injection f in
  Alcotest.(check int) "bit" 5 i.Cpu.inj_bit;
  Alcotest.(check int) "step" 9 i.Cpu.inj_step

(* --- Consequence classification ------------------------------------------- *)

let prepared_pair () =
  let host = Hypervisor.create ~seed:21 () in
  let req =
    Request.make
      ~reason:(Exit_reason.Hypercall Hypercall.Event_channel_op)
      ~args:[ 12L; 0L ] ~guest:[]
  in
  Hypervisor.prepare host req;
  let a = Hypervisor.clone host in
  let b = Hypervisor.clone host in
  ignore (Hypervisor.execute a req);
  ignore (Hypervisor.execute b req);
  (a, b)

let test_classify_identical_hosts_no_diffs () =
  let a, b = prepared_pair () in
  Alcotest.(check int) "no diffs between identical runs" 0
    (List.length (Classify.diffs ~golden:a ~faulted:b))

let test_classify_detects_user_reg_diff () =
  let a, b = prepared_pair () in
  let dom = (Hypervisor.current_domain b).Domain.id in
  Domain.set_user_reg (Hypervisor.domains b).(dom) ~vcpu:0 Xentry_isa.Reg.RBX
    0xDEADL;
  let diffs = Classify.diffs ~golden:a ~faulted:b in
  Alcotest.(check bool) "user gpr diff found" true
    (List.exists
       (function
         | Classify.Dom_diff { cls = Classify.User_gpr _; _ } -> true
         | _ -> false)
       diffs)

let test_classify_consequences_by_region () =
  let a, b = prepared_pair () in
  let cur = (Hypervisor.current_domain b).Domain.id in
  (* Corrupt another domain's event channels: one-VM failure (or
     all-VM when it is the control domain). *)
  let other = if cur = 2 then 1 else 2 in
  Memory.store64 (Hypervisor.memory b)
    (Layout.evtchn_entry ~dom:other ~port:3)
    999L;
  let diffs = Classify.diffs ~golden:a ~faulted:b in
  Alcotest.(check bool) "one vm failure" true
    (Classify.consequence ~current_dom:cur ~faulted_stop:Cpu.Vm_entry diffs
    = Outcome.Long_latency Outcome.One_vm_failure)

let test_classify_dom0_is_all_vm () =
  let a, b = prepared_pair () in
  let cur = (Hypervisor.current_domain b).Domain.id in
  if cur <> 0 then begin
    Memory.store64 (Hypervisor.memory b)
      (Layout.evtchn_entry ~dom:0 ~port:3)
      999L;
    let diffs = Classify.diffs ~golden:a ~faulted:b in
    Alcotest.(check bool) "control domain corruption is all-vm" true
      (Classify.consequence ~current_dom:cur ~faulted_stop:Cpu.Vm_entry diffs
      = Outcome.Long_latency Outcome.All_vm_failure)
  end

let test_classify_time_only_is_sdc () =
  let a, b = prepared_pair () in
  let cur = (Hypervisor.current_domain b).Domain.id in
  Memory.store64 (Hypervisor.memory b) Layout.time_system_time 0x1234L;
  let diffs = Classify.diffs ~golden:a ~faulted:b in
  Alcotest.(check bool) "time corruption is SDC" true
    (Classify.consequence ~current_dom:cur ~faulted_stop:Cpu.Vm_entry diffs
    = Outcome.Long_latency Outcome.App_sdc)

let test_classify_crash_stop_short_latency () =
  let a, b = prepared_pair () in
  Alcotest.(check bool) "hw fault is short latency" true
    (Classify.consequence ~current_dom:0
       ~faulted_stop:(Cpu.Hw_fault { exn = Hw_exception.PF; detail = 0L })
       (Classify.diffs ~golden:a ~faulted:b)
    = Outcome.Short_latency Outcome.Hv_crash);
  Alcotest.(check bool) "hang is short latency" true
    (Classify.consequence ~current_dom:0 ~faulted_stop:Cpu.Out_of_fuel []
    = Outcome.Short_latency Outcome.Hv_hang)

let test_classify_masked () =
  let a, b = prepared_pair () in
  Alcotest.(check bool) "identical outputs masked" true
    (Classify.consequence ~current_dom:0 ~faulted_stop:Cpu.Vm_entry
       (Classify.diffs ~golden:a ~faulted:b)
    = Outcome.Masked)

let test_undetected_attribution () =
  let fault = Fault.reg (Xentry_isa.Reg.Gpr Xentry_isa.Reg.RAX) ~bit:1 ~step:1 in
  Alcotest.(check bool) "signature deviation is mis-classify" true
    (Classify.undetected_class ~fault ~signature_differs:true []
    = Outcome.Mis_classify);
  Alcotest.(check bool) "time-only diffs are time values" true
    (Classify.undetected_class ~fault ~signature_differs:false
       [ Classify.Global_time_diff ]
    = Outcome.Time_values);
  Alcotest.(check bool) "stack diffs are stack values" true
    (Classify.undetected_class ~fault ~signature_differs:false
       [ Classify.Stack_diff;
         Classify.Guest_reg_diff (Xentry_isa.Reg.RBX, 5L) ]
    = Outcome.Stack_values);
  Alcotest.(check bool) "rsp faults are stack values" true
    (Classify.undetected_class
       ~fault:
         { fault with Fault.target = Fault.Reg (Xentry_isa.Reg.Gpr Xentry_isa.Reg.RSP) }
       ~signature_differs:false
       [ Classify.Guest_reg_diff (Xentry_isa.Reg.RBX, 5L) ]
    = Outcome.Stack_values);
  Alcotest.(check bool) "plain data corruption is other" true
    (Classify.undetected_class ~fault ~signature_differs:false
       [ Classify.Guest_reg_diff (Xentry_isa.Reg.RBX, 5L) ]
    = Outcome.Other_values)

(* --- Campaign ------------------------------------------------------------------ *)

let small_campaign ?detector () =
  Campaign.execute
    (Campaign.Config.make ?detector ~benchmark:Xentry_workload.Profile.Postmark
       ~injections:400 ~seed:17 ())

let test_campaign_record_count () =
  Alcotest.(check int) "one record per injection" 400
    (List.length (small_campaign ()))

let test_campaign_deterministic () =
  let key r =
    ( r.Outcome.fault.Fault.bit,
      r.Outcome.fault.Fault.step,
      Outcome.consequence_name r.Outcome.consequence )
  in
  Alcotest.(check bool) "same seed, same records" true
    (List.map key (small_campaign ()) = List.map key (small_campaign ()))

let test_campaign_jobs_bit_identical () =
  (* ISSUE acceptance: running the same campaign with jobs ∈ {1,2,4}
     must produce structurally identical record lists.  Sharding is a
     pure function of the config, so the worker count only changes who
     executes each shard, never what it computes. *)
  let config =
    Campaign.Config.make ~benchmark:Xentry_workload.Profile.Postmark
      ~injections:400 ~seed:17 ()
  in
  let baseline = Campaign.execute { config with Campaign.jobs = Some 1 } in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d identical to jobs=1" jobs)
        true
        (Campaign.execute { config with Campaign.jobs = Some jobs } = baseline))
    [ 2; 4 ]

let test_campaign_fault_free_jobs_identical () =
  let run jobs =
    Campaign.run_fault_free ~jobs ~seed:5
      ~benchmark:Xentry_workload.Profile.Mcf ~mode:Xentry_workload.Profile.PV
      ~runs:250 ()
  in
  Alcotest.(check bool) "fault-free baseline independent of jobs" true
    (run 1 = run 4)

let test_hypervisor_cow_clone_no_alias () =
  (* A COW-cloned hypervisor must never alias writes into its parent:
     clone, mutate the clone's memory, diff. *)
  let host = Hypervisor.create ~seed:21 () in
  let golden = Hypervisor.clone host in
  let faulted = Hypervisor.clone host in
  let addr = Layout.time_system_time in
  let before = Memory.load64 (Hypervisor.memory golden) addr in
  Memory.store64 (Hypervisor.memory faulted) addr 0xBAD0_0001L;
  Alcotest.(check int64) "parent readback unchanged" before
    (Memory.load64 (Hypervisor.memory golden) addr);
  Alcotest.(check int64) "host untouched by either clone" before
    (Memory.load64 (Hypervisor.memory host) addr);
  Alcotest.(check bool) "diff sees the clone's private write" true
    (List.length (Classify.diffs ~golden ~faulted) > 0);
  (* And the reverse direction: a parent write after cloning must not
     leak into an existing clone. *)
  Memory.store64 (Hypervisor.memory host) addr 0xBAD0_0002L;
  Alcotest.(check int64) "clone unaffected by later parent write" before
    (Memory.load64 (Hypervisor.memory golden) addr)

let test_campaign_outcome_mix () =
  let records = small_campaign () in
  let s = Report.summarize records in
  (* The paper's campaign: ~59% of injections manifested; most
     manifested faults crash the hypervisor and are caught by the
     fatal-exception channel.  Shapes, not exact values. *)
  Alcotest.(check bool) "some faults activate" true (s.Report.activated > 50);
  Alcotest.(check bool) "some manifest" true (s.Report.manifested > 30);
  Alcotest.(check bool) "hw dominates" true
    (s.Report.techniques.Report.hw_exception > s.Report.techniques.Report.sw_assertion);
  Alcotest.(check bool) "high coverage" true (s.Report.coverage > 0.80)

let test_campaign_latencies_recorded () =
  let records = small_campaign () in
  let s = Report.summarize records in
  let hw = List.assoc Pipeline.Hw_exception_detection s.Report.latencies_by_technique in
  Alcotest.(check bool) "hw latencies recorded" true (Array.length hw > 10);
  Array.iter
    (fun l -> Alcotest.(check bool) "latency non-negative" true (l >= 0))
    hw

let test_campaign_signature_present_on_vm_entry () =
  List.iter
    (fun r ->
      match r.Outcome.signature with
      | Some _ -> ()
      | None ->
          (* No signature means the run stopped before VM entry: the
             verdict cannot be a transition detection. *)
          Alcotest.(check bool) "no transition verdict without signature" true
            (match r.Outcome.verdict with
            | Pipeline.Detected { technique = Pipeline.Vm_transition; _ } ->
                false
            | _ -> true))
    (small_campaign ())

let test_campaign_fault_free_baseline () =
  let runs =
    Campaign.run_fault_free ~seed:5 ~benchmark:Xentry_workload.Profile.Mcf
      ~mode:Xentry_workload.Profile.PV ~runs:100 ()
  in
  Alcotest.(check int) "requested count" 100 (List.length runs);
  List.iter
    (fun (_, snapshot) ->
      Alcotest.(check bool) "non-trivial execution" true (snapshot.Pmu.inst > 20))
    runs

(* --- Report ----------------------------------------------------------------------- *)

let test_report_percentages_sum () =
  let s = Report.summarize (small_campaign ()) in
  let total =
    List.fold_left (fun acc (_, p) -> acc +. p) 0.0 (Report.technique_percentages s)
  in
  Alcotest.(check (float 0.01)) "fig8 stack sums to 100%" 100.0 total

let test_report_undetected_percentages_sum () =
  let s = Report.summarize (small_campaign ()) in
  let total =
    List.fold_left (fun acc (_, p) -> acc +. p) 0.0 (Report.undetected_percentages s)
  in
  if s.Report.techniques.Report.undetected > 0 then
    Alcotest.(check (float 0.01)) "tableII sums to 100%" 100.0 total

let test_report_empty () =
  let s = Report.summarize [] in
  Alcotest.(check int) "no injections" 0 s.Report.total_injections;
  Alcotest.(check (float 0.0)) "coverage 0" 0.0 s.Report.coverage

(* Hand-built records pin summarize's exact semantics (tallies over
   manifested faults only, coverage, Fig 10's strict-< latency
   fraction) independently of campaign randomness. *)
let mk_record ?(activated = true)
    ?(consequence = Outcome.Long_latency Outcome.App_crash)
    ?(verdict = Pipeline.Clean) ?latency ?undetected () =
  {
    Outcome.fault = Fault.reg Xentry_isa.Reg.Rip ~bit:0 ~step:1;
    reason = Exit_reason.Softirq;
    activated;
    consequence;
    verdict;
    latency;
    undetected;
    signature = None;
    golden_signature = { Pmu.inst = 1; branches = 0; loads = 0; stores = 0 };
  }

let detected technique ?latency () =
  mk_record ~verdict:(Pipeline.Detected { technique; latency }) ?latency ()

let fixed_summary () =
  Report.summarize
    [
      detected Pipeline.Hw_exception_detection ~latency:100 ();
      detected Pipeline.Hw_exception_detection ~latency:700 ();
      detected Pipeline.Hw_exception_detection ~latency:800 ();
      detected Pipeline.Sw_assertion ~latency:5 ();
      detected Pipeline.Vm_transition ();
      mk_record ~undetected:Outcome.Stack_values ();
      mk_record ~undetected:Outcome.Stack_values ();
      mk_record ~undetected:Outcome.Time_values ();
      mk_record ~consequence:Outcome.Masked ();
      mk_record ~activated:false ~consequence:Outcome.Not_activated ();
    ]

let test_report_summarize_tallies () =
  let s = fixed_summary () in
  Alcotest.(check int) "injections" 10 s.Report.total_injections;
  Alcotest.(check int) "activated" 9 s.Report.activated;
  Alcotest.(check int) "manifested excludes masked/not-activated" 8
    s.Report.manifested;
  Alcotest.(check int) "hw" 3 s.Report.techniques.Report.hw_exception;
  Alcotest.(check int) "sw" 1 s.Report.techniques.Report.sw_assertion;
  Alcotest.(check int) "vmt" 1 s.Report.techniques.Report.vm_transition;
  Alcotest.(check int) "undetected" 3 s.Report.techniques.Report.undetected;
  Alcotest.(check (float 1e-9)) "coverage = detected/manifested" (5.0 /. 8.0)
    s.Report.coverage;
  Alcotest.(check int) "stack values" 2
    (List.assoc Outcome.Stack_values s.Report.undetected_breakdown);
  Alcotest.(check int) "time values" 1
    (List.assoc Outcome.Time_values s.Report.undetected_breakdown);
  let total_pct =
    List.fold_left (fun acc (_, p) -> acc +. p) 0.0
      (Report.technique_percentages s)
  in
  Alcotest.(check (float 1e-6)) "percentages sum to 100" 100.0 total_pct

let test_report_latency_fraction_boundary () =
  let s = fixed_summary () in
  (* Strict <: a detection at exactly the bound does not count. *)
  Alcotest.(check (float 1e-9)) "below 700 excludes the 700 sample"
    (1.0 /. 3.0)
    (Report.latency_fraction_below s Pipeline.Hw_exception_detection 700);
  Alcotest.(check (float 1e-9)) "below 801 includes everything" 1.0
    (Report.latency_fraction_below s Pipeline.Hw_exception_detection 801);
  Alcotest.(check (float 1e-9)) "below the minimum is zero" 0.0
    (Report.latency_fraction_below s Pipeline.Hw_exception_detection 100);
  (* The VM-transition detection carries no latency sample. *)
  Alcotest.(check (float 1e-9)) "no samples -> 0" 0.0
    (Report.latency_fraction_below s Pipeline.Vm_transition 1_000_000)

(* --- Training pipeline --------------------------------------------------------------- *)

let test_training_collect_labels () =
  let corpus =
    Training.collect ~seed:31
      ~benchmarks:[ Xentry_workload.Profile.Postmark ]
      ~mode:Xentry_workload.Profile.PV ~injections_per_benchmark:800
      ~fault_free_per_benchmark:200 ()
  in
  Alcotest.(check bool) "correct samples collected" true (corpus.Training.correct > 300);
  Alcotest.(check bool) "incorrect samples collected" true
    (corpus.Training.incorrect > 0);
  Alcotest.(check int) "dataset size matches counters"
    (corpus.Training.correct + corpus.Training.incorrect)
    (Xentry_mlearn.Dataset.length corpus.Training.dataset)

let test_training_pipeline_accuracy () =
  let train =
    Training.collect ~seed:32
      ~benchmarks:[ Xentry_workload.Profile.Postmark; Xentry_workload.Profile.Mcf ]
      ~mode:Xentry_workload.Profile.PV ~injections_per_benchmark:800
      ~fault_free_per_benchmark:200 ()
  in
  let test =
    Training.collect ~seed:33
      ~benchmarks:[ Xentry_workload.Profile.Postmark; Xentry_workload.Profile.Mcf ]
      ~mode:Xentry_workload.Profile.PV ~injections_per_benchmark:400
      ~fault_free_per_benchmark:100 ()
  in
  let tr = Training.train_and_evaluate ~train ~test () in
  let open Xentry_mlearn in
  (* Paper: 96.1% (decision tree) and 98.6% (random tree). *)
  Alcotest.(check bool) "decision tree accuracy > 0.9" true
    (Metrics.accuracy tr.Training.decision_tree_eval > 0.9);
  Alcotest.(check bool) "random tree accuracy > 0.9" true
    (Metrics.accuracy tr.Training.random_tree_eval > 0.9);
  (* Paper §VI: false positive rate 0.7%. *)
  Alcotest.(check bool) "random tree fpr < 2%" true
    (Metrics.false_positive_rate tr.Training.random_tree_eval < 0.02);
  (* The deployed detector flags deviant signatures. *)
  let det = Training.detector tr in
  ignore (Detector.worst_case_comparisons det)

let test_detector_improves_campaign_coverage () =
  let train =
    Training.collect ~seed:35
      ~benchmarks:[ Xentry_workload.Profile.Postmark ]
      ~mode:Xentry_workload.Profile.PV ~injections_per_benchmark:1500
      ~fault_free_per_benchmark:300 ()
  in
  let test =
    Training.collect ~seed:36
      ~benchmarks:[ Xentry_workload.Profile.Postmark ]
      ~mode:Xentry_workload.Profile.PV ~injections_per_benchmark:300
      ~fault_free_per_benchmark:100 ()
  in
  let tr = Training.train_and_evaluate ~train ~test () in
  let det = Training.detector tr in
  let without = Report.summarize (small_campaign ()) in
  let with_det = Report.summarize (small_campaign ~detector:det ()) in
  Alcotest.(check bool) "detector never lowers coverage" true
    (with_det.Report.coverage >= without.Report.coverage -. 1e-9)

(* --- Planner: pruning, fast-forwarding, verdict identity ------------------------------ *)

let planner_config ?fault_classes ~prune ~jobs ~seed ~injections
    ~faults_per_run () =
  Campaign.Config.make ?fault_classes ~jobs
    ~benchmark:Xentry_workload.Profile.Postmark ~injections ~seed ~fuel:2000
    ~faults_per_run ~prune ~snapshot_interval:32 ()

(* The non-negotiable planner invariant: pruned + fast-forwarded
   campaigns produce records structurally identical to exhaustive
   ones, for any worker count, with faults drawn from all six classes,
   so the mem, tlb and pte strikes' page-table and copy-on-write paths
   are covered too. *)
let test_planned_verdicts_identical_any_jobs () =
  List.iter
    (fun jobs ->
      let cfg prune =
        planner_config ~fault_classes:(Array.to_list Fault.all_classes) ~prune
          ~jobs ~seed:29 ~injections:6 ~faults_per_run:16 ()
      in
      let exhaustive = Campaign.execute (cfg false) in
      let planned, stats = Campaign.execute_with_stats (cfg true) in
      Alcotest.(check bool)
        (Printf.sprintf "planned identical (jobs=%d)" jobs)
        true (planned = exhaustive);
      Alcotest.(check bool)
        "pruning actually happened" true
        (stats.Campaign.pruned > 0))
    [ 1; 4 ]

(* Satellite regression: a fault whose sampled step lies at or beyond
   the number of executed steps short-circuits to Not_activated from
   the trace alone — and the zero-simulation answer matches what a
   real injected execution observes (nothing). *)
let test_fault_step_beyond_run_prunes () =
  let host = Hypervisor.create ~seed:77 () in
  let req =
    Request.make
      ~reason:(Exit_reason.Hypercall Hypercall.Event_channel_op)
      ~args:[ 12L; 0L ] ~guest:[]
  in
  Hypervisor.prepare host req;
  let base = Hypervisor.clone host in
  let golden_result, trace, _snaps =
    Hypervisor.execute_recorded host ~fuel:2000 req
  in
  let step = trace.Golden_trace.result_steps + 5 in
  Alcotest.(check bool) "trace short-circuits to Never_touched" true
    (Golden_trace.fate trace ~target:(Xentry_isa.Reg.Gpr Xentry_isa.Reg.RAX) ~step
    = Cpu.Never_touched);
  let fault = Fault.reg (Xentry_isa.Reg.Gpr Xentry_isa.Reg.RAX) ~bit:3 ~step in
  let plan = Planner.plan trace [| fault |] in
  (match plan.Planner.dispositions.(0) with
  | Planner.Pruned Cpu.Never_touched -> ()
  | _ ->
      Alcotest.fail "planner must prune a fault scheduled past the run's end");
  Alcotest.(check bool) "no representative runs" true (plan.Planner.reps = []);
  let det = Hypervisor.clone base in
  let det_result =
    Hypervisor.execute det ~inject:(Fault.to_injection fault) ~fuel:2000 req
  in
  Alcotest.(check bool) "stop identical to golden" true
    (det_result.Cpu.stop = golden_result.Cpu.stop);
  Alcotest.(check int) "steps identical to golden" golden_result.Cpu.steps
    det_result.Cpu.steps;
  Alcotest.(check bool) "never activated" true
    (match det_result.Cpu.activation with
    | Some r -> r.Cpu.fate = Cpu.Never_touched
    | None -> false);
  Alcotest.(check int) "no state divergence" 0
    (List.length (Classify.diffs ~golden:host ~faulted:det))

(* Regression: a memory word struck after the golden run's last access
   to it is never consumed.  The planner prunes it from the trace's
   timed access log although its page is touched earlier in the run,
   and an exhaustive run of the fault yields exactly what the
   synthesized record is built from: no activation, no RAS record, the
   golden stop, step count and PMU signature, and so the golden
   verdict.  The same word struck at its last access runs, and meets
   the fate the log predicts. *)
let test_mem_fault_after_last_access_prunes () =
  let profile = Xentry_workload.Profile.get Xentry_workload.Profile.Postmark in
  let rng = Xentry_util.Rng.create 17 in
  let host = Hypervisor.create ~seed:77 () in
  (* The first postmark request whose golden run reaches VM entry with a
     logged word last accessed at least two steps before the end. *)
  let rec find () =
    let req =
      Xentry_workload.Profile.sample_request profile Xentry_workload.Profile.PV
        rng
    in
    Hypervisor.prepare host req;
    let base = Hypervisor.clone host in
    let golden, trace, _ = Hypervisor.execute_recorded host ~fuel:2000 req in
    let log = trace.Golden_trace.accesses in
    let addr i = String.get_int64_le trace.Golden_trace.access_addrs (8 * i) in
    let last_access a =
      let last = ref (-1) in
      Array.iteri
        (fun j e ->
          let d = Int64.sub (addr j) a in
          if d >= -7L && d <= 7L then last := e lsr 1)
        log;
      !last
    in
    let rec word i =
      if i >= Array.length log then None
      else
        let a = addr i in
        let last = last_access a in
        if last + 2 < golden.Cpu.steps then Some (a, last) else word (i + 1)
    in
    match (golden.Cpu.stop, word 0) with
    | Cpu.Vm_entry, Some (a, last) -> (req, base, golden, trace, a, last)
    | _ ->
        Hypervisor.release base;
        Hypervisor.retire host req;
        find ()
  in
  let req, base, golden, trace, addr, last = find () in
  let fault step =
    {
      Fault.cls = Fault.Mem_word;
      target = Fault.Mem addr;
      bit = 5;
      width = 1;
      window = None;
      step;
    }
  in
  let after = fault (last + 1) and at = fault last in
  let plan = Planner.plan trace [| after; at |] in
  (match plan.Planner.dispositions with
  | [| Planner.Pruned Cpu.Never_touched; Planner.Run { rep = 1; act } |]
    when act = last ->
      ()
  | _ ->
      Alcotest.fail
        "a word struck after its last access prunes; struck at it, runs");
  Alcotest.(check (list int)) "one representative" [ 1 ] plan.Planner.reps;
  let run fault =
    let det = Hypervisor.clone base in
    let r =
      Hypervisor.execute det ~inject:(Fault.to_injection fault) ~fuel:2000 req
    in
    (r, Hypervisor.drain_ras det)
  in
  let fate (r : Cpu.run_result) =
    match r.Cpu.activation with
    | Some a -> a.Cpu.fate
    | None -> Alcotest.fail "injected run reported no activation"
  in
  let det, ras = run after in
  Alcotest.(check bool) "never touched" true (fate det = Cpu.Never_touched);
  Alcotest.(check int) "no RAS record" 0 (List.length ras);
  Alcotest.(check bool) "golden stop" true (det.Cpu.stop = golden.Cpu.stop);
  Alcotest.(check int) "golden steps" golden.Cpu.steps det.Cpu.steps;
  Alcotest.(check bool) "golden PMU signature" true
    (det.Cpu.final_pmu = golden.Cpu.final_pmu);
  let verdict ?ras r =
    Pipeline.verdict Pipeline.Config.default ?ras ~reason:req.Request.reason r
  in
  Alcotest.(check bool) "golden verdict" true
    (verdict ~ras det = verdict golden);
  let det_at, _ = run at in
  let i = Golden_trace.word_access trace ~addr ~step:last in
  let e = trace.Golden_trace.accesses.(i) in
  Alcotest.(check bool) "struck at its last access: the predicted fate" true
    (fate det_at
    = if e land 1 = 1 then Cpu.Overwritten last else Cpu.Activated last)

(* Satellite regression: the planner's pruning must stay
   verdict-invisible for every class of the widened fault model —
   register classes prune on def/use fates, memory-system classes on
   the trace's timed access log — for any jobs count. *)
let test_planned_identical_per_class () =
  Array.iter
    (fun c ->
      let cfg ~prune ~jobs =
        Campaign.Config.make ~jobs
          ~benchmark:Xentry_workload.Profile.Postmark ~injections:4 ~seed:31
          ~fuel:2000 ~faults_per_run:12 ~prune ~snapshot_interval:32
          ~fault_classes:[ c ] ()
      in
      let exhaustive = Campaign.execute (cfg ~prune:false ~jobs:1) in
      List.iter
        (fun jobs ->
          let planned = Campaign.execute (cfg ~prune:true ~jobs) in
          Alcotest.(check bool)
            (Printf.sprintf "%s planned identical (jobs=%d)" (Fault.cls_name c)
               jobs)
            true (planned = exhaustive))
        [ 1; 4 ])
    Fault.all_classes

(* The widened sampler's default class list must consume the exact
   historical RNG stream — step, bit, target, no class draw (the old
   sampler was a record literal, evaluated right-to-left) — so seeded
   reg1 campaigns reproduce their pre-widening records. *)
let test_reg1_sampler_stream_stable () =
  let rng = Xentry_util.Rng.create 99 in
  let ref_rng = Xentry_util.Rng.create 99 in
  for _ = 1 to 200 do
    let f = Fault.sample rng ~max_step:500 in
    let step = Xentry_util.Rng.int ref_rng 500 in
    let bit = Xentry_util.Rng.int ref_rng 64 in
    let target = Xentry_util.Rng.choice ref_rng Xentry_isa.Reg.all_arch in
    Alcotest.(check bool) "historical draw" true
      (f = Fault.reg target ~bit ~step)
  done

(* --- qcheck --------------------------------------------------------------------------- *)

let prop_planned_equals_exhaustive =
  QCheck.Test.make
    ~name:"random pruned campaigns are verdict-identical to exhaustive (jobs \
           1 and 4)"
    ~count:8
    QCheck.(triple (int_range 0 1_000_000) (int_range 1 4) (int_range 1 12))
    (fun (seed, injections, faults_per_run) ->
      List.for_all
        (fun jobs ->
          let cfg prune =
            planner_config ~prune ~jobs ~seed ~injections ~faults_per_run ()
          in
          Campaign.execute (cfg true) = Campaign.execute (cfg false))
        [ 1; 4 ])

(* Recovery identity: for any host seed and any detected random fault,
   a checkpoint restore plus re-execution reproduces the golden host
   bit-exactly, and a micro-reboot (boot image over hypervisor-private
   scratch, the captured context for everything else) plus replay
   reproduces its guest-visible state bit-exactly — the only diff the
   partition permits is the hypervisor stack, which is boot-clean on
   the rebooted host by construction. *)
let prop_microboot_identity =
  QCheck.Test.make
    ~name:"micro-reboot recovers detected faults bit-exactly (guest surface)"
    ~count:40
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (host_seed, fault_seed) ->
      let module Microboot = Xentry_recover.Microboot in
      let pcfg = Pipeline.Config.make ~fuel:4000 () in
      let host = Pipeline.create_host ~seed:host_seed pcfg in
      Hypervisor.set_assertions_enabled host
        pcfg.Pipeline.Config.detection.Pipeline.sw_assertions;
      let image = Microboot.capture_image host in
      let rng = Xentry_util.Rng.create fault_seed in
      let profile = Xentry_workload.Profile.get Xentry_workload.Profile.Postmark in
      let req =
        Xentry_workload.Profile.sample_request profile Xentry_workload.Profile.PV
          rng
      in
      Hypervisor.prepare host req;
      let ctx = Microboot.capture host req in
      let golden = Hypervisor.clone host in
      let golden_result =
        Hypervisor.execute golden ~fuel:pcfg.Pipeline.Config.fuel req
      in
      let fault = Fault.sample rng ~max_step:(max 1 golden_result.Cpu.steps) in
      let outcome =
        Pipeline.run pcfg ~host ~prepare:false
          ~inject:(Fault.to_injection fault) req
      in
      match outcome.Pipeline.verdict with
      | Pipeline.Clean -> true (* the property quantifies over detected faults *)
      | Pipeline.Detected _ ->
          let restored = Microboot.restore ctx in
          let reexec = Pipeline.run pcfg ~host:restored ~prepare:false req in
          let rebooted = Microboot.reboot image ctx in
          let replay = Pipeline.run pcfg ~host:rebooted ~prepare:false req in
          reexec.Pipeline.result.Cpu.stop = Cpu.Vm_entry
          && Classify.diffs ~golden ~faulted:restored = []
          && replay.Pipeline.result.Cpu.stop = Cpu.Vm_entry
          && Classify.diffs ~golden ~faulted:rebooted
             |> List.for_all (fun d -> d = Classify.Stack_diff))

(* The micro-reboot as it was before a capture became a journal epoch:
   a copy-on-write clone of the host at capture, and at reboot a clone
   of that clone, the boot image stored byte by byte, then the request
   re-staged.  Kept as the reference the journal reboot must match. *)
let clone_reboot ~image ~captured req =
  let fresh = Hypervisor.clone captured in
  let mem = Hypervisor.memory fresh in
  List.iter
    (fun (addr, data) ->
      Bytes.iteri
        (fun i byte ->
          Memory.store8 mem (Int64.add addr (Int64.of_int i)) (Char.code byte))
        data)
    image;
  Hypervisor.restage fresh req;
  fresh

(* Twin hosts from one seed run the same requests and the same fault
   of any class: [live] captures every request as a journal epoch,
   [twin] keeps a clone at the last capture.  Rebooting both must give
   the same host: no diffs (stack included), the same page count, the
   same replay and the same follow-up results. *)
let prop_journal_reboot_matches_clone_reboot =
  QCheck.Test.make ~name:"journal micro-reboot equals the clone-based reboot"
    ~count:40
    QCheck.(triple (int_range 0 1_000_000) (int_range 0 8) (int_range 0 1_000_000))
    (fun (host_seed, warmup, seed) ->
      let module Microboot = Xentry_recover.Microboot in
      let fuel = 4000 in
      let profile = Xentry_workload.Profile.get Xentry_workload.Profile.Postmark in
      let rng = Xentry_util.Rng.create seed in
      let next () =
        Xentry_workload.Profile.sample_request profile Xentry_workload.Profile.PV rng
      in
      let live = Hypervisor.create ~seed:host_seed () in
      let twin = Hypervisor.create ~seed:host_seed () in
      let image = Microboot.capture_image live in
      let twin_image =
        List.map
          (fun (_, addr, len) ->
            (addr, Memory.blit_out (Hypervisor.memory twin) ~addr ~len))
          Microboot.reinit_regions
      in
      for _ = 1 to warmup do
        let req = next () in
        Hypervisor.prepare live req;
        ignore (Microboot.capture live req : Microboot.context);
        ignore (Hypervisor.execute live ~fuel req : Cpu.run_result);
        Hypervisor.retire live req;
        ignore (Hypervisor.handle twin req : Cpu.run_result)
      done;
      let req = next () in
      Hypervisor.prepare live req;
      Hypervisor.prepare twin req;
      let ctx = Microboot.capture live req in
      let captured = Hypervisor.clone twin in
      let golden = Hypervisor.execute (Hypervisor.clone captured) ~fuel req in
      let fault =
        Fault.sample ~classes:(Array.to_list Fault.all_classes) rng
          ~max_step:(max 1 golden.Cpu.steps)
      in
      let inject = Fault.to_injection fault in
      let faulted = Hypervisor.execute live ~inject ~fuel req in
      let rebooted = Microboot.reboot image ctx in
      let reference = clone_reboot ~image:twin_image ~captured req in
      let same () = Classify.diffs ~golden:reference ~faulted:rebooted = [] in
      let both f = f rebooted = f reference in
      faulted = Hypervisor.execute twin ~inject ~fuel req
      && same ()
      && both (fun h -> Memory.page_count (Hypervisor.memory h))
      && both (fun h -> Hypervisor.execute h ~fuel req)
      && same ()
      && begin
           Hypervisor.retire rebooted req;
           Hypervisor.retire reference req;
           List.for_all
             (fun _ ->
               let fu = next () in
               both (fun h -> Hypervisor.handle h fu))
             [ 1; 2; 3 ]
         end
      && same ())

(* A context lives until the next capture on its host, or until the
   host is released. *)
let test_microboot_superseded_context () =
  let module Microboot = Xentry_recover.Microboot in
  let host = Hypervisor.create ~seed:5 () in
  let image = Microboot.capture_image host in
  let rng = Xentry_util.Rng.create 5 in
  let profile = Xentry_workload.Profile.get Xentry_workload.Profile.Postmark in
  let req = Xentry_workload.Profile.sample_request profile Xentry_workload.Profile.PV rng in
  Hypervisor.prepare host req;
  let first = Microboot.capture host req in
  let second = Microboot.capture host req in
  let raises recover ctx =
    match recover ctx with _ -> false | exception Invalid_argument _ -> true
  in
  let reboot = Microboot.reboot image and restore = Microboot.restore in
  Alcotest.(check bool) "superseded context raises" true (raises reboot first);
  Alcotest.(check bool) "superseded context won't restore" true
    (raises restore first);
  Alcotest.(check bool) "current context reboots" false (raises reboot second);
  Alcotest.(check bool) "and restores" false (raises restore second);
  Alcotest.(check bool) "and reboots again" false (raises reboot second);
  Hypervisor.release host;
  Alcotest.(check bool) "released host's context raises" true
    (raises reboot second);
  Alcotest.(check bool) "released host's context won't restore" true
    (raises restore second)

(* The recovery result's JSON rendering, shared by the CLI's
   [recover --json] and the bench's [--json] "recover" section, pinned
   byte for byte on a hand-built result. *)
let test_recover_json_schema () =
  let module C = Xentry_recover.Campaign in
  let cls cls faults ok =
    {
      C.cls;
      faults;
      checkpoint_recovered = ok;
      recovered_exactly = ok - 1;
      mismatches = 1;
      carryover = 0;
    }
  in
  let r =
    {
      C.injections = 100;
      detected = 12;
      undetected_manifested = 3;
      masked = 85;
      classes = [ cls C.Detected_hw 10 10; cls C.Detected_assertion 2 2 ];
      checkpoint_work_recovered = 12;
      micro_work_recovered = 10;
      micro_work_lost = 2;
      micro_state_lost = 2;
      restart_work_lost = 12;
      restart_state_lost = 12;
      mttf_improvement = 6.0;
      image_bytes = 57344;
      reboot_ns_mean = 1234.56;
      reboot_ns_p99 = 9876.5;
    }
  in
  let expected mttf =
    "{\"schema\":\"xentry-recover-v2\",\"benchmark\":\"canneal\",\
     \"injections\":100,\"detected\":12,\"undetected_manifested\":3,\
     \"masked\":85,\"checkpoint_work_recovered\":12,\
     \"micro_work_recovered\":10,\"micro_work_lost\":2,\
     \"micro_state_lost\":2,\"restart_work_lost\":12,\
     \"restart_state_lost\":12,\"mttf_improvement\":" ^ mttf
    ^ ",\"image_bytes\":57344,\"reboot_ns_mean\":1234.6,\
       \"reboot_ns_p99\":9876.5,\"classes\":[\
       {\"class\":\"detected/hw-exception\",\"faults\":10,\
       \"checkpoint_recovered\":10,\"recovered_exactly\":9,\
       \"mismatches\":1,\"carryover\":0},\
       {\"class\":\"detected/sw-assertion\",\"faults\":2,\
       \"checkpoint_recovered\":2,\"recovered_exactly\":1,\
       \"mismatches\":1,\"carryover\":0}]}"
  in
  let json r = C.to_json ~benchmark:Xentry_workload.Profile.Canneal r in
  Alcotest.(check string) "finite mttf" (expected "6.000") (json r);
  Alcotest.(check string) "infinite mttf is null" (expected "null")
    (json { r with C.mttf_improvement = Float.infinity })

(* The region walk [Classify.diffs] made before its table was grouped
   by page: the region list rebuilt per call and every region compared
   with [Memory.region_equal].  Kept as the reference the page-grouped
   diff must match list for list. *)
let region_walk_diffs ~golden ~faulted =
  let ga = Hypervisor.memory golden and fa = Hypervisor.memory faulted in
  let differs ~addr ~len = not (Memory.region_equal ga fa ~addr ~len) in
  let dom_subregions dom =
    let vcpu = Layout.vcpu_area ~dom ~vcpu:0 in
    let vi = Layout.vcpu_info ~dom ~vcpu:0 in
    let si = Layout.shared_info dom in
    List.init Xentry_isa.Reg.gpr_count (fun i ->
        (`Gpr_slot i, Int64.add vcpu (Int64.of_int (i * 8)), 8))
    @ Classify.
        [
          (`Cls User_ctl, Int64.add vcpu Layout.vcpu_user_rip, 16);
          ( `Cls Traps,
            Int64.add vcpu Layout.vcpu_pending_traps,
            Layout.vcpu_trap_slots * 8 );
          (`Cls Vcpu_event, Int64.add vi Layout.vi_upcall_pending, 16);
          (`Cls Vcpu_time, Int64.add vi Layout.vi_time_version, 24);
          (`Cls Kernel, si, 0x80);
          (`Cls Vcpu_time, Int64.add si Layout.si_wc_sec, 16);
          (`Cls Kernel, Layout.evtchn_entry ~dom ~port:0, Layout.evtchn_ports * 16);
          (`Cls Kernel, Layout.grant_entry ~dom 0, Layout.grant_entries * 16);
        ]
  in
  let acc = ref [] in
  for dom = 0 to Array.length (Hypervisor.domains golden) - 1 do
    List.iter
      (fun (tag, addr, len) ->
        if differs ~addr ~len then
          let cls =
            match tag with
            | `Cls c -> c
            | `Gpr_slot i -> Classify.User_gpr (i, Memory.load64 ga addr)
          in
          acc := Classify.Dom_diff { dom; cls } :: !acc)
      (dom_subregions dom)
  done;
  List.iter
    (fun (_, addr, len) ->
      if differs ~addr ~len then acc := Classify.Global_time_diff :: !acc)
    (Vtime.time_regions ());
  if differs ~addr:Layout.hv_global_base ~len:0x40 then
    acc := Classify.Hv_global_diff :: !acc;
  if differs ~addr:Layout.hv_stack_base ~len:Layout.hv_stack_size then
    acc := Classify.Stack_diff :: !acc;
  let gc = Hypervisor.cpu golden and fc = Hypervisor.cpu faulted in
  List.iter
    (fun g ->
      let gv = Cpu.get_gpr gc g in
      if gv <> Cpu.get_gpr fc g then acc := Classify.Guest_reg_diff (g, gv) :: !acc)
    Xentry_isa.Reg.[ RAX; RBX; RCX; RDX; RSI; RDI ];
  List.rev !acc

(* Golden/faulted pairs the way campaigns make them: a host evolved by
   a few requests, a golden run with mid-run snapshots, and faults of
   every class injected both from the nearest snapshot and from a
   pre-run clone; plus the pre-run clone against the post-run host,
   which differ almost everywhere. *)
let prop_page_grouped_diffs_match_region_walk =
  QCheck.Test.make ~name:"page-grouped diffs equal the region walk" ~count:60
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 6))
    (fun (seed, warmup) ->
      let profile = Xentry_workload.Profile.get Xentry_workload.Profile.Postmark in
      let rng = Xentry_util.Rng.create seed in
      let next_request () =
        Xentry_workload.Profile.sample_request profile Xentry_workload.Profile.PV rng
      in
      let host = Hypervisor.create ~seed () in
      for _ = 1 to warmup do
        ignore (Hypervisor.handle host (next_request ()))
      done;
      let req = next_request () in
      Hypervisor.prepare host req;
      let base = Hypervisor.clone host in
      let golden_result, _trace, snaps =
        Hypervisor.execute_recorded host ~fuel:2000
          ~snapshot_at:[| 0; 8; 16; 32; 64; 128 |] req
      in
      let agree faulted =
        Classify.diffs ~golden:host ~faulted = region_walk_diffs ~golden:host ~faulted
      in
      agree base
      && List.for_all
           (fun _ ->
             let fault =
               Fault.sample ~classes:(Array.to_list Fault.all_classes) rng
                 ~max_step:(max 1 golden_result.Cpu.steps)
             in
             let inject = Fault.to_injection fault in
             let snap =
               List.fold_left
                 (fun best s ->
                   if Hypervisor.snapshot_step s <= fault.Fault.step then s else best)
                 (List.hd snaps) snaps
             in
             let resumed = Hypervisor.restore snap in
             Hypervisor.set_assertions_enabled resumed false;
             ignore (Hypervisor.resume resumed snap ~inject ~fuel:2000 req);
             let rerun = Hypervisor.clone base in
             Hypervisor.set_assertions_enabled rerun false;
             ignore (Hypervisor.execute rerun ~inject ~fuel:2000 req);
             agree resumed && agree rerun)
           (List.init 8 Fun.id))

let prop_consequence_total =
  QCheck.Test.make ~name:"every record has a coherent consequence" ~count:1
    QCheck.unit
    (fun () ->
      List.for_all
        (fun r ->
          match r.Outcome.consequence with
          | Outcome.Not_activated -> not r.Outcome.activated
          | Outcome.Masked | Outcome.Short_latency _ | Outcome.Long_latency _ ->
              r.Outcome.activated)
        (small_campaign ()))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_consequence_total; prop_planned_equals_exhaustive;
        prop_microboot_identity; prop_journal_reboot_matches_clone_reboot;
        prop_page_grouped_diffs_match_region_walk;
      ]
  in
  Alcotest.run "xentry_faultinject"
    [
      ( "fault",
        [
          Alcotest.test_case "sample ranges" `Quick test_fault_sample_ranges;
          Alcotest.test_case "reg1 stream stable" `Quick
            test_reg1_sampler_stream_stable;
          Alcotest.test_case "targets all registers" `Quick
            test_fault_targets_all_arch_registers;
          Alcotest.test_case "to injection" `Quick test_fault_to_injection;
        ] );
      ( "classify",
        [
          Alcotest.test_case "identical no diffs" `Quick
            test_classify_identical_hosts_no_diffs;
          Alcotest.test_case "user reg diff" `Quick test_classify_detects_user_reg_diff;
          Alcotest.test_case "region consequences" `Quick
            test_classify_consequences_by_region;
          Alcotest.test_case "dom0 all-vm" `Quick test_classify_dom0_is_all_vm;
          Alcotest.test_case "time sdc" `Quick test_classify_time_only_is_sdc;
          Alcotest.test_case "crash short latency" `Quick
            test_classify_crash_stop_short_latency;
          Alcotest.test_case "masked" `Quick test_classify_masked;
          Alcotest.test_case "undetected attribution" `Quick
            test_undetected_attribution;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "record count" `Slow test_campaign_record_count;
          Alcotest.test_case "deterministic" `Slow test_campaign_deterministic;
          Alcotest.test_case "jobs bit-identical" `Slow
            test_campaign_jobs_bit_identical;
          Alcotest.test_case "fault-free jobs identical" `Quick
            test_campaign_fault_free_jobs_identical;
          Alcotest.test_case "hypervisor cow no alias" `Quick
            test_hypervisor_cow_clone_no_alias;
          Alcotest.test_case "outcome mix" `Slow test_campaign_outcome_mix;
          Alcotest.test_case "latencies" `Slow test_campaign_latencies_recorded;
          Alcotest.test_case "signature coherence" `Slow
            test_campaign_signature_present_on_vm_entry;
          Alcotest.test_case "fault-free baseline" `Quick
            test_campaign_fault_free_baseline;
          Alcotest.test_case "planned identical per fault class" `Slow
            test_planned_identical_per_class;
          Alcotest.test_case "planned verdict-identical (jobs 1 and 4)" `Slow
            test_planned_verdicts_identical_any_jobs;
          Alcotest.test_case "fault step beyond run prunes" `Quick
            test_fault_step_beyond_run_prunes;
          Alcotest.test_case "mem fault after last access prunes" `Quick
            test_mem_fault_after_last_access_prunes;
        ] );
      ( "microboot",
        [
          Alcotest.test_case "superseded context raises" `Quick
            test_microboot_superseded_context;
          Alcotest.test_case "recover json schema" `Quick
            test_recover_json_schema;
        ] );
      ( "report",
        [
          Alcotest.test_case "fig8 sums" `Slow test_report_percentages_sum;
          Alcotest.test_case "tableII sums" `Slow test_report_undetected_percentages_sum;
          Alcotest.test_case "empty" `Quick test_report_empty;
          Alcotest.test_case "summarize tallies" `Quick
            test_report_summarize_tallies;
          Alcotest.test_case "latency fraction boundary" `Quick
            test_report_latency_fraction_boundary;
        ] );
      ( "training",
        [
          Alcotest.test_case "collect labels" `Slow test_training_collect_labels;
          Alcotest.test_case "pipeline accuracy" `Slow test_training_pipeline_accuracy;
          Alcotest.test_case "detector helps" `Slow
            test_detector_improves_campaign_coverage;
        ] );
      ("properties", qsuite);
    ]
