(* Tests for the future-work extensions: checkpoint/re-execution
   recovery (paper §VI's sketched mechanism, implemented on the
   micro-reboot context's journal checkpoint) and the hardened handler
   variants (selective value duplication). *)

open Xentry_isa
open Xentry_machine
open Xentry_vmm
open Xentry_faultinject

let stop_testable = Alcotest.testable Cpu.pp_stop ( = )

(* --- Checkpoint recovery ---------------------------------------------------- *)

module Microboot = Xentry_recover.Microboot

let evtchn_req =
  Request.make
    ~reason:(Exit_reason.Hypercall Hypercall.Event_channel_op)
    ~args:[ 17L; 0L ] ~guest:[]

let test_checkpoint_restore_roundtrip () =
  let host = Hypervisor.create ~seed:3 () in
  Hypervisor.prepare host evtchn_req;
  let ctx = Microboot.capture host evtchn_req in
  let reference = Hypervisor.clone host in
  (* Mutate a spread of state, then restore. *)
  let mem = Hypervisor.memory host in
  Memory.store64 mem Layout.time_system_time 0xBADL;
  Memory.store64 mem (Layout.evtchn_entry ~dom:1 ~port:9) 0xBADL;
  Memory.store64 mem Layout.global_jiffies 0xBADL;
  Domain.set_user_reg (Hypervisor.domains host).(1) ~vcpu:0 Reg.RBX 0xBADL;
  let restored = Microboot.restore ctx in
  Alcotest.(check int) "no differences after restore" 0
    (List.length (Classify.diffs ~golden:reference ~faulted:restored))

let test_checkpoint_restores_tsc () =
  let host = Hypervisor.create ~seed:3 () in
  Hypervisor.prepare host evtchn_req;
  let ctx = Microboot.capture host evtchn_req in
  let tsc0 = Cpu.get_tsc (Hypervisor.cpu host) in
  ignore (Hypervisor.execute host evtchn_req);
  Alcotest.(check bool) "execution advanced the tsc" true
    (Cpu.get_tsc (Hypervisor.cpu host) > tsc0);
  let restored = Microboot.restore ctx in
  Alcotest.(check int64) "tsc restored" tsc0
    (Cpu.get_tsc (Hypervisor.cpu restored))

let test_recover_reexecutes_cleanly () =
  let host = Hypervisor.create ~seed:3 () in
  Hypervisor.prepare host evtchn_req;
  let ctx = Microboot.capture host evtchn_req in
  let golden = Hypervisor.clone host in
  ignore (Hypervisor.execute golden evtchn_req);
  (* Crash the host with a wild pointer fault. *)
  let inject = Cpu.reg_injection (Reg.Gpr Reg.R14) ~bit:45 ~step:25 in
  let crashed = Hypervisor.execute host ~inject evtchn_req in
  (match crashed.Cpu.stop with
  | Cpu.Hw_fault _ -> ()
  | s -> Alcotest.failf "expected a crash, got %a" Cpu.pp_stop s);
  (* Recover: restore and re-execute; the transient fault is gone. *)
  let restored = Microboot.restore ctx in
  let recovered = Hypervisor.execute restored evtchn_req in
  Alcotest.check stop_testable "recovered run reaches vm entry" Cpu.Vm_entry
    recovered.Cpu.stop;
  Alcotest.(check int) "recovered state matches golden exactly" 0
    (List.length (Classify.diffs ~golden ~faulted:restored))

let test_recovery_study_all_detected_recover () =
  let module C = Xentry_recover.Campaign in
  let r =
    C.run
      {
        C.default_config with
        C.seed = 5;
        benchmark = Xentry_workload.Profile.Canneal;
        injections = 600;
      }
  in
  Alcotest.(check bool) "some faults detected" true (r.C.detected > 50);
  Alcotest.(check int) "every detected fault restored exactly" r.C.detected
    r.C.checkpoint_work_recovered;
  Alcotest.(check int) "every detected fault micro-rebooted exactly"
    r.C.detected r.C.micro_work_recovered

let test_handlers_write_only_checkpointed_regions () =
  (* Recovery correctness rests on the checkpoint covering every byte a
     handler can write.  The capture is a journal epoch, so check it
     against real handlers: run every exit reason fault-free on the
     live host, restore the capture, and the restored host must be
     indistinguishable from a pre-execution clone across every
     compared structure — a write the journal missed would survive
     into the restore and show up here. *)
  let host = Hypervisor.create ~seed:41 () in
  let rng = Xentry_util.Rng.create 43 in
  let profile = Xentry_workload.Profile.get Xentry_workload.Profile.Postmark in
  for _ = 1 to 200 do
    let req =
      Xentry_workload.Profile.sample_request profile Xentry_workload.Profile.PV
        rng
    in
    Hypervisor.prepare host req;
    let pristine = Hypervisor.clone host in
    let ctx = Microboot.capture host req in
    ignore (Hypervisor.execute host req);
    let restored = Microboot.restore ctx in
    (match Classify.diffs ~golden:pristine ~faulted:restored with
    | [] -> ()
    | diffs ->
        Alcotest.failf "%s escaped the checkpoint (%d regions)"
          (Exit_reason.name req.Request.reason)
          (List.length diffs));
    Hypervisor.release restored;
    Hypervisor.release pristine;
    Hypervisor.retire host req
  done

(* --- Hardened handlers ----------------------------------------------------- *)

let sample_requests seed n =
  let rng = Xentry_util.Rng.create seed in
  let p = Xentry_workload.Profile.get Xentry_workload.Profile.Postmark in
  List.init n (fun _ ->
      Xentry_workload.Profile.sample_request p Xentry_workload.Profile.PV rng)

let test_hardened_handlers_run_clean () =
  let host = Hypervisor.create ~seed:7 ~hardened:true () in
  List.iter
    (fun req ->
      let result = Hypervisor.handle host req in
      Alcotest.check stop_testable
        (Printf.sprintf "%s clean under hardening"
           (Exit_reason.name req.Request.reason))
        Cpu.Vm_entry result.Cpu.stop)
    (sample_requests 11 300)

let test_hardened_static_size_larger () =
  Alcotest.(check bool) "hardening adds instructions" true
    (Handlers.static_instruction_count ~hardened:true ()
    > Handlers.static_instruction_count ())

let test_hardened_variants_memoized_separately () =
  let base = Handlers.program Exit_reason.Softirq in
  let hard = Handlers.program ~hardened:true Exit_reason.Softirq in
  Alcotest.(check bool) "different programs" true (base != hard);
  Alcotest.(check bool) "hardened is longer" true
    (Program.length hard > Program.length base)

let test_hardened_catches_frame_transit_fault () =
  (* A guest register corrupted between its push and the frame copy is
     silent on the baseline but BUG()s out (#UD) on the hardened
     variant: the copy disagrees with the live register. *)
  let req =
    Request.make
      ~reason:(Exit_reason.Hypercall Hypercall.Xen_version)
      ~args:[ 1L ] ~guest:[ 0L; 0x42L ]
  in
  let run hardened =
    let host = Hypervisor.create ~seed:9 ~hardened () in
    Hypervisor.prepare host req;
    (* RBX is pushed at step 1; the frame-copy reads its slot several
       instructions later.  Corrupt RBX in between. *)
    let inject = Cpu.reg_injection (Reg.Gpr Reg.RBX) ~bit:20 ~step:4 in
    Hypervisor.execute host ~inject req
  in
  let baseline = run false in
  Alcotest.check stop_testable "baseline is silent" Cpu.Vm_entry
    baseline.Cpu.stop;
  let hardened = run true in
  match hardened.Cpu.stop with
  | Cpu.Hw_fault { exn = Hw_exception.UD; _ } -> ()
  | s -> Alcotest.failf "expected #UD from duplication check, got %a" Cpu.pp_stop s

let test_hardened_reduces_undetected_stack_class () =
  let undetected_stack hardened =
    let records =
      Campaign.execute
        (Campaign.Config.make ~hardened
           ~benchmark:Xentry_workload.Profile.Postmark ~injections:2500 ~seed:13
           ())
    in
    let s = Report.summarize records in
    List.assoc Outcome.Stack_values s.Report.undetected_breakdown
  in
  Alcotest.(check bool) "hardening does not increase silent stack faults" true
    (undetected_stack true <= undetected_stack false)

let test_hardened_campaign_still_covered () =
  (* Hardening must not cost detection coverage.  The bound is
     relative to the un-hardened campaign rather than an absolute
     constant: the exception filter now uses the Guest_servicing
     context when the exit reason is a guest exception, so benign
     #PF/#GP/#UD during guest servicing no longer inflate the
     hardware-detection tally the old 0.85 floor was calibrated
     against. *)
  let coverage hardened =
    let records =
      Campaign.execute
        (Campaign.Config.make ~hardened
           ~benchmark:Xentry_workload.Profile.Mcf ~injections:1200 ~seed:17 ())
    in
    (Report.summarize records).Report.coverage
  in
  let plain = coverage false and hardened = coverage true in
  Alcotest.(check bool) "coverage stays high under hardening" true
    (hardened > 0.70 && hardened >= plain -. 0.02)

let () =
  Alcotest.run "xentry_extensions"
    [
      ( "recovery",
        [
          Alcotest.test_case "checkpoint/restore roundtrip" `Quick
            test_checkpoint_restore_roundtrip;
          Alcotest.test_case "tsc restored" `Quick test_checkpoint_restores_tsc;
          Alcotest.test_case "recover re-executes" `Quick
            test_recover_reexecutes_cleanly;
          Alcotest.test_case "study: all detected recover" `Slow
            test_recovery_study_all_detected_recover;
          Alcotest.test_case "writes stay in checkpointed regions" `Slow
            test_handlers_write_only_checkpointed_regions;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "fault-free clean" `Slow test_hardened_handlers_run_clean;
          Alcotest.test_case "static size" `Quick test_hardened_static_size_larger;
          Alcotest.test_case "variants memoized" `Quick
            test_hardened_variants_memoized_separately;
          Alcotest.test_case "catches frame-transit fault" `Quick
            test_hardened_catches_frame_transit_fault;
          Alcotest.test_case "reduces silent stack class" `Slow
            test_hardened_reduces_undetected_stack_class;
          Alcotest.test_case "coverage holds" `Slow test_hardened_campaign_still_covered;
        ] );
    ]
