(* Tests for Xentry_vmm: exit-reason taxonomy, hypercall table, layout,
   domains, event channels, scheduler, timekeeping, the software
   assertions compiled into the handlers, and — most importantly —
   that every synthesized handler executes fault-free from VM exit to
   VM entry with correct guest-visible semantics. *)

open Xentry_machine
open Xentry_vmm

let stop_testable = Alcotest.testable Cpu.pp_stop ( = )

(* --- Exit reasons --------------------------------------------------------- *)

let test_exit_reason_count () =
  (* 16 IRQs + 10 APIC + softirq + tasklet + 19 exceptions + 38
     hypercalls = 85, as inventoried from the paper's §IV. *)
  Alcotest.(check int) "85 reasons" 85 Exit_reason.count

let test_exit_reason_id_roundtrip () =
  Array.iteri
    (fun i reason ->
      Alcotest.(check int) "dense id" i (Exit_reason.to_id reason);
      match Exit_reason.of_id i with
      | Some r ->
          Alcotest.(check string) "roundtrip" (Exit_reason.name reason)
            (Exit_reason.name r)
      | None -> Alcotest.fail "of_id failed")
    Exit_reason.all

let test_exit_reason_names_unique () =
  let names = Array.to_list (Array.map Exit_reason.name Exit_reason.all) in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_exit_reason_categories () =
  let count_cat c =
    Array.to_list Exit_reason.all
    |> List.filter (fun r -> Exit_reason.category r = c)
    |> List.length
  in
  Alcotest.(check int) "irq" 16 (count_cat "irq");
  Alcotest.(check int) "apic" 10 (count_cat "apic");
  Alcotest.(check int) "exception" 19 (count_cat "exception");
  Alcotest.(check int) "hypercall" 38 (count_cat "hypercall")

(* --- Hypercalls ------------------------------------------------------------ *)

let test_hypercall_count () =
  Alcotest.(check int) "38 hypercalls" 38 Hypercall.count

let test_hypercall_number_roundtrip () =
  Array.iter
    (fun h ->
      match Hypercall.of_number (Hypercall.number h) with
      | Some h' ->
          Alcotest.(check string) "roundtrip" (Hypercall.name h)
            (Hypercall.name h')
      | None -> Alcotest.fail "of_number failed")
    Hypercall.all

let test_hypercall_known_numbers () =
  (* Spot-check positions against the real Xen 4.1 hypercall table. *)
  Alcotest.(check int) "set_trap_table" 0 (Hypercall.number Hypercall.Set_trap_table);
  Alcotest.(check int) "mmu_update" 1 (Hypercall.number Hypercall.Mmu_update);
  Alcotest.(check int) "sched_op" 28 (Hypercall.number Hypercall.Sched_op);
  Alcotest.(check int) "event_channel_op" 31
    (Hypercall.number Hypercall.Event_channel_op)

(* --- Layout ------------------------------------------------------------------ *)

let test_layout_domains_disjoint () =
  for d = 0 to Layout.max_domains - 2 do
    let a = Layout.dom_base d and b = Layout.dom_base (d + 1) in
    Alcotest.(check bool) "64KiB blocks disjoint" true
      (Int64.sub b a >= 0x10000L)
  done

let test_layout_request_args_bounds () =
  Alcotest.check_raises "arg 8 rejected" (Invalid_argument "Layout.request_arg")
    (fun () -> ignore (Layout.request_arg 8))

let test_layout_scale_tsc_matches_vtime () =
  List.iter
    (fun tsc ->
      Alcotest.(check int64) "scale agreement"
        (Layout.scale_tsc tsc)
        (Vtime.expected_system_time ~tsc))
    [ 0L; 1L; 1_000_000L; 0x1234_5678_9ABCL ]

let test_layout_map_host_validation () =
  let mem = Memory.create () in
  Alcotest.check_raises "too many domains"
    (Invalid_argument "Layout.map_host: domain count out of range") (fun () ->
      Layout.map_host mem ~cpus:1 ~domains:99)

(* --- Domain ------------------------------------------------------------------ *)

let with_host f =
  let host = Hypervisor.create ~seed:7 () in
  f host

let test_domain_user_regs_roundtrip () =
  with_host (fun host ->
      let d = (Hypervisor.domains host).(1) in
      Domain.set_user_reg d ~vcpu:0 Xentry_isa.Reg.RAX 0xABCDL;
      Alcotest.(check int64) "roundtrip" 0xABCDL
        (Domain.get_user_reg d ~vcpu:0 Xentry_isa.Reg.RAX))

let test_domain_idle_flags () =
  with_host (fun host ->
      let d = (Hypervisor.domains host).(0) in
      Alcotest.(check bool) "initially not idle" false (Domain.is_idle d ~vcpu:0);
      Domain.set_idle d ~vcpu:0 true;
      Alcotest.(check bool) "set idle" true (Domain.is_idle d ~vcpu:0))

let test_domain_pending_traps () =
  with_host (fun host ->
      let d = (Hypervisor.domains host).(0) in
      Domain.clear_pending_traps d ~vcpu:0;
      Alcotest.(check int64) "empty slot" (-1L)
        (Domain.pending_trap d ~vcpu:0 ~slot:0);
      Domain.set_pending_trap d ~vcpu:0 ~slot:2 ~trap:13;
      Alcotest.(check int64) "stored" 13L (Domain.pending_trap d ~vcpu:0 ~slot:2))

(* --- Event channels ----------------------------------------------------------- *)

let test_evtchn_send_sets_pending_and_upcall () =
  with_host (fun host ->
      let mem = Hypervisor.memory host in
      Event_channel.bind mem ~dom:1 ~port:5 ~state:Event_channel.Interdomain
        ~target_vcpu:0;
      Event_channel.send mem ~dom:1 ~port:5;
      Alcotest.(check bool) "pending" true (Event_channel.is_pending mem ~dom:1 ~port:5);
      Alcotest.(check bool) "upcall" true
        (Domain.upcall_pending (Hypervisor.domains host).(1) ~vcpu:0))

let test_evtchn_masked_no_upcall () =
  with_host (fun host ->
      let mem = Hypervisor.memory host in
      Domain.set_upcall_pending (Hypervisor.domains host).(1) ~vcpu:0 false;
      Event_channel.bind mem ~dom:1 ~port:9 ~state:Event_channel.Interdomain
        ~target_vcpu:0;
      Event_channel.set_mask mem ~dom:1 ~port:9 true;
      Event_channel.send mem ~dom:1 ~port:9;
      Alcotest.(check bool) "pending set" true
        (Event_channel.is_pending mem ~dom:1 ~port:9);
      Alcotest.(check bool) "no upcall" false
        (Domain.upcall_pending (Hypervisor.domains host).(1) ~vcpu:0))

let test_evtchn_high_port_word_selection () =
  with_host (fun host ->
      let mem = Hypervisor.memory host in
      Event_channel.bind mem ~dom:1 ~port:130 ~state:Event_channel.Interdomain
        ~target_vcpu:0;
      Event_channel.send mem ~dom:1 ~port:130;
      Alcotest.(check bool) "port 130 pending" true
        (Event_channel.is_pending mem ~dom:1 ~port:130);
      Alcotest.(check bool) "port 2 not pending" false
        (Event_channel.is_pending mem ~dom:1 ~port:2))

let test_evtchn_port_range_checked () =
  with_host (fun host ->
      let mem = Hypervisor.memory host in
      Alcotest.check_raises "port 256 rejected"
        (Invalid_argument "Event_channel: port out of range") (fun () ->
          Event_channel.send mem ~dom:0 ~port:256))

(* --- Scheduler ------------------------------------------------------------------ *)

let vid d = { Scheduler.dom = d; vcpu = 0 }

let test_scheduler_round_robin () =
  let s = Scheduler.create [ (vid 0, 256); (vid 1, 256); (vid 2, 256) ] in
  Alcotest.(check int) "starts at dom0" 0 (Scheduler.current s).Scheduler.dom;
  let next = Scheduler.pick_next s in
  Alcotest.(check int) "rotates" 1 next.Scheduler.dom;
  let next = Scheduler.pick_next s in
  Alcotest.(check int) "rotates again" 2 next.Scheduler.dom;
  let next = Scheduler.pick_next s in
  Alcotest.(check int) "wraps" 0 next.Scheduler.dom

let test_scheduler_credit_priority () =
  let s = Scheduler.create [ (vid 0, 256); (vid 1, 256) ] in
  (* Drain dom0's credits far below zero. *)
  for _ = 1 to 10 do
    Scheduler.tick s
  done;
  Alcotest.(check bool) "dom0 over" true (Scheduler.priority s (vid 0) = Scheduler.Over);
  let next = Scheduler.pick_next s in
  Alcotest.(check int) "under vcpu preferred" 1 next.Scheduler.dom

let test_scheduler_refill_when_all_over () =
  let s = Scheduler.create [ (vid 0, 256); (vid 1, 256) ] in
  for _ = 1 to 100 do
    Scheduler.tick s;
    ignore (Scheduler.pick_next s)
  done;
  (* After refills someone must be runnable with sane credit. *)
  Alcotest.(check bool) "still schedulable" true (Scheduler.runnable_count s = 2)

let test_scheduler_block_wake () =
  let s = Scheduler.create [ (vid 0, 256); (vid 1, 256) ] in
  Scheduler.block s (vid 1);
  Alcotest.(check int) "one runnable" 1 (Scheduler.runnable_count s);
  Alcotest.(check bool) "blocked" false (Scheduler.is_runnable s (vid 1));
  Scheduler.wake s (vid 1);
  Alcotest.(check int) "two runnable" 2 (Scheduler.runnable_count s)

let test_scheduler_block_current_dispatches_next () =
  let s = Scheduler.create [ (vid 0, 256); (vid 1, 256) ] in
  Scheduler.block s (vid 0);
  Alcotest.(check int) "dom1 dispatched" 1 (Scheduler.current s).Scheduler.dom

let test_scheduler_weights () =
  let s = Scheduler.create [ (vid 0, 512); (vid 1, 128) ] in
  Alcotest.(check int) "weighted initial credit dom0" 512
    (Scheduler.credits s (vid 0));
  Alcotest.(check int) "weighted initial credit dom1" 128
    (Scheduler.credits s (vid 1))

let test_scheduler_copy_independent () =
  let s = Scheduler.create [ (vid 0, 256); (vid 1, 256) ] in
  let c = Scheduler.copy s in
  ignore (Scheduler.pick_next s);
  Alcotest.(check int) "copy unchanged" 0 (Scheduler.current c).Scheduler.dom

let test_scheduler_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Scheduler.create: no vcpus")
    (fun () -> ignore (Scheduler.create []));
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Scheduler.create: weight must be positive") (fun () ->
      ignore (Scheduler.create [ (vid 0, 0) ]))

(* --- Handlers: every reason runs clean ----------------------------------------- *)

let request_for reason =
  (* A conservative, always-valid request for each reason. *)
  match reason with
  | Exit_reason.Irq _ -> Request.make ~reason ~args:[ 9L ] ~guest:[ 1L; 2L ]
  | Exit_reason.Apic _ -> Request.make ~reason ~args:[ 1L; 2L; 3L ] ~guest:[ 1L ]
  | Exit_reason.Softirq -> Request.make ~reason ~args:[ 0x0DL ] ~guest:[]
  | Exit_reason.Tasklet -> Request.make ~reason ~args:[ 5L; 1L ] ~guest:[]
  | Exit_reason.Exception Hw_exception.PF ->
      Request.make ~reason ~args:[ 0x7F80_1000L; 1L ] ~guest:[]
  | Exit_reason.Exception Hw_exception.GP ->
      Request.make ~reason ~args:[ 0L ] ~guest:[ 4L ]
  | Exit_reason.Exception _ -> Request.make ~reason ~args:[ 1L ] ~guest:[ 7L; 3L ]
  | Exit_reason.Hypercall h -> (
      match Hypercall.shape h with
      | Hypercall.Table_write -> Request.make ~reason ~args:[ 3L ] ~guest:[]
      | Hypercall.Mmu_batch ->
          Request.make ~reason ~args:[ 2L; 0x40_0000L ] ~guest:[]
      | Hypercall.Copy_buffer ->
          Request.make ~reason ~args:[ 0L; 0L; 8L ] ~guest:[]
      | Hypercall.Event_op -> Request.make ~reason ~args:[ 12L; 0L ] ~guest:[]
      | Hypercall.Sched -> Request.make ~reason ~args:[ 0L; 0x10000L ] ~guest:[]
      | Hypercall.Timer -> Request.make ~reason ~args:[ 50_000L ] ~guest:[]
      | Hypercall.Grant -> Request.make ~reason ~args:[ 3L ] ~guest:[]
      | Hypercall.Query -> Request.make ~reason ~args:[ 1L; 0x1000L ] ~guest:[]
      | Hypercall.Control -> Request.make ~reason ~args:[ 2L; 1L ] ~guest:[])

let test_all_handlers_reach_vm_entry () =
  let host = Hypervisor.create ~seed:11 () in
  Array.iter
    (fun reason ->
      let req = request_for reason in
      let result = Hypervisor.handle host req in
      Alcotest.check stop_testable
        (Printf.sprintf "%s reaches vm entry" (Exit_reason.name reason))
        Cpu.Vm_entry result.Cpu.stop)
    Exit_reason.all

let test_all_handlers_nontrivial_length () =
  Array.iter
    (fun reason ->
      let p = Handlers.program reason in
      Alcotest.(check bool)
        (Printf.sprintf "%s has a body" (Exit_reason.name reason))
        true
        (Xentry_isa.Program.length p > 15))
    Exit_reason.all

let test_handlers_memoized () =
  Alcotest.(check bool) "same program object" true
    (Handlers.program Exit_reason.Softirq == Handlers.program Exit_reason.Softirq)

let test_handler_static_size () =
  (* The paper reports ~2,000 lines for Xentry; our synthesized Xen
     substrate should be of a comparable order of magnitude. *)
  let n = Handlers.static_instruction_count () in
  Alcotest.(check bool) "plausible total size" true (n > 2_000 && n < 20_000)

(* --- Software assertions (paper §III-A) ------------------------------------------ *)

(* Every [Assert] compiled into the synthesized handlers. *)
let handler_assertions () =
  Handlers.all_programs ()
  |> Array.to_list
  |> List.concat_map (fun (_, p) ->
         Array.to_list p.Xentry_isa.Program.code
         |> List.filter_map (function
              | Xentry_isa.Instr.Assert a -> Some a
              | _ -> None))

let assertion_named suffix =
  List.exists
    (fun a ->
      let n = a.Xentry_isa.Instr.assert_name in
      let k = String.length suffix in
      String.length n >= k && String.sub n (String.length n - k) k = suffix)
    (handler_assertions ())

let test_assertions_indexed () =
  Alcotest.(check bool) "hypervisor has assertions" true
    (List.length (handler_assertions ()) > 10)

let test_assertions_kind_classification () =
  (* Both paper listing types: boundary (Listing 1) and condition
     (Listing 2) assertions. *)
  let boundary a =
    match a.Xentry_isa.Instr.assert_kind with
    | Xentry_isa.Instr.Assert_range _ | Assert_aligned _ -> true
    | Assert_nonzero | Assert_zero | Assert_equals _ -> false
  in
  let kinds = List.map boundary (handler_assertions ()) in
  Alcotest.(check bool) "boundary assertions exist" true (List.mem true kinds);
  Alcotest.(check bool) "condition assertions exist" true (List.mem false kinds)

let test_assertions_listing1_present () =
  (* Listing 1's trap-number scan lives in the trap-delivery path. *)
  Alcotest.(check bool) "trap_number assertion compiled" true
    (assertion_named "trap_number")

let test_assertions_listing2_present () =
  Alcotest.(check bool) "is_idle_vcpu assertion compiled" true
    (assertion_named "is_idle_vcpu")

let test_assertions_lookup () =
  (* A detection names its assertion by [assert_id], so no two
     assertions may share one. *)
  let ids =
    List.map (fun a -> a.Xentry_isa.Instr.assert_id) (handler_assertions ())
  in
  Alcotest.(check int) "distinct ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

(* --- Handler semantics ----------------------------------------------------------- *)

let test_handler_evtchn_send_semantics () =
  let host = Hypervisor.create ~seed:3 () in
  let mem = Hypervisor.memory host in
  let dom = (Hypervisor.current_domain host).Domain.id in
  let port = 22 in
  Event_channel.clear_pending mem ~dom ~port;
  let req =
    Request.make
      ~reason:(Exit_reason.Hypercall Hypercall.Event_channel_op)
      ~args:[ Int64.of_int port; 0L (* send *) ]
      ~guest:[]
  in
  let result = Hypervisor.handle host req in
  Alcotest.check stop_testable "clean" Cpu.Vm_entry result.Cpu.stop;
  Alcotest.(check bool) "handler set pending bit" true
    (Event_channel.is_pending mem ~dom ~port);
  Alcotest.(check bool) "handler marked upcall" true
    (Domain.upcall_pending (Hypervisor.domains host).(dom) ~vcpu:0);
  (* Return value 0 in the guest's RAX slot. *)
  Alcotest.(check int64) "guest rax = 0" 0L
    (Domain.get_user_reg (Hypervisor.domains host).(dom) ~vcpu:0
       Xentry_isa.Reg.RAX)

let test_handler_evtchn_invalid_port_fails () =
  let host = Hypervisor.create ~seed:3 () in
  let dom = (Hypervisor.current_domain host).Domain.id in
  let req =
    Request.make
      ~reason:(Exit_reason.Hypercall Hypercall.Event_channel_op)
      ~args:[ 999L; 0L ] ~guest:[]
  in
  let result = Hypervisor.handle host req in
  Alcotest.check stop_testable "clean" Cpu.Vm_entry result.Cpu.stop;
  Alcotest.(check int64) "guest rax = -EINVAL" (-22L)
    (Domain.get_user_reg (Hypervisor.domains host).(dom) ~vcpu:0
       Xentry_isa.Reg.RAX)

let test_handler_timer_irq_updates_time () =
  let host = Hypervisor.create ~seed:5 () in
  let mem = Hypervisor.memory host in
  let req = Request.make ~reason:(Exit_reason.Irq 0) ~args:[ 0L ] ~guest:[] in
  let result = Hypervisor.handle host req in
  Alcotest.check stop_testable "clean" Cpu.Vm_entry result.Cpu.stop;
  let tsc = Vtime.read_last_tsc mem in
  Alcotest.(check bool) "tsc recorded" true (tsc > 0L);
  Alcotest.(check int64) "system time = scaled tsc"
    (Vtime.expected_system_time ~tsc)
    (Vtime.read_system_time mem);
  Alcotest.(check bool) "timer softirq raised" true
    (Int64.logand (Memory.load64 mem Layout.global_softirq_pending) 1L = 1L)

let test_handler_softirq_processes_and_clears () =
  let host = Hypervisor.create ~seed:5 () in
  let mem = Hypervisor.memory host in
  let req =
    Request.make ~reason:Exit_reason.Softirq ~args:[ 0x05L (* timer+rcu *) ]
      ~guest:[]
  in
  let before = Vtime.jiffies mem in
  let result = Hypervisor.handle host req in
  Alcotest.check stop_testable "clean" Cpu.Vm_entry result.Cpu.stop;
  Alcotest.(check int64) "bits consumed" 0L
    (Memory.load64 mem Layout.global_softirq_pending);
  Alcotest.(check bool) "timer action ran (jiffies advanced)" true
    (Vtime.jiffies mem > before)

let test_handler_tasklets_all_processed () =
  let host = Hypervisor.create ~seed:5 () in
  let mem = Hypervisor.memory host in
  let n = 6 in
  let req =
    Request.make ~reason:Exit_reason.Tasklet
      ~args:[ Int64.of_int n; 0L ]
      ~guest:[]
  in
  let result = Hypervisor.handle host req in
  Alcotest.check stop_testable "clean" Cpu.Vm_entry result.Cpu.stop;
  for k = 0 to n - 1 do
    Alcotest.(check int64)
      (Printf.sprintf "node %d done" k)
      1L
      (Memory.load64 mem (Int64.add (Layout.tasklet_node k) Layout.tasklet_done))
  done

let test_handler_cpuid_emulation_writes_guest_regs () =
  let host = Hypervisor.create ~seed:5 () in
  let dom = Hypervisor.current_domain host in
  let leaf = 4L in
  let req =
    Request.make
      ~reason:(Exit_reason.Exception Hw_exception.GP)
      ~args:[ 0L (* cpuid selector *) ]
      ~guest:[ leaf ]
  in
  let rip_before = Domain.get_user_rip dom ~vcpu:0 in
  let result = Hypervisor.handle host req in
  Alcotest.check stop_testable "clean" Cpu.Vm_entry result.Cpu.stop;
  (* The handler must write the simulated CPUID results for the leaf
     into the guest's save area. *)
  let cpu_probe = Cpu.create (Memory.create ()) in
  ignore cpu_probe;
  let expected_rax, expected_rbx, _, _ =
    (* Same deterministic cpuid function as the CPU's default. *)
    let mix k =
      let open Int64 in
      let z = mul (add leaf (of_int k)) 0x9E3779B97F4A7C15L in
      let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
      logxor z (shift_right_logical z 27)
    in
    (mix 1, mix 2, mix 3, mix 4)
  in
  Alcotest.(check int64) "guest rax" expected_rax
    (Domain.get_user_reg dom ~vcpu:0 Xentry_isa.Reg.RAX);
  Alcotest.(check int64) "guest rbx" expected_rbx
    (Domain.get_user_reg dom ~vcpu:0 Xentry_isa.Reg.RBX);
  Alcotest.(check int64) "guest rip advanced" (Int64.add rip_before 2L)
    (Domain.get_user_rip dom ~vcpu:0)

let test_handler_pf_present_walk_sets_accessed () =
  let host = Hypervisor.create ~seed:5 () in
  let mem = Hypervisor.memory host in
  let va = 0x12345000L in
  let req =
    Request.make
      ~reason:(Exit_reason.Exception Hw_exception.PF)
      ~args:[ va; 1L ] ~guest:[]
  in
  let result = Hypervisor.handle host req in
  Alcotest.check stop_testable "clean" Cpu.Vm_entry result.Cpu.stop;
  let l1_index = Int64.to_int (Int64.logand (Int64.shift_right_logical va 12) 511L) in
  let pte =
    Memory.load64 mem
      (Int64.add (Layout.pt_level_base 1) (Int64.of_int (l1_index * 8)))
  in
  Alcotest.(check bool) "accessed bit set" true
    (Int64.logand pte Layout.pte_accessed <> 0L)

let test_handler_pf_not_present_injects_trap () =
  let host = Hypervisor.create ~seed:5 () in
  let dom = Hypervisor.current_domain host in
  let req =
    Request.make
      ~reason:(Exit_reason.Exception Hw_exception.PF)
      ~args:[ 0x666000L; 0L (* not present *) ]
      ~guest:[]
  in
  let result = Hypervisor.handle host req in
  Alcotest.check stop_testable "clean" Cpu.Vm_entry result.Cpu.stop;
  (* The queued #PF (vector 14) is delivered to the vcpu_info
     pending_sel field by the Listing-1 scan. *)
  let mem = Hypervisor.memory host in
  let sel =
    Memory.load64 mem
      (Int64.add (Layout.vcpu_info ~dom:dom.Domain.id ~vcpu:0) Layout.vi_pending_sel)
  in
  Alcotest.(check int64) "pending_sel = #PF vector" 14L sel

let test_handler_sched_yield_switches_context () =
  let host = Hypervisor.create ~seed:5 () in
  let before = Hypervisor.observed_current_vcpu host in
  let req =
    Request.make
      ~reason:(Exit_reason.Hypercall Hypercall.Sched_op)
      ~args:[ 0L (* yield *) ]
      ~guest:[]
  in
  Hypervisor.prepare host req;
  let result = Hypervisor.execute host req in
  Alcotest.check stop_testable "clean" Cpu.Vm_entry result.Cpu.stop;
  let after = Hypervisor.observed_current_vcpu host in
  Alcotest.(check bool) "current vcpu pointer changed" true (before <> after)

let test_handler_set_timer_op_programs_deadline () =
  let host = Hypervisor.create ~seed:5 () in
  let mem = Hypervisor.memory host in
  let req =
    Request.make
      ~reason:(Exit_reason.Hypercall Hypercall.Set_timer_op)
      ~args:[ 777L ] ~guest:[]
  in
  let result = Hypervisor.handle host req in
  Alcotest.check stop_testable "clean" Cpu.Vm_entry result.Cpu.stop;
  Alcotest.(check bool) "deadline in the future" true
    (Vtime.read_deadline mem > 777L)

let test_handler_grant_copies_frames () =
  let host = Hypervisor.create ~seed:5 () in
  let mem = Hypervisor.memory host in
  let req =
    Request.make
      ~reason:(Exit_reason.Hypercall Hypercall.Grant_table_op)
      ~args:[ 4L ] ~guest:[]
  in
  let result = Hypervisor.handle host req in
  Alcotest.check stop_testable "clean" Cpu.Vm_entry result.Cpu.stop;
  (* Entry 0 is granted (even): its frame must have been copied out. *)
  let copied = Memory.load64 mem (Int64.add Layout.bounce_buffer 0x1000L) in
  Alcotest.(check bool) "frame copied" true (copied <> 0L)

let test_handler_copy_hypercall_checksums () =
  let host = Hypervisor.create ~seed:5 () in
  let dom = Hypervisor.current_domain host in
  let words = 8 in
  let req =
    Request.make
      ~reason:(Exit_reason.Hypercall Hypercall.Console_io)
      ~args:[ 0L; 0L; Int64.of_int words ]
      ~guest:[]
  in
  let result = Hypervisor.handle host req in
  Alcotest.check stop_testable "clean" Cpu.Vm_entry result.Cpu.stop;
  (* Return value = xor of the copied words. *)
  let mem = Hypervisor.memory host in
  let expected = ref 0L in
  for k = 0 to words - 1 do
    expected :=
      Int64.logxor !expected
        (Memory.load64 mem (Int64.add Layout.guest_buffer (Int64.of_int (k * 8))))
  done;
  Alcotest.(check int64) "checksum returned" !expected
    (Domain.get_user_reg dom ~vcpu:0 Xentry_isa.Reg.RAX)

let test_handler_pmu_features_nonzero () =
  let host = Hypervisor.create ~seed:5 () in
  let req = Request.make ~reason:Exit_reason.Softirq ~args:[ 0x0FL ] ~guest:[] in
  let result = Hypervisor.handle host req in
  let s = result.Cpu.final_pmu in
  Alcotest.(check bool) "instructions counted" true (s.Pmu.inst > 10);
  Alcotest.(check bool) "branches counted" true (s.Pmu.branches > 2);
  Alcotest.(check bool) "loads counted" true (s.Pmu.loads > 2);
  Alcotest.(check bool) "stores counted" true (s.Pmu.stores > 2)

let test_handler_features_vary_with_args () =
  let host = Hypervisor.create ~seed:5 () in
  let run n =
    let req =
      Request.make ~reason:Exit_reason.Tasklet ~args:[ Int64.of_int n; 0L ]
        ~guest:[]
    in
    (Hypervisor.handle host req).Cpu.final_pmu.Pmu.inst
  in
  let short = run 1 and long = run 12 in
  Alcotest.(check bool) "longer chains retire more instructions" true
    (long > short + 10)

let test_hypervisor_clone_independent () =
  let host = Hypervisor.create ~seed:5 () in
  let clone = Hypervisor.clone host in
  let req = Request.make ~reason:(Exit_reason.Irq 0) ~args:[ 0L ] ~guest:[] in
  ignore (Hypervisor.handle host req);
  (* The clone's memory must not have seen the timer update. *)
  Alcotest.(check int64) "clone time untouched" 0L
    (Vtime.read_system_time (Hypervisor.memory clone))

let test_hypervisor_clone_reproduces_golden_run () =
  let host = Hypervisor.create ~seed:5 () in
  let req =
    Request.make ~reason:Exit_reason.Tasklet ~args:[ 4L; 1L ] ~guest:[]
  in
  Hypervisor.prepare host req;
  let a = Hypervisor.clone host in
  let b = Hypervisor.clone host in
  let ra = Hypervisor.execute a req in
  let rb = Hypervisor.execute b req in
  Alcotest.(check int) "same instruction count" ra.Cpu.steps rb.Cpu.steps;
  Alcotest.(check int) "same loads" ra.Cpu.final_pmu.Pmu.loads
    rb.Cpu.final_pmu.Pmu.loads

(* --- qcheck ------------------------------------------------------------------ *)

let prop_all_reasons_deterministic =
  QCheck.Test.make ~name:"handler execution is deterministic" ~count:40
    QCheck.(int_range 0 (Exit_reason.count - 1))
    (fun id ->
      let reason = Option.get (Exit_reason.of_id id) in
      let run () =
        let host = Hypervisor.create ~seed:99 () in
        let req = request_for reason in
        let r = Hypervisor.handle host req in
        (r.Cpu.steps, r.Cpu.final_pmu)
      in
      run () = run ())

let prop_evtchn_handler_matches_reference =
  QCheck.Test.make
    ~name:"evtchn_send handler agrees with the reference semantics" ~count:60
    QCheck.(pair (int_range 1 (Layout.evtchn_ports - 1)) bool)
    (fun (port, masked) ->
      (* Run the synthesized handler on one host and the OCaml
         reference (Event_channel.send) on an identical clone; the
         guest-visible event state must agree. *)
      let host = Hypervisor.create ~seed:1234 () in
      let dom = (Hypervisor.current_domain host).Domain.id in
      let req =
        Request.make
          ~reason:(Exit_reason.Hypercall Hypercall.Event_channel_op)
          ~args:[ Int64.of_int port; 0L ]
          ~guest:[]
      in
      Hypervisor.prepare host req;
      Event_channel.set_mask (Hypervisor.memory host) ~dom ~port masked;
      Domain.set_upcall_pending (Hypervisor.domains host).(dom) ~vcpu:0 false;
      Event_channel.clear_pending (Hypervisor.memory host) ~dom ~port;
      let reference = Hypervisor.clone host in
      let result = Hypervisor.execute host req in
      Event_channel.send (Hypervisor.memory reference) ~dom ~port;
      result.Cpu.stop = Cpu.Vm_entry
      && Event_channel.is_pending (Hypervisor.memory host) ~dom ~port
         = Event_channel.is_pending (Hypervisor.memory reference) ~dom ~port
      && Domain.upcall_pending (Hypervisor.domains host).(dom) ~vcpu:0
         = Domain.upcall_pending (Hypervisor.domains reference).(dom) ~vcpu:0)

let prop_time_handler_matches_reference =
  QCheck.Test.make
    ~name:"timer-irq system time equals the reference scaling" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun tsc_offset ->
      let host = Hypervisor.create ~seed:77 () in
      let cpu = Hypervisor.cpu host in
      Cpu.set_tsc cpu (Int64.add (Cpu.get_tsc cpu) (Int64.of_int tsc_offset));
      let req = Request.make ~reason:(Exit_reason.Irq 0) ~args:[ 0L ] ~guest:[] in
      let result = Hypervisor.handle host req in
      let mem = Hypervisor.memory host in
      result.Cpu.stop = Cpu.Vm_entry
      && Vtime.read_system_time mem
         = Vtime.expected_system_time ~tsc:(Vtime.read_last_tsc mem))

let prop_scheduler_never_empty =
  QCheck.Test.make ~name:"scheduler always has a current vcpu after ops"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 0 2))
    (fun ops ->
      let s = Scheduler.create [ (vid 0, 256); (vid 1, 256); (vid 2, 128) ] in
      List.iter
        (fun op ->
          match op with
          | 0 -> Scheduler.tick s
          | 1 -> ignore (Scheduler.pick_next s)
          | _ ->
              (* keep at least one runnable: wake everyone first *)
              Scheduler.wake s (vid 1);
              Scheduler.wake s (vid 2);
              Scheduler.block s (vid 2))
        ops;
      ignore (Scheduler.current s);
      true)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_all_reasons_deterministic; prop_scheduler_never_empty;
        prop_evtchn_handler_matches_reference;
        prop_time_handler_matches_reference;
      ]
  in
  Alcotest.run "xentry_vmm"
    [
      ( "exit_reason",
        [
          Alcotest.test_case "count" `Quick test_exit_reason_count;
          Alcotest.test_case "id roundtrip" `Quick test_exit_reason_id_roundtrip;
          Alcotest.test_case "names unique" `Quick test_exit_reason_names_unique;
          Alcotest.test_case "categories" `Quick test_exit_reason_categories;
        ] );
      ( "hypercall",
        [
          Alcotest.test_case "count" `Quick test_hypercall_count;
          Alcotest.test_case "number roundtrip" `Quick
            test_hypercall_number_roundtrip;
          Alcotest.test_case "known numbers" `Quick test_hypercall_known_numbers;
        ] );
      ( "layout",
        [
          Alcotest.test_case "domains disjoint" `Quick test_layout_domains_disjoint;
          Alcotest.test_case "request args bounds" `Quick
            test_layout_request_args_bounds;
          Alcotest.test_case "scale tsc" `Quick test_layout_scale_tsc_matches_vtime;
          Alcotest.test_case "map host validation" `Quick
            test_layout_map_host_validation;
        ] );
      ( "domain",
        [
          Alcotest.test_case "user regs" `Quick test_domain_user_regs_roundtrip;
          Alcotest.test_case "idle flags" `Quick test_domain_idle_flags;
          Alcotest.test_case "pending traps" `Quick test_domain_pending_traps;
        ] );
      ( "event_channel",
        [
          Alcotest.test_case "send" `Quick test_evtchn_send_sets_pending_and_upcall;
          Alcotest.test_case "masked" `Quick test_evtchn_masked_no_upcall;
          Alcotest.test_case "high port" `Quick test_evtchn_high_port_word_selection;
          Alcotest.test_case "range check" `Quick test_evtchn_port_range_checked;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "round robin" `Quick test_scheduler_round_robin;
          Alcotest.test_case "credit priority" `Quick test_scheduler_credit_priority;
          Alcotest.test_case "refill" `Quick test_scheduler_refill_when_all_over;
          Alcotest.test_case "block/wake" `Quick test_scheduler_block_wake;
          Alcotest.test_case "block current" `Quick
            test_scheduler_block_current_dispatches_next;
          Alcotest.test_case "weights" `Quick test_scheduler_weights;
          Alcotest.test_case "copy" `Quick test_scheduler_copy_independent;
          Alcotest.test_case "validation" `Quick test_scheduler_validation;
        ] );
      ( "handlers",
        [
          Alcotest.test_case "all reach vm entry" `Quick
            test_all_handlers_reach_vm_entry;
          Alcotest.test_case "all nontrivial" `Quick
            test_all_handlers_nontrivial_length;
          Alcotest.test_case "memoized" `Quick test_handlers_memoized;
          Alcotest.test_case "static size" `Quick test_handler_static_size;
        ] );
      ( "assertions",
        [
          Alcotest.test_case "indexed" `Quick test_assertions_indexed;
          Alcotest.test_case "listing 1" `Quick test_assertions_listing1_present;
          Alcotest.test_case "listing 2" `Quick test_assertions_listing2_present;
          Alcotest.test_case "lookup" `Quick test_assertions_lookup;
          Alcotest.test_case "kind classification" `Quick
            test_assertions_kind_classification;
        ] );
      ( "handler-semantics",
        [
          Alcotest.test_case "evtchn send" `Quick test_handler_evtchn_send_semantics;
          Alcotest.test_case "evtchn invalid port" `Quick
            test_handler_evtchn_invalid_port_fails;
          Alcotest.test_case "timer irq time" `Quick test_handler_timer_irq_updates_time;
          Alcotest.test_case "softirq clears" `Quick
            test_handler_softirq_processes_and_clears;
          Alcotest.test_case "tasklets processed" `Quick
            test_handler_tasklets_all_processed;
          Alcotest.test_case "cpuid emulation" `Quick
            test_handler_cpuid_emulation_writes_guest_regs;
          Alcotest.test_case "pf walk accessed" `Quick
            test_handler_pf_present_walk_sets_accessed;
          Alcotest.test_case "pf inject" `Quick test_handler_pf_not_present_injects_trap;
          Alcotest.test_case "sched yield" `Quick
            test_handler_sched_yield_switches_context;
          Alcotest.test_case "set timer op" `Quick
            test_handler_set_timer_op_programs_deadline;
          Alcotest.test_case "grant copy" `Quick test_handler_grant_copies_frames;
          Alcotest.test_case "copy checksum" `Quick
            test_handler_copy_hypercall_checksums;
          Alcotest.test_case "pmu features" `Quick test_handler_pmu_features_nonzero;
          Alcotest.test_case "features vary" `Quick test_handler_features_vary_with_args;
          Alcotest.test_case "clone independent" `Quick
            test_hypervisor_clone_independent;
          Alcotest.test_case "clone reproduces" `Quick
            test_hypervisor_clone_reproduces_golden_run;
        ] );
      ("properties", qsuite);
    ]
