open Xentry_isa
open Xentry_machine
module A = Program.Asm
module B = Handler_blocks

let r g = Operand.reg g
let i v = Operand.imm v
let ii v = Operand.imm_int v
let m ?index ?scale ?disp base = Operand.mem ?index ?scale ?disp base
let mabs = Operand.mem_abs

let table_limit h = 4 + (Hypercall.number h mod 13)

(* ------------------------------------------------------------------ *)
(* IRQ handlers                                                        *)
(* ------------------------------------------------------------------ *)

let body_irq ~hardened ctx b line =
  let hv_action = A.fresh_label b "irq_hv_action" in
  let eoi = A.fresh_label b "irq_eoi" in
  let desc = Layout.irq_desc line in
  B.mov b (r Reg.R9) (i desc);
  (* Mark the descriptor in-progress and account the interrupt. *)
  B.mov b (r Reg.R10) (m Reg.R9 ~disp:Layout.irq_desc_status);
  A.emit b (Instr.Alu (Instr.Or, r Reg.R10, i 1L));
  B.mov b (m Reg.R9 ~disp:Layout.irq_desc_status) (r Reg.R10);
  B.add b (m Reg.R9 ~disp:Layout.irq_desc_count) (i 1L);
  (* Guest-bound interrupts raise the bound event channel. *)
  B.mov b (r Reg.RDI) (m Reg.R9 ~disp:Layout.irq_desc_port);
  B.test b (r Reg.RDI) (r Reg.RDI);
  B.jcc b Cond.E hv_action;
  B.evtchn_deliver ctx b ~out:eoi;
  B.jmp b eoi;
  A.label b hv_action;
  (if line = 0 then begin
     (* Line 0 is the platform timer: update time, raise the timer
        softirq. *)
     B.time_update ~hardened ctx b;
     B.jiffies_tick b;
     A.emit b (Instr.Bts (mabs Layout.global_softirq_pending, i 0L))
   end
   else begin
     (* Device data mover: a short burst whose length depends on the
        line, so different IRQ lines have distinct signatures. *)
     let words = 1 + (line mod 4) in
     let src = Int64.add Layout.guest_buffer (Int64.of_int (line * 64)) in
     let dst = Int64.add Layout.bounce_buffer (Int64.of_int (line * 64)) in
     B.mov b (r Reg.RSI) (i src);
     B.mov b (r Reg.RDI) (i dst);
     for k = 0 to words - 1 do
       B.mov b (r Reg.R10) (m Reg.RSI ~disp:(Int64.of_int (k * 8)));
       B.mov b (m Reg.RDI ~disp:(Int64.of_int (k * 8))) (r Reg.R10)
     done
   end);
  A.label b eoi;
  B.apic_eoi b (32 + line);
  (* Clear in-progress (reload the descriptor pointer: the action
     blocks clobber the scratch registers). *)
  B.mov b (r Reg.R9) (i desc);
  B.mov b (r Reg.R10) (m Reg.R9 ~disp:Layout.irq_desc_status);
  A.emit b (Instr.Alu (Instr.And, r Reg.R10, i (-2L)));
  B.mov b (m Reg.R9 ~disp:Layout.irq_desc_status) (r Reg.R10)

(* ------------------------------------------------------------------ *)
(* APIC handlers                                                       *)
(* ------------------------------------------------------------------ *)

let body_apic ~hardened ctx b kind =
  let open Exit_reason in
  (match kind with
  | Apic_timer ->
      B.time_update ~hardened ctx b;
      B.jiffies_tick b;
      (* Raise TIMER and SCHEDULE softirqs. *)
      A.emit b (Instr.Bts (mabs Layout.global_softirq_pending, i 0L));
      A.emit b (Instr.Bts (mabs Layout.global_softirq_pending, i 1L))
  | Apic_error ->
      B.mov b (r Reg.R10) (mabs Layout.apic_log);
      B.add b (r Reg.R10) (i 1L);
      B.mov b (mabs Layout.apic_log) (r Reg.R10)
  | Apic_spurious ->
      (* Spurious interrupts are acknowledged and dropped. *)
      B.mov b (r Reg.R10) (mabs Layout.apic_log);
      B.test b (r Reg.R10) (r Reg.R10)
  | Apic_thermal ->
      B.mov b (r Reg.R10) (mabs Layout.apic_log);
      B.add b (r Reg.R10) (i 0x100L);
      B.mov b (mabs Layout.apic_log) (r Reg.R10);
      B.jiffies_tick b
  | Apic_perf_counter ->
      (* Overflow: rearm the counter with its period. *)
      B.mov b (r Reg.R10) (mabs Layout.apic_log);
      A.emit b (Instr.Alu (Instr.Xor, r Reg.R10, i 0xFFFFL));
      B.mov b (mabs Layout.apic_log) (r Reg.R10)
  | Ipi_event_check ->
      (* Peer CPU asked us to look at pending events. *)
      B.mov b (r Reg.R11)
        (m Reg.R14 ~disp:(Int64.add 0x100L Layout.vi_upcall_pending));
      B.test b (r Reg.R11) (r Reg.R11);
      let skip = A.fresh_label b "evtcheck_skip" in
      B.jcc b Cond.E skip;
      B.mov b (m Reg.R14 ~disp:(Int64.add 0x100L Layout.vi_pending_sel)) (i 1L);
      A.label b skip
  | Ipi_invalidate_tlb ->
      for k = 0 to 3 do
        B.mov b (mabs (Int64.add Layout.tlb_scratch (Int64.of_int (k * 8)))) (i 0L)
      done
  | Ipi_call_function ->
      B.load_arg b 0 Reg.R10;
      let f0 = A.fresh_label b "fn0"
      and f1 = A.fresh_label b "fn1"
      and f2 = A.fresh_label b "fn2"
      and f3 = A.fresh_label b "fn3"
      and fend = A.fresh_label b "fn_end" in
      A.emit b (Instr.Jmp_table (r Reg.R10, [| f0; f1; f2; f3 |]));
      A.label b f0;
      B.jiffies_tick b;
      B.jmp b fend;
      A.label b f1;
      B.mov b (mabs Layout.apic_log) (i 0xF1L);
      B.jmp b fend;
      A.label b f2;
      B.mov b (r Reg.R11) (mabs Layout.global_jiffies);
      B.mov b (mabs Layout.apic_log) (r Reg.R11);
      B.jmp b fend;
      A.label b f3;
      B.mov b (mabs (Int64.add Layout.tlb_scratch 8L)) (i 1L);
      A.label b fend
  | Ipi_reschedule ->
      A.emit b (Instr.Bts (mabs Layout.global_softirq_pending, i 1L))
  | Ipi_irq_move ->
      B.load_arg b 0 Reg.R10;
      B.emit_assert_range ctx b ~name:"irq_move_line" (r Reg.R10) 0L
        (Int64.of_int (Exit_reason.irq_lines - 1));
      (* descriptor address = irq_desc_base + line*32 *)
      A.emit b (Instr.Shift (Instr.Shl, r Reg.R10, 5));
      B.add b (r Reg.R10) (i Layout.irq_desc_base);
      B.mov b (r Reg.R11) (m Reg.R10 ~disp:Layout.irq_desc_action);
      B.add b (r Reg.R11) (i 1L);
      B.mov b (m Reg.R10 ~disp:Layout.irq_desc_action) (r Reg.R11));
  B.apic_eoi b 0xF0

(* ------------------------------------------------------------------ *)
(* Softirq and tasklet                                                 *)
(* ------------------------------------------------------------------ *)

let body_softirq ~hardened ctx b =
  let loop = A.fresh_label b "softirq_loop" in
  let next = A.fresh_label b "softirq_next" in
  let done_ = A.fresh_label b "softirq_done" in
  let act_timer = A.fresh_label b "softirq_timer" in
  let act_sched = A.fresh_label b "softirq_sched" in
  let act_rcu = A.fresh_label b "softirq_rcu" in
  let act_net = A.fresh_label b "softirq_net" in
  let act_nop = A.fresh_label b "softirq_nop" in
  (* RBX holds the loop counter: the action blocks (context switch,
     time update) clobber R8–R11, and the guest's RBX is already saved
     in user_regs.  The pending bitmap is re-read each iteration since
     processed bits are cleared in memory. *)
  B.mov b (r Reg.RBX) (i 0L);
  A.label b loop;
  B.cmp b (r Reg.RBX) (i 8L);
  B.jcc b Cond.GE done_;
  B.mov b (r Reg.R10) (mabs Layout.global_softirq_pending);
  A.emit b (Instr.Bt (r Reg.R10, r Reg.RBX));
  B.jcc b Cond.AE next;
  A.emit b (Instr.Btr (mabs Layout.global_softirq_pending, r Reg.RBX));
  A.emit b
    (Instr.Jmp_table
       ( r Reg.RBX,
         [|
           act_timer; act_sched; act_rcu; act_net; act_nop; act_nop; act_nop;
           act_nop;
         |] ));
  A.label b act_timer;
  B.time_update ~hardened ctx b;
  B.jiffies_tick b;
  B.jmp b next;
  A.label b act_sched;
  B.context_switch ctx b;
  B.jmp b next;
  A.label b act_rcu;
  (* Process the RCU callback counters. *)
  for k = 0 to 7 do
    let addr = Int64.add Layout.rcu_list (Int64.of_int (k * 8)) in
    B.mov b (r Reg.R8) (mabs addr);
    B.test b (r Reg.R8) (r Reg.R8);
    let skip = A.fresh_label b "rcu_skip" in
    B.jcc b Cond.E skip;
    B.sub b (r Reg.R8) (i 1L);
    B.mov b (mabs addr) (r Reg.R8);
    A.label b skip
  done;
  B.jmp b next;
  A.label b act_net;
  B.mov b (r Reg.RCX) (i 16L);
  B.mov b (r Reg.RSI) (i Layout.guest_buffer);
  B.mov b (r Reg.RDI) (i (Int64.add Layout.bounce_buffer 0x800L));
  A.emit b Instr.Rep_movsq;
  B.jmp b next;
  A.label b act_nop;
  B.jiffies_tick b;
  A.label b next;
  B.inc b (r Reg.RBX);
  B.jmp b loop;
  A.label b done_

let body_tasklet ctx b =
  let loop = A.fresh_label b "tasklet_loop" in
  let cont = A.fresh_label b "tasklet_cont" in
  let done_ = A.fresh_label b "tasklet_done" in
  let t0 = A.fresh_label b "tasklet_fn0"
  and t1 = A.fresh_label b "tasklet_fn1"
  and t2 = A.fresh_label b "tasklet_fn2"
  and t3 = A.fresh_label b "tasklet_fn3" in
  B.mov b (r Reg.R9) (mabs Layout.global_tasklet_head);
  A.label b loop;
  B.test b (r Reg.R9) (r Reg.R9);
  B.jcc b Cond.E done_;
  B.mov b (r Reg.R10) (m Reg.R9 ~disp:Layout.tasklet_fn);
  B.emit_assert_range ctx b ~name:"tasklet_fn" (r Reg.R10) 0L 3L;
  A.emit b (Instr.Jmp_table (r Reg.R10, [| t0; t1; t2; t3 |]));
  A.label b t0;
  B.add b (m Reg.R9 ~disp:Layout.tasklet_data) (i 1L);
  B.jmp b cont;
  A.label b t1;
  B.mov b (r Reg.R11) (m Reg.R9 ~disp:Layout.tasklet_data);
  A.emit b (Instr.Alu (Instr.Xor, r Reg.R11, mabs Layout.apic_log));
  B.mov b (mabs Layout.apic_log) (r Reg.R11);
  B.jmp b cont;
  A.label b t2;
  for k = 0 to 3 do
    B.add b
      (mabs (Int64.add Layout.bounce_buffer (Int64.of_int (0xC00 + (k * 8)))))
      (i 1L)
  done;
  B.jmp b cont;
  A.label b t3;
  B.jiffies_tick b;
  A.label b cont;
  B.mov b (m Reg.R9 ~disp:Layout.tasklet_done) (i 1L);
  B.mov b (r Reg.R9) (m Reg.R9 ~disp:Layout.tasklet_next);
  B.jmp b loop;
  A.label b done_

(* ------------------------------------------------------------------ *)
(* Exception handlers                                                  *)
(* ------------------------------------------------------------------ *)

let body_exception ctx b (exn : Hw_exception.t) ~out =
  match exn with
  | Hw_exception.PF ->
      let inject = A.fresh_label b "pf_inject" in
      let done_ = A.fresh_label b "pf_done" in
      B.load_arg b 0 Reg.RDI;
      B.pt_walk ctx b ~not_present:inject;
      B.jmp b done_;
      A.label b inject;
      (* Not a hypervisor mapping: forward #PF to the guest. *)
      B.mov b (r Reg.R9) (ii (Hw_exception.vector Hw_exception.PF));
      B.queue_guest_trap ctx b;
      B.deliver_pending_traps ctx b;
      A.label b done_
  | Hw_exception.GP ->
      (* Privileged-instruction emulation: the paper's §II cpuid
         example lives here. *)
      let em_cpuid = A.fresh_label b "em_cpuid"
      and em_rdtsc = A.fresh_label b "em_rdtsc"
      and em_io = A.fresh_label b "em_io"
      and em_msr = A.fresh_label b "em_msr"
      and done_ = A.fresh_label b "gp_done" in
      B.load_arg b 0 Reg.R10;
      A.emit b
        (Instr.Jmp_table (r Reg.R10, [| em_cpuid; em_rdtsc; em_io; em_msr |]));
      A.label b em_cpuid;
      (* Reload the guest's leaf, execute cpuid, write the results into
         the guest's VCPU register save area. *)
      B.mov b (r Reg.RAX) (m Reg.R15 ~disp:0L);
      A.emit b Instr.Cpuid;
      B.mov b (m Reg.R15 ~disp:0x00L) (r Reg.RAX);
      B.mov b (m Reg.R15 ~disp:0x08L) (r Reg.RBX);
      B.mov b (m Reg.R15 ~disp:0x10L) (r Reg.RCX);
      B.mov b (m Reg.R15 ~disp:0x18L) (r Reg.RDX);
      B.advance_guest_rip b 2;
      B.jmp b done_;
      A.label b em_rdtsc;
      A.emit b Instr.Rdtsc;
      A.emit b (Instr.Shift (Instr.Shl, r Reg.RDX, 32));
      A.emit b (Instr.Alu (Instr.Or, r Reg.RAX, r Reg.RDX));
      B.mov b (r Reg.R9) (r Reg.RAX);
      (* Refresh the VCPU's cached timestamp (vtsc bookkeeping). *)
      B.mov b
        (m Reg.R14 ~disp:(Int64.add 0x100L Layout.vi_tsc_timestamp))
        (r Reg.RAX);
      A.emit b (Instr.Imul (Reg.RAX, mabs Layout.time_tsc_mul));
      A.emit b (Instr.Shift (Instr.Shr, r Reg.RAX, Layout.tsc_shift_value));
      B.mov b (m Reg.R15 ~disp:0x00L) (r Reg.RAX);
      A.emit b (Instr.Shift (Instr.Shr, r Reg.R9, 32));
      B.mov b (m Reg.R15 ~disp:0x18L) (r Reg.R9);
      B.advance_guest_rip b 2;
      B.jmp b done_;
      A.label b em_io;
      (* OUT to a virtual port: latch the value into the IRQ
         descriptor's action field for the addressed line. *)
      B.load_arg b 1 Reg.R9;
      A.emit b (Instr.Alu (Instr.And, r Reg.R9, i 15L));
      A.emit b (Instr.Shift (Instr.Shl, r Reg.R9, 5));
      B.add b (r Reg.R9) (i Layout.irq_desc_base);
      B.load_arg b 2 Reg.R10;
      B.mov b (m Reg.R9 ~disp:Layout.irq_desc_action) (r Reg.R10);
      B.advance_guest_rip b 2;
      B.jmp b done_;
      A.label b em_msr;
      (* WRMSR to the timer-deadline MSR. *)
      B.load_arg b 1 Reg.R9;
      B.mov b (mabs Layout.time_deadline) (r Reg.R9);
      B.advance_guest_rip b 2;
      A.label b done_
  | Hw_exception.DE | Hw_exception.UD | Hw_exception.BR | Hw_exception.OF
  | Hw_exception.NM | Hw_exception.MF | Hw_exception.AC | Hw_exception.XM
  | Hw_exception.DB | Hw_exception.BP ->
      (* Guest-owned trap: queue and deliver it back to the guest. *)
      let v = Hw_exception.vector exn in
      (if exn = Hw_exception.UD then begin
         (* Log the offending opcode first. *)
         B.load_arg b 0 Reg.R10;
         B.mov b (mabs Layout.apic_log) (r Reg.R10)
       end
       else if exn = Hw_exception.DE then begin
         (* Record the divisor the guest used. *)
         B.mov b (r Reg.R10) (m Reg.R15 ~disp:0x08L);
         B.mov b (mabs Layout.apic_log) (r Reg.R10)
       end);
      B.mov b (r Reg.R9) (ii v);
      B.queue_guest_trap ctx b;
      B.deliver_pending_traps ctx b;
      ignore out
  | Hw_exception.DF | Hw_exception.MC | Hw_exception.NMI | Hw_exception.TS
  | Hw_exception.NP | Hw_exception.SS | Hw_exception.CSO ->
      (* Hypervisor-fatal class: write a crash record. *)
      let v = Hw_exception.vector exn in
      B.mov b (mabs Layout.crash_record) (ii v);
      B.mov b (r Reg.R10) (mabs Layout.global_jiffies);
      B.mov b (mabs (Int64.add Layout.crash_record 8L)) (r Reg.R10);
      A.emit b Instr.Rdtsc;
      B.mov b (mabs (Int64.add Layout.crash_record 16L)) (r Reg.RAX);
      (* Context words from the current VCPU. *)
      for k = 0 to 3 do
        B.mov b (r Reg.R10) (m Reg.R15 ~disp:(Int64.of_int (k * 8)));
        B.mov b
          (mabs (Int64.add Layout.crash_record (Int64.of_int (24 + (k * 8)))))
          (r Reg.R10)
      done;
      if exn = Hw_exception.MC then
        (* Scan machine-check banks. *)
        for k = 0 to 7 do
          B.mov b (r Reg.R10)
            (mabs (Int64.add Layout.apic_log (Int64.of_int (16 + (k * 8)))));
          B.test b (r Reg.R10) (r Reg.R10)
        done

(* ------------------------------------------------------------------ *)
(* Hypercall handlers                                                  *)
(* ------------------------------------------------------------------ *)

let body_hypercall ctx b h ~out =
  let nr = Hypercall.number h in
  let limit = table_limit h in
  let fail = A.fresh_label b "hc_fail" in
  let ok = A.fresh_label b "hc_ok" in
  (match Hypercall.shape h with
  | Hypercall.Table_write ->
      let loop = A.fresh_label b "tw_loop" in
      let finish = A.fresh_label b "tw_finish" in
      B.mov b (r Reg.RCX) (r Reg.RDI);
      (* Debug assertion on the destination table's capacity; modest
         corruptions of the count slip past it and show up as extra
         dynamic instructions instead. *)
      B.emit_assert_range ctx b ~name:"table_count" (r Reg.RCX) 0L 256L;
      B.mov b (r Reg.R9) (i Layout.guest_buffer);
      B.mov b (r Reg.R10)
        (i (Int64.add Layout.bounce_buffer (Int64.of_int (nr * 0x200))));
      A.label b loop;
      B.test b (r Reg.RCX) (r Reg.RCX);
      B.jcc b Cond.E finish;
      B.mov b (r Reg.R11) (m Reg.R9);
      B.cmp b (r Reg.R11) (i (Int64.of_int (0x10000 * (nr + 1))));
      B.jcc b Cond.A fail;
      B.mov b (m Reg.R10) (r Reg.R11);
      B.add b (r Reg.R9) (i 8L);
      B.add b (r Reg.R10) (i 8L);
      B.dec b (r Reg.RCX);
      B.jmp b loop;
      A.label b finish;
      B.jmp b ok
  | Hypercall.Mmu_batch ->
      let loop = A.fresh_label b "mmu_loop" in
      let skip = A.fresh_label b "mmu_skip" in
      let finish = A.fresh_label b "mmu_finish" in
      let batch_max = 2 + (nr mod 7) in
      ignore batch_max;
      B.mov b (r Reg.R8) (r Reg.RDI);
      B.emit_assert_range ctx b ~name:"mmu_batch_count" (r Reg.R8) 0L 64L;
      A.label b loop;
      B.test b (r Reg.R8) (r Reg.R8);
      B.jcc b Cond.E finish;
      B.mov b (r Reg.RDI) (r Reg.RSI);
      B.pt_walk ctx b ~not_present:skip;
      A.label b skip;
      B.add b (r Reg.RSI) (i 0x1000L);
      B.dec b (r Reg.R8);
      B.jmp b loop;
      A.label b finish;
      B.jmp b ok
  | Hypercall.Copy_buffer ->
      B.copy_from_guest ctx b ~count_words_max:(limit * 8);
      B.checksum_bounce b;
      B.store_guest_rax b (r Reg.RAX);
      B.jmp b out
  | Hypercall.Event_op ->
      let op_send = A.fresh_label b "ev_send"
      and op_mask = A.fresh_label b "ev_mask"
      and op_unmask = A.fresh_label b "ev_unmask"
      and op_bind = A.fresh_label b "ev_bind" in
      B.mov b (r Reg.R10) (r Reg.RSI);
      A.emit b
        (Instr.Jmp_table (r Reg.R10, [| op_send; op_mask; op_unmask; op_bind |]));
      A.label b op_send;
      B.evtchn_deliver ctx b ~out:fail;
      B.jmp b ok;
      A.label b op_mask;
      B.cmp b (r Reg.RDI) (ii Layout.evtchn_ports);
      B.jcc b Cond.AE fail;
      A.emit b (Instr.Bts (m Reg.R14 ~disp:Layout.si_evtchn_mask, r Reg.RDI));
      B.jmp b ok;
      A.label b op_unmask;
      B.cmp b (r Reg.RDI) (ii Layout.evtchn_ports);
      B.jcc b Cond.AE fail;
      A.emit b (Instr.Btr (m Reg.R14 ~disp:Layout.si_evtchn_mask, r Reg.RDI));
      (* Re-deliver if the port was pending while masked. *)
      A.emit b (Instr.Bt (m Reg.R14 ~disp:Layout.si_evtchn_pending, r Reg.RDI));
      B.jcc b Cond.AE ok;
      B.evtchn_deliver ctx b ~out:fail;
      B.jmp b ok;
      A.label b op_bind;
      B.cmp b (r Reg.RDI) (ii Layout.evtchn_ports);
      B.jcc b Cond.AE fail;
      (* entry = dom_base + 0x2000 + port*16 *)
      B.mov b (r Reg.R10) (r Reg.RDI);
      A.emit b (Instr.Shift (Instr.Shl, r Reg.R10, 4));
      B.add b (r Reg.R10) (r Reg.R12);
      B.mov b (m Reg.R10 ~disp:(Int64.add 0x2000L Layout.evtchn_state))
        (i (Int64.of_int (Event_channel.state_to_int Event_channel.Interdomain)));
      B.mov b (m Reg.R10 ~disp:(Int64.add 0x2000L Layout.evtchn_target)) (i 0L);
      B.jmp b ok
  | Hypercall.Sched -> (
      match h with
      | Hypercall.Stack_switch ->
          B.emit_assert_range ctx b ~name:"stack_aligned"
            (r Reg.RSI) 0L 0x7FFF_FFFF_FFFFL;
          A.emit b
            (Instr.Assert
               {
                 Instr.assert_id = Exit_reason.to_id ctx.B.reason * 16 + 15;
                 assert_name = "stack_switch/alignment";
                 assert_src = r Reg.RSI;
                 assert_kind = Instr.Assert_aligned 3;
               });
          B.mov b (m Reg.R15 ~disp:0x110L) (r Reg.RSI);
          B.jmp b ok
      | Hypercall.Iret ->
          B.mov b (r Reg.R10) (m Reg.R15 ~disp:Layout.vcpu_user_rip);
          B.emit_assert_nonzero ctx b ~name:"iret_rip" (r Reg.R10);
          B.mov b (r Reg.R11) (m Reg.R15 ~disp:Layout.vcpu_user_rflags);
          A.emit b (Instr.Alu (Instr.Or, r Reg.R11, i 0x200L));
          B.mov b (m Reg.R15 ~disp:Layout.vcpu_user_rflags) (r Reg.R11);
          B.deliver_pending_traps ctx b;
          B.jmp b ok
      | Hypercall.Fpu_taskswitch ->
          A.emit b (Instr.Bts (m Reg.R15 ~disp:0x120L, i 0L));
          B.jmp b ok
      | Hypercall.Sched_op | Hypercall.Sched_op_compat | _ ->
          let yield = A.fresh_label b "sched_yield"
          and block = A.fresh_label b "sched_block"
          and poll = A.fresh_label b "sched_poll"
          and finish = A.fresh_label b "sched_finish" in
          B.mov b (r Reg.R10) (r Reg.RDI);
          A.emit b (Instr.Jmp_table (r Reg.R10, [| yield; block; poll |]));
          A.label b yield;
          B.context_switch ctx b;
          B.jmp b finish;
          A.label b block;
          B.mov b (m Reg.R15 ~disp:Layout.vcpu_running) (i 0L);
          B.context_switch ctx b;
          B.jmp b finish;
          A.label b poll;
          (* Poll: scan the pending words. *)
          B.mov b (r Reg.R9) (i 0L);
          for k = 0 to 7 do
            B.mov b (r Reg.R11)
              (m Reg.R14
                 ~disp:(Int64.add Layout.si_evtchn_pending (Int64.of_int (k * 8))));
            A.emit b (Instr.Alu (Instr.Or, r Reg.R9, r Reg.R11))
          done;
          B.test b (r Reg.R9) (r Reg.R9);
          A.label b finish;
          B.jmp b ok)
  | Hypercall.Timer ->
      (* Program a deadline relative to the scaled current time. *)
      A.emit b Instr.Rdtsc;
      A.emit b (Instr.Shift (Instr.Shl, r Reg.RDX, 32));
      A.emit b (Instr.Alu (Instr.Or, r Reg.RAX, r Reg.RDX));
      A.emit b (Instr.Imul (Reg.RAX, mabs Layout.time_tsc_mul));
      A.emit b (Instr.Shift (Instr.Shr, r Reg.RAX, Layout.tsc_shift_value));
      B.mov b (r Reg.R9) (r Reg.RAX);
      B.add b (r Reg.RAX) (r Reg.RDI);
      (* A deadline in the past is re-armed one tick ahead (Xen's
         timer code takes an equivalent slow path). *)
      let armed = A.fresh_label b "timer_armed" in
      B.cmp b (r Reg.RAX) (r Reg.R9);
      B.jcc b Cond.A armed;
      B.mov b (r Reg.RAX) (r Reg.R9);
      B.add b (r Reg.RAX) (i 1_000L);
      A.label b armed;
      B.mov b (mabs Layout.time_deadline) (r Reg.RAX);
      B.mov b (m Reg.R15 ~disp:0x128L) (r Reg.RAX);
      B.jmp b ok
  | Hypercall.Grant ->
      let loop = A.fresh_label b "gr_loop" in
      let skip = A.fresh_label b "gr_skip" in
      let finish = A.fresh_label b "gr_finish" in
      let gmax = 2 + (nr mod 5) in
      ignore gmax;
      B.mov b (r Reg.R8) (r Reg.RDI);
      B.emit_assert_range ctx b ~name:"grant_count" (r Reg.R8) 0L
        (Int64.of_int Layout.grant_entries);
      B.mov b (r Reg.R10) (r Reg.R12);
      B.add b (r Reg.R10) (i 0x4000L) (* grant table base *);
      B.mov b (r Reg.R9) (i (Int64.add Layout.bounce_buffer 0x1000L));
      A.label b loop;
      B.test b (r Reg.R8) (r Reg.R8);
      B.jcc b Cond.E finish;
      B.mov b (r Reg.R11) (m Reg.R10 ~disp:Layout.grant_flags);
      A.emit b (Instr.Bt (r Reg.R11, i 0L));
      B.jcc b Cond.AE skip;
      B.mov b (r Reg.R11) (m Reg.R10 ~disp:Layout.grant_frame);
      B.mov b (m Reg.R9) (r Reg.R11);
      (* Mark the entry accessed. *)
      A.emit b (Instr.Bts (m Reg.R10 ~disp:Layout.grant_flags, i 1L));
      A.label b skip;
      B.add b (r Reg.R10) (i 16L);
      B.add b (r Reg.R9) (i 8L);
      B.dec b (r Reg.R8);
      B.jmp b loop;
      A.label b finish;
      B.jmp b ok
  | Hypercall.Query -> (
      match h with
      | Hypercall.Xen_version ->
          B.store_guest_rax b (i 0x0004_0001L) (* 4.1 *);
          B.jmp b out
      | Hypercall.Get_debugreg ->
          B.mov b (r Reg.R10) (m Reg.R15 ~disp:0x130L);
          B.store_guest_rax b (r Reg.R10);
          B.jmp b out
      | Hypercall.Set_segment_base ->
          B.emit_assert_range ctx b ~name:"segment_base_canonical" (r Reg.RSI)
            0L 0x0000_7FFF_FFFF_FFFFL;
          B.mov b (m Reg.R15 ~disp:0x138L) (r Reg.RSI);
          B.jmp b ok
      | Hypercall.Vm_assist ->
          A.emit b (Instr.Bts (m Reg.R12 ~disp:Layout.dom_state, r Reg.RDI));
          B.jmp b ok
      | Hypercall.Xsm_op | Hypercall.Hvm_op | _ ->
          (* Small read-modify query over the request page. *)
          B.mov b (r Reg.R9) (i 0L);
          for k = 0 to 3 do
            B.mov b (r Reg.R11) (m Reg.R13 ~disp:(Int64.of_int (k * 8)));
            A.emit b (Instr.Alu (Instr.Xor, r Reg.R9, r Reg.R11))
          done;
          B.store_guest_rax b (r Reg.R9);
          B.jmp b out)
  | Hypercall.Control ->
      let op_state = A.fresh_label b "ctl_state"
      and op_copy = A.fresh_label b "ctl_copy"
      and op_scan = A.fresh_label b "ctl_scan"
      and op_stat = A.fresh_label b "ctl_stat"
      and finish = A.fresh_label b "ctl_finish" in
      B.mov b (r Reg.R10) (r Reg.RDI);
      A.emit b
        (Instr.Jmp_table (r Reg.R10, [| op_state; op_copy; op_scan; op_stat |]));
      A.label b op_state;
      B.mov b (m Reg.R12 ~disp:Layout.dom_state) (r Reg.RSI);
      B.jmp b finish;
      A.label b op_copy;
      B.mov b (r Reg.RCX) (i (Int64.of_int (4 + (nr mod 8))));
      B.mov b (r Reg.RSI) (i Layout.guest_buffer);
      B.mov b (r Reg.RDI) (i (Int64.add Layout.bounce_buffer 0x2000L));
      A.emit b Instr.Rep_movsq;
      B.jmp b finish;
      A.label b op_scan;
      (* Scan the domain state words of the paper's three-domain
         setup (Dom0 + two DomUs). *)
      for d = 0 to 2 do
        B.mov b (r Reg.R11)
          (mabs (Int64.add (Layout.dom_base d) Layout.dom_state));
        B.test b (r Reg.R11) (r Reg.R11)
      done;
      B.jmp b finish;
      A.label b op_stat;
      B.mov b (r Reg.R11) (mabs Layout.global_jiffies);
      B.mov b (m Reg.R13 ~disp:0x38L) (r Reg.R11);
      A.label b finish;
      B.jmp b ok);
  A.label b fail;
  B.store_guest_rax b (i (-22L) (* -EINVAL *));
  B.jmp b out;
  A.label b ok;
  B.store_guest_rax b (i 0L)

(* ------------------------------------------------------------------ *)
(* Program assembly                                                    *)
(* ------------------------------------------------------------------ *)

let build ~hardened reason =
  let ctx = B.make_ctx reason in
  let name =
    if hardened then Exit_reason.name reason ^ "+hardened"
    else Exit_reason.name reason
  in
  Program.assemble name (fun b ->
      B.prologue ~hardened b;
      (match reason with
      | Exit_reason.Irq line -> body_irq ~hardened ctx b line
      | Exit_reason.Apic kind -> body_apic ~hardened ctx b kind
      | Exit_reason.Softirq -> body_softirq ~hardened ctx b
      | Exit_reason.Tasklet -> body_tasklet ctx b
      | Exit_reason.Exception exn -> body_exception ctx b exn ~out:"out"
      | Exit_reason.Hypercall h -> body_hypercall ctx b h ~out:"out");
      A.label b "out";
      B.exit_audit ~hardened ctx b;
      B.epilogue b)

(* One slot per (reason, hardened) pair, indexed by the reason's dense
   id, holds the handler synthesized and pre-decoded for the
   threaded-code engine; [program] projects the source back out, so
   both engines draw from the same slot.  A lookup is an array read and
   an atomic load: no lock, no allocation.  A slot fills on first use
   through a compare-and-set; two domains racing on an empty slot both
   compile, and the loser adopts the winner's program. *)
let slots : Cpu.compiled option Atomic.t array =
  Array.init (2 * Exit_reason.count) (fun _ -> Atomic.make None)

let compiled ?(hardened = false) reason =
  let slot =
    slots.((2 * Exit_reason.to_id reason) + if hardened then 1 else 0)
  in
  match Atomic.get slot with
  | Some c -> c
  | None ->
      let c = Cpu.compile (build ~hardened reason) in
      ignore (Atomic.compare_and_set slot None (Some c) : bool);
      Option.get (Atomic.get slot)

let program ?hardened reason = Cpu.compiled_source (compiled ?hardened reason)

let all_programs ?(hardened = false) () =
  Array.map (fun reason -> (reason, program ~hardened reason)) Exit_reason.all

let static_instruction_count ?(hardened = false) () =
  Array.fold_left
    (fun acc (_, p) -> acc + Program.length p)
    0
    (all_programs ~hardened ())
