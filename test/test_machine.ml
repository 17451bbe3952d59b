(* Tests for Xentry_machine: sparse memory, hardware exception vectors,
   the PMU, and the CPU interpreter including fault injection and
   def-use activation tracking. *)

open Xentry_isa
open Xentry_machine

let code_base = 0x100000L
let stack_top = 0x20000L
let data_base = 0x30000L

(* Build a CPU with a mapped stack and a small data region. *)
let fresh_cpu () =
  let mem = Memory.create () in
  Memory.map_region mem ~addr:0x10000L ~size:0x10000 (* stack *);
  Memory.map_region mem ~addr:data_base ~size:0x10000 (* data *);
  let cpu = Cpu.create mem in
  Cpu.set_gpr cpu Reg.RSP stack_top;
  cpu

let run ?entry ?fuel ?inject cpu program =
  Cpu.run cpu ~program ~code_base ?entry ?fuel ?inject ()

let prog name build = Program.assemble name build

let stop_testable = Alcotest.testable Cpu.pp_stop ( = )

(* --- Memory ---------------------------------------------------------------- *)

let test_memory_roundtrip_64 () =
  let m = Memory.create () in
  Memory.map_region m ~addr:0x1000L ~size:4096;
  Memory.store64 m 0x1008L 0xDEADBEEFCAFEBABEL;
  Alcotest.(check int64) "roundtrip" 0xDEADBEEFCAFEBABEL (Memory.load64 m 0x1008L)

let test_memory_unaligned_crosspage () =
  let m = Memory.create () in
  Memory.map_region m ~addr:0x1000L ~size:8192;
  (* Word straddling the page boundary at 0x2000. *)
  Memory.store64 m 0x1FFDL 0x1122334455667788L;
  Alcotest.(check int64) "cross-page roundtrip" 0x1122334455667788L
    (Memory.load64 m 0x1FFDL)

let test_memory_fault_unmapped () =
  let m = Memory.create () in
  (match Memory.load64 m 0x9999L with
  | _ -> Alcotest.fail "expected fault"
  | exception Memory.Fault { write = false; _ } -> ());
  match Memory.store64 m 0x9999L 1L with
  | _ -> Alcotest.fail "expected fault"
  | exception Memory.Fault { write = true; _ } -> ()

let test_memory_fault_partial_word () =
  let m = Memory.create () in
  Memory.map_region m ~addr:0x1000L ~size:4096;
  (* The last byte of the word falls off the mapped page. *)
  match Memory.load64 m 0x1FFCL with
  | _ -> Alcotest.fail "expected fault"
  | exception Memory.Fault _ -> ()

let test_memory_map_idempotent () =
  let m = Memory.create () in
  Memory.map_region m ~addr:0x1000L ~size:4096;
  Memory.store64 m 0x1000L 77L;
  Memory.map_region m ~addr:0x1000L ~size:4096;
  Alcotest.(check int64) "remap preserves contents" 77L (Memory.load64 m 0x1000L)

let test_memory_unmap () =
  let m = Memory.create () in
  Memory.map_region m ~addr:0x1000L ~size:4096;
  Memory.unmap_region m ~addr:0x1000L ~size:4096;
  Alcotest.(check bool) "unmapped" false (Memory.is_mapped m 0x1000L)

let test_memory_copy_independent () =
  let m = Memory.create () in
  Memory.map_region m ~addr:0x1000L ~size:4096;
  Memory.store64 m 0x1000L 1L;
  let c = Memory.copy m in
  Memory.store64 m 0x1000L 2L;
  Alcotest.(check int64) "copy unaffected" 1L (Memory.load64 c 0x1000L)

let test_memory_cow_copy_isolated () =
  (* The reverse direction of [copy independent]: writing through the
     copy must not leak into the original either. *)
  let m = Memory.create () in
  Memory.map_region m ~addr:0x1000L ~size:4096;
  Memory.store64 m 0x1000L 1L;
  let c = Memory.copy m in
  Memory.store64 c 0x1000L 9L;
  Alcotest.(check int64) "original unaffected" 1L (Memory.load64 m 0x1000L);
  Alcotest.(check int64) "copy sees its write" 9L (Memory.load64 c 0x1000L)

let test_memory_cow_sharing_accounting () =
  let m = Memory.create () in
  Memory.map_region m ~addr:0x1000L ~size:(4 * 4096);
  Memory.store64 m 0x1000L 1L;
  Alcotest.(check int) "fresh mapping is privately owned" 4
    (Memory.private_pages m);
  let c = Memory.copy m in
  Alcotest.(check int) "snapshot freezes the parent's pages" 0
    (Memory.private_pages m);
  Alcotest.(check int) "copy starts fully shared" 0 (Memory.private_pages c);
  Alcotest.(check int) "copy maps the same pages" (Memory.page_count m)
    (Memory.page_count c);
  Memory.store64 c 0x2000L 7L;
  Alcotest.(check int) "first write privatises one page" 1
    (Memory.private_pages c);
  Memory.store64 c 0x2008L 8L;
  Alcotest.(check int) "second write to same page reuses it" 1
    (Memory.private_pages c);
  Alcotest.(check int) "parent still fully shared" 0 (Memory.private_pages m)

let test_memory_cow_clone_chain () =
  let a = Memory.create () in
  Memory.map_region a ~addr:0x1000L ~size:4096;
  Memory.store64 a 0x1000L 1L;
  let b = Memory.copy a in
  let c = Memory.copy b in
  Memory.store64 b 0x1000L 2L;
  Memory.store64 c 0x1000L 3L;
  Alcotest.(check int64) "grandparent keeps its value" 1L
    (Memory.load64 a 0x1000L);
  Alcotest.(check int64) "middle generation isolated" 2L
    (Memory.load64 b 0x1000L);
  Alcotest.(check int64) "leaf isolated" 3L (Memory.load64 c 0x1000L)

(* --- Memory: software TLB invalidation ------------------------------------- *)

let test_tlb_generation_bumps () =
  let m = Memory.create () in
  Memory.map_region m ~addr:0x1000L ~size:4096;
  let g0 = Memory.tlb_generation m in
  ignore (Memory.copy m);
  let g1 = Memory.tlb_generation m in
  Alcotest.(check bool) "copy bumps the generation" true (g1 > g0);
  Memory.unmap_region m ~addr:0x1000L ~size:4096;
  Alcotest.(check bool) "unmap bumps the generation" true
    (Memory.tlb_generation m > g1)

let test_tlb_no_stale_after_snapshot () =
  (* Warm the parent's read and write TLB slots, snapshot, then write
     the parent again: the cached (pre-snapshot) translation must not
     let the write reach the now-shared page, and the child must keep
     reading the snapshot value. *)
  let m = Memory.create () in
  Memory.map_region m ~addr:0x1000L ~size:4096;
  Memory.store64 m 0x1000L 1L (* warm write TLB *);
  ignore (Memory.load64 m 0x1000L) (* warm read TLB *);
  let c = Memory.copy m in
  Memory.store64 m 0x1000L 2L (* must miss and re-privatise *);
  Alcotest.(check int64) "child reads the snapshot value" 1L
    (Memory.load64 c 0x1000L);
  Alcotest.(check int64) "parent sees its new value" 2L (Memory.load64 m 0x1000L)

let test_tlb_privatisation_refreshes_read_slot () =
  (* After the copy reads a shared page (read TLB now points at the
     parent-owned bytes), its first write duplicates the page; a later
     read must see the private bytes, not the cached shared ones. *)
  let m = Memory.create () in
  Memory.map_region m ~addr:0x1000L ~size:4096;
  Memory.store64 m 0x1000L 5L;
  let c = Memory.copy m in
  ignore (Memory.load64 c 0x1000L) (* cache the shared translation *);
  Memory.store64 c 0x1000L 6L (* COW duplication *);
  Alcotest.(check int64) "copy reads its own write" 6L (Memory.load64 c 0x1000L);
  Alcotest.(check int64) "parent undisturbed" 5L (Memory.load64 m 0x1000L)

(* Checkpoints.  Warm write translations must not let the first
   write after a checkpoint skip the journal, and a copy must not see
   the live memory's later writes; pre-images a copy binds must survive
   the next checkpoint and the frame pool; pages mapped or privatised
   after a checkpoint are never journaled; a struck page is journaled
   by record, under every number the checkpoint binds it at. *)
let test_checkpoint_copies () =
  let page n = Int64.of_int (n * Memory.page_size) in
  let module Telemetry = Xentry_util.Telemetry in
  let preimages = Telemetry.counter "memory.checkpoint.preimage" in
  let m = Memory.create () in
  Memory.map_region m ~addr:(page 1) ~size:(3 * Memory.page_size);
  Memory.store64 m (page 1) 1L (* warm write TLB *);
  Telemetry.enable ();
  let p0 = Telemetry.counter_value preimages in
  let ck = Memory.checkpoint m in
  Memory.store64 m (page 1) 2L;
  Memory.store64 m (page 1) 2L;
  Memory.map_region m ~addr:(page 6) ~size:Memory.page_size;
  Memory.store64 m (page 6) 5L;
  let a = Memory.copy_checkpoint ck and b = Memory.copy_checkpoint ck in
  Memory.store64 m (page 1) 3L;
  Memory.store64 m (page 2) 4L;
  (* Drop every translation, so the next write takes the slow path. *)
  Memory.unmap_region m ~addr:(page 9) ~size:Memory.page_size;
  Memory.store64 m (page 1) 3L;
  let journaled = Telemetry.counter_value preimages - p0 in
  Telemetry.disable ();
  Alcotest.(check int) "one pre-image" 1 journaled;
  Alcotest.(check int64) "copy reads the checkpoint" 1L (Memory.load64 a (page 1));
  Alcotest.(check int64) "second copy too" 1L (Memory.load64 b (page 1));
  Alcotest.(check int64) "copy misses later writes" 0L (Memory.load64 a (page 2));
  Alcotest.(check bool) "copy misses later mappings" false
    (Memory.is_mapped a (page 6));
  Alcotest.(check int64) "live reads its write" 3L (Memory.load64 m (page 1));
  let ck2 = Memory.checkpoint m in
  (* Drain the frame pool into fresh zeroed pages. *)
  let z = Memory.create () in
  Memory.map_region z ~addr:(page 16) ~size:(64 * Memory.page_size);
  Alcotest.(check int64) "copy keeps its pre-image" 1L (Memory.load64 a (page 1));
  (match Memory.copy_checkpoint ck with
  | _ -> Alcotest.fail "superseded checkpoint copied"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int64) "current checkpoint" 3L
    (Memory.load64 (Memory.copy_checkpoint ck2) (page 1));
  Memory.release m;
  (match Memory.copy_checkpoint ck2 with
  | _ -> Alcotest.fail "released memory's checkpoint copied"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int64) "copy outlives the release" 1L (Memory.load64 b (page 1));
  (* Page 3 struck to alias page 1's record (3 xor 2 = 1), before and
     after the checkpoint. *)
  let struck ~before =
    let s = Memory.create () in
    Memory.map_region s ~addr:(page 1) ~size:(3 * Memory.page_size);
    Memory.store64 s (page 1) 7L;
    Memory.store64 s (page 3) 8L;
    let strike () = ignore (Memory.strike_tlb s ~page:3L ~bit:1 : bool) in
    if before then strike ();
    let ck = Memory.checkpoint s in
    if not before then strike ();
    Memory.store64 s (page 3) 9L;
    Alcotest.(check int64) "live alias" 9L (Memory.load64 s (page 1));
    let c = Memory.copy_checkpoint ck in
    (Memory.load64 c (page 1), Memory.load64 c (page 3))
  in
  Alcotest.(check (pair int64 int64)) "struck before" (7L, 7L) (struck ~before:true);
  Alcotest.(check (pair int64 int64)) "struck after" (7L, 8L) (struck ~before:false)

let test_tlb_unmap_faults_after_warm () =
  let m = Memory.create () in
  Memory.map_region m ~addr:0x1000L ~size:4096;
  Memory.store64 m 0x1000L 9L;
  ignore (Memory.load64 m 0x1000L);
  Memory.unmap_region m ~addr:0x1000L ~size:4096;
  (match Memory.load64 m 0x1000L with
  | _ -> Alcotest.fail "expected read fault after unmap"
  | exception Memory.Fault _ -> ());
  match Memory.store64 m 0x1000L 1L with
  | _ -> Alcotest.fail "expected write fault after unmap"
  | exception Memory.Fault _ -> ()

let test_tlb_clone_chain_no_stale () =
  (* a -> b -> c snapshot chain with translations cached at every
     level before each copy; writes must stay isolated exactly as in
     the eager-copy model. *)
  let a = Memory.create () in
  Memory.map_region a ~addr:0x1000L ~size:4096;
  Memory.store64 a 0x1000L 1L;
  ignore (Memory.load64 a 0x1000L);
  let b = Memory.copy a in
  ignore (Memory.load64 b 0x1000L);
  let c = Memory.copy b in
  ignore (Memory.load64 c 0x1000L);
  Memory.store64 b 0x1000L 2L;
  Memory.store64 c 0x1000L 3L;
  Memory.store64 a 0x1000L 4L;
  Alcotest.(check int64) "grandparent isolated" 4L (Memory.load64 a 0x1000L);
  Alcotest.(check int64) "middle isolated" 2L (Memory.load64 b 0x1000L);
  Alcotest.(check int64) "leaf isolated" 3L (Memory.load64 c 0x1000L)

let test_memory_first_difference () =
  let a = Memory.create () and b = Memory.create () in
  Memory.map_region a ~addr:0x1000L ~size:4096;
  Memory.map_region b ~addr:0x1000L ~size:4096;
  Memory.store64 a 0x1010L 0x1L;
  Alcotest.(check (option int64)) "difference found" (Some 0x1010L)
    (Memory.first_difference a b ~addr:0x1000L ~len:4096);
  Memory.store64 b 0x1010L 0x1L;
  Alcotest.(check (option int64)) "now equal" None
    (Memory.first_difference a b ~addr:0x1000L ~len:4096);
  Alcotest.(check bool) "region_equal agrees" true
    (Memory.region_equal a b ~addr:0x1000L ~len:4096)

let test_memory_region_equal_unmapped_vs_mapped () =
  let a = Memory.create () and b = Memory.create () in
  Memory.map_region a ~addr:0x1000L ~size:4096;
  Alcotest.(check bool) "mapped zero differs from unmapped" false
    (Memory.region_equal a b ~addr:0x1000L ~len:16)

(* --- Hw_exception ------------------------------------------------------------ *)

let test_hw_exception_19_vectors () =
  Alcotest.(check int) "19 exceptions" 19 Hw_exception.count

let test_hw_exception_vector_roundtrip () =
  Array.iter
    (fun e ->
      match Hw_exception.of_vector (Hw_exception.vector e) with
      | Some e' ->
          Alcotest.(check string) "roundtrip" (Hw_exception.name e)
            (Hw_exception.name e')
      | None -> Alcotest.fail "vector lookup failed")
    Hw_exception.all

let test_hw_exception_vector_15_reserved () =
  Alcotest.(check bool) "vector 15 is reserved" true
    (Hw_exception.of_vector 15 = None)

(* --- Pmu ------------------------------------------------------------------ *)

let test_pmu_disabled_ignores () =
  let p = Pmu.create () in
  Pmu.add p Pmu.Inst_retired 5;
  Alcotest.(check int) "ignored while disabled" 0 (Pmu.read p Pmu.Inst_retired)

let test_pmu_enable_counts () =
  let p = Pmu.create () in
  Pmu.enable p;
  Pmu.add p Pmu.Inst_retired 5;
  Pmu.add p Pmu.Mem_loads 2;
  Alcotest.(check int) "inst" 5 (Pmu.read p Pmu.Inst_retired);
  Alcotest.(check int) "loads" 2 (Pmu.read p Pmu.Mem_loads);
  Pmu.disable p;
  Pmu.add p Pmu.Inst_retired 5;
  Alcotest.(check int) "frozen after disable" 5 (Pmu.read p Pmu.Inst_retired)

let test_pmu_enable_zeroes () =
  let p = Pmu.create () in
  Pmu.enable p;
  Pmu.add p Pmu.Br_inst_retired 3;
  Pmu.enable p;
  Alcotest.(check int) "re-enable zeroes" 0 (Pmu.read p Pmu.Br_inst_retired)

let test_pmu_snapshot () =
  let p = Pmu.create () in
  Pmu.enable p;
  Pmu.add p Pmu.Inst_retired 10;
  Pmu.add p Pmu.Br_inst_retired 2;
  Pmu.add p Pmu.Mem_loads 4;
  Pmu.add p Pmu.Mem_stores 1;
  let s = Pmu.snapshot p in
  Alcotest.(check int) "inst" 10 s.Pmu.inst;
  Alcotest.(check int) "br" 2 s.Pmu.branches;
  Alcotest.(check int) "loads" 4 s.Pmu.loads;
  Alcotest.(check int) "stores" 1 s.Pmu.stores

(* --- Cpu: basic execution ----------------------------------------------------- *)

let test_cpu_mov_add () =
  let cpu = fresh_cpu () in
  let p =
    prog "mov-add" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 40L));
        emit b (Instr.Alu (Instr.Add, Operand.reg Reg.RAX, Operand.imm 2L));
        emit b Instr.Vmentry)
  in
  let r = run cpu p in
  Alcotest.check stop_testable "clean vm entry" Cpu.Vm_entry r.Cpu.stop;
  Alcotest.(check int64) "42" 42L (Cpu.get_gpr cpu Reg.RAX);
  Alcotest.(check int) "3 instructions retired" 3 r.Cpu.final_pmu.Pmu.inst

let test_cpu_memory_ops () =
  let cpu = fresh_cpu () in
  let p =
    prog "mem" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RSI, Operand.imm data_base));
        emit b (Instr.Mov (Operand.mem Reg.RSI, Operand.imm 99L));
        emit b (Instr.Mov (Operand.reg Reg.RBX, Operand.mem Reg.RSI));
        emit b Instr.Vmentry)
  in
  let r = run cpu p in
  Alcotest.check stop_testable "vm entry" Cpu.Vm_entry r.Cpu.stop;
  Alcotest.(check int64) "load back" 99L (Cpu.get_gpr cpu Reg.RBX);
  Alcotest.(check int) "one load" 1 r.Cpu.final_pmu.Pmu.loads;
  Alcotest.(check int) "one store" 1 r.Cpu.final_pmu.Pmu.stores

let test_cpu_loop_branch_counting () =
  let cpu = fresh_cpu () in
  let p =
    prog "loop" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RCX, Operand.imm 5L));
        label b "top";
        emit b (Instr.Dec (Operand.reg Reg.RCX));
        emit b (Instr.Jcc (Cond.NE, "top"));
        emit b Instr.Vmentry)
  in
  let r = run cpu p in
  Alcotest.check stop_testable "vm entry" Cpu.Vm_entry r.Cpu.stop;
  (* 1 mov + 5*(dec+jcc) + vmentry = 12 *)
  Alcotest.(check int) "retired" 12 r.Cpu.final_pmu.Pmu.inst;
  Alcotest.(check int) "branches" 5 r.Cpu.final_pmu.Pmu.branches

let test_cpu_call_ret () =
  let cpu = fresh_cpu () in
  let p =
    prog "call" (fun b ->
        let open Program.Asm in
        emit b (Instr.Call "fn");
        emit b Instr.Vmentry;
        label b "fn";
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 7L));
        emit b Instr.Ret)
  in
  let r = run cpu p in
  Alcotest.check stop_testable "vm entry" Cpu.Vm_entry r.Cpu.stop;
  Alcotest.(check int64) "callee ran" 7L (Cpu.get_gpr cpu Reg.RAX);
  Alcotest.(check int64) "stack balanced" stack_top (Cpu.get_gpr cpu Reg.RSP)

let test_cpu_push_pop () =
  let cpu = fresh_cpu () in
  let p =
    prog "stack" (fun b ->
        let open Program.Asm in
        emit b (Instr.Push (Operand.imm 123L));
        emit b (Instr.Pop (Operand.reg Reg.RDX));
        emit b Instr.Vmentry)
  in
  ignore (run cpu p);
  Alcotest.(check int64) "popped" 123L (Cpu.get_gpr cpu Reg.RDX)

let test_cpu_rep_movsq () =
  let cpu = fresh_cpu () in
  Memory.store64 (Cpu.memory cpu) data_base 11L;
  Memory.store64 (Cpu.memory cpu) (Int64.add data_base 8L) 22L;
  let dst = Int64.add data_base 0x100L in
  let p =
    prog "copy" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RSI, Operand.imm data_base));
        emit b (Instr.Mov (Operand.reg Reg.RDI, Operand.imm dst));
        emit b (Instr.Mov (Operand.reg Reg.RCX, Operand.imm 2L));
        emit b Instr.Rep_movsq;
        emit b Instr.Vmentry)
  in
  let r = run cpu p in
  Alcotest.check stop_testable "vm entry" Cpu.Vm_entry r.Cpu.stop;
  Alcotest.(check int64) "copied[0]" 11L (Memory.load64 (Cpu.memory cpu) dst);
  Alcotest.(check int64) "copied[1]" 22L
    (Memory.load64 (Cpu.memory cpu) (Int64.add dst 8L));
  Alcotest.(check int) "loads = element count" 2 r.Cpu.final_pmu.Pmu.loads;
  Alcotest.(check int) "stores = element count" 2 r.Cpu.final_pmu.Pmu.stores;
  (* 3 movs + 2 rep iterations + 1 rep exit check + vmentry = 7
     retired (the rep prefix re-executes per element, x86-style). *)
  Alcotest.(check int) "rep retires per element" 7 r.Cpu.final_pmu.Pmu.inst

let test_cpu_idiv () =
  let cpu = fresh_cpu () in
  let p =
    prog "div" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 17L));
        emit b (Instr.Mov (Operand.reg Reg.RBX, Operand.imm 5L));
        emit b (Instr.Idiv (Operand.reg Reg.RBX));
        emit b Instr.Vmentry)
  in
  ignore (run cpu p);
  Alcotest.(check int64) "quotient" 3L (Cpu.get_gpr cpu Reg.RAX);
  Alcotest.(check int64) "remainder" 2L (Cpu.get_gpr cpu Reg.RDX)

let test_cpu_divide_by_zero_faults () =
  let cpu = fresh_cpu () in
  let p =
    prog "div0" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 17L));
        emit b (Instr.Mov (Operand.reg Reg.RBX, Operand.imm 0L));
        emit b (Instr.Idiv (Operand.reg Reg.RBX));
        emit b Instr.Vmentry)
  in
  let r = run cpu p in
  match r.Cpu.stop with
  | Cpu.Hw_fault { exn = Hw_exception.DE; _ } -> ()
  | s -> Alcotest.failf "expected #DE, got %a" Cpu.pp_stop s

let test_cpu_unmapped_access_page_faults () =
  let cpu = fresh_cpu () in
  let p =
    prog "wild" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RSI, Operand.imm 0xDEAD0000L));
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.mem Reg.RSI));
        emit b Instr.Vmentry)
  in
  let r = run cpu p in
  match r.Cpu.stop with
  | Cpu.Hw_fault { exn = Hw_exception.PF; detail } ->
      Alcotest.(check int64) "faulting address" 0xDEAD0000L detail
  | s -> Alcotest.failf "expected #PF, got %a" Cpu.pp_stop s

(* A released memory must never look like a simulated page fault:
   that would turn a host-lifetime bug into a plausible campaign
   record.  Each program first runs on the live memory, so its page
   sits in the software TLB for the compiled engine's in-page fast
   path; then the memory is released and its TLB arrays are adopted by
   a fresh memory that translates the same page at a later
   generation. *)
let test_compiled_released_memory_raises () =
  let access name instr =
    let p =
      prog name (fun b ->
          Program.Asm.emit b instr;
          Program.Asm.emit b Instr.Vmentry)
    in
    let compiled = Cpu.compile p in
    let cpu = fresh_cpu () in
    Cpu.set_gpr cpu Reg.RSI data_base;
    let warm = Cpu.run_compiled cpu ~compiled ~code_base () in
    Alcotest.check stop_testable (name ^ " on the live memory") Cpu.Vm_entry
      warm.Cpu.stop;
    Memory.release (Cpu.memory cpu);
    let adopter = fresh_cpu () in
    Cpu.set_gpr adopter Reg.RSI data_base;
    ignore (Cpu.run_compiled adopter ~compiled ~code_base ());
    match Cpu.run_compiled cpu ~compiled ~code_base () with
    | exception Invalid_argument _ -> ()
    | r ->
        Alcotest.failf "%s on a released memory stopped with %a" name
          Cpu.pp_stop r.Cpu.stop
  in
  access "load" (Instr.Mov (Operand.reg Reg.RAX, Operand.mem Reg.RSI));
  access "store" (Instr.Mov (Operand.mem Reg.RSI, Operand.reg Reg.RAX))

(* The in-page fast path probes the software TLB before the slow path
   probes it again: a miss must be counted once, by the slow path, so
   TLB hit and miss counts stay what the reference engine records —
   through fills, hits, a page-crossing word and a page fault. *)
let test_compiled_counts_tlb_probes_once () =
  let module Telemetry = Xentry_util.Telemetry in
  let counters =
    List.map Telemetry.counter
      [
        "memory.tlb.read.hit";
        "memory.tlb.read.miss";
        "memory.tlb.write.hit";
        "memory.tlb.write.miss";
      ]
  in
  let p =
    prog "probes" (fun b ->
        let open Program.Asm in
        let load disp =
          emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.mem ~disp Reg.RSI))
        in
        let store disp =
          emit b (Instr.Mov (Operand.mem ~disp Reg.RSI, Operand.reg Reg.RAX))
        in
        load 0L;
        load 0L;
        store 8L;
        store 8L;
        load 0xFFCL;
        load 0x20000L;
        emit b Instr.Vmentry)
  in
  let probes run =
    let cpu = fresh_cpu () in
    Cpu.set_gpr cpu Reg.RSI data_base;
    Telemetry.enable ();
    let before = List.map Telemetry.counter_value counters in
    let r = run cpu in
    let after = List.map Telemetry.counter_value counters in
    Telemetry.disable ();
    (r.Cpu.stop, List.map2 ( - ) after before)
  in
  let ref_stop, by_ref = probes (fun cpu -> Cpu.run cpu ~program:p ~code_base ()) in
  let fast_stop, by_fast =
    probes (fun cpu -> Cpu.run_compiled cpu ~compiled:(Cpu.compile p) ~code_base ())
  in
  Alcotest.check stop_testable "same stop" ref_stop fast_stop;
  Alcotest.(check (list int)) "read hit/miss, write hit/miss" by_ref by_fast

let test_cpu_jmp_table_dispatch () =
  let cpu = fresh_cpu () in
  let p =
    prog "dispatch" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 1L));
        emit b (Instr.Jmp_table (Operand.reg Reg.RAX, [| "a"; "b" |]));
        label b "a";
        emit b (Instr.Mov (Operand.reg Reg.RBX, Operand.imm 100L));
        emit b Instr.Vmentry;
        label b "b";
        emit b (Instr.Mov (Operand.reg Reg.RBX, Operand.imm 200L));
        emit b Instr.Vmentry)
  in
  ignore (run cpu p);
  Alcotest.(check int64) "dispatched to b" 200L (Cpu.get_gpr cpu Reg.RBX)

let test_cpu_jmp_table_out_of_range_gp () =
  let cpu = fresh_cpu () in
  let p =
    prog "dispatch-bad" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 99L));
        emit b (Instr.Jmp_table (Operand.reg Reg.RAX, [| "a" |]));
        label b "a";
        emit b Instr.Vmentry)
  in
  let r = run cpu p in
  match r.Cpu.stop with
  | Cpu.Hw_fault { exn = Hw_exception.GP; _ } -> ()
  | s -> Alcotest.failf "expected #GP, got %a" Cpu.pp_stop s

let test_cpu_cpuid_deterministic () =
  let cpu = fresh_cpu () in
  let p =
    prog "cpuid" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 1L));
        emit b Instr.Cpuid;
        emit b Instr.Vmentry)
  in
  ignore (run cpu p);
  let a1 = Cpu.get_gpr cpu Reg.RAX and b1 = Cpu.get_gpr cpu Reg.RBX in
  let cpu2 = fresh_cpu () in
  ignore (run cpu2 p);
  Alcotest.(check int64) "same rax" a1 (Cpu.get_gpr cpu2 Reg.RAX);
  Alcotest.(check int64) "same rbx" b1 (Cpu.get_gpr cpu2 Reg.RBX)

let test_cpu_rdtsc_monotonic () =
  let cpu = fresh_cpu () in
  let p =
    prog "tsc" (fun b ->
        let open Program.Asm in
        emit b Instr.Rdtsc;
        emit b (Instr.Mov (Operand.reg Reg.RBX, Operand.reg Reg.RAX));
        emit b Instr.Rdtsc;
        emit b Instr.Vmentry)
  in
  ignore (run cpu p);
  let first = Cpu.get_gpr cpu Reg.RBX and second = Cpu.get_gpr cpu Reg.RAX in
  Alcotest.(check bool) "tsc advanced" true (Int64.compare second first > 0)

let test_cpu_out_of_fuel () =
  let cpu = fresh_cpu () in
  let p =
    prog "spin" (fun b ->
        let open Program.Asm in
        label b "top";
        emit b (Instr.Jmp "top"))
  in
  let r = run ~fuel:100 cpu p in
  Alcotest.check stop_testable "watchdog" Cpu.Out_of_fuel r.Cpu.stop

let test_cpu_hlt () =
  let cpu = fresh_cpu () in
  let p = prog "halt" (fun b -> Program.Asm.emit b (Instr.Hlt : string Instr.t)) in
  let r = run cpu p in
  Alcotest.check stop_testable "halted" Cpu.Halted r.Cpu.stop

let test_cpu_entry_label () =
  let cpu = fresh_cpu () in
  let p =
    prog "entries" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 1L));
        emit b Instr.Vmentry;
        label b "alt";
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 2L));
        emit b Instr.Vmentry)
  in
  ignore (run ~entry:"alt" cpu p);
  Alcotest.(check int64) "alternate entry" 2L (Cpu.get_gpr cpu Reg.RAX)

(* --- Cpu: assertions ---------------------------------------------------------- *)

let assert_range_instr ?(id = 1) lo hi src : string Instr.t =
  Instr.Assert
    {
      Instr.assert_id = id;
      assert_name = "test-range";
      assert_src = src;
      assert_kind = Instr.Assert_range (lo, hi);
    }

let test_cpu_assertion_pass () =
  let cpu = fresh_cpu () in
  let p =
    prog "assert-ok" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 5L));
        emit b (assert_range_instr 0L 10L (Operand.reg Reg.RAX));
        emit b Instr.Vmentry)
  in
  let r = run cpu p in
  Alcotest.check stop_testable "passes" Cpu.Vm_entry r.Cpu.stop

let test_cpu_assertion_violation_detected () =
  let cpu = fresh_cpu () in
  let p =
    prog "assert-bad" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 50L));
        emit b (assert_range_instr 0L 10L (Operand.reg Reg.RAX));
        emit b Instr.Vmentry)
  in
  let r = run cpu p in
  match r.Cpu.stop with
  | Cpu.Assertion_failure { observed; _ } ->
      Alcotest.(check int64) "observed value" 50L observed
  | s -> Alcotest.failf "expected assertion failure, got %a" Cpu.pp_stop s

let test_cpu_assertion_disabled_is_silent () =
  let cpu = fresh_cpu () in
  Cpu.set_assertions_enabled cpu false;
  let p =
    prog "assert-off" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 50L));
        emit b (assert_range_instr 0L 10L (Operand.reg Reg.RAX));
        emit b Instr.Vmentry)
  in
  let r = run cpu p in
  Alcotest.check stop_testable "no detection when disabled" Cpu.Vm_entry
    r.Cpu.stop

let test_cpu_assertion_kinds () =
  let kinds =
    [
      (Instr.Assert_nonzero, 1L, true);
      (Instr.Assert_nonzero, 0L, false);
      (Instr.Assert_zero, 0L, true);
      (Instr.Assert_zero, 3L, false);
      (Instr.Assert_equals 7L, 7L, true);
      (Instr.Assert_equals 7L, 8L, false);
      (Instr.Assert_aligned 3, 16L, true);
      (Instr.Assert_aligned 3, 12L, false);
    ]
  in
  List.iteri
    (fun i (kind, value, should_pass) ->
      let cpu = fresh_cpu () in
      let p =
        prog "assert-kind" (fun b ->
            let open Program.Asm in
            emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.imm value));
            emit b
              (Instr.Assert
                 {
                   Instr.assert_id = 100 + i;
                   assert_name = "kind";
                   assert_src = Operand.reg Reg.RAX;
                   assert_kind = kind;
                 });
            emit b Instr.Vmentry)
      in
      let r = run cpu p in
      let passed = r.Cpu.stop = Cpu.Vm_entry in
      Alcotest.(check bool) (Printf.sprintf "kind case %d" i) should_pass passed)
    kinds

(* --- Cpu: fault injection & activation tracking ------------------------------- *)

let straightline_prog n =
  prog "straight" (fun b ->
      let open Program.Asm in
      for i = 1 to n do
        emit b (Instr.Mov (Operand.reg Reg.RBX, Operand.imm (Int64.of_int i)))
      done;
      emit b Instr.Vmentry)

let test_inject_overwritten_not_activated () =
  let cpu = fresh_cpu () in
  (* RBX is overwritten by every instruction; injecting into it before
     a write means the fault is never activated. *)
  let inject =
    (Cpu.reg_injection (Reg.Gpr Reg.RBX) ~bit:5 ~step:2)
  in
  let r = run ~inject cpu (straightline_prog 6) in
  (match r.Cpu.activation with
  | Some { fate = Cpu.Overwritten _; _ } -> ()
  | Some { fate = f; _ } ->
      Alcotest.failf "expected Overwritten, got %s"
        (match f with
        | Cpu.Activated _ -> "Activated"
        | Cpu.Never_touched -> "Never_touched"
        | Cpu.Overwritten _ -> "Overwritten")
  | None -> Alcotest.fail "no activation report");
  Alcotest.check stop_testable "run unaffected" Cpu.Vm_entry r.Cpu.stop

let test_inject_read_activates () =
  let cpu = fresh_cpu () in
  let p =
    prog "reader" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 1L));
        emit b (Instr.Alu (Instr.Add, Operand.reg Reg.RBX, Operand.reg Reg.RAX));
        emit b Instr.Vmentry)
  in
  let inject = Cpu.reg_injection (Reg.Gpr Reg.RAX) ~bit:3 ~step:1 in
  let r = run ~inject cpu p in
  (match r.Cpu.activation with
  | Some { fate = Cpu.Activated step; _ } ->
      Alcotest.(check int) "activated at add" 1 step
  | _ -> Alcotest.fail "expected activation");
  (* 1 xor 8 = 9 *)
  Alcotest.(check int64) "corrupted value propagated" 9L (Cpu.get_gpr cpu Reg.RBX)

let test_inject_rip_faults () =
  let cpu = fresh_cpu () in
  (* Flipping a high bit of RIP sends the fetch far outside the code
     region: #PF on the next fetch. *)
  let inject = Cpu.reg_injection Reg.Rip ~bit:40 ~step:2 in
  let r = run ~inject cpu (straightline_prog 8) in
  (match r.Cpu.stop with
  | Cpu.Hw_fault { exn = Hw_exception.PF; _ } -> ()
  | s -> Alcotest.failf "expected #PF from corrupted RIP, got %a" Cpu.pp_stop s);
  match r.Cpu.activation with
  | Some { fate = Cpu.Activated _; _ } -> ()
  | _ -> Alcotest.fail "RIP fault should activate at next fetch"

let test_inject_rip_low_bit_misaligned_ud () =
  let cpu = fresh_cpu () in
  (* Bit 1 misaligns RIP within the 8-byte instruction slots: #UD. *)
  let inject = Cpu.reg_injection Reg.Rip ~bit:1 ~step:2 in
  let r = run ~inject cpu (straightline_prog 8) in
  match r.Cpu.stop with
  | Cpu.Hw_fault { exn = Hw_exception.UD; _ } -> ()
  | s -> Alcotest.failf "expected #UD, got %a" Cpu.pp_stop s

let test_inject_rip_slot_bit_lands_elsewhere () =
  let cpu = fresh_cpu () in
  (* Bit 3 = one instruction slot: execution continues at the wrong but
     valid instruction — incorrect control flow with no exception. *)
  let inject = Cpu.reg_injection Reg.Rip ~bit:3 ~step:2 in
  let r = run ~inject cpu (straightline_prog 8) in
  Alcotest.check stop_testable "silent wrong-path run" Cpu.Vm_entry r.Cpu.stop

let test_inject_loop_counter_changes_counts () =
  let loop_prog =
    prog "loop" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RCX, Operand.imm 8L));
        label b "top";
        emit b (Instr.Dec (Operand.reg Reg.RCX));
        emit b (Instr.Jcc (Cond.NE, "top"));
        emit b Instr.Vmentry)
  in
  let golden = run (fresh_cpu ()) loop_prog in
  let inject = Cpu.reg_injection (Reg.Gpr Reg.RCX) ~bit:2 ~step:1 in
  let faulted = run ~inject (fresh_cpu ()) loop_prog in
  Alcotest.(check bool) "retired count differs" true
    (golden.Cpu.final_pmu.Pmu.inst <> faulted.Cpu.final_pmu.Pmu.inst)

let test_inject_never_reached () =
  let cpu = fresh_cpu () in
  let inject =
    (Cpu.reg_injection (Reg.Gpr Reg.RAX) ~bit:0 ~step:10_000)
  in
  let r = run ~inject cpu (straightline_prog 3) in
  match r.Cpu.activation with
  | Some { fate = Cpu.Never_touched; _ } -> ()
  | _ -> Alcotest.fail "expected Never_touched when step is beyond the run"

let test_detection_latency () =
  let cpu = fresh_cpu () in
  let p =
    prog "latency" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RSI, Operand.imm data_base));
        (* Some filler, then a load through RSI. *)
        emit b (Instr.Mov (Operand.reg Reg.RBX, Operand.imm 0L));
        emit b (Instr.Mov (Operand.reg Reg.RBX, Operand.imm 0L));
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.mem Reg.RSI));
        emit b Instr.Vmentry)
  in
  (* Corrupt RSI's high bit after instruction 1; activation happens at
     the load (step 3), the #PF fires there too: latency 0. *)
  let inject = Cpu.reg_injection (Reg.Gpr Reg.RSI) ~bit:45 ~step:1 in
  let r = run ~inject cpu p in
  (match r.Cpu.stop with
  | Cpu.Hw_fault { exn = Hw_exception.PF; _ } -> ()
  | s -> Alcotest.failf "expected #PF, got %a" Cpu.pp_stop s);
  match Cpu.detection_latency r with
  | Some lat -> Alcotest.(check bool) "small latency" true (lat <= 1)
  | None -> Alcotest.fail "expected a latency"

let test_flip_register_bit_direct () =
  let cpu = fresh_cpu () in
  Cpu.set_gpr cpu Reg.R9 0L;
  Cpu.flip_register_bit cpu (Reg.Gpr Reg.R9) 4;
  Alcotest.(check int64) "bit set" 16L (Cpu.get_gpr cpu Reg.R9);
  Cpu.flip_register_bit cpu (Reg.Gpr Reg.R9) 4;
  Alcotest.(check int64) "bit cleared" 0L (Cpu.get_gpr cpu Reg.R9)

let test_memory_zero_size_map () =
  let m = Memory.create () in
  Memory.map_region m ~addr:0x1000L ~size:0;
  Alcotest.(check bool) "nothing mapped" false (Memory.is_mapped m 0x1000L)

let test_memory_negative_size_rejected () =
  let m = Memory.create () in
  Alcotest.check_raises "negative size"
    (Invalid_argument "Memory.map_region: negative size") (fun () ->
      Memory.map_region m ~addr:0x1000L ~size:(-1))

let test_cpu_rep_with_zero_count () =
  (* rep with RCX = 0 copies nothing and continues cleanly. *)
  let cpu = fresh_cpu () in
  let p =
    prog "rep0" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RCX, Operand.imm 0L));
        emit b (Instr.Mov (Operand.reg Reg.RSI, Operand.imm data_base));
        emit b (Instr.Mov (Operand.reg Reg.RDI, Operand.imm (Int64.add data_base 64L)));
        emit b Instr.Rep_movsq;
        emit b Instr.Vmentry)
  in
  let r = run cpu p in
  Alcotest.check stop_testable "clean" Cpu.Vm_entry r.Cpu.stop;
  Alcotest.(check int) "no element traffic" 0 r.Cpu.final_pmu.Pmu.loads

let test_cpu_ud2_raises_invalid_opcode () =
  let cpu = fresh_cpu () in
  let p = prog "bug" (fun b -> Program.Asm.emit b (Instr.Ud2 : string Instr.t)) in
  let r = run cpu p in
  match r.Cpu.stop with
  | Cpu.Hw_fault { exn = Hw_exception.UD; _ } -> ()
  | s -> Alcotest.failf "expected #UD, got %a" Cpu.pp_stop s

let test_cpu_bit_ops () =
  let cpu = fresh_cpu () in
  let p =
    prog "bits" (fun b ->
        let open Program.Asm in
        (* bts on a memory bitmap with a bit index beyond 64 selects
           the right word (x86 bitstring addressing). *)
        emit b (Instr.Mov (Operand.reg Reg.RSI, Operand.imm data_base));
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 70L));
        emit b (Instr.Bts (Operand.mem Reg.RSI, Operand.reg Reg.RAX));
        emit b (Instr.Bt (Operand.mem Reg.RSI, Operand.reg Reg.RAX));
        (* CF must now be set: record it via a conditional move path. *)
        emit b (Instr.Mov (Operand.reg Reg.RBX, Operand.imm 0L));
        emit b (Instr.Jcc (Cond.AE, "done"));
        emit b (Instr.Mov (Operand.reg Reg.RBX, Operand.imm 1L));
        label b "done";
        emit b Instr.Vmentry)
  in
  let r = run cpu p in
  Alcotest.check stop_testable "clean" Cpu.Vm_entry r.Cpu.stop;
  Alcotest.(check int64) "bit 70 observed set" 1L (Cpu.get_gpr cpu Reg.RBX);
  (* Word 1 (bits 64..127) holds bit 6. *)
  Alcotest.(check int64) "stored in second word" 64L
    (Memory.load64 (Cpu.memory cpu) (Int64.add data_base 8L))

let test_cpu_shift_var () =
  let cpu = fresh_cpu () in
  let p =
    prog "shlx" (fun b ->
        let open Program.Asm in
        emit b (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 1L));
        emit b (Instr.Mov (Operand.reg Reg.RCX, Operand.imm 12L));
        emit b (Instr.Shift_var (Instr.Shl, Operand.reg Reg.RAX, Reg.RCX));
        emit b Instr.Vmentry)
  in
  ignore (run cpu p);
  Alcotest.(check int64) "1 << 12" 4096L (Cpu.get_gpr cpu Reg.RAX)

(* --- Trace ------------------------------------------------------------------- *)

let test_trace_records_instructions () =
  let cpu = fresh_cpu () in
  let trace = Trace.create ~capacity:128 () in
  let p = straightline_prog 5 in
  ignore
    (Cpu.run cpu ~program:p ~code_base ~on_step:(Trace.hook trace) ());
  (* 5 movs + vmentry *)
  Alcotest.(check int) "all instructions seen" 6 (Trace.total trace);
  Alcotest.(check int) "window holds them" 6 (Trace.length trace);
  let steps = List.map (fun e -> e.Trace.step) (Trace.entries trace) in
  Alcotest.(check (list int)) "oldest first" [ 0; 1; 2; 3; 4; 5 ] steps

let test_trace_ring_keeps_tail () =
  let cpu = fresh_cpu () in
  let trace = Trace.create ~capacity:4 () in
  ignore
    (Cpu.run cpu ~program:(straightline_prog 10) ~code_base
       ~on_step:(Trace.hook trace) ());
  Alcotest.(check int) "total counts everything" 11 (Trace.total trace);
  Alcotest.(check int) "window capped" 4 (Trace.length trace);
  match Trace.entries trace with
  | first :: _ -> Alcotest.(check int) "window is the tail" 7 first.Trace.step
  | [] -> Alcotest.fail "empty window"

let test_trace_diff_point_finds_divergence () =
  let p =
    prog "branchy" (fun b ->
        let open Program.Asm in
        emit b (Instr.Test (Operand.reg Reg.RAX, Operand.reg Reg.RAX));
        emit b (Instr.Jcc (Cond.E, "zero"));
        emit b (Instr.Mov (Operand.reg Reg.RBX, Operand.imm 1L));
        emit b Instr.Vmentry;
        label b "zero";
        emit b (Instr.Mov (Operand.reg Reg.RBX, Operand.imm 2L));
        emit b Instr.Vmentry)
  in
  let run_with rax =
    let cpu = fresh_cpu () in
    Cpu.set_gpr cpu Reg.RAX rax;
    let trace = Trace.create () in
    ignore (Cpu.run cpu ~program:p ~code_base ~on_step:(Trace.hook trace) ());
    trace
  in
  let a = run_with 0L and b = run_with 1L in
  Alcotest.(check (option int)) "diverges after the branch" (Some 2)
    (Trace.diff_point a b);
  let c = run_with 1L and d = run_with 1L in
  Alcotest.(check (option int)) "identical runs do not diverge" None
    (Trace.diff_point c d)

let test_trace_clear () =
  let trace = Trace.create () in
  Trace.hook trace 0 (Instr.Nop : int Instr.t);
  Trace.clear trace;
  Alcotest.(check int) "cleared" 0 (Trace.length trace);
  Alcotest.(check int) "total reset" 0 (Trace.total trace)

(* --- qcheck ------------------------------------------------------------------ *)

let prop_memory_roundtrip =
  QCheck.Test.make ~name:"memory 64-bit roundtrip at any offset" ~count:200
    QCheck.(pair int64 (int_range 0 4088))
    (fun (v, off) ->
      let m = Memory.create () in
      Memory.map_region m ~addr:0x4000L ~size:8192;
      let addr = Int64.add 0x4000L (Int64.of_int off) in
      Memory.store64 m addr v;
      Memory.load64 m addr = v)

let prop_loop_iterations_match_counter =
  QCheck.Test.make ~name:"loop retires 2 instructions per iteration" ~count:50
    QCheck.(int_range 1 200)
    (fun n ->
      let cpu = fresh_cpu () in
      let p =
        prog "loopn" (fun b ->
            let open Program.Asm in
            emit b (Instr.Mov (Operand.reg Reg.RCX, Operand.imm (Int64.of_int n)));
            label b "top";
            emit b (Instr.Dec (Operand.reg Reg.RCX));
            emit b (Instr.Jcc (Cond.NE, "top"));
            emit b Instr.Vmentry)
      in
      let r = run ~fuel:10_000 cpu p in
      r.Cpu.final_pmu.Pmu.inst = 2 + (2 * n))

let prop_injection_preserves_or_detects =
  QCheck.Test.make
    ~name:"every injected run stops with a well-defined reason" ~count:200
    QCheck.(triple (int_range 0 17) (int_range 0 63) (int_range 0 20))
    (fun (reg_idx, bit, step) ->
      let cpu = fresh_cpu () in
      let target = Reg.all_arch.(reg_idx) in
      let inject = Cpu.reg_injection target ~bit ~step in
      let r = run ~fuel:5_000 ~inject cpu (straightline_prog 16) in
      match r.Cpu.stop with
      | Cpu.Vm_entry | Cpu.Hw_fault _ | Cpu.Assertion_failure _ | Cpu.Halted
      | Cpu.Out_of_fuel ->
          r.Cpu.activation <> None)

let prop_cow_copy_matches_independent_model =
  (* Interleave writes into a COW parent/copy pair and into a pair of
     genuinely independent memories; both must end up byte-identical.
     Each write is (to_copy, page, offset, value). *)
  QCheck.Test.make ~name:"COW copy behaves like an eager deep copy" ~count:100
    QCheck.(
      list_of_size
        Gen.(int_range 0 30)
        (quad bool (int_range 0 3) (int_range 0 4088) int64))
    (fun writes ->
      let region = 4 * 4096 in
      let seed_mem () =
        let m = Memory.create () in
        Memory.map_region m ~addr:0x1000L ~size:region;
        Memory.store64 m 0x1000L 0x5EEDL;
        m
      in
      let cow_parent = seed_mem () in
      let cow_copy = Memory.copy cow_parent in
      let ref_parent = seed_mem () in
      let ref_copy = seed_mem () in
      List.iter
        (fun (to_copy, page, off, v) ->
          let addr = Int64.of_int (0x1000 + (page * 4096) + off) in
          if to_copy then (
            Memory.store64 cow_copy addr v;
            Memory.store64 ref_copy addr v)
          else (
            Memory.store64 cow_parent addr v;
            Memory.store64 ref_parent addr v))
        writes;
      let image m = Memory.blit_out m ~addr:0x1000L ~len:region in
      image cow_parent = image ref_parent && image cow_copy = image ref_copy)

let prop_tlb_cow_with_reads =
  (* Like the COW model property, but interleaving *reads* with the
     writes so the software TLB caches translations at every point of
     the sequence — a stale cached page would surface as a read that
     disagrees with the eager-copy model.  Each op is
     (is_read, to_copy, page, offset, value). *)
  QCheck.Test.make ~name:"software TLB never serves stale COW pages" ~count:100
    QCheck.(
      list_of_size
        Gen.(int_range 0 40)
        (pair bool (quad bool (int_range 0 3) (int_range 0 4088) int64)))
    (fun ops ->
      let region = 4 * 4096 in
      let seed_mem () =
        let m = Memory.create () in
        Memory.map_region m ~addr:0x1000L ~size:region;
        Memory.store64 m 0x1000L 0x5EEDL;
        m
      in
      let cow_parent = seed_mem () in
      let cow_copy = Memory.copy cow_parent in
      let ref_parent = seed_mem () in
      let ref_copy = seed_mem () in
      List.for_all
        (fun (is_read, (to_copy, page, off, v)) ->
          let addr = Int64.of_int (0x1000 + (page * 4096) + off) in
          let cow, eager =
            if to_copy then (cow_copy, ref_copy) else (cow_parent, ref_parent)
          in
          if is_read then Memory.load64 cow addr = Memory.load64 eager addr
          else begin
            Memory.store64 cow addr v;
            Memory.store64 eager addr v;
            true
          end)
        ops
      &&
      let image m = Memory.blit_out m ~addr:0x1000L ~len:region in
      image cow_parent = image ref_parent && image cow_copy = image ref_copy)

(* --- qcheck: release and the frame/TLB pools vs a pure model ---------------- *)

(* Random programs over up to four memory slots, run against
   [Memory] and against a pure model of the copy-on-write page table:
   page records with an owner (a memory's uid, 0 when frozen), bound
   by page number.  The model has no TLB, no pools and no [release]
   beyond marking a slot dead, so agreement means recycling changes
   nothing observable: a released memory's frames and TLB arrays come
   back zeroed or overwritten for the next memory ([Fresh], [Map],
   privatising [Store]/[Flip]) and never show through a live one, and
   every access to a released memory raises [Invalid_argument].
   Checkpoints are modelled as the bytes each page held, so a copy at
   a checkpoint must read them whatever the memory wrote, struck or
   recycled since; a handle whose memory checkpointed again or was
   released must raise [Invalid_argument]. *)
module Cow_model = struct
  module IM = Map.Make (Int)

  type record = { bytes : string; owner : int }
  type mem = Live of { uid : int; pages : int IM.t } | Released

  (* A checkpoint: whose, which of its epochs, and each page's bytes. *)
  type handle = { h_uid : int; h_epoch : int; h_pages : string IM.t }

  type t = {
    records : record IM.t;
    mems : mem IM.t;  (** slot -> memory *)
    next : int;  (** next uid and record id *)
    epochs : int IM.t;  (** uid -> checkpoints taken, when any *)
    handles : handle IM.t;  (** handle slot -> checkpoint *)
    released : int list;  (** uids *)
  }

  let slots = 4

  let init =
    {
      records = IM.empty;
      mems =
        IM.of_seq
          (Seq.init slots (fun i -> (i, Live { uid = i + 1; pages = IM.empty })));
      next = slots + 1;
      epochs = IM.empty;
      handles = IM.empty;
      released = [];
    }

  let lookup m slot pn =
    match IM.find slot m.mems with
    | Released -> None
    | Live { pages; _ } ->
        Option.map (fun r -> (IM.find r m.records).bytes) (IM.find_opt pn pages)

  (* Write [v] at [off] of page [pn], privatising a page the memory
     does not own.  The page is mapped. *)
  let store m slot pn off v =
    match IM.find slot m.mems with
    | Released -> assert false
    | Live { uid; pages } ->
        let r = IM.find pn pages in
        let { bytes; owner } = IM.find r m.records in
        let b = Bytes.of_string bytes in
        Bytes.set_int64_le b off v;
        let bytes = Bytes.to_string b in
        if owner = uid then
          { m with records = IM.add r { bytes; owner } m.records }
        else
          {
            m with
            records = IM.add m.next { bytes; owner = uid } m.records;
            mems =
              IM.add slot (Live { uid; pages = IM.add pn m.next pages }) m.mems;
            next = m.next + 1;
          }
end

type release_op =
  | Fresh of int
  | Map of int * int  (** slot, page number *)
  | Store of int * int * int * int64  (** slot, page, offset, value *)
  | Load of int * int * int
  | Copy of int * int  (** from slot, into slot *)
  | Flip of int * int * int * int64
  | Strike of int * int * int  (** slot, page, bit *)
  | Equal of int * int * int  (** slot, slot, page *)
  | Release of int
  | Drop_pools
  | Checkpoint of int * int  (** slot, into handle slot *)
  | Copy_checkpoint of int * int  (** from handle slot, into slot *)

let show_release_op = function
  | Fresh i -> Printf.sprintf "Fresh %d" i
  | Map (i, p) -> Printf.sprintf "Map (%d, %d)" i p
  | Store (i, p, o, v) -> Printf.sprintf "Store (%d, %d, %d, %LdL)" i p o v
  | Load (i, p, o) -> Printf.sprintf "Load (%d, %d, %d)" i p o
  | Copy (i, j) -> Printf.sprintf "Copy (%d, %d)" i j
  | Flip (i, p, o, v) -> Printf.sprintf "Flip (%d, %d, %d, %LdL)" i p o v
  | Strike (i, p, b) -> Printf.sprintf "Strike (%d, %d, %d)" i p b
  | Equal (i, j, p) -> Printf.sprintf "Equal (%d, %d, %d)" i j p
  | Release i -> Printf.sprintf "Release %d" i
  | Drop_pools -> "Drop_pools"
  | Checkpoint (i, k) -> Printf.sprintf "Checkpoint (%d, %d)" i k
  | Copy_checkpoint (k, j) -> Printf.sprintf "Copy_checkpoint (%d, %d)" k j

(* Pages 1-6 get mapped; strikes flip bits 0-2, so an alias can also
   be the never-mapped page 0 or 7. *)
let release_op_gen =
  let open QCheck.Gen in
  let slot = int_range 0 (Cow_model.slots - 1) in
  let page = int_range 1 6 in
  let off = oneofl [ 0; 8; 2044; 4088 ] in
  let value = map Int64.of_int (int_range 1 1_000_000) in
  frequency
    [
      (1, map (fun i -> Fresh i) slot);
      (4, map2 (fun i p -> Map (i, p)) slot page);
      ( 6,
        slot >>= fun i ->
        page >>= fun p ->
        off >>= fun o -> map (fun v -> Store (i, p, o, v)) value );
      (4, slot >>= fun i -> page >>= fun p -> map (fun o -> Load (i, p, o)) off);
      (3, map2 (fun i j -> Copy (i, j)) slot slot);
      ( 2,
        slot >>= fun i ->
        page >>= fun p ->
        off >>= fun o -> map (fun v -> Flip (i, p, o, v)) value );
      ( 1,
        slot >>= fun i ->
        page >>= fun p -> map (fun b -> Strike (i, p, b)) (int_range 0 2) );
      ( 2,
        slot >>= fun i -> slot >>= fun j -> map (fun p -> Equal (i, j, p)) page );
      (2, map (fun i -> Release i) slot);
      (1, return Drop_pools);
      (2, map2 (fun i k -> Checkpoint (i, k)) slot slot);
      (2, map2 (fun k j -> Copy_checkpoint (k, j)) slot slot);
    ]

type release_outcome = Done | Value of int64 | Bool of bool | Faulted | Invalid

let page_addr pn = Int64.of_int (pn * Memory.page_size)

let op_slots = function
  | Fresh _ | Drop_pools | Copy_checkpoint _ -> []
  | Map (i, _)
  | Checkpoint (i, _)
  | Store (i, _, _, _)
  | Load (i, _, _)
  | Copy (i, _)
  | Flip (i, _, _, _)
  | Strike (i, _, _)
  | Release i ->
      [ i ]
  | Equal (i, j, _) -> [ i; j ]

(* The model's outcome and next state for one op. *)
let model_step (m : Cow_model.t) op =
  let open Cow_model in
  let live i =
    match IM.find i m.mems with
    | Live { uid; pages } -> (uid, pages)
    | Released -> assert false
  in
  let set i uid pages = IM.add i (Live { uid; pages }) m.mems in
  if List.exists (fun i -> IM.find i m.mems = Released) (op_slots op) then
    (Invalid, m)
  else
    match op with
    | Fresh i ->
        (Done, { m with mems = set i m.next IM.empty; next = m.next + 1 })
    | Release i ->
        let uid, _ = live i in
        (Done, { m with mems = IM.add i Released m.mems; released = uid :: m.released })
    | Drop_pools -> (Done, m)
    | Map (i, pn) ->
        let uid, pages = live i in
        if IM.mem pn pages then (Done, m)
        else
          let zeros =
            { bytes = String.make Memory.page_size '\000'; owner = uid }
          in
          ( Done,
            {
              m with
              records = IM.add m.next zeros m.records;
              mems = set i uid (IM.add pn m.next pages);
              next = m.next + 1;
            } )
    | Load (i, pn, off) -> (
        match lookup m i pn with
        | None -> (Faulted, m)
        | Some b -> (Value (String.get_int64_le b off), m))
    | Store (i, pn, off, v) -> (
        match lookup m i pn with
        | None -> (Faulted, m)
        | Some _ -> (Done, store m i pn off v))
    | Flip (i, pn, off, mask) -> (
        match lookup m i pn with
        | None -> (Bool false, m)
        | Some b ->
            let v = Int64.logxor (String.get_int64_le b off) mask in
            (Bool true, store m i pn off v))
    | Copy (i, j) ->
        let uid, pages = live i in
        let freeze r = if r.owner = uid then { r with owner = 0 } else r in
        ( Done,
          {
            m with
            records = IM.map freeze m.records;
            mems = set j m.next pages;
            next = m.next + 1;
          } )
    | Checkpoint (i, k) ->
        let uid, pages = live i in
        let h_epoch = 1 + Option.value ~default:0 (IM.find_opt uid m.epochs) in
        let h_pages = IM.map (fun r -> (IM.find r m.records).bytes) pages in
        ( Done,
          {
            m with
            epochs = IM.add uid h_epoch m.epochs;
            handles = IM.add k { h_uid = uid; h_epoch; h_pages } m.handles;
          } )
    | Copy_checkpoint (k, j) -> (
        match IM.find_opt k m.handles with
        | Some h
          when (not (List.mem h.h_uid m.released))
               && IM.find h.h_uid m.epochs = h.h_epoch ->
            (* The checkpointed memory loses its pages, as for [Copy];
               the copy binds frozen records holding the checkpoint's
               bytes. *)
            let freeze r = if r.owner = h.h_uid then { r with owner = 0 } else r in
            let records, pages, next =
              IM.fold
                (fun pn bytes (records, pages, next) ->
                  ( IM.add next { bytes; owner = 0 } records,
                    IM.add pn next pages,
                    next + 1 ))
                h.h_pages
                (IM.map freeze m.records, IM.empty, m.next + 1)
            in
            (Done, { m with records; mems = set j m.next pages; next })
        | _ -> (Invalid, m))
    | Strike (i, pn, bit) ->
        let uid, pages = live i in
        if not (IM.mem pn pages) then (Bool false, m)
        else
          let pages =
            match IM.find_opt (pn lxor (1 lsl bit)) pages with
            | Some r -> IM.add pn r pages
            | None -> IM.remove pn pages
          in
          (Bool true, { m with mems = set i uid pages })
    | Equal (i, j, pn) -> (Bool (lookup m i pn = lookup m j pn), m)

let impl_step mems handles op =
  let addr pn off = Int64.add (page_addr pn) (Int64.of_int off) in
  match
    match op with
    | Fresh i ->
        mems.(i) <- Memory.create ();
        Done
    | Map (i, pn) ->
        Memory.map_region mems.(i) ~addr:(page_addr pn) ~size:Memory.page_size;
        Done
    | Store (i, pn, off, v) ->
        Memory.store64 mems.(i) (addr pn off) v;
        Done
    | Load (i, pn, off) -> Value (Memory.load64 mems.(i) (addr pn off))
    | Copy (i, j) ->
        mems.(j) <- Memory.copy mems.(i);
        Done
    | Flip (i, pn, off, mask) ->
        Bool (Memory.flip_word mems.(i) (addr pn off) ~mask)
    | Strike (i, pn, bit) ->
        Bool (Memory.strike_tlb mems.(i) ~page:(Int64.of_int pn) ~bit)
    | Equal (i, j, pn) ->
        let whole =
          Memory.region_equal mems.(i) mems.(j) ~addr:(page_addr pn)
            ~len:Memory.page_size
        in
        let paged =
          Memory.page_range_equal mems.(i) mems.(j) (Int64.of_int pn) ~off:0
            ~len:Memory.page_size
        in
        if whole <> paged then
          failwith "region_equal and page_range_equal disagree";
        Bool whole
    | Release i ->
        Memory.release mems.(i);
        Done
    | Drop_pools ->
        Memory.drop_pools ();
        Done
    | Checkpoint (i, k) ->
        handles.(k) <- Some (Memory.checkpoint mems.(i));
        Done
    | Copy_checkpoint (k, j) -> (
        match handles.(k) with
        | None -> Invalid
        | Some h ->
            mems.(j) <- Memory.copy_checkpoint h;
            Done)
  with
  | outcome -> outcome
  | exception Memory.Fault _ -> Faulted
  | exception Invalid_argument _ -> Invalid

(* Every live slot maps exactly the model's pages (0-7), with the
   model's bytes. *)
let images_agree mems (m : Cow_model.t) =
  let open Cow_model in
  IM.for_all
    (fun i mem ->
      match mem with
      | Released -> true
      | Live _ ->
          List.for_all
            (fun pn ->
              match lookup m i pn with
              | None -> not (Memory.is_mapped mems.(i) (page_addr pn))
              | Some b ->
                  Memory.is_mapped mems.(i) (page_addr pn)
                  && Bytes.to_string
                       (Memory.blit_out mems.(i) ~addr:(page_addr pn)
                          ~len:Memory.page_size)
                     = b)
            (List.init 8 Fun.id))
    m.mems

let prop_release_matches_model =
  QCheck.Test.make ~name:"release recycles frames and TLBs invisibly" ~count:300
    (QCheck.make
       ~print:(QCheck.Print.list show_release_op)
       QCheck.Gen.(list_size (int_range 1 60) release_op_gen))
    (fun ops ->
      let mems = Array.init Cow_model.slots (fun _ -> Memory.create ()) in
      let handles = Array.make Cow_model.slots None in
      (* Releasing one memory never changes what a live one reads:
         whole images are compared after every release and checkpoint
         copy and at the end, single words after every load. *)
      let rec go m = function
        | [] -> images_agree mems m
        | op :: rest ->
            let expected, m' = model_step m op in
            impl_step mems handles op = expected
            && (match op with
               | Release _ | Copy_checkpoint _ -> images_agree mems m'
               | _ -> true)
            && go m' rest
      in
      go Cow_model.init ops)

(* --- qcheck: bulk transfers vs byte loops ------------------------------------ *)

(* Pages 1-3 mapped with distinct contents, pages 0 and 4 unmapped:
   ranges may start in either unmapped page, cross pages and end in
   page 4.  [cow] writes through copies of a shared memory, so
   [blit_in] also takes the privatising path. *)
let blit_memory () =
  let m = Memory.create () in
  Memory.map_region m ~addr:(Int64.of_int Memory.page_size)
    ~size:(3 * Memory.page_size);
  for w = 0 to (3 * Memory.page_size / 8) - 1 do
    Memory.store64 m
      (Int64.of_int (Memory.page_size + (w * 8)))
      (Int64.of_int ((w * 0x9E37) + 1))
  done;
  m

let fault_outcome f =
  match f () with
  | v -> Ok v
  | exception Memory.Fault { addr; write } -> Error (addr, write)

let prop_blits_match_byte_loops =
  QCheck.Test.make ~name:"blit_in and blit_out equal byte loops" ~count:200
    QCheck.(
      quad
        (int_range (Memory.page_size - 24) ((4 * Memory.page_size) + 24))
        (int_range 0 ((2 * Memory.page_size) + 64))
        small_nat bool)
    (fun (start, len, seed, cow) ->
      let addr = Int64.of_int start in
      let at i = Int64.add addr (Int64.of_int i) in
      let m = blit_memory () in
      let out_pages = fault_outcome (fun () -> Memory.blit_out m ~addr ~len) in
      let out_bytes =
        fault_outcome (fun () ->
            Bytes.init len (fun i -> Char.chr (Memory.load8 m (at i))))
      in
      let data = Bytes.init len (fun i -> Char.chr ((seed + (i * 7)) land 0xFF)) in
      let base = blit_memory () in
      let target () = if cow then Memory.copy base else blit_memory () in
      let a = target () and b = target () in
      let in_pages = fault_outcome (fun () -> Memory.blit_in a ~addr data) in
      let in_bytes =
        fault_outcome (fun () ->
            Bytes.iteri (fun i c -> Memory.store8 b (at i) (Char.code c)) data)
      in
      let whole = 5 * Memory.page_size in
      out_pages = out_bytes && in_pages = in_bytes
      && Memory.region_equal a b ~addr:0L ~len:whole
      && Memory.region_equal base (blit_memory ()) ~addr:0L ~len:whole)

(* --- qcheck: compiled engine vs reference engine ------------------------------ *)

(* Random programs over the full ISA, with a label on every slot so
   any generated branch target resolves.  Memory operands are based on
   registers seeded to point into the mapped data region, so accesses
   usually hit mapped pages until the program (or an injection)
   perturbs the base — which is exactly how the fault paths get
   compared too.  A fifth of the displacements aim at the edges of the
   compiled engine's in-page fast path instead: the last 16 bytes of
   the base's page and the first 8 of the next (a word at offset
   4089-4095 crosses into the next page; one at 4088 is the last in
   place), and the same window around both ends of the data region,
   where a mapped page borders an unmapped one.
   Roughly a third of the cases carry no injection and exercise the
   compiled engine's index-driven hot loop; the rest take the
   injection-capable loop. *)

let diff_gpr_gen = QCheck.Gen.oneofl (Array.to_list Reg.all_gprs)

(* Where [diff_seeded_cpu] points each base register, relative to
   [data_base]. *)
let diff_base_offset = function
  | Reg.RSI -> 0
  | Reg.RDI -> 0x800
  | _ -> 0x100

let diff_imm_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map Int64.of_int (QCheck.Gen.int_range (-256) 256);
      QCheck.Gen.oneofl [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; data_base ];
    ]

let diff_mem_gen =
  let open QCheck.Gen in
  oneofl [ Reg.RSI; Reg.RDI; Reg.RBP ] >>= fun base ->
  let near edge =
    map (fun k -> edge - diff_base_offset base + k) (int_range (-16) 7)
  in
  frequency
    [
      (16, int_range 0 192);
      (2, near Memory.page_size);
      (1, near 0);
      (1, near 0x10000);
    ]
  >>= fun disp ->
  let disp = Int64.of_int disp in
  bool >>= fun indexed ->
  if indexed then
    oneofl [ Reg.RBX; Reg.RCX ] >>= fun index ->
    oneofl [ 1; 2; 4; 8 ] >>= fun scale ->
    return (Operand.mem ~index ~scale ~disp base)
  else return (Operand.mem ~disp base)

let diff_dst_gen =
  QCheck.Gen.frequency
    [ (5, QCheck.Gen.map Operand.reg diff_gpr_gen); (2, diff_mem_gen) ]

let diff_src_gen =
  QCheck.Gen.frequency
    [
      (4, QCheck.Gen.map Operand.reg diff_gpr_gen);
      (3, QCheck.Gen.map Operand.imm diff_imm_gen);
      (2, diff_mem_gen);
    ]

let diff_instr_gen n =
  let open QCheck.Gen in
  let target = map (fun j -> "L" ^ string_of_int j) (int_range 0 n) in
  let bit_base =
    (* No immediate base: that is a programming error ([invalid_arg])
       in both engines, not an architectural path. *)
    frequency [ (3, map Operand.reg diff_gpr_gen); (1, diff_mem_gen) ]
  in
  frequency
    [
      (6, map2 (fun d s -> Instr.Mov (d, s)) diff_dst_gen diff_src_gen);
      (1, map2 (fun g m -> Instr.Lea (g, m)) diff_gpr_gen diff_mem_gen);
      ( 5,
        map3
          (fun op d s -> Instr.Alu (op, d, s))
          (oneofl [ Instr.Add; Instr.Sub; Instr.And; Instr.Or; Instr.Xor ])
          diff_dst_gen diff_src_gen );
      ( 2,
        map3
          (fun op d k -> Instr.Shift (op, d, k))
          (oneofl [ Instr.Shl; Instr.Shr; Instr.Sar ])
          diff_dst_gen (int_range 0 70) );
      ( 1,
        map3
          (fun op d g -> Instr.Shift_var (op, d, g))
          (oneofl [ Instr.Shl; Instr.Shr; Instr.Sar ])
          diff_dst_gen diff_gpr_gen );
      (1, map2 (fun b i -> Instr.Bt (b, i)) bit_base diff_src_gen);
      (1, map2 (fun b i -> Instr.Bts (b, i)) bit_base diff_src_gen);
      (1, map2 (fun b i -> Instr.Btr (b, i)) bit_base diff_src_gen);
      (2, map2 (fun a b -> Instr.Cmp (a, b)) diff_src_gen diff_src_gen);
      (2, map2 (fun a b -> Instr.Test (a, b)) diff_src_gen diff_src_gen);
      (1, map (fun d -> Instr.Inc d) diff_dst_gen);
      (1, map (fun d -> Instr.Dec d) diff_dst_gen);
      (1, map (fun d -> Instr.Neg d) diff_dst_gen);
      (1, map2 (fun g s -> Instr.Imul (g, s)) diff_gpr_gen diff_src_gen);
      (1, map (fun s -> Instr.Idiv s) diff_src_gen);
      (2, map (fun l -> Instr.Jmp l) target);
      ( 3,
        map2
          (fun c l -> Instr.Jcc (c, l))
          (oneofl (Array.to_list Cond.all))
          target );
      ( 1,
        map2
          (fun s ls -> Instr.Jmp_table (s, ls))
          diff_src_gen
          (array_size (int_range 1 3) target) );
      (1, map (fun l -> Instr.Call l) target);
      (1, return Instr.Ret);
      (2, map (fun s -> Instr.Push s) diff_src_gen);
      (1, map (fun d -> Instr.Pop d) diff_dst_gen);
      (1, return Instr.Rep_movsq);
      (1, return Instr.Rep_stosq);
      (1, return Instr.Cpuid);
      (1, return Instr.Rdtsc);
      ( 1,
        map2
          (fun src kind ->
            Instr.Assert
              {
                Instr.assert_id = 1;
                assert_name = "diff";
                assert_src = src;
                assert_kind = kind;
              })
          diff_src_gen
          (oneof
             [
               map2 (fun a b -> Instr.Assert_range (a, b)) diff_imm_gen diff_imm_gen;
               return Instr.Assert_nonzero;
               return Instr.Assert_zero;
               map (fun v -> Instr.Assert_equals v) diff_imm_gen;
               map (fun k -> Instr.Assert_aligned k) (int_range 0 8);
             ]) );
      (1, return Instr.Nop);
      (1, return Instr.Hlt);
      (1, return Instr.Ud2);
      (1, return Instr.Vmentry);
    ]

let diff_inject_gen =
  let open QCheck.Gen in
  map3
    (fun r b s ->
      Cpu.reg_injection Reg.all_arch.(r) ~bit:b ~step:s)
    (int_range 0 (Array.length Reg.all_arch - 1))
    (int_range 0 63) (int_range 0 40)

(* Strikes for the engine comparison: a word where the generated
   operands reach (near a base register, or at a page edge), or the
   translation of the base registers' page, a neighbouring data page,
   the last data page, the unmapped page above it or the top stack
   page, struck through a low frame-number bit — aliasing another data
   or stack page, or pointing at nothing.  Until the strike is consumed
   every access takes the slow path; afterwards the compiled engine
   serves accesses to the struck page in place again, through the
   corrupted translation. *)
let diff_mem_inject_gen =
  let open QCheck.Gen in
  int_range 0 40 >>= fun step ->
  let strike target bit =
    {
      Cpu.inj_target = target;
      inj_bit = bit;
      inj_width = 1;
      inj_window = None;
      inj_step = step;
    }
  in
  let word =
    frequency
      [
        ( 3,
          map2
            (fun off k -> off + (8 * k))
            (oneofl [ 0; 0x100; 0x800 ])
            (int_range 0 24) );
        (1, map (fun k -> 0x1000 + (8 * k)) (int_range (-2) 1));
        (1, map (fun k -> 0x10000 + (8 * k)) (int_range (-2) (-1)));
      ]
  in
  oneof
    [
      map2
        (fun off bit ->
          strike (Cpu.Inj_mem (Int64.add data_base (Int64.of_int off))) bit)
        word (int_range 0 63);
      map2
        (fun page bit -> strike (Cpu.Inj_tlb (Int64.of_int page)) bit)
        (oneofl [ 0x30; 0x30; 0x31; 0x3F; 0x40; 0x1F ])
        (int_range 0 9);
    ]

let diff_case_with inject_gen =
  let open QCheck.Gen in
  int_range 1 20 >>= fun n ->
  list_repeat n (diff_instr_gen n) >>= fun instrs ->
  bool >>= fun fall_off ->
  frequency [ (1, return None); (2, map Option.some inject_gen) ]
  >>= fun inject -> return (instrs, fall_off, inject)

let diff_case_gen = diff_case_with diff_inject_gen

let diff_engine_case_gen =
  diff_case_with
    (QCheck.Gen.frequency [ (3, diff_inject_gen); (1, diff_mem_inject_gen) ])

let diff_case_print (instrs, fall_off, inject) =
  let pp_instr = Instr.pp Format.pp_print_string in
  Format.asprintf "@[<v>%a@]%s%s"
    (Format.pp_print_list pp_instr)
    instrs
    (if fall_off then "\n(no trailing vmentry)" else "")
    (match inject with
    | None -> ""
    | Some i ->
        Format.asprintf "\ninject{%s bit %d step %d}"
          (match i.Cpu.inj_target with
          | Cpu.Inj_reg r -> Reg.arch_name r
          | Cpu.Inj_mem a -> Printf.sprintf "mem %Lx" a
          | Cpu.Inj_tlb p -> Printf.sprintf "tlb page %Lx" p
          | Cpu.Inj_pte a -> Printf.sprintf "pte %Lx" a)
          i.Cpu.inj_bit i.Cpu.inj_step)

let diff_build_program instrs fall_off =
  Program.assemble "diff" (fun b ->
      List.iteri
        (fun i ins ->
          Program.Asm.label b ("L" ^ string_of_int i);
          Program.Asm.emit b ins)
        instrs;
      Program.Asm.label b ("L" ^ string_of_int (List.length instrs));
      (* Half the programs fall off the end instead, covering the
         past-the-end fetch fault in both engines. *)
      if not fall_off then Program.Asm.emit b Instr.Vmentry)

let diff_seeded_cpu () =
  let cpu = fresh_cpu () in
  Cpu.set_gpr cpu Reg.RSI data_base;
  Cpu.set_gpr cpu Reg.RDI (Int64.add data_base 0x800L);
  Cpu.set_gpr cpu Reg.RBP (Int64.add data_base 0x100L);
  Cpu.set_gpr cpu Reg.RCX 3L;
  Memory.store64 (Cpu.memory cpu) data_base 0x5EEDL;
  cpu

(* The compiled engine serves an access in place only when the
   software TLB already holds its page, so the engine comparison starts
   with every stack and data page translated for reads and writes.  The
   first word of each page gets its own marker, so a word that crosses
   into the next page reads differently from one that runs off the end
   of its frame. *)
let diff_warm_cpu () =
  let cpu = diff_seeded_cpu () in
  let mem = Cpu.memory cpu in
  List.iter
    (fun first ->
      for k = 0 to 15 do
        let page = Int64.add first (Int64.of_int (k * Memory.page_size)) in
        if not (Int64.equal page data_base) then
          Memory.store64 mem page (Int64.of_int (0x1111 * (k + 1)));
        let last = Int64.add page (Int64.of_int (Memory.page_size - 8)) in
        ignore (Memory.load64 mem last)
      done)
    [ 0x10000L; data_base ];
  cpu

let prop_engines_agree =
  QCheck.Test.make ~name:"compiled engine matches reference engine" ~count:1500
    (QCheck.make ~print:diff_case_print diff_engine_case_gen)
    (fun (instrs, fall_off, inject) ->
      let p = diff_build_program instrs fall_off in
      let compiled = Cpu.compile p in
      let a = diff_warm_cpu () in
      let b = diff_warm_cpu () in
      let ra = Cpu.run a ~program:p ~code_base ~fuel:300 ?inject () in
      let rb = Cpu.run_compiled b ~compiled ~code_base ~fuel:300 ?inject () in
      ra.Cpu.stop = rb.Cpu.stop
      && ra.Cpu.steps = rb.Cpu.steps
      && ra.Cpu.final_pmu = rb.Cpu.final_pmu
      && ra.Cpu.activation = rb.Cpu.activation
      && Array.for_all
           (fun g -> Cpu.get_gpr a g = Cpu.get_gpr b g)
           Reg.all_gprs
      && Cpu.get_rip a = Cpu.get_rip b
      && Cpu.get_rflags a = Cpu.get_rflags b
      && Cpu.get_tsc a = Cpu.get_tsc b
      && Memory.region_equal (Cpu.memory a) (Cpu.memory b) ~addr:0x10000L
           ~len:0x10000
      && Memory.region_equal (Cpu.memory a) (Cpu.memory b) ~addr:data_base
           ~len:0x10000
      && Xentry_ras.Ras.Bank.drain (Cpu.ras_bank a)
         = Xentry_ras.Ras.Bank.drain (Cpu.ras_bank b))

(* --- qcheck: golden-trace recorder -------------------------------------------- *)

(* The recorder consumes the same [on_step] stream and memory hook the
   engines already share, so its per-step metadata and its access log
   must match a naive reference rebuilt directly from the callbacks —
   and both engines must seal bit-identical traces, access logs
   included, for the same execution. *)
let prop_recorder_matches_naive =
  QCheck.Test.make
    ~name:"golden-trace recorder matches the naive per-step def/use reference"
    ~count:500
    (QCheck.make ~print:diff_case_print diff_case_gen)
    (fun (instrs, fall_off, _inject) ->
      let p = diff_build_program instrs fall_off in
      let compiled = Cpu.compile p in
      let naive = ref [] and naive_log = ref [] in
      let rec_a = Golden_trace.recorder ~meta:p.Program.meta in
      let a = diff_seeded_cpu () in
      Cpu.set_mem_hook a
        (Some
           (fun addr store ->
             naive_log := (List.length !naive - 1, addr, store) :: !naive_log;
             Golden_trace.mem_hook rec_a addr store));
      let ra =
        Cpu.run a ~program:p ~code_base ~fuel:300
          ~on_step:(fun idx i ->
            naive := Instr.metadata i :: !naive;
            Golden_trace.on_step rec_a idx i)
          ()
      in
      let ta = Golden_trace.finish rec_a ~result:ra in
      let rec_b = Golden_trace.recorder ~meta:p.Program.meta in
      let b = diff_seeded_cpu () in
      Cpu.set_mem_hook b (Some (Golden_trace.mem_hook rec_b));
      let rb =
        Cpu.run_compiled b ~compiled ~code_base ~fuel:300
          ~on_step:(Golden_trace.on_step rec_b) ()
      in
      let tb = Golden_trace.finish rec_b ~result:rb in
      let naive = Array.of_list (List.rev !naive) in
      let logged =
        List.init (Array.length ta.Golden_trace.accesses) (fun i ->
            let e = ta.Golden_trace.accesses.(i) in
            ( e lsr 1,
              String.get_int64_le ta.Golden_trace.access_addrs (8 * i),
              e land 1 = 1 ))
      in
      Golden_trace.equal ta tb
      && ta.Golden_trace.meta = naive
      && Golden_trace.length ta = Array.length naive
      && ta.Golden_trace.result_steps = ra.Cpu.steps
      && logged = List.rev !naive_log)

(* [Golden_trace.fate] claims to mirror the live def-use watch with
   zero simulation: record a golden run, predict the fate of a random
   single-bit fault from the trace alone, then actually inject it and
   compare against what the watch observed. *)
let prop_trace_fate_matches_live_watch =
  QCheck.Test.make
    ~name:"trace-predicted fault fate matches the live def-use watch"
    ~count:800
    (QCheck.make ~print:diff_case_print diff_case_gen)
    (fun (instrs, fall_off, inject) ->
      match inject with
      | None -> true
      | Some inj ->
          let p = diff_build_program instrs fall_off in
          let rc = Golden_trace.recorder ~meta:p.Program.meta in
          let g = diff_seeded_cpu () in
          let rg =
            Cpu.run g ~program:p ~code_base ~fuel:300
              ~on_step:(Golden_trace.on_step rc) ()
          in
          let trace = Golden_trace.finish rc ~result:rg in
          let predicted =
            match inj.Cpu.inj_target with
            | Cpu.Inj_reg target ->
                Golden_trace.fate trace ~target ~step:inj.Cpu.inj_step
            | _ -> Cpu.Never_touched
          in
          let f = diff_seeded_cpu () in
          let rf = Cpu.run f ~program:p ~code_base ~fuel:300 ~inject:inj () in
          let live =
            match rf.Cpu.activation with
            | Some report -> report.Cpu.fate
            | None -> Cpu.Never_touched
          in
          live = predicted)

(* The access log claims to predict the live memory watch with zero
   simulation: record a golden run with the memory hook installed, then
   strike words and translations and run each strike live on both
   engines.  Half the strikes are anchored on a logged access — its
   step moved by -1..+1, its address by -9..+9 — so the watch's edges
   come up often: an access at the strike step itself, offsets of
   exactly 7 and 8 on either side.  The rest land near what the
   programs touch: the data region the base registers point into, the
   stack, the unmapped gaps beside both, unaligned offsets included.
   RBP and RSP sit just below and just above a page boundary, so
   accesses straddle it — every first push and call among them.

   A strike on a fully mapped word meets exactly the predicted fate;
   one on a word that is not fully mapped strikes nothing.  A TLB
   strike on a mapped page is consumed exactly at the predicted access;
   one on an unmapped page strikes nothing. *)
let strike_rbp = Int64.add data_base 0xFC0L
let strike_rsp = Int64.sub stack_top 0xFFCL

let diff_strike_gen =
  let open QCheck.Gen in
  oneofl [ `Mem; `Pte; `Tlb ] >>= fun kind ->
  int_range 0 63 >>= fun bit ->
  oneofl
    [
      data_base;
      Int64.add data_base 0x800L;
      strike_rbp;
      Int64.sub strike_rsp 0x40L;
      Int64.sub stack_top 0x40L;
    ]
  >>= fun base ->
  int_range (-24) 0x120 >>= fun off ->
  int_range 0 60 >>= fun step ->
  option ~ratio:0.5
    (triple (int_bound 10_000) (int_range (-9) 9) (int_range (-1) 1))
  >>= fun anchor ->
  return (kind, bit, Int64.add base (Int64.of_int off), step, anchor)

let prop_access_log_predicts_memory_watch =
  QCheck.Test.make
    ~name:"access-log-predicted memory fault fate matches the live watch"
    ~count:2000
    (QCheck.make
       ~print:(fun ((instrs, fall_off, _), (kind, bit, addr, step, anchor)) ->
         Printf.sprintf "%s\nstrike{%s bit %d %Lx step %d%s}"
           (diff_case_print (instrs, fall_off, None))
           (match kind with `Mem -> "mem" | `Pte -> "pte" | `Tlb -> "tlb")
           bit addr step
           (match anchor with
           | Some (k, dx, ds) -> Printf.sprintf " anchor %d%+d%+d" k dx ds
           | None -> ""))
       (QCheck.Gen.pair diff_case_gen diff_strike_gen))
    (fun ((instrs, fall_off, _), (kind, bit, addr, step, anchor)) ->
      let p = diff_build_program instrs fall_off in
      let seeded () =
        let cpu = diff_seeded_cpu () in
        Cpu.set_gpr cpu Reg.RBP strike_rbp;
        Cpu.set_gpr cpu Reg.RSP strike_rsp;
        cpu
      in
      let rc = Golden_trace.recorder ~meta:p.Program.meta in
      let g = seeded () in
      Cpu.set_mem_hook g (Some (Golden_trace.mem_hook rc));
      let rg =
        Cpu.run g ~program:p ~code_base ~fuel:300
          ~on_step:(Golden_trace.on_step rc) ()
      in
      let trace = Golden_trace.finish rc ~result:rg in
      let log = trace.Golden_trace.accesses in
      let addr, step =
        match anchor with
        | Some (k, dx, ds) when Array.length log > 0 ->
            let k = k mod Array.length log in
            ( Int64.add
                (String.get_int64_le trace.Golden_trace.access_addrs (8 * k))
                (Int64.of_int dx),
              max 0 ((log.(k) lsr 1) + ds) )
        | _ -> (addr, step)
      in
      let target, bit =
        match kind with
        | `Mem -> (Cpu.Inj_mem addr, bit)
        | `Pte -> (Cpu.Inj_pte addr, bit)
        | `Tlb -> (Cpu.Inj_tlb (Memory.page_of addr), bit mod 10)
      in
      let mapped a = Memory.is_mapped (Cpu.memory g) a in
      let fate_of i ~word =
        if i < 0 then Cpu.Never_touched
        else if word && log.(i) land 1 = 1 then Cpu.Overwritten (log.(i) lsr 1)
        else Cpu.Activated (log.(i) lsr 1)
      in
      let expected =
        match target with
        | Cpu.Inj_mem addr | Cpu.Inj_pte addr ->
            if mapped addr && mapped (Int64.add addr 7L) then
              fate_of (Golden_trace.word_access trace ~addr ~step) ~word:true
            else Cpu.Never_touched
        | Cpu.Inj_tlb page ->
            if mapped (Int64.shift_left page Memory.page_bits) then
              fate_of (Golden_trace.page_access trace ~page ~step) ~word:false
            else Cpu.Never_touched
        | Cpu.Inj_reg _ -> assert false
      in
      let inject =
        {
          Cpu.inj_target = target;
          inj_bit = bit;
          inj_width = 1;
          inj_window = None;
          inj_step = step;
        }
      in
      let live r =
        match r.Cpu.activation with
        | Some report -> report.Cpu.fate
        | None -> Cpu.Never_touched
      in
      let by_ref =
        live (Cpu.run (seeded ()) ~program:p ~code_base ~fuel:300 ~inject ())
      in
      let by_fast =
        live
          (Cpu.run_compiled (seeded ()) ~compiled:(Cpu.compile p) ~code_base
             ~fuel:300 ~inject ())
      in
      let pp = function
        | Cpu.Never_touched -> "never touched"
        | Cpu.Overwritten s -> Printf.sprintf "overwritten@%d" s
        | Cpu.Activated s -> Printf.sprintf "activated@%d" s
      in
      (by_ref = expected && by_fast = expected)
      || QCheck.Test.fail_reportf "strike %Lx step %d: predicted %s, ref %s, fast %s"
           addr step (pp expected) (pp by_ref) (pp by_fast))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_memory_roundtrip;
        prop_cow_copy_matches_independent_model;
        prop_tlb_cow_with_reads;
        prop_loop_iterations_match_counter;
        prop_injection_preserves_or_detects;
        prop_engines_agree;
        prop_recorder_matches_naive;
        prop_trace_fate_matches_live_watch;
        prop_release_matches_model;
        prop_blits_match_byte_loops;
        prop_access_log_predicts_memory_watch;
      ]
  in
  Alcotest.run "xentry_machine"
    [
      ( "memory",
        [
          Alcotest.test_case "roundtrip" `Quick test_memory_roundtrip_64;
          Alcotest.test_case "unaligned cross-page" `Quick
            test_memory_unaligned_crosspage;
          Alcotest.test_case "fault unmapped" `Quick test_memory_fault_unmapped;
          Alcotest.test_case "fault partial word" `Quick
            test_memory_fault_partial_word;
          Alcotest.test_case "map idempotent" `Quick test_memory_map_idempotent;
          Alcotest.test_case "unmap" `Quick test_memory_unmap;
          Alcotest.test_case "copy independent" `Quick test_memory_copy_independent;
          Alcotest.test_case "cow copy isolated" `Quick
            test_memory_cow_copy_isolated;
          Alcotest.test_case "cow sharing accounting" `Quick
            test_memory_cow_sharing_accounting;
          Alcotest.test_case "cow clone chain" `Quick test_memory_cow_clone_chain;
          Alcotest.test_case "first difference" `Quick test_memory_first_difference;
          Alcotest.test_case "mapped vs unmapped differ" `Quick
            test_memory_region_equal_unmapped_vs_mapped;
          Alcotest.test_case "tlb generation bumps" `Quick
            test_tlb_generation_bumps;
          Alcotest.test_case "tlb no stale after snapshot" `Quick
            test_tlb_no_stale_after_snapshot;
          Alcotest.test_case "tlb privatisation refreshes read slot" `Quick
            test_tlb_privatisation_refreshes_read_slot;
          Alcotest.test_case "tlb unmap faults after warm" `Quick
            test_tlb_unmap_faults_after_warm;
          Alcotest.test_case "tlb clone chain" `Quick test_tlb_clone_chain_no_stale;
          Alcotest.test_case "checkpoint copies" `Quick test_checkpoint_copies;
        ] );
      ( "hw_exception",
        [
          Alcotest.test_case "19 vectors" `Quick test_hw_exception_19_vectors;
          Alcotest.test_case "vector roundtrip" `Quick
            test_hw_exception_vector_roundtrip;
          Alcotest.test_case "vector 15 reserved" `Quick
            test_hw_exception_vector_15_reserved;
        ] );
      ( "pmu",
        [
          Alcotest.test_case "disabled ignores" `Quick test_pmu_disabled_ignores;
          Alcotest.test_case "enable counts" `Quick test_pmu_enable_counts;
          Alcotest.test_case "enable zeroes" `Quick test_pmu_enable_zeroes;
          Alcotest.test_case "snapshot" `Quick test_pmu_snapshot;
        ] );
      ( "cpu-exec",
        [
          Alcotest.test_case "mov/add" `Quick test_cpu_mov_add;
          Alcotest.test_case "memory ops" `Quick test_cpu_memory_ops;
          Alcotest.test_case "loop branch counting" `Quick
            test_cpu_loop_branch_counting;
          Alcotest.test_case "call/ret" `Quick test_cpu_call_ret;
          Alcotest.test_case "push/pop" `Quick test_cpu_push_pop;
          Alcotest.test_case "rep movsq" `Quick test_cpu_rep_movsq;
          Alcotest.test_case "idiv" `Quick test_cpu_idiv;
          Alcotest.test_case "divide by zero" `Quick test_cpu_divide_by_zero_faults;
          Alcotest.test_case "unmapped access" `Quick
            test_cpu_unmapped_access_page_faults;
          Alcotest.test_case "compiled access to released memory raises" `Quick
            test_compiled_released_memory_raises;
          Alcotest.test_case "compiled engine counts TLB probes once" `Quick
            test_compiled_counts_tlb_probes_once;
          Alcotest.test_case "jmp table dispatch" `Quick test_cpu_jmp_table_dispatch;
          Alcotest.test_case "jmp table out of range" `Quick
            test_cpu_jmp_table_out_of_range_gp;
          Alcotest.test_case "cpuid deterministic" `Quick
            test_cpu_cpuid_deterministic;
          Alcotest.test_case "rdtsc monotonic" `Quick test_cpu_rdtsc_monotonic;
          Alcotest.test_case "out of fuel" `Quick test_cpu_out_of_fuel;
          Alcotest.test_case "hlt" `Quick test_cpu_hlt;
          Alcotest.test_case "entry label" `Quick test_cpu_entry_label;
        ] );
      ( "cpu-assertions",
        [
          Alcotest.test_case "pass" `Quick test_cpu_assertion_pass;
          Alcotest.test_case "violation detected" `Quick
            test_cpu_assertion_violation_detected;
          Alcotest.test_case "disabled is silent" `Quick
            test_cpu_assertion_disabled_is_silent;
          Alcotest.test_case "all kinds" `Quick test_cpu_assertion_kinds;
        ] );
      ( "machine-edges",
        [
          Alcotest.test_case "zero-size map" `Quick test_memory_zero_size_map;
          Alcotest.test_case "negative size" `Quick test_memory_negative_size_rejected;
          Alcotest.test_case "rep zero count" `Quick test_cpu_rep_with_zero_count;
          Alcotest.test_case "ud2" `Quick test_cpu_ud2_raises_invalid_opcode;
          Alcotest.test_case "bit ops" `Quick test_cpu_bit_ops;
          Alcotest.test_case "variable shift" `Quick test_cpu_shift_var;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records" `Quick test_trace_records_instructions;
          Alcotest.test_case "ring tail" `Quick test_trace_ring_keeps_tail;
          Alcotest.test_case "diff point" `Quick test_trace_diff_point_finds_divergence;
          Alcotest.test_case "clear" `Quick test_trace_clear;
        ] );
      ( "cpu-injection",
        [
          Alcotest.test_case "overwritten not activated" `Quick
            test_inject_overwritten_not_activated;
          Alcotest.test_case "read activates" `Quick test_inject_read_activates;
          Alcotest.test_case "rip high bit faults" `Quick test_inject_rip_faults;
          Alcotest.test_case "rip misalignment #UD" `Quick
            test_inject_rip_low_bit_misaligned_ud;
          Alcotest.test_case "rip slot bit silent" `Quick
            test_inject_rip_slot_bit_lands_elsewhere;
          Alcotest.test_case "loop counter perturbs counts" `Quick
            test_inject_loop_counter_changes_counts;
          Alcotest.test_case "never reached" `Quick test_inject_never_reached;
          Alcotest.test_case "detection latency" `Quick test_detection_latency;
          Alcotest.test_case "flip direct" `Quick test_flip_register_bit_direct;
        ] );
      ("properties", qsuite);
    ]
