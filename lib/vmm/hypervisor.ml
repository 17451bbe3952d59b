open Xentry_machine
open Xentry_util

type t = {
  mem : Memory.t;
  cpu : Cpu.t;
  doms : Domain.t array;
  sched : Scheduler.t;
  rng : Rng.t;
  hardened : bool;
  engine : Cpu.engine;
}

let memory t = t.mem
let cpu t = t.cpu
let engine t = t.engine
let domains t = t.doms
let scheduler t = t.sched

let current_domain t =
  let { Scheduler.dom; _ } = Scheduler.current t.sched in
  t.doms.(dom)

let set_assertions_enabled t b = Cpu.set_assertions_enabled t.cpu b

(* Publish the scheduler's view into the hypervisor globals the
   handlers read: current VCPU/domain pointers and the run-queue head
   (the next VCPU a context switch would dispatch, 0 when none). *)
let publish_current t =
  let cur = Scheduler.current t.sched in
  (* Only the dispatched VCPU is marked running (the exit path asserts
     this invariant). *)
  Array.iter (fun d -> Domain.set_running d ~vcpu:0 false) t.doms;
  Domain.set_running t.doms.(cur.Scheduler.dom) ~vcpu:0 true;
  Memory.store64 t.mem Layout.global_current_vcpu
    (Layout.vcpu_area ~dom:cur.Scheduler.dom ~vcpu:cur.Scheduler.vcpu);
  Memory.store64 t.mem Layout.global_current_dom
    (Layout.dom_base cur.Scheduler.dom);
  let head =
    match Scheduler.run_queue t.sched with
    | _ :: next :: _ ->
        Layout.vcpu_area ~dom:next.Scheduler.dom ~vcpu:next.Scheduler.vcpu
    | [ _ ] | [] -> 0L
  in
  Memory.store64 t.mem Layout.global_runqueue_head head

let fill_guest_buffer mem rng words =
  for k = 0 to words - 1 do
    (* Values stay below the strictest table-write validation bound so
       fault-free runs never take the error path. *)
    let v = Int64.of_int (Rng.int rng 0xFFFF) in
    Memory.store64 mem
      (Int64.add Layout.guest_buffer (Int64.of_int (k * 8)))
      v
  done

let init_page_tables mem =
  (* L3 and L2 fully present; L1 entries present at even indexes, so
     roughly half of random virtual addresses hit. *)
  for idx = 0 to 511 do
    let entry lvl =
      Int64.add (Layout.pt_level_base lvl) (Int64.of_int (idx * 8))
    in
    let frame = Int64.of_int (0x1000 * (idx + 1)) in
    Memory.store64 mem (entry 3) (Int64.logor frame Layout.pte_present);
    Memory.store64 mem (entry 2) (Int64.logor frame Layout.pte_present);
    Memory.store64 mem (entry 1)
      (if idx mod 2 = 0 then Int64.logor frame Layout.pte_present else 0L)
  done

let init_bindings t =
  let ndoms = Array.length t.doms in
  for d = 0 to ndoms - 1 do
    (* A few dozen bound ports per domain, some masked. *)
    for port = 1 to 63 do
      Event_channel.bind t.mem ~dom:d ~port ~state:Event_channel.Interdomain
        ~target_vcpu:0;
      if port mod 7 = 3 then Event_channel.set_mask t.mem ~dom:d ~port true
    done;
    (* Grant table: even entries granted. *)
    for g = 0 to Layout.grant_entries - 1 do
      let e = Layout.grant_entry ~dom:d g in
      if g mod 2 = 0 then begin
        Memory.store64 t.mem (Int64.add e Layout.grant_flags) 1L;
        Memory.store64 t.mem
          (Int64.add e Layout.grant_frame)
          (Int64.add Layout.bounce_buffer (Int64.of_int (g * 0x40)))
      end
    done
  done;
  (* Odd IRQ lines are guest-bound by default; line 0 is the platform
     timer. *)
  for line = 0 to Exit_reason.irq_lines - 1 do
    let port = if line > 0 && line mod 2 = 1 then 8 + line else 0 in
    Memory.store64 t.mem
      (Int64.add (Layout.irq_desc line) Layout.irq_desc_port)
      (Int64.of_int port)
  done

let create ?(seed = 2014) ?(hardened = false) ?engine () =
  let engine =
    match engine with Some e -> e | None -> Cpu.default_engine ()
  in
  (* The paper's setup: one CPU (handler execution is per-CPU) and
     three domains, Dom0 plus two DomUs. *)
  let domains = 3 in
  let mem = Memory.create () in
  Layout.map_host mem ~cpus:1 ~domains;
  let doms =
    Array.init domains (fun id ->
        let d = Domain.init mem ~id ~is_control:(id = 0) in
        (* Plausible resting guest state: a userspace-looking RIP and
           IF set in RFLAGS, so assertions about guest context hold on
           fault-free paths. *)
        Domain.set_user_rip d ~vcpu:0 (Int64.of_int (0x40_1000 + (id * 0x1000)));
        Memory.store64 mem
          (Int64.add (Layout.vcpu_area ~dom:id ~vcpu:0) Layout.vcpu_user_rflags)
          0x202L;
        d)
  in
  Vtime.init mem;
  init_page_tables mem;
  let rng = Rng.create seed in
  let sched =
    Scheduler.create
      (List.init domains (fun d -> ({ Scheduler.dom = d; vcpu = 0 }, 256)))
  in
  let cpu = Cpu.create mem in
  let t = { mem; cpu; doms; sched; rng; hardened; engine } in
  init_bindings t;
  fill_guest_buffer mem rng 512;
  publish_current t;
  t

(* Ensure the three page-table levels are present (or the leaf absent)
   for a virtual address. *)
let set_pt_mapping mem ~va ~present =
  let index lvl shift =
    let idx = Int64.to_int (Int64.logand (Int64.shift_right_logical va shift) 511L) in
    Int64.add (Layout.pt_level_base lvl) (Int64.of_int (idx * 8))
  in
  let frame = Int64.logor 0x1000L Layout.pte_present in
  Memory.store64 mem (index 3 30) frame;
  Memory.store64 mem (index 2 21) frame;
  Memory.store64 mem (index 1 12) (if present then frame else 0L)

let build_tasklet_chain mem ~count ~salt =
  let count = max 0 (min count Layout.tasklet_pool_nodes) in
  for k = 0 to count - 1 do
    let node = Layout.tasklet_node k in
    Memory.store64 mem (Int64.add node Layout.tasklet_fn)
      (Int64.of_int ((k + salt) mod 4));
    Memory.store64 mem (Int64.add node Layout.tasklet_data) (Int64.of_int k);
    Memory.store64 mem (Int64.add node Layout.tasklet_done) 0L;
    Memory.store64 mem
      (Int64.add node Layout.tasklet_next)
      (if k = count - 1 then 0L else Layout.tasklet_node (k + 1))
  done;
  Memory.store64 mem Layout.global_tasklet_head
    (if count = 0 then 0L else Layout.tasklet_node 0)

(* Stage a request's exit context: publish the scheduler view, write
   the request arguments, and set up the reason-specific state the
   handler will consume.  Everything here is a pure function of the
   request and the host's current scheduler/RNG state, so staging the
   same request twice writes the same bytes — except the guest-buffer
   refresh, which advances the RNG.  [refill:false] skips it: the
   micro-reboot path re-stages a request whose buffer refresh already
   happened, and must leave both the buffer and the RNG untouched to
   stay lockstep with a host that staged only once. *)
let stage ~refill t (req : Request.t) =
  publish_current t;
  Array.iteri
    (fun idx v -> Memory.store64 t.mem (Layout.request_arg idx) v)
    req.Request.args;
  let cur = current_domain t in
  (* Fresh trap slots so queue/deliver paths have room. *)
  Domain.clear_pending_traps cur ~vcpu:0;
  match req.Request.reason with
  | Exit_reason.Irq line ->
      let port = Int64.to_int req.Request.args.(0) in
      Memory.store64 t.mem
        (Int64.add (Layout.irq_desc line) Layout.irq_desc_port)
        (Int64.of_int port);
      if port > 0 && port < Layout.evtchn_ports then
        Event_channel.bind t.mem ~dom:cur.Domain.id ~port
          ~state:Event_channel.Pirq ~target_vcpu:0
  | Exit_reason.Softirq ->
      Memory.store64 t.mem Layout.global_softirq_pending
        (Int64.logand req.Request.args.(0) 0xFFL)
  | Exit_reason.Tasklet ->
      build_tasklet_chain t.mem
        ~count:(Int64.to_int req.Request.args.(0))
        ~salt:(Int64.to_int req.Request.args.(1))
  | Exit_reason.Exception Hw_exception.PF ->
      set_pt_mapping t.mem ~va:req.Request.args.(0)
        ~present:(req.Request.args.(1) <> 0L)
  | Exit_reason.Exception _ -> ()
  | Exit_reason.Apic _ -> ()
  | Exit_reason.Hypercall h -> (
      match Hypercall.shape h with
      | Hypercall.Mmu_batch ->
          (* Make the batch's address range walkable. *)
          let count = Int64.to_int req.Request.args.(0) in
          let va = ref req.Request.args.(1) in
          for _ = 1 to max 1 count do
            set_pt_mapping t.mem ~va:!va ~present:true;
            va := Int64.add !va 0x1000L
          done
      | Hypercall.Event_op ->
          let port = Int64.to_int req.Request.args.(0) in
          if port >= 0 && port < Layout.evtchn_ports then
            Event_channel.bind t.mem ~dom:cur.Domain.id ~port
              ~state:Event_channel.Interdomain ~target_vcpu:0
      | Hypercall.Copy_buffer | Hypercall.Table_write ->
          (* Refresh the head of the guest buffer so successive copies
             differ. *)
          if refill then begin
            let words =
              max 1 (min 64 (Int64.to_int req.Request.args.(2)))
            in
            fill_guest_buffer t.mem t.rng words
          end
      | Hypercall.Sched | Hypercall.Timer | Hypercall.Grant | Hypercall.Query
      | Hypercall.Control ->
          ())

let prepare t (req : Request.t) =
  Scheduler.tick t.sched;
  stage ~refill:true t req

let restage t req = stage ~refill:false t req

(* Telemetry: per-exit-reason execution counts, engine usage and a
   dynamic-instruction histogram.  [execute] checks the enabled flag
   once per call (outside the CPU loop, so the interpreter hot path is
   untouched) and hands off to [record_execute].  The handles are
   registered at module initialisation: a [lazy] forced by two domains
   at once raises [CamlinternalLazy.Undefined]. *)
let tm_exit_counters =
  Array.map
    (fun r -> Telemetry.counter ("hv.exit." ^ Exit_reason.name r))
    Exit_reason.all

let tm_engine_fast = Telemetry.counter "hv.engine.fast"
let tm_engine_ref = Telemetry.counter "hv.engine.ref"
let tm_steps = Telemetry.histogram "hv.steps"

let record_execute t (req : Request.t) (result : Cpu.run_result) =
  Telemetry.incr tm_exit_counters.(Exit_reason.to_id req.Request.reason);
  Telemetry.incr
    (match t.engine with Cpu.Fast -> tm_engine_fast | Cpu.Ref -> tm_engine_ref);
  Telemetry.observe tm_steps result.Cpu.steps

(* The guest's registers at the exit: RAX..RDI from the request, the
   rest zero, RSP at the stack top.  Loops over constant arrays, so
   seeding allocates nothing. *)
let guest_regs = Xentry_isa.Reg.[| RAX; RBX; RCX; RDX; RSI; RDI |]
let zeroed_regs =
  Xentry_isa.Reg.[| RBP; R8; R9; R10; R11; R12; R13; R14; R15 |]

let seed_cpu t (req : Request.t) =
  for k = 0 to Array.length guest_regs - 1 do
    Cpu.set_gpr t.cpu guest_regs.(k) req.Request.guest.(k)
  done;
  for k = 0 to Array.length zeroed_regs - 1 do
    Cpu.set_gpr t.cpu zeroed_regs.(k) 0L
  done;
  Cpu.set_gpr t.cpu Xentry_isa.Reg.RSP (Layout.stack_top ~cpu:0);
  Cpu.set_rflags t.cpu 2L

let dispatch t ?inject ~fuel ?on_step ?pause_at ?on_pause ?resume
    (req : Request.t) =
  match t.engine with
  | Cpu.Fast ->
      Cpu.run_compiled t.cpu
        ~compiled:(Handlers.compiled ~hardened:t.hardened req.Request.reason)
        ~code_base:Layout.code_base ?inject ~fuel ?on_step ?pause_at ?on_pause
        ?resume ()
  | Cpu.Ref ->
      Cpu.run t.cpu
        ~program:(Handlers.program ~hardened:t.hardened req.Request.reason)
        ~code_base:Layout.code_base ?inject ~fuel ?on_step ?pause_at ?on_pause
        ?resume ()

let execute t ?inject ?(fuel = 50_000) ?on_step (req : Request.t) =
  seed_cpu t req;
  let result = dispatch t ?inject ~fuel ?on_step req in
  if !Telemetry.enabled_ref then record_execute t req result;
  result

let causes_reschedule (req : Request.t) =
  match req.Request.reason with
  | Exit_reason.Hypercall h
    when Hypercall.shape h = Hypercall.Sched
         && (h = Hypercall.Sched_op || h = Hypercall.Sched_op_compat) ->
      Int64.to_int req.Request.args.(0) < 2
  | Exit_reason.Softirq -> Int64.logand req.Request.args.(0) 2L <> 0L
  | Exit_reason.Apic Exit_reason.Ipi_reschedule -> true
  | _ -> false

let retire t req =
  if causes_reschedule req then ignore (Scheduler.pick_next t.sched);
  publish_current t

let handle t req =
  prepare t req;
  let result = execute t req in
  retire t req;
  result

(* A host around [mem] with [t]'s domains, engine and hardening, and
   the given scheduler, RNG and CPU-side state.  The CPU is fresh: its
   registers are seeded by every execution, and its RAS bank is
   per-host diagnostic state. *)
let assemble t mem ~sched ~rng ~tsc ~assertions =
  let doms = Array.map (fun d -> { d with Domain.mem }) t.doms in
  let cpu = Cpu.create mem in
  Cpu.set_tsc cpu tsc;
  Cpu.set_assertions_enabled cpu assertions;
  { mem; cpu; doms; sched; rng; hardened = t.hardened; engine = t.engine }

let clone t =
  assemble t (Memory.copy t.mem) ~sched:(Scheduler.copy t.sched)
    ~rng:(Rng.copy t.rng) ~tsc:(Cpu.get_tsc t.cpu)
    ~assertions:(Cpu.assertions_enabled t.cpu)

(* A checkpoint is a memory journal epoch plus copies of the little
   OCaml-side state [clone] copies; the host itself runs on. *)
type checkpoint = {
  ck_host : t;
  ck_mem : Memory.checkpoint;
  ck_sched : Scheduler.t;
  ck_rng : Rng.t;
  ck_tsc : int64;
  ck_assertions : bool;
}

let checkpoint t =
  {
    ck_host = t;
    ck_mem = Memory.checkpoint t.mem;
    ck_sched = Scheduler.copy t.sched;
    ck_rng = Rng.copy t.rng;
    ck_tsc = Cpu.get_tsc t.cpu;
    ck_assertions = Cpu.assertions_enabled t.cpu;
  }

(* The checkpoint's scheduler and RNG are copied again, so that one
   checkpoint can seed more than one host. *)
let copy_checkpoint ck =
  assemble ck.ck_host (Memory.copy_checkpoint ck.ck_mem)
    ~sched:(Scheduler.copy ck.ck_sched) ~rng:(Rng.copy ck.ck_rng)
    ~tsc:ck.ck_tsc ~assertions:ck.ck_assertions

let release t = Memory.release t.mem

(* --- mid-run snapshots and fast-forwarding ----------------------------- *)

(* A snapshot pairs a COW clone of the whole host taken at a pause
   point of a golden run (memory is the only part that evolves during
   a handler execution; scheduler, RNG and domain bookkeeping only
   move in [prepare]/[retire]) with the CPU-side [run_state] captured
   at the same step.  [restore]+[resume] from it re-executes exactly
   the suffix of the run, bit-identical to a full re-execution from
   the pre-run state. *)
type snapshot = {
  snap_step : int;
  snap_host : t;
  snap_state : Cpu.run_state;
}

let snapshot_step s = s.snap_step

let execute_recorded t ?(fuel = 50_000) ?(snapshot_at = [||]) (req : Request.t) =
  seed_cpu t req;
  let program = Handlers.program ~hardened:t.hardened req.Request.reason in
  let recorder = Golden_trace.recorder ~meta:program.Xentry_isa.Program.meta in
  let snaps = ref [] in
  let on_pause st =
    let snap_host =
      Telemetry.with_span "hv.snapshot.capture" (fun () -> clone t)
    in
    snaps :=
      { snap_step = Cpu.run_state_steps st; snap_host; snap_state = st }
      :: !snaps
  in
  Cpu.set_mem_hook t.cpu (Some (Golden_trace.mem_hook recorder));
  let result =
    Fun.protect
      ~finally:(fun () -> Cpu.set_mem_hook t.cpu None)
      (fun () ->
        dispatch t ~fuel ~on_step:(Golden_trace.on_step recorder)
          ~pause_at:snapshot_at ~on_pause req)
  in
  if !Telemetry.enabled_ref then record_execute t req result;
  (result, Golden_trace.finish recorder ~result, List.rev !snaps)

(* --- RAS bank draining ------------------------------------------------- *)

let drain_ras t =
  let bank = Cpu.ras_bank t.cpu in
  if !Telemetry.enabled_ref then
    Telemetry.with_span "ras.drain_latency" (fun () ->
        Xentry_ras.Ras.Bank.drain bank)
  else Xentry_ras.Ras.Bank.drain bank

let restore snap = clone snap.snap_host
let release_snapshot snap = release snap.snap_host

let resume t snap ?inject ?(fuel = 50_000) (req : Request.t) =
  let result = dispatch t ?inject ~fuel ~resume:snap.snap_state req in
  if !Telemetry.enabled_ref then record_execute t req result;
  result

let observed_current_vcpu t = Memory.load64 t.mem Layout.global_current_vcpu
