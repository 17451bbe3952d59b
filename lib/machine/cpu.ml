open Xentry_isa

type stop =
  | Vm_entry
  | Hw_fault of { exn : Hw_exception.t; detail : int64 }
  | Assertion_failure of { assertion : Instr.assertion; observed : int64 }
  | Halted
  | Out_of_fuel

type fault_fate = Never_touched | Overwritten of int | Activated of int

(* What the fault strikes.  Register targets are flipped in the live
   architectural state and tracked by the def-use watch; memory-class
   targets are flipped in (or steered around) simulated memory and
   tracked by the access-site watch in [load_mem]/[store_mem], which
   also logs into the RAS bank when the corruption is architecturally
   observed. *)
type inj_target =
  | Inj_reg of Reg.arch
  | Inj_mem of int64  (** word address *)
  | Inj_tlb of int64  (** page number whose cached translation is struck *)
  | Inj_pte of int64  (** word address inside a page-table structure *)

type injection = {
  inj_target : inj_target;
  inj_bit : int;
  inj_width : int;  (** adjacent bits flipped (>= 1) *)
  inj_window : int option;
      (** SET pulse: revert after this many steps if still unobserved
          (register targets only) *)
  inj_step : int;
}

let reg_injection ?(width = 1) ?window target ~bit ~step =
  {
    inj_target = Inj_reg target;
    inj_bit = bit;
    inj_width = width;
    inj_window = window;
    inj_step = step;
  }

type activation_report = { injection : injection; fate : fault_fate }

type run_result = {
  stop : stop;
  steps : int;
  final_pmu : Pmu.snapshot;
  activation : activation_report option;
}

type watch = { target : Reg.arch; mutable fate : fault_fate }

(* Memory-class watch, checked at the shared [load_mem]/[store_mem]
   access sites (both engines funnel through them).  Word targets
   activate on an overlapping load and are overwritten by an
   overlapping store; page-granular targets (struck TLB entries)
   activate on any access through the corrupted translation. *)
type mem_watch = {
  mw_addr : int64;  (** word address (page base for TLB strikes) *)
  mw_watch_page : int64;  (** page number, for page-granular watches *)
  mw_page_granular : bool;
  mw_source : Xentry_ras.Ras.source;
  mw_syndrome : int64;
  mutable mw_fate : fault_fate;
}

(* The register file: one [Bytes.t] of 8-byte slots, read and written
   with the unboxed [%caml_bytes_get64u]/[%caml_bytes_set64u]
   primitives, so a register write is a store, never a boxed [int64]
   plus a [caml_modify].  Slots 0-15 are the GPRs in [Reg.gpr_index]
   order, then RIP and RFLAGS; the zero slot always reads 0 (the
   compiled engine's absent base or index register), and the two
   scratch slots carry the address and the value of an access that
   leaves the in-page fast path (see [load]/[store]). *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

let () = assert (Reg.gpr_count = 16)
let rip_off = 128
let rflags_off = 136
let zero_off = 144
let addr_off = 152
let value_off = 160
let file_bytes = 168
let gpr_off g = 8 * Reg.gpr_index g

type t = {
  regs : Bytes.t;  (* the register file, laid out above *)
  mem : Memory.t;
  pmu_unit : Pmu.t;
  mutable tsc : int64;
  mutable assertions_on : bool;
  mutable watch : watch option;
  mutable mem_watch : mem_watch option;
  ras : Xentry_ras.Ras.Bank.t;
      (* per-CPU RAS error-record bank; sticky across runs, drained by
         the hypervisor poller *)
  mutable mem_hook : (int64 -> bool -> unit) option;
      (* observer for every load/store address ([true] = store); set
         by golden-trace recording to build its timed access log *)
  mutable mem_observed : bool;
      (* a hook is set or a memory watch is armed and unsettled: every
         access must go through [mem_touch], so the compiled engine's
         in-page fast path stands aside *)
  mutable steps : int;
  mutable code_base : int64;
      (* where the running program is mapped; compiled closures read it
         to turn static instruction indices back into RIP values *)
  mutable next_idx : int;
      (* compiled-engine control-flow mailbox: the driver presets the
         fall-through index before dispatching; branch closures
         overwrite it with their static target and [ret] sets -1
         ("target is data, look at rip") *)
  mutable run_tsc_base : int64;
      (* TSC at run start; the compiled engine settles TSC once per
         run as [base + steps * tsc_step] instead of per step *)
  mutable pend_branches : int;
  mutable pend_loads : int;
  mutable pend_stores : int;
      (* compiled-engine PMU batch: branches, and loads and stores
         served by the in-page fast path, added to the PMU at the end
         of the run and into every captured state *)
}

(* --- engine selection ---------------------------------------------------- *)

type engine = Ref | Fast

let engine_name = function Ref -> "ref" | Fast -> "fast"

let engine_of_string = function
  | "ref" -> Some Ref
  | "fast" -> Some Fast
  | _ -> None

let initial_engine =
  match Sys.getenv_opt "XENTRY_ENGINE" with
  | None -> Fast
  | Some s -> (
      match engine_of_string s with
      | Some e -> e
      | None ->
          Printf.eprintf "xentry: ignoring unknown XENTRY_ENGINE=%S\n%!" s;
          Fast)

let default_engine_ref = ref initial_engine
let default_engine () = !default_engine_ref
let set_default_engine e = default_engine_ref := e

let tsc_step = 3 (* TSC increment per retired instruction *)

let default_cpuid leaf =
  (* Deterministic synthetic CPUID: a fixed mixing of the leaf so that
     emulation results are stable across runs and corruptions of the
     leaf register visibly change the outputs. *)
  let mix k =
    let open Int64 in
    let z = mul (add leaf (of_int k)) 0x9E3779B97F4A7C15L in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    logxor z (shift_right_logical z 27)
  in
  (mix 1, mix 2, mix 3, mix 4)

let create mem =
  let regs = Bytes.make file_bytes '\000' in
  set64 regs rflags_off 2L (* x86 bit 1 always set *);
  {
    regs;
    mem;
    pmu_unit = Pmu.create ();
    tsc = 1_000_000L;
    assertions_on = true;
    watch = None;
    mem_watch = None;
    ras = Xentry_ras.Ras.Bank.create ();
    mem_hook = None;
    mem_observed = false;
    steps = 0;
    code_base = 0L;
    next_idx = 0;
    run_tsc_base = 0L;
    pend_branches = 0;
    pend_loads = 0;
    pend_stores = 0;
  }

let memory t = t.mem
let pmu t = t.pmu_unit
let get_gpr t g = get64 t.regs (gpr_off g)
let set_gpr t g v = set64 t.regs (gpr_off g) v
let get_rflags t = get64 t.regs rflags_off
let set_rflags t v = set64 t.regs rflags_off v
let get_rip t = get64 t.regs rip_off
let set_rip t v = set64 t.regs rip_off v
let get_tsc t = t.tsc
let set_tsc t v = t.tsc <- v
let set_assertions_enabled t b = t.assertions_on <- b
let assertions_enabled t = t.assertions_on
let ras_bank t = t.ras

let refresh_mem_observed t =
  t.mem_observed <-
    (match t.mem_hook with Some _ -> true | None -> false)
    ||
    match t.mem_watch with
    | Some { mw_fate = Never_touched; _ } -> true
    | Some _ | None -> false

let set_mem_hook t f =
  t.mem_hook <- f;
  refresh_mem_observed t

exception Stopped of stop

let hw_fault exn detail = raise (Stopped (Hw_fault { exn; detail }))

(* --- operand evaluation ------------------------------------------------ *)

let effective_address t (m : Operand.mem) =
  let base = match m.base with Some g -> get_gpr t g | None -> 0L in
  let index =
    match m.index with
    | Some g -> Int64.mul (get_gpr t g) (Int64.of_int m.scale)
    | None -> 0L
  in
  Int64.add (Int64.add base index) m.disp

(* Pre-access watch check, run before the memory operation so a
   corrupted access that page-faults still activates the fault (and
   logs it).  Returns the watch when this access is its first
   observable consumption — the caller logs the RAS record with a
   severity that depends on whether the access completed. *)
let mem_touch t addr ~store =
  (match t.mem_hook with None -> () | Some f -> f addr store);
  match t.mem_watch with
  | Some w when w.mw_fate = Never_touched ->
      let hit =
        if w.mw_page_granular then
          Int64.equal (Memory.page_of addr) w.mw_watch_page
          || Int64.equal (Memory.page_of (Int64.add addr 7L)) w.mw_watch_page
        else
          let d = Int64.sub addr w.mw_addr in
          Int64.compare d (-7L) >= 0 && Int64.compare d 7L <= 0
      in
      if not hit then None
      else if store && not w.mw_page_granular then begin
        (* The poisoned word is (at least partly) rewritten before any
           read: the upset is gone before anything consumed it. *)
        w.mw_fate <- Overwritten t.steps;
        refresh_mem_observed t;
        None
      end
      else begin
        w.mw_fate <- Activated t.steps;
        refresh_mem_observed t;
        Some w
      end
  | Some _ | None -> None

let log_ras t w ~fatal =
  let open Xentry_ras.Ras in
  let severity = if fatal then Fatal else Uncorrected in
  ignore
    (Bank.log t.ras
       {
         addr = w.mw_addr;
         syndrome = w.mw_syndrome;
         severity;
         source = w.mw_source;
         step = t.steps;
       }
      : bool)

let load_mem t addr =
  let hit = mem_touch t addr ~store:false in
  match Memory.load64 t.mem addr with
  | v ->
      (match hit with Some w -> log_ras t w ~fatal:false | None -> ());
      Pmu.add t.pmu_unit Pmu.Mem_loads 1;
      v
  | exception Memory.Fault { addr; _ } ->
      (match hit with Some w -> log_ras t w ~fatal:true | None -> ());
      hw_fault Hw_exception.PF addr

let store_mem t addr v =
  let hit = mem_touch t addr ~store:true in
  match Memory.store64 t.mem addr v with
  | () ->
      (match hit with Some w -> log_ras t w ~fatal:false | None -> ());
      Pmu.add t.pmu_unit Pmu.Mem_stores 1
  | exception Memory.Fault { addr; _ } ->
      (match hit with Some w -> log_ras t w ~fatal:true | None -> ());
      hw_fault Hw_exception.PF addr

let eval t = function
  | Operand.Reg g -> get_gpr t g
  | Operand.Imm v -> v
  | Operand.Mem m -> load_mem t (effective_address t m)

let write t op v =
  match op with
  | Operand.Reg g -> set_gpr t g v
  | Operand.Mem m -> store_mem t (effective_address t m) v
  | Operand.Imm _ -> invalid_arg "Cpu: immediate as destination"

(* --- flags -------------------------------------------------------------- *)

let set_result_flags ?(carry = false) ?(overflow = false) t v =
  set_rflags t (Flags.of_result ~carry ~overflow (get_rflags t) v)

let add_flags t a b result =
  let carry = Int64.unsigned_compare result a < 0 in
  let overflow =
    (* Signed overflow: operands share a sign that the result lost. *)
    Int64.compare (Int64.logand (Int64.logxor a result) (Int64.logxor b result)) 0L
    < 0
  in
  set_result_flags ~carry ~overflow t result

let sub_flags t a b result =
  let carry = Int64.unsigned_compare a b < 0 in
  let overflow =
    Int64.compare (Int64.logand (Int64.logxor a b) (Int64.logxor a result)) 0L
    < 0
  in
  set_result_flags ~carry ~overflow t result

(* --- assertion evaluation ----------------------------------------------- *)

let assertion_holds (kind : Instr.assert_kind) v =
  match kind with
  | Assert_range (lo, hi) ->
      Int64.compare v lo >= 0 && Int64.compare v hi <= 0
  | Assert_nonzero -> v <> 0L
  | Assert_zero -> v = 0L
  | Assert_equals expected -> Int64.equal v expected
  | Assert_aligned k -> Xentry_util.Bits.low_bits v k = 0L

(* --- instruction execution ---------------------------------------------- *)

(* [instruction_bytes] is 8, so index<->offset conversion is a shift;
   misalignment is a [land] test.  Range is checked in Int64 before the
   conversion to int: a bit-flipped RIP can put [off] beyond the native
   int range, where [Int64.to_int] would wrap. *)
let[@inline] code_index ~code_base ~len rip =
  let off = Int64.sub rip code_base in
  if Int64.compare off 0L < 0 then hw_fault Hw_exception.PF rip
  else if Int64.logand off 7L <> 0L then hw_fault Hw_exception.UD rip
  else if
    Int64.compare off (Int64.of_int (len * Program.instruction_bytes)) >= 0
  then hw_fault Hw_exception.PF rip
  else Int64.to_int off lsr 3

let rip_of_index ~code_base idx =
  Int64.add code_base (Int64.of_int (idx * Program.instruction_bytes))

(* Terminal instructions (vmentry, hlt, failing assertions) still
   retire; faulting instructions do not (x86 faults report before
   retirement), so [retire_terminal] skips the fuel check to keep the
   stop reason intact. *)
let retire_terminal t =
  t.steps <- t.steps + 1;
  t.tsc <- Int64.add t.tsc (Int64.of_int tsc_step);
  Pmu.add t.pmu_unit Pmu.Inst_retired 1

let retire ?(n = 1) t fuel =
  t.steps <- t.steps + n;
  t.tsc <- Int64.add t.tsc (Int64.of_int (n * tsc_step));
  Pmu.add t.pmu_unit Pmu.Inst_retired n;
  if t.steps > fuel then raise (Stopped Out_of_fuel)

(* Update the def-use watch from the packed metadata word of the
   instruction about to execute: two [land] tests against the read and
   write register masks instead of walking allocated register lists.
   The instruction pointer is consumed by every fetch, so a watched RIP
   activates immediately (handled at the fetch site). *)
let update_watch t meta =
  match t.watch with
  | None -> ()
  | Some w when w.fate <> Never_touched -> ()
  | Some w -> (
      match w.target with
      | Reg.Rip -> w.fate <- Activated t.steps
      | Reg.Rflags ->
          if meta land Instr.meta_reads_flags_bit <> 0 then
            w.fate <- Activated t.steps
          else if meta land Instr.meta_writes_flags_bit <> 0 then
            w.fate <- Overwritten t.steps
      | Reg.Gpr g ->
          let bit = 1 lsl Reg.gpr_index g in
          if meta land bit <> 0 then w.fate <- Activated t.steps
          else if (meta lsr Instr.meta_write_shift) land bit <> 0 then
            w.fate <- Overwritten t.steps)

let exec_alu t op dst src =
  let a = eval t dst in
  let b = eval t src in
  let result =
    match (op : Instr.alu_op) with
    | Add -> Int64.add a b
    | Sub -> Int64.sub a b
    | And -> Int64.logand a b
    | Or -> Int64.logor a b
    | Xor -> Int64.logxor a b
  in
  (match op with
  | Add -> add_flags t a b result
  | Sub -> sub_flags t a b result
  | And | Or | Xor -> set_result_flags t result);
  write t dst result

let exec_shift t op dst n =
  let a = eval t dst in
  let n = n land 63 in
  let result =
    match (op : Instr.shift_op) with
    | Shl -> Int64.shift_left a n
    | Shr -> Int64.shift_right_logical a n
    | Sar -> Int64.shift_right a n
  in
  set_result_flags t result;
  write t dst result

(* x86 bitstring addressing for bt/bts/btr with a memory base: the bit
   index selects a word relative to the base address, so a single
   instruction can address a multi-word bitmap (Xen's event channels
   rely on this). *)
let bit_location t base idx_val =
  match base with
  | Operand.Reg g ->
      let bit = Int64.to_int (Int64.logand idx_val 63L) in
      `Reg (g, bit)
  | Operand.Mem m ->
      let word = Int64.shift_right idx_val 6 in
      let bit = Int64.to_int (Int64.logand idx_val 63L) in
      let addr = Int64.add (effective_address t m) (Int64.mul word 8L) in
      `Mem (addr, bit)
  | Operand.Imm _ -> invalid_arg "Cpu: immediate as bit-test base"

let exec_bit_op t base idx update =
  let idx_val = eval t idx in
  let read_word = function
    | `Reg (g, _) -> get_gpr t g
    | `Mem (addr, _) -> load_mem t addr
  in
  let loc = bit_location t base idx_val in
  let word = read_word loc in
  let bit = match loc with `Reg (_, b) -> b | `Mem (_, b) -> b in
  let old = Xentry_util.Bits.test word bit in
  set_rflags t (Flags.set (get_rflags t) Flags.CF old);
  (match update with
  | `None -> ()
  | `Set | `Reset ->
      let word' =
        match update with
        | `Set -> Xentry_util.Bits.set word bit
        | `Reset -> Xentry_util.Bits.clear word bit
        | `None -> word
      in
      (match loc with
      | `Reg (g, _) -> set_gpr t g word'
      | `Mem (addr, _) -> store_mem t addr word'));
  ()

(* String operations execute one element per dynamic step and leave
   RIP on themselves while RCX is non-zero, as interruptible x86 rep
   prefixes do.  Each iteration retires as one dynamic instruction, so
   corrupted counts show up in INST_RETIRED (paper Fig 5a), huge counts
   hit the watchdog, and fault injections scheduled mid-copy land
   mid-copy.  They return [true] while iterating (RIP must stay). *)
let exec_rep_movsq t =
  let n = get_gpr t Reg.RCX in
  if n = 0L then false
  else begin
    let src = get_gpr t Reg.RSI and dst = get_gpr t Reg.RDI in
    let v = load_mem t src in
    store_mem t dst v;
    set_gpr t Reg.RSI (Int64.add src 8L);
    set_gpr t Reg.RDI (Int64.add dst 8L);
    set_gpr t Reg.RCX (Int64.sub n 1L);
    true
  end

let exec_rep_stosq t =
  let n = get_gpr t Reg.RCX in
  if n = 0L then false
  else begin
    let v = get_gpr t Reg.RAX in
    let dst = get_gpr t Reg.RDI in
    store_mem t dst v;
    set_gpr t Reg.RDI (Int64.add dst 8L);
    set_gpr t Reg.RCX (Int64.sub n 1L);
    true
  end

let exec_push t v =
  let sp = Int64.sub (get_gpr t Reg.RSP) 8L in
  set_gpr t Reg.RSP sp;
  store_mem t sp v

let exec_pop t =
  let sp = get_gpr t Reg.RSP in
  let v = load_mem t sp in
  set_gpr t Reg.RSP (Int64.add sp 8L);
  v

let bits_mask ~bit ~width =
  Int64.shift_left (Int64.of_int ((1 lsl width) - 1)) bit

let flip_register_bits t arch ~bit ~width =
  let mask = bits_mask ~bit ~width in
  match arch with
  | Reg.Gpr g -> set_gpr t g (Int64.logxor (get_gpr t g) mask)
  | Reg.Rip -> set_rip t (Int64.logxor (get_rip t) mask)
  | Reg.Rflags -> set_rflags t (Int64.logxor (get_rflags t) mask)

let flip_register_bit t arch bit = flip_register_bits t arch ~bit ~width:1

(* --- mid-run capture and resume ------------------------------------------ *)

(* A [run_state] is everything CPU-side a paused run needs to continue
   on another CPU: architectural state plus the absolute accounting
   totals (steps, TSC, PMU counters) at the pause point.  Memory is
   deliberately absent — callers snapshot it separately (the
   hypervisor's COW clone).  The capture point is the top of the
   interpreter loop, before the injector runs, so a fault scheduled at
   the captured step still fires on resume exactly as it would have in
   the uninterrupted run.  Both engines capture and restore the same
   observable state: the fast engine settles its lazily-maintained TSC
   and branch count into the capture, and seeds them back on restore,
   so a state captured under one engine resumes under the other. *)
type run_state = {
  rs_regs : Bytes.t;  (* the 16 GPR slots of the register file *)
  rs_rip : int64;
  rs_rflags : int64;
  rs_tsc : int64;
  rs_steps : int;
  rs_branches : int;
  rs_loads : int;
  rs_stores : int;
}

let run_state_steps st = st.rs_steps

(* Both engines capture through here; the pending PMU batch is empty
   under the reference engine, which counts live. *)
let capture t ~rip ~tsc =
  {
    rs_regs = Bytes.sub t.regs 0 rip_off;
    rs_rip = rip;
    rs_rflags = get_rflags t;
    rs_tsc = tsc;
    rs_steps = t.steps;
    rs_branches = Pmu.read t.pmu_unit Pmu.Br_inst_retired + t.pend_branches;
    rs_loads = Pmu.read t.pmu_unit Pmu.Mem_loads + t.pend_loads;
    rs_stores = Pmu.read t.pmu_unit Pmu.Mem_stores + t.pend_stores;
  }

let clear_pending t =
  t.pend_branches <- 0;
  t.pend_loads <- 0;
  t.pend_stores <- 0

let restore_common t st ~code_base =
  Bytes.blit st.rs_regs 0 t.regs 0 rip_off;
  set_rip t st.rs_rip;
  set_rflags t st.rs_rflags;
  t.code_base <- code_base;
  t.steps <- st.rs_steps;
  t.watch <- None;
  t.mem_watch <- None;
  refresh_mem_observed t;
  clear_pending t;
  Pmu.enable t.pmu_unit;
  Pmu.add t.pmu_unit Pmu.Br_inst_retired st.rs_branches;
  Pmu.add t.pmu_unit Pmu.Mem_loads st.rs_loads;
  Pmu.add t.pmu_unit Pmu.Mem_stores st.rs_stores;
  t.tsc <- st.rs_tsc

(* A pause cursor over a sorted ascending [pause_at] array.  The fast
   guard is two int compares when no pause is pending; entries below
   the current step (possible on resume) are skipped silently. *)
let make_pauser t pause_at on_pause capture =
  let plen = Array.length pause_at in
  if plen = 0 then fun () -> ()
  else
    let pc = ref 0 in
    fun () ->
      if !pc < plen && t.steps >= pause_at.(!pc) then begin
        while !pc < plen && pause_at.(!pc) < t.steps do
          incr pc
        done;
        if !pc < plen && pause_at.(!pc) = t.steps then begin
          (match on_pause with Some f -> f (capture ()) | None -> ());
          incr pc
        end
      end

let detection_latency r =
  match r.activation with
  | Some { fate = Activated at; _ } -> (
      match r.stop with
      | Hw_fault _ | Assertion_failure _ | Vm_entry | Out_of_fuel ->
          Some (max 0 (r.steps - at))
      | Halted -> None)
  | Some _ | None -> None

(* --- run scaffolding shared by both engines ------------------------------ *)

let start_run t ~program ~code_base ~entry =
  let entry_index =
    match entry with
    | None -> 0
    | Some label -> (
        match Program.label_position program label with
        | Some i -> i
        | None -> raise (Program.Undefined_label label))
  in
  set_rip t (rip_of_index ~code_base entry_index);
  t.code_base <- code_base;
  t.steps <- 0;
  t.watch <- None;
  t.mem_watch <- None;
  refresh_mem_observed t;
  clear_pending t;
  Pmu.enable t.pmu_unit;
  entry_index

(* Fire the strike and arm the matching watch.  Memory-class strikes
   that find their target unmapped do nothing and arm nothing: no
   corruption happened, so the run must be indistinguishable from the
   golden one ([finish_run] then reports [Never_touched]). *)
let apply_injection t inj =
  match inj.inj_target with
  | Inj_reg arch ->
      flip_register_bits t arch ~bit:inj.inj_bit ~width:inj.inj_width;
      t.watch <- Some { target = arch; fate = Never_touched }
  | Inj_mem addr | Inj_pte addr ->
      let mask = bits_mask ~bit:inj.inj_bit ~width:inj.inj_width in
      if Memory.flip_word t.mem addr ~mask then begin
        t.mem_watch <-
          Some
            {
              mw_addr = addr;
              mw_watch_page = 0L;
              mw_page_granular = false;
              mw_source =
                (match inj.inj_target with
                | Inj_pte _ -> Xentry_ras.Ras.Pte
                | _ -> Xentry_ras.Ras.Mem);
              mw_syndrome = mask;
              mw_fate = Never_touched;
            };
        refresh_mem_observed t
      end
  | Inj_tlb page ->
      if Memory.strike_tlb t.mem ~page ~bit:inj.inj_bit then begin
        t.mem_watch <-
          Some
            {
              mw_addr = Int64.shift_left page 12;
              mw_watch_page = page;
              mw_page_granular = true;
              mw_source = Xentry_ras.Ras.Tlb;
              mw_syndrome = Int64.shift_left 1L inj.inj_bit;
              mw_fate = Never_touched;
            };
        refresh_mem_observed t
      end

(* The per-step injection driver: fires the strike at its step, and —
   for SET-style pulses — restores the register at the end of the
   window if nothing observed the corrupted value in the meantime (a
   transient that was never latched).  An observed or overwritten
   pulse is left alone: from activation onwards it is indistinguishable
   from a persistent flip.  Returns the closure plus the fired flag
   (the fast engine's handoff test reads it). *)
let make_injector t inject =
  let injected = ref false in
  let reverted = ref false in
  let fire () =
    match inject with
    | None -> ()
    | Some inj ->
        if (not !injected) && t.steps >= inj.inj_step then begin
          injected := true;
          apply_injection t inj
        end
        else if !injected && not !reverted then begin
          match inj.inj_window with
          | Some w when t.steps >= inj.inj_step + w -> (
              reverted := true;
              match t.watch with
              | Some { target; fate = Never_touched } ->
                  flip_register_bits t target ~bit:inj.inj_bit
                    ~width:inj.inj_width;
                  (* Stand the watch down entirely: later touches see
                     the correct value. *)
                  t.watch <- None
              | Some _ | None -> ())
          | Some _ | None -> ()
        end
  in
  (fire, injected)

(* The fetch consumes RIP, so a watched RIP activates at the fetch even
   if the fetch itself faults. *)
let watch_rip_fetch t =
  match t.watch with
  | Some ({ target = Reg.Rip; fate = Never_touched } as w) ->
      w.fate <- Activated t.steps
  | Some _ | None -> ()

let finish_run t ~inject stop_reason =
  Pmu.disable t.pmu_unit;
  let activation =
    match inject with
    | Some injection -> (
        match (t.watch, t.mem_watch) with
        | Some w, _ -> Some { injection; fate = w.fate }
        | None, Some w -> Some { injection; fate = w.mw_fate }
        | None, None ->
            (* Run ended before the injection step was reached, the
               strike found nothing to corrupt, or a SET pulse
               reverted unobserved. *)
            Some { injection; fate = Never_touched })
    | None -> None
  in
  {
    stop = stop_reason;
    steps = t.steps;
    final_pmu = Pmu.snapshot t.pmu_unit;
    activation;
  }

(* --- reference engine ---------------------------------------------------- *)

let run t ~program ~code_base ?entry ?(fuel = 100_000) ?inject ?on_step
    ?(pause_at = [||]) ?on_pause ?resume () =
  let len = Program.length program in
  let meta = program.Program.meta in
  (match resume with
  | None -> ignore (start_run t ~program ~code_base ~entry : int)
  | Some st ->
      restore_common t st ~code_base;
      (* The reference engine counts retirement live, so the resumed
         prefix's instructions are credited up front. *)
      Pmu.add t.pmu_unit Pmu.Inst_retired st.rs_steps);
  let capture () = capture t ~rip:(get_rip t) ~tsc:t.tsc in
  let check_pause = make_pauser t pause_at on_pause capture in
  let maybe_inject, _injected = make_injector t inject in
  let stop_reason =
    try
      let rec step () =
        check_pause ();
        maybe_inject ();
        watch_rip_fetch t;
        let idx = code_index ~code_base ~len (get_rip t) in
        let instr = program.Program.code.(idx) in
        update_watch t meta.(idx);
        (match on_step with Some f -> f idx instr | None -> ());
        let next = rip_of_index ~code_base (idx + 1) in
        let goto target_idx = set_rip t (rip_of_index ~code_base target_idx) in
        (* Loads and stores are counted at the access sites
           ([load_mem]/[store_mem]); only branch retirement is counted
           from the instruction shape. *)
        if Instr.is_branch instr then Pmu.add t.pmu_unit Pmu.Br_inst_retired 1;
        set_rip t next;
        (match instr with
        | Instr.Nop -> ()
        | Instr.Mov (dst, src) -> write t dst (eval t src)
        | Instr.Lea (g, op) -> (
            match op with
            | Operand.Mem m -> set_gpr t g (effective_address t m)
            | Operand.Reg _ | Operand.Imm _ ->
                invalid_arg "Cpu: lea needs a memory operand")
        | Instr.Alu (op, dst, src) -> exec_alu t op dst src
        | Instr.Shift (op, dst, n) -> exec_shift t op dst n
        | Instr.Shift_var (op, dst, cnt) ->
            exec_shift t op dst (Int64.to_int (Int64.logand (get_gpr t cnt) 63L))
        | Instr.Bt (base, idx) -> exec_bit_op t base idx `None
        | Instr.Bts (base, idx) -> exec_bit_op t base idx `Set
        | Instr.Btr (base, idx) -> exec_bit_op t base idx `Reset
        | Instr.Cmp (a, b) ->
            let x = eval t a in
            let y = eval t b in
            sub_flags t x y (Int64.sub x y)
        | Instr.Test (a, b) ->
            let x = eval t a in
            let y = eval t b in
            set_result_flags t (Int64.logand x y)
        | Instr.Inc dst ->
            let v = Int64.add (eval t dst) 1L in
            set_result_flags t v;
            write t dst v
        | Instr.Dec dst ->
            let v = Int64.sub (eval t dst) 1L in
            set_result_flags t v;
            write t dst v
        | Instr.Neg dst ->
            let v = Int64.neg (eval t dst) in
            set_result_flags t v;
            write t dst v
        | Instr.Imul (g, src) ->
            let v = Int64.mul (get_gpr t g) (eval t src) in
            set_result_flags t v;
            set_gpr t g v
        | Instr.Idiv src ->
            let divisor = eval t src in
            let dividend = get_gpr t Reg.RAX in
            if divisor = 0L then hw_fault Hw_exception.DE 0L
            else if dividend = Int64.min_int && divisor = -1L then
              hw_fault Hw_exception.DE 0L
            else begin
              set_gpr t Reg.RAX (Int64.div dividend divisor);
              set_gpr t Reg.RDX (Int64.rem dividend divisor)
            end
        | Instr.Jmp target -> goto target
        | Instr.Jcc (c, target) -> if Cond.eval c (get_rflags t) then goto target
        | Instr.Jmp_table (sel, targets) ->
            let v = eval t sel in
            Pmu.add t.pmu_unit Pmu.Mem_loads 1 (* dispatch-table entry fetch *);
            if Int64.compare v 0L < 0
               || Int64.compare v (Int64.of_int (Array.length targets)) >= 0
            then hw_fault Hw_exception.GP v
            else goto targets.(Int64.to_int v)
        | Instr.Call target ->
            exec_push t next;
            goto target
        | Instr.Ret ->
            let ra = exec_pop t in
            set_rip t ra
        | Instr.Push src -> exec_push t (eval t src)
        | Instr.Pop dst -> write t dst (exec_pop t)
        | Instr.Rep_movsq ->
            if exec_rep_movsq t then set_rip t (rip_of_index ~code_base idx)
        | Instr.Rep_stosq ->
            if exec_rep_stosq t then set_rip t (rip_of_index ~code_base idx)
        | Instr.Cpuid ->
            let rax, rbx, rcx, rdx = default_cpuid (get_gpr t Reg.RAX) in
            set_gpr t Reg.RAX rax;
            set_gpr t Reg.RBX rbx;
            set_gpr t Reg.RCX rcx;
            set_gpr t Reg.RDX rdx
        | Instr.Rdtsc ->
            set_gpr t Reg.RAX (Int64.logand t.tsc 0xFFFFFFFFL);
            set_gpr t Reg.RDX (Int64.shift_right_logical t.tsc 32)
        | Instr.Hlt ->
            retire_terminal t;
            raise (Stopped Halted)
        | Instr.Ud2 -> hw_fault Hw_exception.UD (get_rip t)
        | Instr.Assert a ->
            Pmu.add t.pmu_unit Pmu.Br_inst_retired 1;
            let v = eval t a.assert_src in
            if t.assertions_on && not (assertion_holds a.assert_kind v) then begin
              retire_terminal t;
              raise (Stopped (Assertion_failure { assertion = a; observed = v }))
            end
        | Instr.Vmentry ->
            retire_terminal t;
            raise (Stopped Vm_entry));
        retire t fuel;
        step ()
      in
      step ()
    with Stopped reason -> reason
  in
  finish_run t ~inject stop_reason

(* --- compiled (threaded-code) engine ------------------------------------- *)

(* Each instruction of a program is pre-decoded once, at [compile]
   time, into a closure [t -> unit] performing exactly the work of the
   corresponding reference-interpreter match arm.  The driver loop then
   dispatches through the closure array — no per-step shape matching
   on instructions, no operand re-interpretation.  Closures capture
   only static data (register-file offsets, immediates, pre-scaled
   branch offsets); the one piece of dynamic context, where the program
   is mapped, is read from [t.code_base], which [start_run] sets.  A
   [compiled] value is therefore immutable and safe to share across
   domains and across CPUs.

   Allocation-free by construction: every operand is pre-decoded into a
   closed shape ([opnd]) and read through the [@inline] helpers below,
   so a closure computes its effective address, its operands, its
   result and its flags in unboxed [int64] locals and writes them back
   with [set64].  A helper that is not inlined, or a closure returning
   an [int64], would box at the call boundary; so nothing on the
   per-step path takes or returns an [int64] across a call, and the
   one cross-module call per memory access ([Memory.read_frame] or
   [write_frame]) passes an [int] page number.  Accesses the in-page
   fast path cannot serve leave through [load_slow]/[store_slow] with
   their operands in the register file's scratch slots.

   The closures keep three engine-private accounting contracts with
   [run_compiled] (results stay bit-identical to the reference engine;
   only *when* the bookkeeping happens differs):

   - control flow goes through [t.next_idx]: the driver presets the
     fall-through index, branch closures store their static target
     index (and the RIP it denotes, for the injection-capable loop),
     and [ret] — the only dynamic branch — stores -1 after writing
     RIP.  Return addresses and UD fault addresses are static per
     instruction slot, so no closure ever *reads* RIP;
   - TSC is settled lazily as [run_tsc_base + steps * tsc_step]: only
     [rdtsc] and the end of the run materialize it, instead of an
     Int64 addition every step;
   - INST_RETIRED is added once at the end of the run from the step
     count, and branches plus fast-path loads and stores go to the
     [pend_*] batch, so terminal closures bump [t.steps] directly
     rather than calling [retire_terminal]. *)

type compiled = { source : Program.t; ops : (t -> unit) array }

let compiled_source c = c.source

(* A pre-decoded operand: a register-file offset, an immediate, or an
   effective address whose absent base or index reads the zero slot. *)
type ea = { base : int; index : int; scale : int64; disp : int64 }
type opnd = Oreg of int | Oimm of int64 | Omem of ea

let opnd_of = function
  | Operand.Reg g -> Oreg (gpr_off g)
  | Operand.Imm v -> Oimm v
  | Operand.Mem m ->
      let slot = function Some g -> gpr_off g | None -> zero_off in
      Omem
        {
          base = slot m.base;
          index = slot m.index;
          scale = Int64.of_int m.scale;
          disp = m.disp;
        }

let rax_off = gpr_off Reg.RAX
let rcx_off = gpr_off Reg.RCX
let rdx_off = gpr_off Reg.RDX
let rsi_off = gpr_off Reg.RSI
let rdi_off = gpr_off Reg.RDI
let rsp_off = gpr_off Reg.RSP

(* Page frames are little-endian, like [Memory.load64]. *)
let[@inline] get_le frame off =
  if big_endian () then bswap64 (get64 frame off) else get64 frame off

let[@inline] set_le frame off v =
  set64 frame off (if big_endian () then bswap64 v else v)

let () = assert (Memory.page_size = 4096)
let last_word_off = 4096 - 8

(* The slow paths: [load_mem]/[store_mem] exactly as the reference
   engine runs them (watch, hook, RAS record, live PMU count, #PF),
   operands and result passed through the scratch slots. *)
let[@inline never] load_slow t =
  set64 t.regs value_off (load_mem t (get64 t.regs addr_off))

let[@inline never] store_slow t =
  store_mem t (get64 t.regs addr_off) (get64 t.regs value_off)

(* The in-page fast path: a word inside one page, no hook and no
   unsettled memory watch, whose translation the software TLB holds, is
   read or written in place and counted into the PMU batch.  Anything
   else — page-crossing, unmapped, released, copy-on-write, a pre-image
   still to journal, an observed access — misses here and runs the
   slow path, which probes the TLB itself, so each access counts one
   probe either way. *)
let[@inline] load t addr =
  let off = Int64.to_int addr land 0xFFF in
  let pn = Int64.to_int (Int64.shift_right_logical addr 12) in
  let frame =
    if t.mem_observed || off > last_word_off then Memory.no_frame
    else Memory.read_frame t.mem pn
  in
  if frame != Memory.no_frame then begin
    t.pend_loads <- t.pend_loads + 1;
    get_le frame off
  end
  else begin
    set64 t.regs addr_off addr;
    load_slow t;
    get64 t.regs value_off
  end

let[@inline] store t addr v =
  let off = Int64.to_int addr land 0xFFF in
  let pn = Int64.to_int (Int64.shift_right_logical addr 12) in
  let frame =
    if t.mem_observed || off > last_word_off then Memory.no_frame
    else Memory.write_frame t.mem pn
  in
  if frame != Memory.no_frame then begin
    t.pend_stores <- t.pend_stores + 1;
    set_le frame off v
  end
  else begin
    set64 t.regs addr_off addr;
    set64 t.regs value_off v;
    store_slow t
  end

let[@inline] address t m =
  let r = t.regs in
  let index = Int64.mul (get64 r m.index) m.scale in
  Int64.add (Int64.add (get64 r m.base) index) m.disp

let[@inline] read t = function
  | Oreg o -> get64 t.regs o
  | Oimm v -> v
  | Omem m -> load t (address t m)

(* Read-modify-write destinations: the address is computed once and
   serves both the read and the write-back, as the registers it reads
   cannot change in between. *)
let[@inline] dst_address t = function
  | Omem m -> address t m
  | Oreg _ | Oimm _ -> 0L

let[@inline] read_at t d at =
  match d with Oreg o -> get64 t.regs o | Oimm v -> v | Omem _ -> load t at

let[@inline] write_at t d at v =
  match d with
  | Oreg o -> set64 t.regs o v
  | Omem _ -> store t at v
  | Oimm _ -> invalid_arg "Cpu: immediate as destination"

let[@inline] push t v =
  let r = t.regs in
  let sp = Int64.sub (get64 r rsp_off) 8L in
  set64 r rsp_off sp;
  store t sp v

let[@inline] pop t =
  let r = t.regs in
  let sp = get64 r rsp_off in
  let v = load t sp in
  set64 r rsp_off (Int64.add sp 8L);
  v

(* Allocation-free flag writer.  [Flags.of_result] builds the new
   RFLAGS image one {!Flags.set} at a time — five Int64 read-modify-
   write rounds plus optional-argument wrapping, on every ALU/compare
   step.  The compiled engine computes the five result bits in native
   int arithmetic and merges them with two Int64 operations.  Bit
   positions mirror [Flags.bit]: CF=0, PF=2, ZF=6, SF=7, OF=11. *)
let cf_i = 0x1
let pf_i = 0x4
let zf_i = 0x40
let sf_i = 0x80
let of_i = 0x800
let keep_mask = Int64.lognot 0x8C5L (* everything but CF|PF|ZF|SF|OF *)

let[@inline] result_bits ~carry ~overflow v =
  (* Parity of the low byte by xor-folding; PF is set on even parity,
     as [Flags.parity_low_byte] defines it. *)
  let b = Int64.to_int v land 0xFF in
  let p = b lxor (b lsr 4) in
  let p = p lxor (p lsr 2) in
  let p = p lxor (p lsr 1) in
  (if Int64.equal v 0L then zf_i else 0)
  lor (if Int64.compare v 0L < 0 then sf_i else 0)
  lor (if p land 1 = 0 then pf_i else 0)
  lor (if carry then cf_i else 0)
  lor if overflow then of_i else 0

let[@inline] merge_flags t bits =
  let r = t.regs in
  let kept = Int64.logand (get64 r rflags_off) keep_mask in
  set64 r rflags_off (Int64.logor kept (Int64.of_int bits))

let[@inline] set_result_flags_c t v =
  merge_flags t (result_bits ~carry:false ~overflow:false v)

let[@inline] add_flags_c t a b r =
  let carry = Int64.unsigned_compare r a < 0 in
  let overflow = Int64.logand (Int64.logxor a r) (Int64.logxor b r) < 0L in
  merge_flags t (result_bits ~carry ~overflow r)

let[@inline] sub_flags_c t a b r =
  let carry = Int64.unsigned_compare a b < 0 in
  let overflow = Int64.logand (Int64.logxor a b) (Int64.logxor a r) < 0L in
  merge_flags t (result_bits ~carry ~overflow r)

let[@inline] set_cf t b =
  let r = t.regs in
  let fl = get64 r rflags_off in
  set64 r rflags_off (if b then Int64.logor fl 1L else Int64.logand fl (-2L))

(* Pre-decoded condition test over the int image of the flag bits —
   the per-step equivalent of [Cond.eval] without the four [Flags.get]
   Int64 bit-tests. *)
let compile_cond (c : Cond.t) : int -> bool =
  match c with
  | Cond.E -> fun fl -> fl land zf_i <> 0
  | Cond.NE -> fun fl -> fl land zf_i = 0
  | Cond.L -> fun fl -> fl land sf_i <> 0 <> (fl land of_i <> 0)
  | Cond.LE ->
      fun fl -> fl land zf_i <> 0 || fl land sf_i <> 0 <> (fl land of_i <> 0)
  | Cond.G ->
      fun fl -> fl land zf_i = 0 && fl land sf_i <> 0 = (fl land of_i <> 0)
  | Cond.GE -> fun fl -> fl land sf_i <> 0 = (fl land of_i <> 0)
  | Cond.B -> fun fl -> fl land cf_i <> 0
  | Cond.BE -> fun fl -> fl land cf_i <> 0 || fl land zf_i <> 0
  | Cond.A -> fun fl -> fl land cf_i = 0 && fl land zf_i = 0
  | Cond.AE -> fun fl -> fl land cf_i = 0
  | Cond.S -> fun fl -> fl land sf_i <> 0
  | Cond.NS -> fun fl -> fl land sf_i = 0

(* [assertion_holds] on unboxed operands; the widths [Bits.low_bits]
   treats specially (0, 64, out of range) go to it unchanged. *)
let[@inline] holds (kind : Instr.assert_kind) v =
  match kind with
  | Assert_range (lo, hi) -> v >= lo && v <= hi
  | Assert_nonzero -> v <> 0L
  | Assert_zero -> v = 0L
  | Assert_equals expected -> v = expected
  | Assert_aligned k ->
      if k > 0 && k < 64 then
        Int64.logand v (Int64.pred (Int64.shift_left 1L k)) = 0L
      else assertion_holds kind v

(* bt, bts and btr, with x86 bitstring addressing for a memory base, as
   [exec_bit_op]. *)
let[@inline] bit_op t base bidx update =
  let i = read t bidx in
  let mask = Int64.shift_left 1L (Int64.to_int (Int64.logand i 63L)) in
  match base with
  | Oreg o -> (
      let r = t.regs in
      let w = get64 r o in
      set_cf t (Int64.logand w mask <> 0L);
      match update with
      | `None -> ()
      | `Set -> set64 r o (Int64.logor w mask)
      | `Reset -> set64 r o (Int64.logand w (Int64.lognot mask)))
  | Omem m -> (
      let at = Int64.add (address t m) (Int64.mul (Int64.shift_right i 6) 8L) in
      let w = load t at in
      set_cf t (Int64.logand w mask <> 0L);
      match update with
      | `None -> ()
      | `Set -> store t at (Int64.logor w mask)
      | `Reset -> store t at (Int64.logand w (Int64.lognot mask)))
  | Oimm _ -> invalid_arg "Cpu: immediate as bit-test base"

let compile_instr idx (instr : int Instr.t) : t -> unit =
  let self_off = Int64.of_int (idx * Program.instruction_bytes) in
  let target_off i = Int64.of_int (i * Program.instruction_bytes) in
  (* Offset of the instruction after this one: the return address a
     [call] pushes and the faulting RIP a [ud2] reports, both already
     advanced past the current instruction, exactly as the reference
     engine observes them. *)
  let next_off = target_off (idx + 1) in
  match instr with
  | Instr.Nop -> fun _ -> ()
  | Instr.Mov (dst, src) -> (
      match (opnd_of dst, opnd_of src) with
      | Oreg d, Oreg s -> fun t -> set64 t.regs d (get64 t.regs s)
      | Oreg d, Oimm v -> fun t -> set64 t.regs d v
      | Oreg d, Omem m -> fun t -> set64 t.regs d (load t (address t m))
      | d, s ->
          fun t ->
            let v = read t s in
            write_at t d (dst_address t d) v)
  | Instr.Lea (g, op) -> (
      match opnd_of op with
      | Omem m ->
          let gi = gpr_off g in
          fun t -> set64 t.regs gi (address t m)
      | Oreg _ | Oimm _ -> fun _ -> invalid_arg "Cpu: lea needs a memory operand")
  | Instr.Alu (op, dst, src) -> (
      let d = opnd_of dst and s = opnd_of src in
      match op with
      | Instr.Add ->
          fun t ->
            let at = dst_address t d in
            let a = read_at t d at in
            let b = read t s in
            let r = Int64.add a b in
            add_flags_c t a b r;
            write_at t d at r
      | Instr.Sub ->
          fun t ->
            let at = dst_address t d in
            let a = read_at t d at in
            let b = read t s in
            let r = Int64.sub a b in
            sub_flags_c t a b r;
            write_at t d at r
      | Instr.And ->
          fun t ->
            let at = dst_address t d in
            let a = read_at t d at in
            let r = Int64.logand a (read t s) in
            set_result_flags_c t r;
            write_at t d at r
      | Instr.Or ->
          fun t ->
            let at = dst_address t d in
            let a = read_at t d at in
            let r = Int64.logor a (read t s) in
            set_result_flags_c t r;
            write_at t d at r
      | Instr.Xor ->
          fun t ->
            let at = dst_address t d in
            let a = read_at t d at in
            let r = Int64.logxor a (read t s) in
            set_result_flags_c t r;
            write_at t d at r)
  | Instr.Shift (op, dst, n) -> (
      let d = opnd_of dst in
      let n = n land 63 in
      match op with
      | Instr.Shl ->
          fun t ->
            let at = dst_address t d in
            let r = Int64.shift_left (read_at t d at) n in
            set_result_flags_c t r;
            write_at t d at r
      | Instr.Shr ->
          fun t ->
            let at = dst_address t d in
            let r = Int64.shift_right_logical (read_at t d at) n in
            set_result_flags_c t r;
            write_at t d at r
      | Instr.Sar ->
          fun t ->
            let at = dst_address t d in
            let r = Int64.shift_right (read_at t d at) n in
            set_result_flags_c t r;
            write_at t d at r)
  | Instr.Shift_var (op, dst, cnt) -> (
      let d = opnd_of dst in
      let ci = gpr_off cnt in
      match op with
      | Instr.Shl ->
          fun t ->
            let n = Int64.to_int (get64 t.regs ci) land 63 in
            let at = dst_address t d in
            let r = Int64.shift_left (read_at t d at) n in
            set_result_flags_c t r;
            write_at t d at r
      | Instr.Shr ->
          fun t ->
            let n = Int64.to_int (get64 t.regs ci) land 63 in
            let at = dst_address t d in
            let r = Int64.shift_right_logical (read_at t d at) n in
            set_result_flags_c t r;
            write_at t d at r
      | Instr.Sar ->
          fun t ->
            let n = Int64.to_int (get64 t.regs ci) land 63 in
            let at = dst_address t d in
            let r = Int64.shift_right (read_at t d at) n in
            set_result_flags_c t r;
            write_at t d at r)
  | Instr.Bt (base, bidx) ->
      let b = opnd_of base and i = opnd_of bidx in
      fun t -> bit_op t b i `None
  | Instr.Bts (base, bidx) ->
      let b = opnd_of base and i = opnd_of bidx in
      fun t -> bit_op t b i `Set
  | Instr.Btr (base, bidx) ->
      let b = opnd_of base and i = opnd_of bidx in
      fun t -> bit_op t b i `Reset
  | Instr.Cmp (a, b) ->
      let a = opnd_of a and b = opnd_of b in
      fun t ->
        let x = read t a in
        let y = read t b in
        sub_flags_c t x y (Int64.sub x y)
  | Instr.Test (a, b) ->
      let a = opnd_of a and b = opnd_of b in
      fun t ->
        let x = read t a in
        let y = read t b in
        set_result_flags_c t (Int64.logand x y)
  | Instr.Inc dst ->
      let d = opnd_of dst in
      fun t ->
        let at = dst_address t d in
        let v = Int64.add (read_at t d at) 1L in
        set_result_flags_c t v;
        write_at t d at v
  | Instr.Dec dst ->
      let d = opnd_of dst in
      fun t ->
        let at = dst_address t d in
        let v = Int64.sub (read_at t d at) 1L in
        set_result_flags_c t v;
        write_at t d at v
  | Instr.Neg dst ->
      let d = opnd_of dst in
      fun t ->
        let at = dst_address t d in
        let v = Int64.neg (read_at t d at) in
        set_result_flags_c t v;
        write_at t d at v
  | Instr.Imul (g, src) ->
      let gi = gpr_off g in
      let s = opnd_of src in
      fun t ->
        let b = read t s in
        let v = Int64.mul (get64 t.regs gi) b in
        set_result_flags_c t v;
        set64 t.regs gi v
  | Instr.Idiv src ->
      let s = opnd_of src in
      fun t ->
        let divisor = read t s in
        let r = t.regs in
        let dividend = get64 r rax_off in
        if divisor = 0L then hw_fault Hw_exception.DE 0L
        else if dividend = Int64.min_int && divisor = -1L then
          hw_fault Hw_exception.DE 0L
        else begin
          set64 r rax_off (Int64.div dividend divisor);
          set64 r rdx_off (Int64.rem dividend divisor)
        end
  | Instr.Jmp target ->
      let off = target_off target in
      fun t ->
        set64 t.regs rip_off (Int64.add t.code_base off);
        t.next_idx <- target
  | Instr.Jcc (c, target) ->
      let off = target_off target in
      let test = compile_cond c in
      fun t ->
        if test (Int64.to_int (get64 t.regs rflags_off)) then begin
          set64 t.regs rip_off (Int64.add t.code_base off);
          t.next_idx <- target
        end
  | Instr.Jmp_table (sel, targets) ->
      let s = opnd_of sel in
      let offs = Array.map target_off targets in
      let n = Int64.of_int (Array.length targets) in
      fun t ->
        let v = read t s in
        t.pend_loads <- t.pend_loads + 1 (* dispatch-table entry fetch *);
        if v < 0L || v >= n then hw_fault Hw_exception.GP v
        else begin
          let i = Int64.to_int v in
          set64 t.regs rip_off (Int64.add t.code_base offs.(i));
          t.next_idx <- targets.(i)
        end
  | Instr.Call target ->
      let off = target_off target in
      fun t ->
        (* The return address is static: the slot after this one.  If
           the push faults, [next_idx] keeps the driver-preset
           fall-through, matching the reference engine's RIP at the
           fault. *)
        push t (Int64.add t.code_base next_off);
        set64 t.regs rip_off (Int64.add t.code_base off);
        t.next_idx <- target
  | Instr.Ret ->
      fun t ->
        set64 t.regs rip_off (pop t);
        t.next_idx <- -1
  | Instr.Push src ->
      let s = opnd_of src in
      fun t ->
        (* Bound first: an [int64] expression passed straight to an
           inlined helper is boxed unless every branch allocates. *)
        let v = read t s in
        push t v
  | Instr.Pop dst ->
      let d = opnd_of dst in
      fun t ->
        (* The destination address is taken after the pop, which may
           have moved the RSP it is based on. *)
        let v = pop t in
        write_at t d (dst_address t d) v
  | Instr.Rep_movsq ->
      fun t ->
        let r = t.regs in
        let n = get64 r rcx_off in
        if n <> 0L then begin
          let src = get64 r rsi_off and dst = get64 r rdi_off in
          let v = load t src in
          store t dst v;
          set64 r rsi_off (Int64.add src 8L);
          set64 r rdi_off (Int64.add dst 8L);
          set64 r rcx_off (Int64.sub n 1L);
          set64 r rip_off (Int64.add t.code_base self_off);
          t.next_idx <- idx
        end
  | Instr.Rep_stosq ->
      fun t ->
        let r = t.regs in
        let n = get64 r rcx_off in
        if n <> 0L then begin
          let dst = get64 r rdi_off in
          store t dst (get64 r rax_off);
          set64 r rdi_off (Int64.add dst 8L);
          set64 r rcx_off (Int64.sub n 1L);
          set64 r rip_off (Int64.add t.code_base self_off);
          t.next_idx <- idx
        end
  | Instr.Cpuid ->
      fun t ->
        let rax, rbx, rcx, rdx = default_cpuid (get_gpr t Reg.RAX) in
        set_gpr t Reg.RAX rax;
        set_gpr t Reg.RBX rbx;
        set_gpr t Reg.RCX rcx;
        set_gpr t Reg.RDX rdx
  | Instr.Rdtsc ->
      fun t ->
        (* Materialize the lazily-maintained TSC: [t.steps] is the
           number of instructions retired so far, exactly the count of
           per-step [tsc_step] bumps the reference engine has applied
           by the time rdtsc executes. *)
        let tsc =
          Int64.add t.run_tsc_base (Int64.of_int (t.steps * tsc_step))
        in
        t.tsc <- tsc;
        set64 t.regs rax_off (Int64.logand tsc 0xFFFFFFFFL);
        set64 t.regs rdx_off (Int64.shift_right_logical tsc 32)
  | Instr.Hlt ->
      fun t ->
        t.steps <- t.steps + 1;
        raise (Stopped Halted)
  | Instr.Ud2 -> fun t -> hw_fault Hw_exception.UD (Int64.add t.code_base next_off)
  | Instr.Assert a ->
      let s = opnd_of a.Instr.assert_src in
      let kind = a.Instr.assert_kind in
      let fail t observed =
        t.steps <- t.steps + 1;
        raise (Stopped (Assertion_failure { assertion = a; observed }))
      in
      fun t ->
        t.pend_branches <- t.pend_branches + 1;
        let v = read t s in
        if t.assertions_on && not (holds kind v) then fail t v
  | Instr.Vmentry ->
      fun t ->
        t.steps <- t.steps + 1;
        raise (Stopped Vm_entry)

let compile program =
  { source = program; ops = Array.mapi compile_instr program.Program.code }

let run_compiled t ~compiled ~code_base ?entry ?(fuel = 100_000) ?inject
    ?on_step ?(pause_at = [||]) ?on_pause ?resume () =
  let program = compiled.source in
  let ops = compiled.ops in
  let meta = program.Program.meta in
  let len = Array.length ops in
  let entry_index =
    match resume with
    | None ->
        let i = start_run t ~program ~code_base ~entry in
        t.run_tsc_base <- t.tsc;
        i
    | Some st ->
        restore_common t st ~code_base;
        (* Retirement is settled in bulk at the epilogue from the
           absolute step count, so only the TSC base needs back-dating:
           [run_tsc_base + steps * tsc_step] must equal the captured
           TSC at the captured step.  A resumed run always takes the
           RIP-driven loop, so the returned entry index is unused. *)
        t.run_tsc_base <-
          Int64.sub st.rs_tsc (Int64.of_int (st.rs_steps * tsc_step));
        0
  in
  (* Fast-engine capture: settle the lazy TSC into the state (the PMU
     batch is settled by [capture]) so it is engine-independent. *)
  let capture_at rip =
    capture t ~rip
      ~tsc:(Int64.add t.run_tsc_base (Int64.of_int (t.steps * tsc_step)))
  in
  (* Hot loop: driven by the instruction *index*, so a step is an
     array load, a closure call and a few integer tests, with no RIP
     decode, no Int64 allocation and no per-step PMU/TSC work.  RIP is
     materialized from the index only when the run stops; [ret]
     (next_idx = -1) is the one branch whose target is data and goes
     through the full RIP decode.  It serves the plain path from step
     0 and the event loop below once its per-step obligations have all
     been discharged (the pause cursor is shared between the two). *)
  let plen = Array.length pause_at in
  let pc = ref 0 in
  let hot_from entry =
    try
      let rec step idx =
        (* Pause check first, mirroring the reference loop: a
           snapshot scheduled at the step of a fetch fault is still
           taken.  Two int compares when no pause is pending. *)
        (if !pc < plen && t.steps >= pause_at.(!pc) then begin
           while !pc < plen && pause_at.(!pc) < t.steps do
             incr pc
           done;
           if !pc < plen && pause_at.(!pc) = t.steps then begin
             (match on_pause with
             | Some f -> f (capture_at (rip_of_index ~code_base idx))
             | None -> ());
             incr pc
           end
         end);
        if idx >= len then begin
          (* Fell off (or was sent past) the end of the program:
             same page fault the reference fetch raises. *)
          t.next_idx <- idx;
          hw_fault Hw_exception.PF (rip_of_index ~code_base idx)
        end;
        if meta.(idx) land Instr.meta_branch_bit <> 0 then
          t.pend_branches <- t.pend_branches + 1;
        t.next_idx <- idx + 1;
        ops.(idx) t;
        t.steps <- t.steps + 1;
        if t.steps > fuel then raise (Stopped Out_of_fuel);
        let n = t.next_idx in
        if n >= 0 then step n
        else step (code_index ~code_base ~len (get64 t.regs rip_off))
      in
      step entry
    with Stopped reason ->
      (* Settle RIP where the reference engine would have left it:
         the pending next index, unless [ret] already wrote RIP
         itself. *)
      if t.next_idx >= 0 then set_rip t (rip_of_index ~code_base t.next_idx);
      reason
  in
  let stop_reason =
    match (inject, on_step, resume) with
    | None, None, None -> hot_from entry_index
    | _ -> (
        (* Injection-, tracing- and resume-capable loop: RIP stays
           authoritative every step because the injector can flip bits
           in it, the watch observes fetches, and a restored state
           carries only a RIP (no next-index).  Those obligations are
           all finite: once the injection has fired and its watch has
           settled on a fate (and no pause or tracer remains), every
           later step would run them as no-ops — so the run hands off
           to the hot loop for its remainder.  A resumed injection
           fires at the resume boundary and typically activates on its
           first step, making the whole suffix index-driven. *)
        let maybe_inject, injected = make_injector t inject in
        let traced = match on_step with Some _ -> true | None -> false in
        (* Once the injection fired, the remaining per-step obligations
           are the register watch and a pending SET revert — both of
           which keep [t.watch] alive with [Never_touched], so one test
           covers them.  Memory-class watches live in the access sites
           shared with the hot loop, so they never block handoff. *)
        let handoff () =
          (not traced)
          && !pc >= plen
          && (match inject with None -> true | Some _ -> !injected)
          && match t.watch with
             | None -> true
             | Some w -> w.fate <> Never_touched
        in
        try
          let rec step () =
            (if !pc < plen && t.steps >= pause_at.(!pc) then begin
               while !pc < plen && pause_at.(!pc) < t.steps do
                 incr pc
               done;
               if !pc < plen && pause_at.(!pc) = t.steps then begin
                 (match on_pause with
                 | Some f -> f (capture_at (get_rip t))
                 | None -> ());
                 incr pc
               end
             end);
            maybe_inject ();
            watch_rip_fetch t;
            let rip = get64 t.regs rip_off in
            let idx = code_index ~code_base ~len rip in
            let m = meta.(idx) in
            update_watch t m;
            (match on_step with
            | Some f -> f idx program.Program.code.(idx)
            | None -> ());
            if m land Instr.meta_branch_bit <> 0 then
              t.pend_branches <- t.pend_branches + 1;
            (* RIP was validated aligned and in range, so the next-RIP
               is a plain +8 rather than a full index-to-address
               conversion. *)
            set64 t.regs rip_off (Int64.add rip 8L);
            ops.(idx) t;
            t.steps <- t.steps + 1;
            if t.steps > fuel then raise (Stopped Out_of_fuel);
            if handoff () then
              hot_from (code_index ~code_base ~len (get64 t.regs rip_off))
            else step ()
          in
          step ()
        with Stopped reason -> reason)
  in
  (* Settle the batched accounting (see the compiled-engine header
     comment) before the PMU snapshot. *)
  Pmu.add t.pmu_unit Pmu.Inst_retired t.steps;
  Pmu.add t.pmu_unit Pmu.Br_inst_retired t.pend_branches;
  Pmu.add t.pmu_unit Pmu.Mem_loads t.pend_loads;
  Pmu.add t.pmu_unit Pmu.Mem_stores t.pend_stores;
  clear_pending t;
  t.tsc <- Int64.add t.run_tsc_base (Int64.of_int (t.steps * tsc_step));
  finish_run t ~inject stop_reason

let pp_stop ppf = function
  | Vm_entry -> Format.fprintf ppf "vm-entry"
  | Hw_fault { exn; detail } ->
      Format.fprintf ppf "hw-fault %s @ %Lx" (Hw_exception.name exn) detail
  | Assertion_failure { assertion; observed } ->
      Format.fprintf ppf "assertion %s failed (observed %Ld)"
        assertion.Instr.assert_name observed
  | Halted -> Format.fprintf ppf "halted"
  | Out_of_fuel -> Format.fprintf ppf "out-of-fuel (hang)"
