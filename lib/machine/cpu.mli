(** Instruction-level CPU interpreter.

    Executes an assembled {!Xentry_isa.Program.t} against a simulated
    memory, counting performance events, raising hardware exceptions,
    evaluating Xentry's software assertions, and — for fault-injection
    campaigns — striking architectural state at a chosen dynamic
    instruction (register bits, memory words, TLB translations or
    page-table entries; persistent flips or SET-style reverting
    pulses) and tracking whether the corrupted value is ever consumed
    (paper §V-B's activated / non-activated fault distinction).

    A "run" models one hypervisor execution: it starts right after a
    VM exit and finishes at the [Vmentry] instruction, a hardware
    exception, an assertion failure, [Hlt], or watchdog exhaustion
    (hangs from corrupted loop counters). *)

type t

val create : Memory.t -> t
(** [create mem] makes a CPU attached to [mem].  The TSC advances 3
    per retired instruction (only monotonicity and determinism
    matter), and CPUID answers with a fixed mixing of the leaf. *)

val memory : t -> Memory.t
val pmu : t -> Pmu.t

val get_gpr : t -> Xentry_isa.Reg.gpr -> int64
val set_gpr : t -> Xentry_isa.Reg.gpr -> int64 -> unit
val get_rflags : t -> int64
val set_rflags : t -> int64 -> unit
val get_rip : t -> int64
val get_tsc : t -> int64
val set_tsc : t -> int64 -> unit

val set_assertions_enabled : t -> bool -> unit
(** When disabled, [Assert] instructions execute (and are counted) but
    violations do not stop the run — the unprotected-hypervisor
    baseline. *)

val assertions_enabled : t -> bool

(** {2 Engine selection}

    Two interpreters execute programs with bit-identical semantics:

    - [Ref], the reference engine: a per-step [match] over the
      instruction shape ({!run}).  Simple, obviously correct, kept as
      the oracle for differential testing.
    - [Fast], the threaded-code engine: every instruction is
      pre-decoded at {!compile} time into a closure, and the driver
      loop dispatches through the closure array ({!run_compiled}).

    The process default comes from the [XENTRY_ENGINE] environment
    variable ([ref] or [fast]; default [fast]) and can be overridden
    programmatically; the hypervisor and the CLI/bench [--engine]
    flags consult it. *)

type engine = Ref | Fast

val engine_name : engine -> string
val engine_of_string : string -> engine option

val default_engine : unit -> engine
val set_default_engine : engine -> unit

type stop =
  | Vm_entry  (** reached the VM-entry boundary *)
  | Hw_fault of { exn : Hw_exception.t; detail : int64 }
      (** hardware exception; [detail] is the faulting address for
          #PF/#GP, the bad RIP for fetch faults, 0 otherwise *)
  | Assertion_failure of { assertion : Xentry_isa.Instr.assertion; observed : int64 }
  | Halted  (** executed [Hlt] *)
  | Out_of_fuel  (** watchdog: the run exceeded its instruction budget *)

type fault_fate =
  | Never_touched  (** register not accessed again before the run ended *)
  | Overwritten of int  (** fully overwritten at this step before any read *)
  | Activated of int  (** first read at this step: the fault is live *)

(** Strike site of an injection.  Register targets flip live
    architectural state; memory-class targets corrupt simulated memory
    (or the translation of a page) and are watched at the CPU's
    load/store sites, which also log a RAS error record when the
    corruption is architecturally observed. *)
type inj_target =
  | Inj_reg of Xentry_isa.Reg.arch
  | Inj_mem of int64  (** word address *)
  | Inj_tlb of int64  (** page number whose translation is struck *)
  | Inj_pte of int64  (** word address inside a page-table structure *)

type injection = {
  inj_target : inj_target;
  inj_bit : int;  (** 0–63 *)
  inj_width : int;  (** adjacent bits flipped (>= 1; 1 = the classic model) *)
  inj_window : int option;
      (** SET pulse: if set, the flip reverts after this many steps
          unless something observed (or overwrote) it first.  Register
          targets only. *)
  inj_step : int;  (** flip occurs just before executing this step *)
}

val reg_injection :
  ?width:int ->
  ?window:int ->
  Xentry_isa.Reg.arch ->
  bit:int ->
  step:int ->
  injection
(** The classic single-register injection ([width] 1, no window). *)

type activation_report = { injection : injection; fate : fault_fate }

type run_result = {
  stop : stop;
  steps : int;  (** dynamic instructions retired (rep iterations count) *)
  final_pmu : Pmu.snapshot;  (** counters as read at the stop point *)
  activation : activation_report option;
}

val detection_latency : run_result -> int option
(** Instructions between fault activation and the stop event, when the
    run both activated a fault and stopped on a detection-relevant
    event ([Hw_fault], [Assertion_failure], [Vm_entry], [Out_of_fuel]).
    This is the paper's Fig 10 metric. *)

(** {2 Mid-run capture and resume}

    A run may be paused at chosen dynamic steps to capture a
    {!run_state} — the complete CPU-side state (registers, RIP,
    RFLAGS, TSC, step count, PMU totals) at the top of the interpreter
    loop, {e before} any injection scheduled for that step fires.
    Memory is not part of the state; callers snapshot it separately
    (the hypervisor's COW clone).  Restoring a captured state on a
    fresh CPU over a snapshot of the paused memory and re-running
    yields results bit-identical to the uninterrupted run, for either
    engine and regardless of which engine captured the state — the
    fast-forwarding contract the campaign planner builds on. *)

type run_state

val run_state_steps : run_state -> int
(** The dynamic step at which the state was captured. *)

val run :
  t ->
  program:Xentry_isa.Program.t ->
  code_base:int64 ->
  ?entry:string ->
  ?fuel:int ->
  ?inject:injection ->
  ?on_step:(int -> int Xentry_isa.Instr.t -> unit) ->
  ?pause_at:int array ->
  ?on_pause:(run_state -> unit) ->
  ?resume:run_state ->
  unit ->
  run_result
(** Execute [program] starting at label [entry] (default: index 0).
    [fuel] bounds retired instructions (default 100_000).  The PMU is
    enabled (and zeroed) on entry to [run] and disabled at the stop
    point, mirroring Xentry's VM-exit / VM-entry counter management.
    [inject] flips one register bit just before the given dynamic
    step; if the run stops earlier the injection never happens and
    [activation] reports [Never_touched] with the request echoed.

    [pause_at] (sorted ascending) lists dynamic steps at which
    [on_pause] receives a captured {!run_state}; steps the run never
    reaches are ignored.  [resume] starts the run from a previously
    captured state instead of [entry] (which is then ignored): the
    architectural state and accounting totals are restored, and [fuel]
    keeps its absolute meaning, counting the resumed prefix. *)

(** {2 Threaded-code engine} *)

type compiled
(** A program pre-decoded into an array of execution closures plus the
    packed per-instruction metadata from {!Xentry_isa.Program.t.meta}.
    Immutable once built: safe to share across CPUs and across
    domains, and therefore memoizable (keyed on
    {!Xentry_isa.Program.t.uid}). *)

val compile : Xentry_isa.Program.t -> compiled
(** Pre-decode every instruction into a closure.  O(program length);
    performed once per program, typically behind the hypervisor's
    handler memo. *)

val compiled_source : compiled -> Xentry_isa.Program.t

val run_compiled :
  t ->
  compiled:compiled ->
  code_base:int64 ->
  ?entry:string ->
  ?fuel:int ->
  ?inject:injection ->
  ?on_step:(int -> int Xentry_isa.Instr.t -> unit) ->
  ?pause_at:int array ->
  ?on_pause:(run_state -> unit) ->
  ?resume:run_state ->
  unit ->
  run_result
(** Exactly {!run}, executed by the threaded-code engine.  Produces
    bit-identical results — same stop reason, step count, PMU
    snapshot, registers, memory and captured pause states — for every
    program and injection (enforced by differential QCheck properties
    in the test suite).  Pausing is supported on the hot
    (injection-free) path at no per-step cost beyond two int
    compares; [resume] dispatches to the RIP-driven loop. *)

val flip_register_bit : t -> Xentry_isa.Reg.arch -> int -> unit
(** Unconditionally flip a bit in the live architectural state (used
    by tests and by the campaign to model faults during the
    VM-transition window itself). *)

val flip_register_bits : t -> Xentry_isa.Reg.arch -> bit:int -> width:int -> unit
(** Flip [width] adjacent bits starting at [bit] (bits above 63 are
    dropped). *)

(** {2 RAS bank and access observation} *)

val ras_bank : t -> Xentry_ras.Ras.Bank.t
(** The CPU's RAS error-record bank.  The access-site watches log into
    it when an injected memory/TLB/page-table corruption is
    architecturally observed: [Uncorrected] when the access completed
    on poisoned data, [Fatal] when it could not complete (unmapped
    physical page).  Sticky across runs; the hypervisor drains it. *)

val set_mem_hook : t -> (int64 -> bool -> unit) option -> unit
(** Observe every load/store address issued by either engine
    ([true] = store) — golden-trace recording uses this to build the
    timed access log memory-class pruning consults.  Clear it
    ([None]) after the recorded run. *)

val pp_stop : Format.formatter -> stop -> unit
