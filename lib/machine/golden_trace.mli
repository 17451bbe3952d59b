(** Golden execution traces: the per-dynamic-step register def/use
    record and the timed memory-access log a fault-injection planner
    prunes against.

    One trace describes one fault-free handler execution: for every
    dynamic step, the static instruction index executed and its packed
    metadata word ({!Xentry_isa.Instr.metadata} — read/write register
    masks plus branch/flags bits); for every load and store, the step
    that issued it, its address and whether it stored; and the stop
    shape the planner's soundness argument needs.  Both engines
    produce bit-identical traces for the same execution (the recorder
    only consumes the [on_step] callback and the {!Cpu.set_mem_hook}
    observer both engines already share), so the planner prunes the
    same faults under either engine.

    {b Length semantics.}  [length t] is the number of [on_step]
    callbacks, i.e. of instructions that reached the execute stage:
    equal to [result.steps] for runs ending at [Vm_entry], [Halted],
    [Assertion_failure] or [Out_of_fuel]; [result.steps + 1] when the
    stopping instruction faulted mid-execution (it never retired); and
    [result.steps] again when the {e fetch} itself faulted (the
    faulting step never reached execute). *)

type t = {
  index : int array;  (** static instruction index per dynamic step *)
  meta : int array;
      (** packed {!Xentry_isa.Instr.metadata} word per dynamic step *)
  result_steps : int;  (** [steps] of the recorded run's result *)
  asserted : bool;  (** the run stopped on an assertion failure *)
  fetch_faulted : bool;
      (** the run stopped on a hardware fault raised by the fetch
          itself (bad RIP), i.e. the final loop iteration executed its
          injection point but no instruction *)
  accesses : int array;
      (** the access log: one entry per load or store the run issued,
          in execution order — every address the {!Cpu.set_mem_hook}
          observer saw, faulting accesses included.  Entry [i] is
          [(step lsl 1) lor store]: the dynamic step that issued the
          access, and [1] for a store, [0] for a load.  Steps never
          decrease and stay below [length t]. *)
  access_addrs : string;
      (** the logged addresses, 8 little-endian bytes per entry: entry
          [i]'s address is [String.get_int64_le access_addrs (8 * i)] *)
}

val length : t -> int
(** Dynamic steps recorded (see the length semantics above). *)

val equal : t -> t -> bool

(** {2 Recording} *)

type recorder

val recorder : meta:int array -> recorder
(** [recorder ~meta] starts a recording against a program's packed
    metadata table ({!Xentry_isa.Program.t.meta}). *)

val on_step : recorder -> int -> int Xentry_isa.Instr.t -> unit
(** The [on_step] hook to pass to [Cpu.run]/[Cpu.run_compiled]. *)

val mem_hook : recorder -> int64 -> bool -> unit
(** The address observer to install with [Cpu.set_mem_hook] for the
    recorded run ([true] = store).  Appends one entry to the access log,
    stamped with the step whose [on_step] callback came last — the step
    executing the access.  Clear the hook after the run. *)

val finish : recorder -> result:Cpu.run_result -> t
(** Seal the recording once the run returned. *)

(** {2 Def-use queries} *)

val fate : t -> target:Xentry_isa.Reg.arch -> step:int -> Cpu.fault_fate
(** The fate a single-bit fault in [target], injected just before
    dynamic step [step], meets on the recorded execution — computed
    from the trace alone, with zero simulation.  Mirrors the live
    def-use watch exactly: the scan starts at [step] itself (the watch
    is armed before the target instruction's metadata is consulted),
    RIP activates at the next fetch, RFLAGS activates on
    [reads_flags] and dies on [writes_flags], a GPR activates on its
    read-mask bit and dies on its write-mask bit.

    Steps at or beyond [length t] short-circuit to [Never_touched]
    with no scan: the run ends before the flip fires.  The one
    exception is a {!fetch_faulted} trace with [target = Rip] at
    exactly [step = length t] — the faulting iteration does execute
    its injection point, and the corrupted RIP is consumed by the
    fetch, so the fault reports [Activated]. *)

(** {2 Access-log queries} *)

val word_access : t -> addr:int64 -> step:int -> int
(** The first logged access at or after [step] that overlaps the
    8-byte word at [addr] — its address [a] satisfies
    [-7 <= a - addr <= 7] in wrapped [Int64] arithmetic, the live word
    watch's test — as an index into {!field-accesses}, or [-1] when
    none does.  Allocates nothing.

    Until a corrupted word is first accessed, a faulted run is
    step-identical to the golden one, so for a [Mem]/[Pte] strike fired
    just before [step] on a word whose 8 bytes are mapped this
    predicts the live watch exactly: [-1] is [Never_touched], a store
    is [Overwritten] and a load [Activated] at the entry's step.  A
    strike on an unmapped word corrupts nothing and its live run is
    [Never_touched] whatever the log says. *)

val page_access : t -> page:int64 -> step:int -> int
(** Like {!word_access} for a struck translation: the first logged
    access at or after [step] whose first or last byte ([a] or
    [a + 7]) lies on [page], the live page watch's test, or [-1].  A
    live TLB strike is consumed — [Activated] — exactly there, when it
    fires at all (the struck page is mapped); one that finds nothing to
    strike is [Never_touched].  Allocates nothing. *)
