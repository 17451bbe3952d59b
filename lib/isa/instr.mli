(** The instruction set of the simulated CPU.

    The set is an x86-64-flavoured subset chosen to cover everything
    the synthesized hypervisor handlers need: data movement, ALU
    arithmetic with flags, conditional and indirect control flow,
    stack operations, string copies ([rep movsq], the paper's Fig 5a
    example), privileged-instruction emulation targets ([cpuid],
    [rdtsc]) and the software-assertion pseudo-instruction used by
    Xentry's runtime detection (paper Listings 1–2).

    Instructions are polymorphic in the branch-target type ['lbl]:
    the assembler emits [string t] (symbolic labels) and
    {!Program.assemble} resolves them to [int t] (instruction
    indices). *)

type alu_op = Add | Sub | And | Or | Xor

type shift_op = Shl | Shr | Sar

type assert_kind =
  | Assert_range of int64 * int64
      (** value must lie in \[lo, hi\] — the paper's Listing 1 boundary
          assertion ([ASSERT (trap <= LAST)]). *)
  | Assert_nonzero
  | Assert_zero
  | Assert_equals of int64
      (** value must equal a constant — the paper's Listing 2
          condition assertion ([ASSERT (is_idle_vcpu v)] compiled to a
          comparison against the idle marker). *)
  | Assert_aligned of int  (** value must be a multiple of 2^k. *)

type 'lbl t =
  | Nop
  | Mov of Operand.t * Operand.t  (** [Mov (dst, src)]; not mem-to-mem *)
  | Lea of Reg.gpr * Operand.t  (** load effective address of a [Mem] *)
  | Alu of alu_op * Operand.t * Operand.t  (** [dst <- dst op src], sets flags *)
  | Shift of shift_op * Operand.t * int  (** immediate shift count *)
  | Shift_var of shift_op * Operand.t * Reg.gpr
      (** shift by a register count (low 6 bits), like [shl dst, cl] *)
  | Bt of Operand.t * Operand.t
      (** bit test: CF <- bit [snd] of [fst].  With a memory base the
          bit index selects the word, as in x86 bitstring addressing —
          the idiom behind Xen's event-channel pending/mask bitmaps. *)
  | Bts of Operand.t * Operand.t  (** bit test-and-set (CF <- old bit) *)
  | Btr of Operand.t * Operand.t  (** bit test-and-reset (CF <- old bit) *)
  | Cmp of Operand.t * Operand.t  (** flags from [fst - snd] *)
  | Test of Operand.t * Operand.t  (** flags from [fst land snd] *)
  | Inc of Operand.t
  | Dec of Operand.t
  | Neg of Operand.t
  | Imul of Reg.gpr * Operand.t  (** [dst <- dst * src] (low 64 bits) *)
  | Idiv of Operand.t
      (** [rax <- rax / src], [rdx <- rax mod src]; [#DE] when the
          divisor is zero. *)
  | Jmp of 'lbl
  | Jcc of Cond.t * 'lbl
  | Jmp_table of Operand.t * 'lbl array
      (** Indirect jump through a dispatch table: the operand selects
          an entry; an out-of-range selector raises [#GP].  Models
          Xen-style handler dispatch ([do_irq] vector tables,
          hypercall pages). *)
  | Call of 'lbl
  | Ret
  | Push of Operand.t
  | Pop of Operand.t
  | Rep_movsq  (** copy RCX quadwords from [RSI] to [RDI] *)
  | Rep_stosq  (** store RAX to RCX quadwords at [RDI] *)
  | Cpuid  (** leaf in RAX; results in RAX, RBX, RCX, RDX *)
  | Rdtsc  (** time-stamp counter: low half to RAX, high half to RDX *)
  | Hlt
  | Ud2
      (** undefined-opcode trap: the BUG()/BUG_ON() idiom — an
          explicit integrity check that raises [#UD] when reached *)
  | Assert of assertion
  | Vmentry
      (** End of the hypervisor execution: control returns to the
          guest.  Xentry's VM-transition detection hooks here. *)

and assertion = {
  assert_id : int;  (** stable id for detection attribution *)
  assert_name : string;
  assert_src : Operand.t;  (** checked value *)
  assert_kind : assert_kind;
}

val regs_read : 'lbl t -> Reg.gpr list
(** GPRs whose value the instruction consumes (including address
    computation and implicit operands such as RSP for [Push]). *)

val regs_written : 'lbl t -> Reg.gpr list
(** GPRs the instruction fully overwrites. *)

val reads_flags : 'lbl t -> bool
val writes_flags : 'lbl t -> bool

val read_mask : 'lbl t -> int
(** {!regs_read} as a bitmask over {!Reg.gpr_index}. *)

val write_mask : 'lbl t -> int
(** {!regs_written} as a bitmask over {!Reg.gpr_index}. *)

val metadata : 'lbl t -> int
(** Packed per-instruction metadata word, computed once at assembly
    time ({!Program.t.meta}) so the interpreter's hot paths replace
    list walks with bit tests.  Layout: bits 0–15 read-register mask,
    bits 16–31 written-register mask (both over {!Reg.gpr_index}),
    bit 32 {!is_branch}, bit 33 {!reads_flags}, bit 34
    {!writes_flags}. *)

val meta_write_shift : int
val meta_branch_bit : int
val meta_reads_flags_bit : int
val meta_writes_flags_bit : int

val is_branch : 'lbl t -> bool
(** Counted by the BR_INST_RETIRED performance event: jumps,
    conditional jumps, table dispatch, call and return. *)

val map_label : ('a -> 'b) -> 'a t -> 'b t

val pp : (Format.formatter -> 'lbl -> unit) -> Format.formatter -> 'lbl t -> unit
