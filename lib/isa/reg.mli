(** Architectural registers of the simulated 64-bit CPU.

    The register file mirrors x86-64's sixteen general-purpose
    registers plus the instruction pointer and the flags register —
    exactly the architectural state the paper's fault model targets
    ("general purpose registers, instruction and stack pointers and
    flags", §V-B). *)

type gpr =
  | RAX
  | RBX
  | RCX
  | RDX
  | RSI
  | RDI
  | RBP
  | RSP
  | R8
  | R9
  | R10
  | R11
  | R12
  | R13
  | R14
  | R15

val gpr_count : int
(** 16. *)

val all_gprs : gpr array
(** All GPRs in index order. *)

val gpr_index : gpr -> int
(** Stable index in \[0, 15\] for array-backed register files. *)

val gpr_of_index : int -> gpr
(** Inverse of [gpr_index]; raises [Invalid_argument] out of range. *)

val gpr_name : gpr -> string
(** Lowercase x86 name, e.g. ["rax"], ["r13"]. *)

val gpr_of_name : string -> gpr option

type arch =
  | Gpr of gpr
  | Rip  (** instruction pointer *)
  | Rflags  (** status flags *)
      (** A fault-injection target: any architectural register. *)

val all_arch : arch array
(** The 18 injectable registers. *)

val arch_name : arch -> string

val pp_gpr : Format.formatter -> gpr -> unit
