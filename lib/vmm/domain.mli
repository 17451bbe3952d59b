(** Domains and virtual CPUs.

    A domain is a guest VM (Dom0 is the control domain, paper §II-A);
    its state lives entirely in simulated memory per {!Layout} so that
    handler programs manipulate it with real loads and stores.  This
    module provides the OCaml-side constructors and typed accessors
    used to set up hosts and to seed guest state. *)

type t = {
  id : int;
  is_control : bool;  (** Dom0 *)
  mem : Xentry_machine.Memory.t;
}

val init : Xentry_machine.Memory.t -> id:int -> is_control:bool -> t
(** Initialize the domain block in (already mapped) memory: identity
    fields, cleared event channels, empty pending-trap slots. *)

val base : t -> int64

(** {1 Guest register file (per-VCPU [user_regs])} *)

val get_user_reg : t -> vcpu:int -> Xentry_isa.Reg.gpr -> int64
val set_user_reg : t -> vcpu:int -> Xentry_isa.Reg.gpr -> int64 -> unit
val get_user_rip : t -> vcpu:int -> int64
val set_user_rip : t -> vcpu:int -> int64 -> unit

val user_regs_address : t -> vcpu:int -> int64
(** Address of the [user_regs] save area. *)

(** {1 VCPU state} *)

val set_idle : t -> vcpu:int -> bool -> unit
val is_idle : t -> vcpu:int -> bool
val set_running : t -> vcpu:int -> bool -> unit
val is_running : t -> vcpu:int -> bool

(** {1 Pending trap slots (Listing 1's FIRST..LAST scan)} *)

val clear_pending_traps : t -> vcpu:int -> unit
val set_pending_trap : t -> vcpu:int -> slot:int -> trap:int -> unit
val pending_trap : t -> vcpu:int -> slot:int -> int64

(** {1 VCPU info inside the shared-info page} *)

val upcall_pending : t -> vcpu:int -> bool
val set_upcall_pending : t -> vcpu:int -> bool -> unit
val vcpu_system_time : t -> vcpu:int -> int64

val pp : Format.formatter -> t -> unit
