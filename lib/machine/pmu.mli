(** Per-core performance monitoring unit.

    Models the four programmable counters Xentry uses (paper Table I):
    [INST_RETIRED], [BR_INST_RETIRED], [MEM_INST_RETIRED.LOADS] and
    [MEM_INST_RETIRED.STORES].  As in the implementation described in
    §IV, counting is armed at VM exit and read+disarmed at VM entry;
    logical cores do not share counters. *)

type event =
  | Inst_retired
  | Br_inst_retired
  | Mem_loads
  | Mem_stores

type t

val create : unit -> t
(** Counters start disabled and zeroed. *)

val enable : t -> unit
(** Arm and zero all counters (VM-exit hook). *)

val disable : t -> unit
(** Stop counting (VM-entry hook); values remain readable. *)

val add : t -> event -> int -> unit
(** Account [n] occurrences; ignored while disabled. *)

val read : t -> event -> int

type snapshot = { inst : int; branches : int; loads : int; stores : int }

val snapshot : t -> snapshot

val pp_snapshot : Format.formatter -> snapshot -> unit
