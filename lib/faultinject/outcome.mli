(** Fault outcome taxonomy (paper §II-A and §V-E).

    The consequence of an activated fault, observed on an unprotected
    host (detection disabled) by comparing the faulted run against a
    golden run from the identical state:

    - {e short latency} errors stay in host mode: the hypervisor
      crashes or hangs before VM entry (Fig 2's Path 1);
    - {e long latency} errors survive to VM entry with corrupted
      guest-visible or system-critical state (Fig 2's Path 2), with
      the paper's four consequences: application SDC, application
      crash, one-VM failure, all-VM failure. *)

type short_kind =
  | Hv_crash  (** fatal hardware exception in host mode *)
  | Hv_hang  (** watchdog-detected hang (e.g. corrupted loop counter) *)

type long_kind =
  | App_sdc
      (** corrupted data reaches the application, which completes with
          a wrong result — the most dangerous case *)
  | App_crash  (** corrupted state makes the application abort *)
  | One_vm_failure  (** one guest VM crashes or hangs *)
  | All_vm_failure
      (** the control domain or global hypervisor state is corrupted:
          every VM is affected *)

type consequence =
  | Not_activated  (** the flipped register was overwritten before use *)
  | Masked  (** activated, but architectural outputs match the golden run *)
  | Short_latency of short_kind
  | Long_latency of long_kind

val manifested : consequence -> bool
(** Did the fault cause a failure or data corruption?  (The paper's
    "~17,700 of 30,000 injections caused failures or data
    corruptions".) *)

type undetected_class =
  | Mis_classify  (** signature differed but the tree accepted it *)
  | Stack_values  (** corrupted values pushed to / popped from the stack *)
  | Time_values  (** corrupted time computations (Table II's 53%) *)
  | Other_values

type record = {
  fault : Fault.t;
  reason : Xentry_vmm.Exit_reason.t;
  activated : bool;
  consequence : consequence;
  verdict : Xentry_core.Pipeline.verdict;
  latency : int option;
      (** instructions from activation to detection, for detected
          activated faults *)
  undetected : undetected_class option;
      (** set only for manifested, undetected faults *)
  signature : Xentry_machine.Pmu.snapshot option;
      (** the faulted execution's performance-counter signature, when
          it reached VM entry (the VM-transition detector's input and
          the training pipeline's raw material) *)
  golden_signature : Xentry_machine.Pmu.snapshot;
      (** the fault-free execution's signature from the same state *)
}

val consequence_name : consequence -> string
val short_name : short_kind -> string
val long_name : long_kind -> string
val undetected_name : undetected_class -> string

val pp : Format.formatter -> record -> unit
