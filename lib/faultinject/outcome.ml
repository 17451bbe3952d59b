type short_kind = Hv_crash | Hv_hang

type long_kind = App_sdc | App_crash | One_vm_failure | All_vm_failure

type consequence =
  | Not_activated
  | Masked
  | Short_latency of short_kind
  | Long_latency of long_kind

let manifested = function
  | Not_activated | Masked -> false
  | Short_latency _ | Long_latency _ -> true

type undetected_class = Mis_classify | Stack_values | Time_values | Other_values

type record = {
  fault : Fault.t;
  reason : Xentry_vmm.Exit_reason.t;
  activated : bool;
  consequence : consequence;
  verdict : Xentry_core.Pipeline.verdict;
  latency : int option;
  undetected : undetected_class option;
  signature : Xentry_machine.Pmu.snapshot option;
  golden_signature : Xentry_machine.Pmu.snapshot;
}

let short_name = function Hv_crash -> "hypervisor crash" | Hv_hang -> "hypervisor hang"

let long_name = function
  | App_sdc -> "APP SDC"
  | App_crash -> "APP Crash"
  | One_vm_failure -> "One VM Failure"
  | All_vm_failure -> "All VM Failure"

let consequence_name = function
  | Not_activated -> "not activated"
  | Masked -> "masked"
  | Short_latency k -> short_name k
  | Long_latency k -> long_name k

let undetected_name = function
  | Mis_classify -> "Mis-Classify"
  | Stack_values -> "Stack Values"
  | Time_values -> "Time Values"
  | Other_values -> "Other Values"

let pp ppf r =
  Format.fprintf ppf "%a in %s: %s, %a" Fault.pp r.fault
    (Xentry_vmm.Exit_reason.name r.reason)
    (consequence_name r.consequence)
    Xentry_core.Pipeline.pp_verdict r.verdict
