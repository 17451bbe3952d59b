open Xentry_machine
open Xentry_vmm

type technique = Hw_exception_detection | Sw_assertion | Vm_transition | Ras_report

type detection = {
  hw_exceptions : bool;
  sw_assertions : bool;
  vm_transition : bool;
  ras_polling : bool;
}

let full_detection =
  {
    hw_exceptions = true;
    sw_assertions = true;
    vm_transition = true;
    ras_polling = true;
  }

let runtime_only = { full_detection with vm_transition = false }

let detection_disabled =
  {
    hw_exceptions = false;
    sw_assertions = false;
    vm_transition = false;
    ras_polling = false;
  }

type verdict =
  | Clean
  | Detected of { technique : technique; latency : int option }

let technique_name = function
  | Hw_exception_detection -> "H/W Exception"
  | Sw_assertion -> "S/W Assertion"
  | Vm_transition -> "VM Transition Detection"
  | Ras_report -> "RAS Error Record"

let pp_verdict ppf = function
  | Clean -> Format.pp_print_string ppf "clean"
  | Detected { technique; latency } ->
      Format.fprintf ppf "detected by %s%s" (technique_name technique)
        (match latency with
        | Some l -> Printf.sprintf " (latency %d instructions)" l
        | None -> "")

module Config = struct
  type t = { detection : detection; detector : Detector.t option; fuel : int }

  let default = { detection = full_detection; detector = None; fuel = 20_000 }

  let make ?(detection = full_detection) ?detector ?(fuel = 20_000) () =
    { detection; detector; fuel }
end

let verdict (cfg : Config.t) ?(ras = []) ~reason (result : Cpu.run_result) =
  let detection = cfg.Config.detection in
  let latency = Cpu.detection_latency result in
  (* RAS polling is the hypervisor's last-resort channel: it fires
     only when no synchronous technique claimed the run.  A fault
     that both logged a record and raised #PF is attributed to the
     exception (the record is redundant diagnosis, not detection). *)
  let ras_check base =
    match base with
    | Detected _ -> base
    | Clean ->
        if detection.ras_polling && ras <> [] then
          Detected { technique = Ras_report; latency }
        else Clean
  in
  ras_check
  @@
  match result.Cpu.stop with
  | Cpu.Hw_fault { exn; _ } ->
      (* The filter context follows the execution being serviced:
         handlers for trapped guest exceptions run in Guest_servicing,
         where #PF/#GP and friends are legal; every other exit reason
         executes in Host_mode (exception_filter.mli). *)
      if
        detection.hw_exceptions
        && Exception_filter.is_detection exn
             (Exception_filter.context_of_reason reason)
      then Detected { technique = Hw_exception_detection; latency }
      else Clean
  | Cpu.Out_of_fuel ->
      (* A hung hypervisor execution trips the watchdog NMI: hardware
         detection with a long latency. *)
      if detection.hw_exceptions then
        Detected { technique = Hw_exception_detection; latency }
      else Clean
  | Cpu.Assertion_failure _ ->
      if detection.sw_assertions then
        Detected { technique = Sw_assertion; latency }
      else Clean
  | Cpu.Halted -> Clean
  | Cpu.Vm_entry -> (
      match (detection.vm_transition, cfg.Config.detector) with
      | true, Some det -> (
          match Detector.classify det ~reason result.Cpu.final_pmu with
          | Transition_detector.Incorrect, _ ->
              Detected { technique = Vm_transition; latency }
          | Transition_detector.Correct, _ -> Clean)
      | _ -> Clean)

let create_host ?seed (_ : Config.t) = Hypervisor.create ?seed ()

type outcome = { result : Cpu.run_result; verdict : verdict }

let run (cfg : Config.t) ~host ?(prepare = true) ?(retire = false) ?inject
    (req : Request.t) =
  Hypervisor.set_assertions_enabled host cfg.Config.detection.sw_assertions;
  if prepare then Hypervisor.prepare host req;
  let result = Hypervisor.execute host ?inject ~fuel:cfg.Config.fuel req in
  let ras = Hypervisor.drain_ras host in
  let verdict = verdict cfg ~ras ~reason:req.Request.reason result in
  if retire then Hypervisor.retire host req;
  { result; verdict }
