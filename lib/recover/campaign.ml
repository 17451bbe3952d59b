open Xentry_machine
open Xentry_vmm
open Xentry_core
module Profile = Xentry_workload.Profile
module Fault = Xentry_faultinject.Fault
module Classify = Xentry_faultinject.Classify
module Rng = Xentry_util.Rng
module Stats = Xentry_util.Stats
module Clock = Xentry_util.Clock

type config = {
  seed : int;
  benchmark : Profile.benchmark;
  injections : int;
  follow_ups : int;
  pipeline : Pipeline.Config.t;
}

let default_config =
  {
    seed = 7;
    benchmark = Profile.Mcf;
    injections = 1000;
    follow_ups = 2;
    pipeline = Pipeline.Config.default;
  }

type fault_class =
  | Detected_hw
  | Detected_assertion
  | Detected_transition
  | Undetected_manifested
  | Masked

let all_classes =
  [| Detected_hw; Detected_assertion; Detected_transition;
     Undetected_manifested; Masked |]

let class_name = function
  | Detected_hw -> "detected/hw-exception"
  | Detected_assertion -> "detected/sw-assertion"
  | Detected_transition -> "detected/vm-transition"
  | Undetected_manifested -> "undetected-manifested"
  | Masked -> "masked"

let class_index = function
  | Detected_hw -> 0
  | Detected_assertion -> 1
  | Detected_transition -> 2
  | Undetected_manifested -> 3
  | Masked -> 4

type class_stats = {
  cls : fault_class;
  faults : int;
  checkpoint_recovered : int;
  recovered_exactly : int;
  mismatches : int;
  carryover : int;
}

type result = {
  injections : int;
  detected : int;
  undetected_manifested : int;
  masked : int;
  classes : class_stats list;
  checkpoint_work_recovered : int;
  micro_work_recovered : int;
  micro_work_lost : int;
  micro_state_lost : int;
  restart_work_lost : int;
  restart_state_lost : int;
  mttf_improvement : float;
  image_bytes : int;
  reboot_ns_mean : float;
  reboot_ns_p99 : float;
}

(* Bit-exact over the guest-visible surface.  The hypervisor stack is
   the one diff the partition allows: it is private scratch that a
   micro-rebooted host deliberately leaves boot-clean where a
   long-running golden host carries handler residue. *)
let guest_identical ~golden ~recovered =
  Classify.diffs ~golden ~faulted:recovered
  |> List.for_all (fun d -> d = Classify.Stack_diff)

let run (config : config) =
  let pcfg = config.pipeline in
  let fuel = pcfg.Pipeline.Config.fuel in
  let profile = Profile.get config.benchmark in
  let rng = Rng.create config.seed in
  let request_rng = Rng.split rng in
  let fault_rng = Rng.split rng in
  let host = Pipeline.create_host ~seed:(config.seed lxor 0xC0DE) pcfg in
  (* The golden clones below inherit the live host's assertion flag;
     pin it to the config now so golden, detection and replay runs all
     execute the same dynamic instruction stream. *)
  Hypervisor.set_assertions_enabled host
    pcfg.Pipeline.Config.detection.Pipeline.sw_assertions;
  let image = Microboot.capture_image host in
  let per_class =
    Array.map (fun _ -> (ref 0, ref 0, ref 0, ref 0, ref 0)) all_classes
  in
  let tally cls ~restored ~recovered ~mismatch ~carry =
    let faults, ck, ok, bad, co = per_class.(class_index cls) in
    incr faults;
    if restored then incr ck;
    if recovered then incr ok;
    if mismatch then incr bad;
    if carry then incr co
  in
  let tally_undetected cls =
    tally cls ~restored:false ~recovered:false ~mismatch:false ~carry:false
  in
  let detected = ref 0 in
  let checkpoint_work_recovered = ref 0 in
  let micro_work_recovered = ref 0 in
  let reboot_ns = ref [] in
  for i = 1 to config.injections do
    let req = Profile.sample_request profile Profile.PV request_rng in
    Hypervisor.prepare host req;
    let ctx = Microboot.capture host req in
    let golden = Hypervisor.clone host in
    let golden_result = Hypervisor.execute golden ~fuel req in
    let fault =
      Fault.sample fault_rng ~max_step:(max 1 golden_result.Cpu.steps)
    in
    let det_host = Hypervisor.clone host in
    let outcome =
      Pipeline.run pcfg ~host:det_host ~prepare:false
        ~inject:(Fault.to_injection fault) req
    in
    (match outcome.Pipeline.verdict with
    | Pipeline.Detected { technique; _ } ->
        incr detected;
        let cls =
          match technique with
          | Pipeline.Hw_exception_detection -> Detected_hw
          | Pipeline.Sw_assertion -> Detected_assertion
          | Pipeline.Vm_transition -> Detected_transition
          | Pipeline.Ras_report ->
              (* RAS-detected faults reach the recovery engine through
                 the same asynchronous-poll path as transition
                 detections: the execution itself completed. *)
              Detected_transition
        in
        (* The faulted host is dropped; both arms work from the
           pre-execution context.  Checkpoint arm first: the
           micro-reboot arm's follow-ups advance [golden]. *)
        let restored = Microboot.restore ctx in
        let reexec = Pipeline.run pcfg ~host:restored ~prepare:false req in
        let restored_ok =
          reexec.Pipeline.result.Cpu.stop = Cpu.Vm_entry
          && Classify.diffs ~golden ~faulted:restored = []
        in
        Hypervisor.release restored;
        if restored_ok then incr checkpoint_work_recovered;
        let t0 = Clock.monotonic () in
        let rebooted = Microboot.reboot image ctx in
        let replay = Pipeline.run pcfg ~host:rebooted ~prepare:false req in
        reboot_ns := (Clock.monotonic () -. t0) *. 1e9 :: !reboot_ns;
        let recovered =
          replay.Pipeline.result.Cpu.stop = Cpu.Vm_entry
          && guest_identical ~golden ~recovered:rebooted
        in
        if recovered then incr micro_work_recovered;
        (* Carryover: an exact-looking recovery that diverges on later
           fault-free work still corrupted state the diff surface at
           recovery time could not see. *)
        let carry =
          recovered && config.follow_ups > 0
          && begin
               Hypervisor.retire rebooted req;
               Hypervisor.retire golden req;
               let fu_rng = Rng.create (Rng.derive config.seed (0xF011 + i)) in
               let diverged = ref false in
               for _ = 1 to config.follow_ups do
                 if not !diverged then begin
                   let fu = Profile.sample_request profile Profile.PV fu_rng in
                   ignore (Hypervisor.handle rebooted fu : Cpu.run_result);
                   ignore (Hypervisor.handle golden fu : Cpu.run_result);
                   if not (guest_identical ~golden ~recovered:rebooted) then
                     diverged := true
                 end
               done;
               !diverged
             end
        in
        tally cls ~restored:restored_ok ~recovered ~mismatch:(not recovered)
          ~carry
    | Pipeline.Clean ->
        if
          outcome.Pipeline.result.Cpu.stop = Cpu.Vm_entry
          && Classify.diffs ~golden ~faulted:det_host <> []
        then tally_undetected Undetected_manifested
        else tally_undetected Masked);
    (* Advance the live host fault-free. *)
    ignore (Hypervisor.execute host ~fuel req : Cpu.run_result);
    Hypervisor.retire host req
  done;
  let classes =
    Array.to_list
      (Array.mapi
         (fun k cls ->
           let faults, ck, ok, bad, co = per_class.(k) in
           {
             cls;
             faults = !faults;
             checkpoint_recovered = !ck;
             recovered_exactly = !ok;
             mismatches = !bad;
             carryover = !co;
           })
         all_classes)
  in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 classes in
  let mismatches = sum (fun c -> c.mismatches) in
  let carryover = sum (fun c -> c.carryover) in
  let micro_state_lost = mismatches + carryover in
  let undetected_manifested =
    (List.nth classes (class_index Undetected_manifested)).faults
  in
  let masked = (List.nth classes (class_index Masked)).faults in
  let reboot_arr = Array.of_list !reboot_ns in
  {
    injections = config.injections;
    detected = !detected;
    undetected_manifested;
    masked;
    classes;
    checkpoint_work_recovered = !checkpoint_work_recovered;
    micro_work_recovered = !micro_work_recovered;
    micro_work_lost = !detected - !micro_work_recovered;
    micro_state_lost;
    restart_work_lost = !detected;
    restart_state_lost = !detected;
    mttf_improvement =
      (if micro_state_lost = 0 then Float.infinity
       else float_of_int !detected /. float_of_int micro_state_lost);
    image_bytes = Microboot.image_bytes image;
    reboot_ns_mean =
      (if Array.length reboot_arr = 0 then 0.0 else Stats.mean reboot_arr);
    reboot_ns_p99 =
      (if Array.length reboot_arr = 0 then 0.0
       else Stats.quantile reboot_arr 0.99);
  }

let pp ppf r =
  Format.fprintf ppf
    "injections=%d detected=%d checkpoint_recovered=%d micro_recovered=%d \
     lost=%d state_lost=%d undetected_manifested=%d masked=%d \
     mttf_improvement=%s image=%dB reboot_mean=%.0fns"
    r.injections r.detected r.checkpoint_work_recovered r.micro_work_recovered
    r.micro_work_lost r.micro_state_lost r.undetected_manifested r.masked
    (if r.mttf_improvement = Float.infinity then "inf"
     else Printf.sprintf "%.1fx" r.mttf_improvement)
    r.image_bytes r.reboot_ns_mean

let to_json ~benchmark r =
  let open Xentry_util.Json in
  let class_json c =
    Obj
      [ ("class", String (class_name c.cls)); ("faults", Int c.faults);
        ("checkpoint_recovered", Int c.checkpoint_recovered);
        ("recovered_exactly", Int c.recovered_exactly);
        ("mismatches", Int c.mismatches); ("carryover", Int c.carryover) ]
  in
  Obj
    [ ("schema", String "xentry-recover-v2");
      ("benchmark", String (Profile.benchmark_name benchmark));
      ("injections", Int r.injections); ("detected", Int r.detected);
      ("undetected_manifested", Int r.undetected_manifested);
      ("masked", Int r.masked);
      ("checkpoint_work_recovered", Int r.checkpoint_work_recovered);
      ("micro_work_recovered", Int r.micro_work_recovered);
      ("micro_work_lost", Int r.micro_work_lost);
      ("micro_state_lost", Int r.micro_state_lost);
      ("restart_work_lost", Int r.restart_work_lost);
      ("restart_state_lost", Int r.restart_state_lost);
      ("mttf_improvement", Float r.mttf_improvement);
      ("image_bytes", Int r.image_bytes);
      ("reboot_ns_mean", Float r.reboot_ns_mean);
      ("reboot_ns_p99", Float r.reboot_ns_p99);
      ("classes", List (List.map class_json r.classes)) ]
