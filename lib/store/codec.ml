open Xentry_mlearn
open Xentry_core
open Xentry_faultinject
module W = Wire

type 'a t = {
  kind : string;
  version : int;
  write : Buffer.t -> 'a -> unit;
  read : W.reader -> 'a;
}

(* Validation helpers: codec readers may only raise Wire.Corrupt, so
   constructor-side Invalid_argument (Tree.of_parts, Forest.of_trees...)
   is rewrapped. *)
let guard f =
  try f () with Invalid_argument msg | Failure msg -> W.corrupt msg

(* --- enumerations ----------------------------------------------------- *)

let write_arch buf (target : Xentry_isa.Reg.arch) =
  let n = Array.length Xentry_isa.Reg.all_arch in
  let rec find i =
    if i >= n then invalid_arg "Codec.write_arch: unknown register"
    else if Xentry_isa.Reg.all_arch.(i) = target then i
    else find (i + 1)
  in
  W.u8 buf (find 0)

let read_arch r =
  let i = W.read_u8 r in
  if i >= Array.length Xentry_isa.Reg.all_arch then
    W.corrupt (Printf.sprintf "bad register index %d" i)
  else Xentry_isa.Reg.all_arch.(i)

let write_reason buf reason = W.u16 buf (Xentry_vmm.Exit_reason.to_id reason)

let read_reason r =
  let id = W.read_u16 r in
  match Xentry_vmm.Exit_reason.of_id id with
  | Some reason -> reason
  | None -> W.corrupt (Printf.sprintf "bad exit-reason id %d" id)

(* --- PMU snapshots ---------------------------------------------------- *)

let write_snapshot buf (s : Xentry_machine.Pmu.snapshot) =
  W.int_ buf s.Xentry_machine.Pmu.inst;
  W.int_ buf s.Xentry_machine.Pmu.branches;
  W.int_ buf s.Xentry_machine.Pmu.loads;
  W.int_ buf s.Xentry_machine.Pmu.stores

let read_snapshot r =
  let inst = W.read_int r in
  let branches = W.read_int r in
  let loads = W.read_int r in
  let stores = W.read_int r in
  { Xentry_machine.Pmu.inst; branches; loads; stores }

(* --- outcome records -------------------------------------------------- *)

let write_consequence buf (c : Outcome.consequence) =
  W.u8 buf
    (match c with
    | Outcome.Not_activated -> 0
    | Outcome.Masked -> 1
    | Outcome.Short_latency Outcome.Hv_crash -> 2
    | Outcome.Short_latency Outcome.Hv_hang -> 3
    | Outcome.Long_latency Outcome.App_sdc -> 4
    | Outcome.Long_latency Outcome.App_crash -> 5
    | Outcome.Long_latency Outcome.One_vm_failure -> 6
    | Outcome.Long_latency Outcome.All_vm_failure -> 7)

let read_consequence r : Outcome.consequence =
  match W.read_u8 r with
  | 0 -> Outcome.Not_activated
  | 1 -> Outcome.Masked
  | 2 -> Outcome.Short_latency Outcome.Hv_crash
  | 3 -> Outcome.Short_latency Outcome.Hv_hang
  | 4 -> Outcome.Long_latency Outcome.App_sdc
  | 5 -> Outcome.Long_latency Outcome.App_crash
  | 6 -> Outcome.Long_latency Outcome.One_vm_failure
  | 7 -> Outcome.Long_latency Outcome.All_vm_failure
  | n -> W.corrupt (Printf.sprintf "bad consequence tag %d" n)

let write_technique buf (t : Pipeline.technique) =
  W.u8 buf
    (match t with
    | Pipeline.Hw_exception_detection -> 0
    | Pipeline.Sw_assertion -> 1
    | Pipeline.Vm_transition -> 2
    | Pipeline.Ras_report -> 3)

let read_technique r : Pipeline.technique =
  match W.read_u8 r with
  | 0 -> Pipeline.Hw_exception_detection
  | 1 -> Pipeline.Sw_assertion
  | 2 -> Pipeline.Vm_transition
  | 3 -> Pipeline.Ras_report
  | n -> W.corrupt (Printf.sprintf "bad technique tag %d" n)

let write_verdict buf (v : Pipeline.verdict) =
  match v with
  | Pipeline.Clean -> W.u8 buf 0
  | Pipeline.Detected { technique; latency } ->
      W.u8 buf 1;
      write_technique buf technique;
      W.opt W.int_ buf latency

let read_verdict r : Pipeline.verdict =
  match W.read_u8 r with
  | 0 -> Pipeline.Clean
  | 1 ->
      let technique = read_technique r in
      let latency = W.read_opt W.read_int r in
      Pipeline.Detected { technique; latency }
  | n -> W.corrupt (Printf.sprintf "bad verdict tag %d" n)

let write_undetected buf (u : Outcome.undetected_class) =
  W.u8 buf
    (match u with
    | Outcome.Mis_classify -> 0
    | Outcome.Stack_values -> 1
    | Outcome.Time_values -> 2
    | Outcome.Other_values -> 3)

let read_undetected r : Outcome.undetected_class =
  match W.read_u8 r with
  | 0 -> Outcome.Mis_classify
  | 1 -> Outcome.Stack_values
  | 2 -> Outcome.Time_values
  | 3 -> Outcome.Other_values
  | n -> W.corrupt (Printf.sprintf "bad undetected-class tag %d" n)

let write_cls buf (c : Fault.cls) =
  W.u8 buf
    (match c with
    | Fault.Reg_single_bit -> 0
    | Fault.Reg_multi_bit -> 1
    | Fault.Set_transient -> 2
    | Fault.Mem_word -> 3
    | Fault.Tlb_entry -> 4
    | Fault.Page_table_entry -> 5)

let read_cls r : Fault.cls =
  match W.read_u8 r with
  | 0 -> Fault.Reg_single_bit
  | 1 -> Fault.Reg_multi_bit
  | 2 -> Fault.Set_transient
  | 3 -> Fault.Mem_word
  | 4 -> Fault.Tlb_entry
  | 5 -> Fault.Page_table_entry
  | n -> W.corrupt (Printf.sprintf "bad fault-class tag %d" n)

let write_fault_target buf (t : Fault.target) =
  match t with
  | Fault.Reg a ->
      W.u8 buf 0;
      write_arch buf a
  | Fault.Mem a ->
      W.u8 buf 1;
      W.i64 buf a
  | Fault.Tlb p ->
      W.u8 buf 2;
      W.i64 buf p
  | Fault.Pte a ->
      W.u8 buf 3;
      W.i64 buf a

let read_fault_target r : Fault.target =
  match W.read_u8 r with
  | 0 -> Fault.Reg (read_arch r)
  | 1 -> Fault.Mem (W.read_i64 r)
  | 2 -> Fault.Tlb (W.read_i64 r)
  | 3 -> Fault.Pte (W.read_i64 r)
  | n -> W.corrupt (Printf.sprintf "bad fault-target tag %d" n)

let write_fault buf (f : Fault.t) =
  write_cls buf f.Fault.cls;
  write_fault_target buf f.Fault.target;
  W.u8 buf f.Fault.bit;
  W.u8 buf f.Fault.width;
  W.opt W.int_ buf f.Fault.window;
  W.int_ buf f.Fault.step

let read_fault r : Fault.t =
  let cls = read_cls r in
  let target = read_fault_target r in
  let bit = W.read_u8 r in
  if bit > 63 then W.corrupt (Printf.sprintf "bad fault bit %d" bit);
  let width = W.read_u8 r in
  if width < 1 || bit + width > 64 then
    W.corrupt (Printf.sprintf "bad fault width %d (bit %d)" width bit);
  let window = W.read_opt W.read_int r in
  let step = W.read_int r in
  { Fault.cls; target; bit; width; window; step }

let write_record buf (rec_ : Outcome.record) =
  write_fault buf rec_.Outcome.fault;
  write_reason buf rec_.Outcome.reason;
  W.bool_ buf rec_.Outcome.activated;
  write_consequence buf rec_.Outcome.consequence;
  write_verdict buf rec_.Outcome.verdict;
  W.opt W.int_ buf rec_.Outcome.latency;
  W.opt write_undetected buf rec_.Outcome.undetected;
  W.opt write_snapshot buf rec_.Outcome.signature;
  write_snapshot buf rec_.Outcome.golden_signature

let read_record r : Outcome.record =
  let fault = read_fault r in
  let reason = read_reason r in
  let activated = W.read_bool r in
  let consequence = read_consequence r in
  let verdict = read_verdict r in
  let latency = W.read_opt W.read_int r in
  let undetected = W.read_opt read_undetected r in
  let signature = W.read_opt read_snapshot r in
  let golden_signature = read_snapshot r in
  {
    Outcome.fault;
    reason;
    activated;
    consequence;
    verdict;
    latency;
    undetected;
    signature;
    golden_signature;
  }

let outcome_records =
  {
    kind = "records";
    (* v2: tagged fault classes (class, target variant, width, SET
       window) replace the v1 register-only (target, bit, step)
       prefix; detection verdicts gained the Ras_report technique. *)
    version = 2;
    write = (fun buf records -> W.list_ write_record buf records);
    read = (fun r -> W.read_list read_record r);
  }

(* --- trees and forests ------------------------------------------------ *)

let rec write_node buf (node : Tree.node) =
  match node with
  | Tree.Leaf { label; confidence; population } ->
      W.u8 buf 0;
      W.u16 buf label;
      W.f64 buf confidence;
      W.int_ buf population
  | Tree.Split { feature; threshold; low; high } ->
      W.u8 buf 1;
      W.u16 buf feature;
      W.f64 buf threshold;
      write_node buf low;
      write_node buf high

let rec read_node r : Tree.node =
  match W.read_u8 r with
  | 0 ->
      let label = W.read_u16 r in
      let confidence = W.read_f64 r in
      let population = W.read_int r in
      Tree.Leaf { label; confidence; population }
  | 1 ->
      let feature = W.read_u16 r in
      let threshold = W.read_f64 r in
      let low = read_node r in
      let high = read_node r in
      Tree.Split { feature; threshold; low; high }
  | n -> W.corrupt (Printf.sprintf "bad tree-node tag %d" n)

let write_tree buf (t : Tree.t) =
  W.array_ W.str buf t.Tree.feature_names;
  W.u16 buf t.Tree.n_classes;
  write_node buf t.Tree.root

let read_tree r =
  let feature_names = W.read_array W.read_str r in
  let n_classes = W.read_u16 r in
  let root = read_node r in
  guard (fun () -> Tree.of_parts ~root ~feature_names ~n_classes)

let write_forest buf f =
  W.u16 buf (Forest.n_classes f);
  W.array_ write_tree buf (Forest.trees f)

let read_forest r =
  let n_classes = W.read_u16 r in
  let members = W.read_array read_tree r in
  guard (fun () -> Forest.of_trees ~n_classes members)

(* --- deployed detectors ----------------------------------------------- *)

let write_detector buf det =
  match Transition_detector.classifier det with
  | Transition_detector.Single_tree t ->
      W.u8 buf 0;
      write_tree buf t
  | Transition_detector.Ensemble f ->
      W.u8 buf 1;
      write_forest buf f
  | Transition_detector.Thresholded (t, threshold) ->
      W.u8 buf 2;
      write_tree buf t;
      W.f64 buf threshold

let read_detector r =
  match W.read_u8 r with
  | 0 -> Transition_detector.of_tree (read_tree r)
  | 1 -> Transition_detector.create (Transition_detector.Ensemble (read_forest r))
  | 2 ->
      let t = read_tree r in
      let threshold = W.read_f64 r in
      guard (fun () ->
          Transition_detector.with_threshold t
            ~min_incorrect_probability:threshold)
  | n -> W.corrupt (Printf.sprintf "bad classifier tag %d" n)

(* Versioned detector (lifecycle metadata + model).  Frame version 2:
   version 1 framed the bare model, so a version-1 file reports
   [Version_skew] instead of misparsing. *)

let write_versioned_detector buf (d : Detector.t) =
  W.int_ buf (Detector.version d);
  W.u8 buf (match Detector.origin d with Detector.Offline -> 0 | Detector.Streamed -> 1);
  W.int_ buf (Detector.trained_on d);
  write_detector buf (Detector.model d)

let read_versioned_detector r =
  let version = W.read_int r in
  let origin =
    match W.read_u8 r with
    | 0 -> Detector.Offline
    | 1 -> Detector.Streamed
    | n -> W.corrupt (Printf.sprintf "bad detector-origin tag %d" n)
  in
  let trained_on = W.read_int r in
  let model = read_detector r in
  guard (fun () -> Detector.make ~version ~origin ~trained_on model)

let versioned_detector =
  {
    kind = "detector";
    version = 2;
    write = write_versioned_detector;
    read = read_versioned_detector;
  }

(* --- Pareto fronts ----------------------------------------------------- *)

let write_detection_set buf (d : Pipeline.detection) =
  W.bool_ buf d.Pipeline.hw_exceptions;
  W.bool_ buf d.Pipeline.sw_assertions;
  W.bool_ buf d.Pipeline.vm_transition;
  W.bool_ buf d.Pipeline.ras_polling

let read_detection_set r =
  let hw_exceptions = W.read_bool r in
  let sw_assertions = W.read_bool r in
  let vm_transition = W.read_bool r in
  let ras_polling = W.read_bool r in
  { Pipeline.hw_exceptions; sw_assertions; vm_transition; ras_polling }

let write_knob buf = function
  | Detector.Stock -> W.u8 buf 0
  | Detector.Depth d ->
      W.u8 buf 1;
      W.int_ buf d
  | Detector.Threshold tau ->
      W.u8 buf 2;
      W.f64 buf tau

let read_knob r =
  match W.read_u8 r with
  | 0 -> Detector.Stock
  | 1 -> Detector.Depth (W.read_int r)
  | 2 -> Detector.Threshold (W.read_f64 r)
  | n -> W.corrupt (Printf.sprintf "bad knob tag %d" n)

let write_pareto_point buf (p : Pareto.point) =
  W.str buf p.Pareto.label;
  write_detection_set buf p.Pareto.detection;
  write_knob buf p.Pareto.knob;
  W.f64 buf p.Pareto.coverage;
  W.f64 buf p.Pareto.fp_rate;
  W.f64 buf p.Pareto.overhead;
  W.int_ buf p.Pareto.comparisons

let read_pareto_point r : Pareto.point =
  let label = W.read_str r in
  let detection = read_detection_set r in
  let knob = read_knob r in
  let coverage = W.read_f64 r in
  let fp_rate = W.read_f64 r in
  let overhead = W.read_f64 r in
  let comparisons = W.read_int r in
  { Pareto.label; detection; knob; coverage; fp_rate; overhead; comparisons }

let write_pareto buf (f : Pareto.front) =
  W.int_ buf f.Pareto.source_version;
  W.list_ write_pareto_point buf f.Pareto.points

let read_pareto r : Pareto.front =
  let source_version = W.read_int r in
  let points = W.read_list read_pareto_point r in
  { Pareto.source_version; points }

let pareto =
  { kind = "pareto"; version = 1; write = write_pareto; read = read_pareto }
