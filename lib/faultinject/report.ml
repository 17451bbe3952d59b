open Xentry_core

type technique_counts = {
  hw_exception : int;
  sw_assertion : int;
  vm_transition : int;
  ras_report : int;
  undetected : int;
}

type summary = {
  total_injections : int;
  activated : int;
  manifested : int;
  techniques : technique_counts;
  coverage : float;
  long_latency_by_consequence :
    (Outcome.long_kind * int * int) list;
  latencies_by_technique : (Pipeline.technique * int array) list;
  undetected_breakdown : (Outcome.undetected_class * int) list;
}

let coverage_of t =
  let detected = t.hw_exception + t.sw_assertion + t.vm_transition + t.ras_report in
  let total = detected + t.undetected in
  if total = 0 then 0.0 else float_of_int detected /. float_of_int total

let summarize records =
  let manifested_records =
    List.filter (fun r -> Outcome.manifested r.Outcome.consequence) records
  in
  let techniques =
    List.fold_left
      (fun acc r ->
        match r.Outcome.verdict with
        | Pipeline.Detected { technique = Pipeline.Hw_exception_detection; _ }
          ->
            { acc with hw_exception = acc.hw_exception + 1 }
        | Pipeline.Detected { technique = Pipeline.Sw_assertion; _ } ->
            { acc with sw_assertion = acc.sw_assertion + 1 }
        | Pipeline.Detected { technique = Pipeline.Vm_transition; _ } ->
            { acc with vm_transition = acc.vm_transition + 1 }
        | Pipeline.Detected { technique = Pipeline.Ras_report; _ } ->
            { acc with ras_report = acc.ras_report + 1 }
        | Pipeline.Clean -> { acc with undetected = acc.undetected + 1 })
      {
        hw_exception = 0;
        sw_assertion = 0;
        vm_transition = 0;
        ras_report = 0;
        undetected = 0;
      }
      manifested_records
  in
  let long_latency_by_consequence =
    List.map
      (fun kind ->
        let of_kind =
          List.filter
            (fun r -> r.Outcome.consequence = Outcome.Long_latency kind)
            manifested_records
        in
        let detected =
          List.length
            (List.filter (fun r -> r.Outcome.verdict <> Pipeline.Clean) of_kind)
        in
        (kind, detected, List.length of_kind - detected))
      [
        Outcome.App_sdc; Outcome.App_crash; Outcome.All_vm_failure;
        Outcome.One_vm_failure;
      ]
  in
  let latencies_by_technique =
    List.map
      (fun technique ->
        let ls =
          List.filter_map
            (fun r ->
              match (r.Outcome.verdict, r.Outcome.latency) with
              | Pipeline.Detected { technique = t; _ }, Some l
                when t = technique ->
                  Some l
              | _ -> None)
            manifested_records
        in
        (technique, Array.of_list ls))
      [
        Pipeline.Hw_exception_detection; Pipeline.Sw_assertion;
        Pipeline.Vm_transition; Pipeline.Ras_report;
      ]
  in
  let undetected_breakdown =
    List.map
      (fun cls ->
        ( cls,
          List.length
            (List.filter (fun r -> r.Outcome.undetected = Some cls)
               manifested_records) ))
      [
        Outcome.Mis_classify; Outcome.Stack_values; Outcome.Time_values;
        Outcome.Other_values;
      ]
  in
  {
    total_injections = List.length records;
    activated = List.length (List.filter (fun r -> r.Outcome.activated) records);
    manifested = List.length manifested_records;
    techniques;
    coverage = coverage_of techniques;
    long_latency_by_consequence;
    latencies_by_technique;
    undetected_breakdown;
  }

let pct part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let technique_percentages s =
  let t = s.techniques in
  [
    ("H/W Exception", pct t.hw_exception s.manifested);
    ("S/W Assertion", pct t.sw_assertion s.manifested);
    ("VM Transition Detection", pct t.vm_transition s.manifested);
    ("RAS Error Record", pct t.ras_report s.manifested);
    ("Undetected", pct t.undetected s.manifested);
  ]

let undetected_percentages s =
  let total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 s.undetected_breakdown
  in
  List.map
    (fun (cls, n) -> (Outcome.undetected_name cls, pct n total))
    s.undetected_breakdown

let latency_fraction_below s technique bound =
  match List.assoc_opt technique s.latencies_by_technique with
  | None | Some [||] -> 0.0
  | Some ls ->
      let below = Array.fold_left (fun acc l -> if l < bound then acc + 1 else acc) 0 ls in
      float_of_int below /. float_of_int (Array.length ls)

let pp ppf s =
  Format.fprintf ppf
    "@[<v>injections=%d activated=%d manifested=%d coverage=%.1f%%@ \
     hw=%d sw=%d vt=%d ras=%d undetected=%d@]"
    s.total_injections s.activated s.manifested (100.0 *. s.coverage)
    s.techniques.hw_exception s.techniques.sw_assertion
    s.techniques.vm_transition s.techniques.ras_report s.techniques.undetected

(* Per-fault-class summaries, in [Fault.all_classes] order, for the
   classes that actually appear in the record set. *)
let by_class records =
  Array.to_list Fault.all_classes
  |> List.filter_map (fun c ->
         match
           List.filter (fun r -> Fault.cls_of r.Outcome.fault = c) records
         with
         | [] -> None
         | rs -> Some (c, summarize rs))
