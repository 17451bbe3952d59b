(* Telemetry smoke test (runtest alias `telemetry-smoke`).

   Runs a small fault-injection campaign with telemetry enabled at
   jobs=1 and jobs=4 and checks that:

   - the campaign records are bit-identical across worker counts
     (telemetry must never perturb results);
   - the exported JSONL is well-formed (every line a JSON object,
     meta line first with the expected schema tag);
   - the export covers the metric families the ISSUE names:
     exit-reason counters, TLB hit/miss counters, per-shard wall
     times and detector comparison histograms. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A tiny decision tree (incorrect iff RT > 100), enough to exercise
   the detector path and its comparison histogram. *)
let toy_detector () =
  let open Xentry_mlearn in
  let samples =
    List.concat
      [
        List.init 30 (fun i ->
            { Dataset.features = [| 0.0; 50.0 +. float_of_int i; 5.0; 5.0; 5.0 |];
              label = 0 });
        List.init 30 (fun i ->
            { Dataset.features = [| 0.0; 150.0 +. float_of_int i; 5.0; 5.0; 5.0 |];
              label = 1 });
      ]
  in
  let tree =
    Tree.train
      (Dataset.create ~feature_names:Xentry_core.Features.names ~n_classes:2
         samples)
  in
  Xentry_core.Detector.make ~version:0
    (Xentry_core.Transition_detector.of_tree tree)

let () =
  let module Tm = Xentry_util.Telemetry in
  let detector = toy_detector () in
  let config =
    Xentry_faultinject.Campaign.Config.make ~detector
      ~benchmark:Xentry_workload.Profile.Postmark ~injections:250 ~seed:23 ()
  in
  (* Baseline without telemetry, then telemetry-enabled runs at two
     worker counts: all three must agree exactly. *)
  let with_jobs j = { config with Xentry_faultinject.Campaign.jobs = Some j } in
  let baseline = Xentry_faultinject.Campaign.execute (with_jobs 1) in
  Tm.enable ();
  let r1 = Xentry_faultinject.Campaign.execute (with_jobs 1) in
  let r4 = Xentry_faultinject.Campaign.execute (with_jobs 4) in
  let path = Filename.temp_file "xentry_telemetry_smoke" ".jsonl" in
  Tm.export_file path;
  Tm.disable ();
  if r1 <> baseline then fail "telemetry-enabled records differ from baseline";
  if r4 <> baseline then fail "jobs=4 records differ from jobs=1";
  let lines = read_lines path in
  (match lines with
  | [] -> fail "telemetry export is empty"
  | meta :: _ ->
      if not (contains meta "\"type\": \"meta\"") then
        fail "first line is not a meta record: %s" meta;
      if not (contains meta "xentry-telemetry-v1") then
        fail "meta line missing schema tag: %s" meta);
  List.iteri
    (fun i line ->
      let n = String.length line in
      if n < 2 || line.[0] <> '{' || line.[n - 1] <> '}' then
        fail "line %d is not a JSON object: %s" (i + 1) line)
    lines;
  let all = String.concat "\n" lines in
  List.iter
    (fun name ->
      if not (contains all ("\"" ^ name ^ "\"")) then
        fail "export missing metric %S" name)
    [ "hv.exit.softirq"; "hv.steps";
      "memory.tlb.read.hit"; "memory.tlb.read.miss";
      "memory.tlb.write.hit"; "memory.tlb.write.miss";
      "campaign.shard.ns"; "campaign.run.ns"; "campaign.shard";
      "detector.comparisons"; "pool.item.ns" ];
  Sys.remove path;
  Printf.printf "telemetry-smoke OK: %d records, %d JSONL lines\n"
    (List.length baseline) (List.length lines)
