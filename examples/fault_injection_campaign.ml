(* A fault-injection campaign in miniature: the paper's Fig 8 / Fig 10
   pipeline on one benchmark, with per-technique attribution, latency
   statistics and the undetected-fault breakdown.

   Run with:  dune exec examples/fault_injection_campaign.exe [-- N]
   where N is the number of injections (default 2,000). *)

open Xentry_util
open Xentry_core
open Xentry_faultinject

let () =
  let injections =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2_000
  in
  Printf.printf "training a detector, then injecting %d single-bit faults into\n\
                 hypervisor executions under the canneal workload...\n\n%!"
    injections;
  let train =
    Training.collect ~seed:11
      ~benchmarks:[ Xentry_workload.Profile.Canneal; Xentry_workload.Profile.Postmark ]
      ~mode:Xentry_workload.Profile.PV ~injections_per_benchmark:1200
      ~fault_free_per_benchmark:400 ()
  in
  let test =
    Training.collect ~seed:12
      ~benchmarks:[ Xentry_workload.Profile.Canneal ]
      ~mode:Xentry_workload.Profile.PV ~injections_per_benchmark:400
      ~fault_free_per_benchmark:100 ()
  in
  let detector = Training.detector (Training.train_and_evaluate ~train ~test ()) in
  let records =
    Campaign.execute
      (Campaign.Config.make ~detector
         ~benchmark:Xentry_workload.Profile.Canneal ~injections ~seed:3 ())
  in
  let s = Report.summarize records in

  Printf.printf "injections: %d  activated: %d  manifested: %d\n"
    s.Report.total_injections s.Report.activated s.Report.manifested;
  Printf.printf "coverage of manifested faults: %.1f%%\n\n"
    (100.0 *. s.Report.coverage);

  print_endline "detection technique breakdown (Fig 8 shape):";
  List.iter
    (fun (name, pct) -> Printf.printf "  %-26s %5.1f%%\n" name pct)
    (Report.technique_percentages s);

  print_endline "\nlong-latency errors by consequence (Fig 9 shape):";
  List.iter
    (fun (kind, detected, undetected) ->
      Printf.printf "  %-16s %3d detected / %3d total\n" (Outcome.long_name kind)
        detected (detected + undetected))
    s.Report.long_latency_by_consequence;

  print_endline "\ndetection latency (Fig 10 shape):";
  List.iter
    (fun (technique, latencies) ->
      if Array.length latencies > 0 then begin
        let fl = Array.map float_of_int latencies in
        Printf.printf "  %-26s n=%-5d median=%-7.0f p95=%.0f instructions\n"
          (Pipeline.technique_name technique)
          (Array.length latencies) (Stats.median fl) (Stats.quantile fl 0.95)
      end)
    s.Report.latencies_by_technique;

  print_endline "\nundetected faults (Table II shape):";
  List.iter
    (fun (name, pct) -> Printf.printf "  %-14s %5.1f%%\n" name pct)
    (Report.undetected_percentages s)
