(* Prune smoke check: a small campaign over all six fault classes, run
   exhaustive and planned, diffed record by record.  Any divergence
   prints the first mismatching index with both records and exits
   non-zero.  This is the planner invariant (pruned and fast-forwarded
   campaigns are verdict-identical to exhaustive ones) exercised
   end-to-end, cheap enough to run on every `dune runtest`.  It also
   bounds how many records the planned run simulates, so a planner
   that quietly stops pruning fails too. *)

open Xentry_faultinject

let config ~prune =
  Campaign.Config.make ~jobs:2 ~benchmark:Xentry_workload.Profile.Postmark
    ~fault_classes:(Array.to_list Fault.all_classes) ~injections:30 ~seed:814
    ~fuel:2000 ~faults_per_run:16 ~prune ~snapshot_interval:32 ()

let diff_records ~label expected actual =
  let ne = List.length expected and na = List.length actual in
  if ne <> na then begin
    Printf.eprintf "FAIL %s: %d records, exhaustive has %d\n%!" label na ne;
    exit 1
  end;
  List.iteri
    (fun i (e, a) ->
      if e <> a then begin
        Printf.eprintf "FAIL %s: first mismatch at record %d\n" label i;
        Format.eprintf "  exhaustive: %a\n" Outcome.pp e;
        Format.eprintf "  %-10s: %a\n%!" label Outcome.pp a;
        exit 1
      end)
    (List.combine expected actual)

let () =
  let exhaustive, ex_stats = Campaign.execute_with_stats (config ~prune:false) in
  let planned, pl_stats = Campaign.execute_with_stats (config ~prune:true) in
  diff_records ~label:"planned" exhaustive planned;
  if pl_stats.Campaign.pruned = 0 then begin
    prerr_endline "FAIL: planner pruned nothing on this campaign";
    exit 1
  end;
  (* The planned run simulates 75 of its 480 records, exactly, every
     run; it simulated 156 while memory-class pruning only knew which
     pages the golden run touched, not when.  A planner that stops
     pruning mem/tlb/pte faults struck after their word's or page's
     last access trips this. *)
  if pl_stats.Campaign.simulated > 75 then begin
    Printf.eprintf "FAIL: planned run simulated %d of %d records (bound 75)\n%!"
      pl_stats.Campaign.simulated (List.length exhaustive);
    exit 1
  end;
  Printf.printf
    "prune-smoke OK: %d records identical across exhaustive/planned (planned \
     %d, pruned %d, collapsed %d, fast-forwarded %d, simulated %d vs. %d \
     exhaustive)\n"
    (List.length exhaustive) pl_stats.Campaign.planned pl_stats.Campaign.pruned
    pl_stats.Campaign.collapsed pl_stats.Campaign.fast_forwarded
    pl_stats.Campaign.simulated ex_stats.Campaign.simulated
