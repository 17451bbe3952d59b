(* Allocation guard for the campaign inner loop.  A planned campaign
   (400 injections x 16 faults, all six fault classes, seed 3, jobs 1,
   no detector) must return the exhaustive run's records, and its
   direct major-heap allocation — words allocated straight into the
   major heap, [major_words - promoted_words] from [Gc.quick_stat] —
   must stay under [bound] per record.  The count repeats exactly from
   run to run.  Most of it used to be one 4 KiB copy-on-write page
   copy per privatisation: such a block is too big for the minor heap,
   so a campaign that stops recycling the frames of the hosts it
   discards lands far above the bound. *)

open Xentry_faultinject

(* See test/dune for the base of this figure. *)
let bound = 500.

let config ~prune =
  Campaign.Config.make ~jobs:1 ~benchmark:Xentry_workload.Profile.Postmark
    ~fault_classes:(Array.to_list Fault.all_classes) ~injections:400 ~seed:3
    ~fuel:2000 ~faults_per_run:16 ~prune ()

let direct_major_words () =
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

let () =
  let exhaustive = Campaign.execute (config ~prune:false) in
  Gc.full_major ();
  let w0 = direct_major_words () in
  let planned = Campaign.execute (config ~prune:true) in
  let per_record =
    (direct_major_words () -. w0) /. float_of_int (List.length planned)
  in
  if planned <> exhaustive then begin
    prerr_endline "FAIL: planned records differ from the exhaustive run's";
    exit 1
  end;
  if per_record >= bound then begin
    Printf.eprintf
      "FAIL: %.1f direct major-heap words per record, bound %.0f\n%!"
      per_record bound;
    exit 1
  end;
  Printf.printf
    "alloc-smoke OK: %d records identical to exhaustive, %.1f direct \
     major-heap words per record (bound %.0f)\n"
    (List.length planned) per_record bound
