(* End-to-end distributed-campaign check: the -j invariant lifted to
   processes.

   The parent re-executes itself as worker processes speaking the
   cluster protocol over a Unix-domain socket and requires, for every
   topology, records bit-identical to a single-process run:

   1. coordinator + 2 workers, clean run;
   2. coordinator + 2 workers with a journal, SIGKILL one worker the
      moment the first shard completes — the dead worker's leases must
      be reissued and the merged records must still match;
   3. resume over the journal the killed run left behind: every shard
      must replay from disk (zero recomputation), still bit-identical. *)

open Xentry_faultinject
open Xentry_store
open Xentry_cluster
module Tm = Xentry_util.Telemetry

let config =
  Campaign.Config.make ~benchmark:Xentry_workload.Profile.Postmark
    ~injections:300 ~seed:91 ()

let nshards = List.length (Campaign.shard_plan config)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("cluster_smoke: FAIL: " ^ msg);
      exit 1)
    fmt

(* Coordinate [config] over two worker processes of this binary;
   [on_progress] gets the worker pids.  A coordinator failure fails
   the check once the workers are reaped. *)
let run_distributed ?checkpoint ?(on_progress = fun _ _ -> ()) ~name dir =
  let sock = Filename.concat dir "coord.sock" in
  match
    Worker.with_workers ~n:2 [ "--worker"; sock; "2" ] (fun pids ->
        Coordinator.run ?checkpoint ~on_progress:(on_progress pids)
          ~idle_timeout_s:30. ~listen:(Protocol.Unix_sock sock) config)
  with
  | records -> records
  | exception e -> fail "%s: coordinator failed: %s" name (Printexc.to_string e)

let checkpoint dir =
  match Journal.for_campaign ~dir config with
  | Ok cp -> cp
  | Error e -> fail "journal: %s" (Journal.open_error_message e)

let () =
  match Sys.argv with
  | [| _; "--worker"; sock; jobs |] ->
      Worker.run ~jobs:(int_of_string jobs)
        ~connect:(Protocol.Unix_sock sock) ()
  | _ ->
      let baseline = Campaign.execute { config with Campaign.jobs = Some 1 } in
      (* 1: clean distributed run. *)
      Worker.with_scratch_dir "clean" (fun dir ->
          let records = run_distributed ~name:"clean" dir in
          if records <> baseline then
            fail "clean: distributed records diverge from single-process run";
          Printf.printf "cluster_smoke: clean 2-worker run bit-identical (%d shards)\n%!"
            nshards);
      (* 2: kill one worker as soon as the first shard lands. *)
      Worker.with_scratch_dir "kill" (fun dir ->
          let journal_dir = Filename.concat dir "journal" in
          let killed = ref false in
          let on_progress pids (p : Coordinator.progress) =
            if (not !killed) && p.Coordinator.completed < p.Coordinator.total
            then begin
              killed := true;
              try Unix.kill (List.hd pids) Sys.sigkill
              with Unix.Unix_error _ -> ()
            end
          in
          let records =
            run_distributed ~checkpoint:(checkpoint journal_dir) ~on_progress
              ~name:"kill" dir
          in
          if not !killed then fail "kill: no shard ever completed";
          if records <> baseline then
            fail "kill: records after worker kill diverge from baseline";
          Printf.printf
            "cluster_smoke: mid-campaign SIGKILL survived, records bit-identical\n%!";
          (* 3: the journal the killed run wrote must now resume a
             single-process campaign with zero recomputation. *)
          Tm.reset ();
          Tm.enable ();
          let skipped = Tm.counter "store.journal.shards_skipped" in
          let resumed =
            Campaign.execute
              ~checkpoint:(checkpoint journal_dir)
              { config with Campaign.jobs = Some 1 }
          in
          Tm.disable ();
          if resumed <> baseline then
            fail "resume: journal replay diverges from baseline";
          if Tm.counter_value skipped <> nshards then
            fail "resume: expected all %d shards journaled, skipped only %d"
              nshards (Tm.counter_value skipped);
          Printf.printf
            "cluster_smoke: resume replayed all %d shards from the journal\n%!"
            nshards);
      print_endline "cluster_smoke: all checks passed"
