(* Detector-lifecycle smoke test (runtest alias `lifecycle-smoke`).

   End-to-end check of the streaming retraining loop the tentpole
   added: a calibrated serve run with injected drift (a fault storm
   whose signatures the static pipeline misses) must mine the live
   telemetry into corpora, retrain candidate detectors in the manager
   domain, publish each candidate as a versioned artifact, and promote
   one into the incumbent slot — but only after the shadow gate has
   scored its full window and found the candidate weakly better on
   both live axes (coverage, FP rate) and strictly better on one.

   The conservation invariants ARE the exactly-once hot-swap property:
   a request lost across a swap breaks the admitted equation low, one
   double-counted breaks it high.  They are asserted for the
   single-process engine and for the 2-worker cluster tier, where the
   front broadcasts a Detector_push and both workers must converge to
   the same acknowledged detector version. *)

module Serve = Xentry_serve.Server
module Ladder = Xentry_serve.Ladder
module Shadow = Xentry_lifecycle.Shadow
module Retrainer = Xentry_lifecycle.Retrainer
module Front = Xentry_cluster.Front
module CWorker = Xentry_cluster.Worker
module CP = Xentry_cluster.Protocol
module Request = Xentry_vmm.Request
module Cpu = Xentry_machine.Cpu
open Xentry_mlearn
open Xentry_core
open Xentry_workload

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("lifecycle_smoke: FAIL: " ^ s);
      exit 1)
    fmt

let conservation tag (s : Serve.summary) =
  if s.Serve.offered <> s.Serve.admitted + s.Serve.shed_queue_full then
    fail "%s: offered %d <> admitted %d + shed_queue_full %d" tag
      s.Serve.offered s.Serve.admitted s.Serve.shed_queue_full;
  if
    s.Serve.admitted
    <> s.Serve.completed + s.Serve.shed_deadline + s.Serve.shed_draining
  then
    fail "%s: admitted %d <> completed %d + shed_deadline %d + shed_draining %d"
      tag s.Serve.admitted s.Serve.completed s.Serve.shed_deadline
      s.Serve.shed_draining

(* The shadow gate's promotion rule, recomputed from the evidence each
   swap recorded: full window scored, candidate weakly better on both
   live axes, strictly better on at least one. *)
let check_gate ~window (sw : Serve.swap) =
  let st = sw.Serve.swap_stats in
  if st.Shadow.scored < window then
    fail "swap to v%d decided on %d scored requests (window %d)"
      sw.Serve.swap_version st.Shadow.scored window;
  let cand_cov = Shadow.coverage st ~candidate:true in
  let inc_cov = Shadow.coverage st ~candidate:false in
  let cand_fp = Shadow.fp_rate st ~candidate:true in
  let inc_fp = Shadow.fp_rate st ~candidate:false in
  if not (cand_cov >= inc_cov && cand_fp <= inc_fp) then
    fail "swap to v%d not weakly better: cov %.3f vs %.3f, fp %.3f vs %.3f"
      sw.Serve.swap_version cand_cov inc_cov cand_fp inc_fp;
  if not (cand_cov > inc_cov || cand_fp < inc_fp) then
    fail "swap to v%d promoted an exact tie: cov %.3f, fp %.3f"
      sw.Serve.swap_version cand_cov cand_fp

(* --- leg 1: single-process serve run with streaming retraining ------------- *)

let tree_only =
  {
    Pipeline.hw_exceptions = false;
    sw_assertions = false;
    vm_transition = true;
    ras_polling = false;
  }

(* The stale pre-drift incumbent, version 0: a detector whose model no
   longer matches the live workload.  Built from real clean Postmark
   signatures, it vetoes a mid-frequency cluster of them (~10-25% of
   live clean traffic reads as false alarms) and knows nothing about
   the storm's fault signatures — live coverage near the noise floor.
   A candidate retrained from mined traffic should dominate it on both
   gate axes. *)
let stale_incumbent () =
  let cfg = { Pipeline.Config.default with Pipeline.Config.detection = tree_only } in
  let host = Pipeline.create_host ~seed:7 cfg in
  let stream =
    Stream.create (Profile.get Profile.Postmark) Profile.PV
      (Xentry_util.Rng.create 77)
  in
  let freq : (float array, int) Hashtbl.t = Hashtbl.create 64 in
  let feats =
    List.init 400 (fun _ ->
        let req = Stream.next_request stream in
        let out = Pipeline.run cfg ~host ~retire:true req in
        let f =
          Features.of_run ~reason:req.Request.reason
            out.Pipeline.result.Cpu.final_pmu
        in
        Hashtbl.replace freq f (1 + Option.value ~default:0 (Hashtbl.find_opt freq f));
        f)
  in
  (* Veto the signatures after the most common one, up to ~15% of the
     sample: frequent enough to false-alarm visibly, rare enough that
     the incumbent's live coverage stays low. *)
  let by_freq =
    List.sort
      (fun (_, a) (_, b) -> compare (b : int) a)
      (Hashtbl.fold (fun f n acc -> (f, n) :: acc) freq [])
  in
  let vetoed = Hashtbl.create 8 in
  (match by_freq with
  | [] -> fail "no clean signatures collected"
  | _ :: rest ->
      let budget = ref (List.length feats * 15 / 100) in
      List.iter
        (fun (f, n) ->
          if !budget > 0 then begin
            Hashtbl.replace vetoed f ();
            budget := !budget - n
          end)
        rest);
  if Hashtbl.length vetoed = 0 then fail "no signature cluster to veto";
  let samples =
    List.map
      (fun f ->
        { Dataset.features = f; label = (if Hashtbl.mem vetoed f then 1 else 0) })
      feats
  in
  let tree =
    Tree.train
      (Dataset.create ~feature_names:Features.names ~n_classes:2 samples)
  in
  Detector.make ~version:0 ~origin:Detector.Offline
    ~trained_on:(List.length samples)
    (Transition_detector.of_tree tree)

(* The drifted workload: a mid-run-to-end storm of injected faults
   whose signatures the stale incumbent has never seen, detected
   through the VM-transition channel only, so the incumbent verdict
   the gate scores against is exactly the detector channel's.  The
   ladder is pinned to one tree-only rung. *)
let single_process () =
  CWorker.with_scratch_dir "artifacts" @@ fun dir ->
  let rung =
    {
      Ladder.rung_name = "tree-only";
      rung_detection = tree_only;
      rung_knob = Detector.Stock;
      rung_cost = 0.;
    }
  in
  let ladder = { Ladder.default_config with Ladder.rungs = [| rung |] } in
  let retrain =
    {
      Serve.retrain_interval_s = 0.05;
      shadow_window = 32;
      artifact_dir = Some dir;
    }
  in
  let incumbent = stale_incumbent () in
  let pipeline =
    {
      Pipeline.Config.default with
      Pipeline.Config.detection = tree_only;
      detector = Some incumbent;
    }
  in
  let base =
    Serve.make ~pipeline ~benchmark:Profile.Postmark ~streams:4 ~jobs:2
      ~queue_capacity:256 ~duration_s:2.5 ~seed:2014 ~ladder ~retrain
      ~storm:{ Serve.storm_start = 0.2; storm_end = 2.5; storm_prob = 0.1 }
      ~rate:1.0 ()
  in
  let per_worker = Serve.calibrate base in
  (* Derated as in serve-smoke: calm on any machine, so the run
     exercises the lifecycle, not the shedding paths. *)
  let cfg = { base with Serve.rate = 0.15 *. per_worker *. 2.0 } in
  let s = Serve.run cfg in
  Format.eprintf "lifecycle-smoke serve run: %a@." Serve.pp_summary s;
  conservation "single-process" s;
  if s.Serve.injected = 0 then fail "drift storm injected no faults";
  if s.Serve.completed = 0 then fail "no request completed";
  if s.Serve.mined = 0 then fail "the corpus miner saw no samples";
  if s.Serve.retrained = 0 then fail "no candidate detector was retrained";
  if s.Serve.swaps = [] then
    fail "no hot-swap occurred (%d retrained, %d rejected)" s.Serve.retrained
      s.Serve.shadow_rejected;
  (* Every trained candidate was published as a versioned artifact
     before entering shadow; each must load back with its version. *)
  for v = 1 to s.Serve.retrained do
    match Retrainer.load_version ~dir ~version:v with
    | Error e ->
        fail "retrained v%d was not published: %s" v
          (Xentry_store.Artifact.error_message e)
    | Ok det ->
        if Detector.version det <> v then
          fail "artifact v%d loads back as v%d" v (Detector.version det);
        if Detector.origin det <> Detector.Streamed then
          fail "artifact v%d not stamped Streamed" v
  done;
  (* Swaps pass the gate, bump versions monotonically, and the last
     one is the service-wide incumbent at shutdown. *)
  List.iter (check_gate ~window:retrain.Serve.shadow_window) s.Serve.swaps;
  ignore
    (List.fold_left
       (fun prev (sw : Serve.swap) ->
         if sw.Serve.swap_version <= prev then
           fail "swap versions not monotonic: v%d after v%d"
             sw.Serve.swap_version prev;
         sw.Serve.swap_version)
       0 s.Serve.swaps);
  let last_swap =
    (List.nth s.Serve.swaps (List.length s.Serve.swaps - 1)).Serve.swap_version
  in
  if s.Serve.final_detector_version <> last_swap then
    fail "final detector v%d but last swap published v%d"
      s.Serve.final_detector_version last_swap;
  (* Candidates that never promoted were either rejected by the gate
     or still in shadow at shutdown — never silently installed. *)
  let unaccounted =
    s.Serve.retrained - List.length s.Serve.swaps - s.Serve.shadow_rejected
  in
  if unaccounted < 0 || unaccounted > 1 then
    fail "%d retrained, %d swapped + %d rejected leaves %d candidates"
      s.Serve.retrained (List.length s.Serve.swaps) s.Serve.shadow_rejected
      unaccounted;
  Printf.printf
    "lifecycle_smoke: single-process: %d mined, %d retrained, swap to v%d \
     after %d scored, conservation holds across %d swap(s)\n%!"
    s.Serve.mined s.Serve.retrained s.Serve.final_detector_version
    (List.hd s.Serve.swaps).Serve.swap_stats.Shadow.scored
    (List.length s.Serve.swaps)

(* --- leg 2: 2-worker cluster converges on a pushed detector ----------------- *)

(* A deterministic stand-in for a gate-approved candidate: the front
   only distributes already-published versions, so what matters here
   is the broadcast/ack round, not how the model was trained. *)
let pushed_detector =
  lazy
    (let samples =
       List.concat
         [
           List.init 30 (fun i ->
               {
                 Dataset.features =
                   [| 0.0; 50.0 +. float_of_int i; 5.0; 5.0; 5.0 |];
                 label = 0;
               });
           List.init 30 (fun i ->
               {
                 Dataset.features =
                   [| 0.0; 150.0 +. float_of_int i; 5.0; 5.0; 5.0 |];
                 label = 1;
               });
         ]
     in
     let tree =
       Tree.train
         (Dataset.create ~feature_names:Features.names ~n_classes:2 samples)
     in
     Detector.make ~version:7 ~origin:Detector.Streamed ~trained_on:60
       (Transition_detector.of_tree tree))

let cluster () =
  CWorker.with_scratch_dir "cluster" @@ fun dir ->
  let workers = 2 in
  let duration_s = 1.0 in
  let base =
    Serve.make ~benchmark:Profile.Postmark ~streams:8 ~jobs:2 ~duration_s
      ~seed:2014 ~rate:1.0 ()
  in
  let per_worker = Serve.calibrate base in
  let cfg =
    { base with Serve.rate = 0.3 *. per_worker *. float_of_int workers }
  in
  let sock = Filename.concat dir "front.sock" in
  let pushed = ref false in
  (* One broadcast, mid-run: every later-dequeued request on every
     worker runs under v7, and both ack it. *)
  let push ~elapsed =
    if (not !pushed) && elapsed >= 0.3 *. duration_s then begin
      pushed := true;
      Some (Lazy.force pushed_detector)
    end
    else None
  in
  let s =
    match
      CWorker.with_workers ~n:workers [ "--worker"; sock; "2" ] (fun _pids ->
          Front.run ~push ~listen:(CP.Unix_sock sock) ~workers cfg)
    with
    | s -> s
    | exception e -> fail "front failed: %s" (Printexc.to_string e)
  in
  (* Total balance: every offered request lands in exactly one bucket
     — completed, or one of the typed sheds — across the push. *)
  let accounted =
    s.Front.completed + s.Front.shed_window_full + s.Front.shed_worker_lost
    + s.Front.shed_draining
  in
  if s.Front.offered <> accounted then
    fail
      "cluster: offered %d <> completed %d + window_full %d + worker_lost %d \
       + draining %d"
      s.Front.offered s.Front.completed s.Front.shed_window_full
      s.Front.shed_worker_lost s.Front.shed_draining;
  if s.Front.completed = 0 then fail "cluster: no request completed";
  if s.Front.workers_lost <> 0 then
    fail "cluster: %d workers lost in a healthy run" s.Front.workers_lost;
  if s.Front.detector_pushes <> 1 then
    fail "cluster: %d detector pushes, expected exactly 1"
      s.Front.detector_pushes;
  let want = Detector.version (Lazy.force pushed_detector) in
  List.iter
    (fun (w, v) ->
      if v <> want then
        fail "cluster: worker %d acked detector v%d, expected v%d" w v want)
    s.Front.detector_acks;
  if List.length s.Front.detector_acks <> workers then
    fail "cluster: %d acks for %d workers"
      (List.length s.Front.detector_acks)
      workers;
  Printf.printf
    "lifecycle_smoke: cluster: %d workers converged on detector v%d (%d \
     completed, conservation holds)\n%!"
    workers want s.Front.completed

let () =
  match Sys.argv with
  | [| _; "--worker"; sock; jobs |] ->
      CWorker.run ~jobs:(int_of_string jobs) ~connect:(CP.Unix_sock sock) ()
  | _ ->
      single_process ();
      cluster ();
      print_endline "lifecycle_smoke: all checks passed"
