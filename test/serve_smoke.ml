(* Serve smoke test (runtest alias `serve-smoke`).

   Runs the streaming request engine for ~2 seconds with a mid-run
   overload burst sized from a capacity calibration (so the scenario
   scales with the machine) and checks the tentpole's contract:

   - accounting conserves: offered = admitted + shed(queue_full) and
     admitted = completed + shed(deadline) + shed(draining);
   - the degradation ladder engages under the 2x burst and climbs all
     the way back to full detection once the burst ends;
   - the serve.* telemetry counters agree with the summary and no
     telemetry event was dropped;
   - the --json summary is well-formed (balanced, schema-tagged,
     covering the metrics the ISSUE names);
   - degraded-mode pipeline configs produce verdicts that agree with
     full detection on re-execution of shed-free (fault-free)
     requests: degradation narrows detection, it must never invent
     detections. *)

module Serve = Xentry_serve.Server
module Ladder = Xentry_serve.Ladder
module Tm = Xentry_util.Telemetry
open Xentry_core
open Xentry_workload

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Brace/bracket balance outside string literals: cheap JSON sanity
   without a parser dependency. *)
let json_balanced s =
  let depth = ref 0 and in_string = ref false and escaped = ref false in
  let ok = ref true in
  String.iter
    (fun c ->
      if !escaped then escaped := false
      else if !in_string then begin
        if c = '\\' then escaped := true else if c = '"' then in_string := false
      end
      else
        match c with
        | '"' -> in_string := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_string

let check_json cfg summary =
  let json = Xentry_util.Json.to_string (Serve.summary_json cfg summary) in
  if String.length json < 2 || json.[0] <> '{' then
    fail "summary_json does not open an object";
  if not (json_balanced json) then fail "summary_json is unbalanced: %s" json;
  List.iter
    (fun key ->
      if not (contains json ("\"" ^ key ^ "\"")) then
        fail "summary_json missing key %S" key)
    [
      "schema"; "offered"; "admitted"; "completed"; "shed"; "queue_full";
      "deadline_expired"; "draining"; "shed_fraction"; "throughput_rps";
      "latency_us"; "p50"; "p99"; "transitions"; "time_at_level";
      "final_level"; "deepest_level"; "peak_occupancy"; "recovery";
      "injected"; "recoveries"; "availability"; "storm"; "lifecycle";
    ];
  if not (contains json "xentry-serve-summary-v2") then
    fail "summary_json missing schema tag"

let conservation (s : Serve.summary) =
  if s.Serve.offered <> s.Serve.admitted + s.Serve.shed_queue_full then
    fail "offered %d <> admitted %d + shed_queue_full %d" s.Serve.offered
      s.Serve.admitted s.Serve.shed_queue_full;
  if
    s.Serve.admitted
    <> s.Serve.completed + s.Serve.shed_deadline + s.Serve.shed_draining
  then
    fail "admitted %d <> completed %d + shed_deadline %d + shed_draining %d"
      s.Serve.admitted s.Serve.completed s.Serve.shed_deadline
      s.Serve.shed_draining

let check_counters (s : Serve.summary) =
  let c name = Tm.counter_value (Tm.counter name) in
  List.iter
    (fun (name, expected) ->
      let got = c name in
      if got <> expected then
        fail "telemetry counter %s = %d, summary says %d" name got expected)
    [
      ("serve.offered", s.Serve.offered);
      ("serve.admitted", s.Serve.admitted);
      ("serve.completed", s.Serve.completed);
      ("serve.shed.queue_full", s.Serve.shed_queue_full);
      ("serve.shed.deadline_expired", s.Serve.shed_deadline);
      ("serve.shed.draining", s.Serve.shed_draining);
    ];
  if Tm.events_dropped () <> 0 then
    fail "%d telemetry events dropped" (Tm.events_dropped ())

(* Degradation must narrow detection, never change what a clean
   execution looks like: the same shed-free request stream replayed
   under each rung's pipeline config yields verdicts identical to full
   detection (all Clean on fault-free runs). *)
let check_degraded_verdicts () =
  let host_for detection =
    let cfg = { Pipeline.Config.default with Pipeline.Config.detection } in
    (cfg, Pipeline.create_host ~seed:99 cfg)
  in
  let rungs =
    Array.to_list
      (Array.map
         (fun r -> (r.Ladder.rung_name, host_for r.Ladder.rung_detection))
         Ladder.default_rungs)
  in
  let stream =
    Stream.create (Profile.get Profile.Postmark) Profile.PV
      (Xentry_util.Rng.create 4242)
  in
  for i = 1 to 300 do
    let req = Stream.next_request stream in
    let verdicts =
      List.map
        (fun (name, (cfg, host)) ->
          (name, (Pipeline.run cfg ~host ~retire:true req).Pipeline.verdict))
        rungs
    in
    match verdicts with
    | (_, full) :: rest ->
        List.iter
          (fun (name, v) ->
            if v <> full then
              fail
                "request %d: %s verdict disagrees with full detection (%s vs %s)"
                i name
                (Format.asprintf "%a" Pipeline.pp_verdict v)
                (Format.asprintf "%a" Pipeline.pp_verdict full))
          rest
    | [] -> assert false
  done

let () =
  (* Calibrate before telemetry is on so serve.* counters cover
     exactly the measured run. *)
  (* Queue capacity must exceed one producer tick's per-stream arrival
     batch at the steady rate, or admission sheds every tick and the
     service can never look calm: 0.5 x capacity / 4 streams x 2 ms is
     ~50 requests/queue/tick on a fast machine, so 256 slots leave
     headroom while still filling within a few ticks of 2x overload. *)
  let base =
    Serve.make ~benchmark:Profile.Postmark ~streams:4 ~jobs:2
      ~queue_capacity:256 ~duration_s:2.0 ~seed:2014 ~rate:1.0 ()
  in
  let per_worker = Serve.calibrate base in
  let capacity = per_worker *. 2.0 in
  (* Calibration is a single tight-loop domain; the live service
     timeshares the producer and both workers over however many cores
     the machine has (possibly one), so effective capacity can be a
     small fraction of the calibrated figure.  Steady load is derated
     to 15% of calibrated so it is calm on any machine, and the burst
     is 20x that (3x the calibrated upper bound) so it overloads on
     any machine: burst in [0.5 s, 1.2 s), then 0.8 s to climb home. *)
  let cfg =
    {
      base with
      Serve.rate = 0.15 *. capacity;
      burst =
        Some
          { Serve.burst_start = 0.5; burst_end = 1.2; burst_factor = 20.0 };
    }
  in
  Tm.reset ();
  Tm.enable ();
  let s = Serve.run cfg in
  Tm.disable ();
  Format.eprintf "serve-smoke burst run: %a@." Serve.pp_summary s;
  conservation s;
  check_counters s;
  check_json cfg s;
  if s.Serve.completed = 0 then fail "no request completed";
  if s.Serve.deepest_rung = 0 then
    fail "2x overload never engaged the degradation ladder";
  if s.Serve.shed_queue_full = 0 then
    fail "2x overload never filled an ingress queue";
  if s.Serve.final_rung <> 0 then
    fail "service ended at %s: ladder never fully recovered"
      s.Serve.rung_names.(s.Serve.final_rung);
  if s.Serve.transitions = [] then fail "no ladder transition recorded";
  (* A short deadline under heavier overload must shed at dequeue. *)
  let dl =
    {
      base with
      Serve.rate = 3.0 *. capacity;
      duration_s = 0.4;
      deadline_us = Some 200;
    }
  in
  let sd = Serve.run dl in
  conservation sd;
  if sd.Serve.shed_deadline = 0 then
    fail "200us deadline under 3x overload shed nothing at dequeue";
  (* Fault storm + failover: a mid-run window of injected bit flips
     with each policy.  The conservation invariants ARE the
     exactly-once property — a lost request breaks the admitted
     equation low, a duplicated completion breaks it high — so a
     mid-storm micro-reboot (or restart) must leave both intact while
     actually recovering. *)
  List.iter
    (fun (name, policy) ->
      let scfg =
        {
          base with
          Serve.rate = 0.15 *. capacity;
          duration_s = 1.2;
          recovery = policy;
          storm =
            Some
              { Serve.storm_start = 0.2; storm_end = 0.9; storm_prob = 0.05 };
        }
      in
      let s = Serve.run scfg in
      Format.eprintf "serve-smoke storm (%s): %a@." name Serve.pp_summary s;
      conservation s;
      check_json scfg s;
      if s.Serve.injected = 0 then fail "storm (%s) injected no faults" name;
      if s.Serve.recoveries = 0 then
        fail "storm (%s): no detected fault triggered a recovery" name;
      if s.Serve.recoveries > s.Serve.detected then
        fail "storm (%s): %d recoveries exceed %d detections" name
          s.Serve.recoveries s.Serve.detected;
      if Array.length s.Serve.recovery_us <> s.Serve.recoveries then
        fail "storm (%s): %d recovery samples for %d recoveries" name
          (Array.length s.Serve.recovery_us)
          s.Serve.recoveries;
      if Serve.recovery_quantile s 0.99 <= 0. then
        fail "storm (%s): zero recovery p99" name;
      if s.Serve.availability <= 0. || s.Serve.availability >= 1. then
        fail "storm (%s): availability %.6f not in (0, 1) despite recoveries"
          name s.Serve.availability)
    [ ("microboot", Serve.Microboot); ("restart", Serve.Restart) ];
  check_degraded_verdicts ();
  Printf.printf
    "serve-smoke OK: %d offered, %d completed, shed %d (queue) + %d \
     (deadline run), deepest %s, recovered to %s, %d transitions\n"
    s.Serve.offered s.Serve.completed s.Serve.shed_queue_full
    sd.Serve.shed_deadline
    s.Serve.rung_names.(s.Serve.deepest_rung)
    s.Serve.rung_names.(s.Serve.final_rung)
    (List.length s.Serve.transitions)
