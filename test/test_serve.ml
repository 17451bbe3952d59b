(* Tests for the serve layer's building blocks: the bounded ingress
   queue (backpressure), the degradation ladder (graceful detection
   shedding) and the serving step (detection run and recovery).  The
   end-to-end engine is exercised by the serve-smoke harness; here we
   pin the component semantics. *)

open Xentry_serve

(* --- bounded queue: QCheck model ----------------------------------------- *)

(* An operation schedule drawn from a seeded generator, replayed
   against both the real queue and a functional model.  The property:
   the queue never holds more than its capacity, push is accepted iff
   the model is below capacity (shedding is deterministic — the same
   schedule always sheds the same pushes), and pops replay the model's
   FIFO order exactly. *)

type op = Push of int | Pop

let op_gen =
  QCheck.Gen.(
    frequency [ (3, map (fun v -> Push v) small_int); (2, return Pop) ])

let schedule_arbitrary =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity=%d ops=[%s]" cap
        (String.concat "; "
           (List.map
              (function Push v -> Printf.sprintf "push %d" v | Pop -> "pop")
              ops)))
    QCheck.Gen.(
      pair (int_range 1 8) (list_size (int_range 0 200) op_gen))

let queue_matches_model (cap, ops) =
  let q = Bounded_queue.create ~capacity:cap in
  let model = ref [] (* newest first *) in
  List.for_all
    (fun op ->
      let ok =
        match op with
        | Push v -> (
            let expect_full = List.length !model >= cap in
            match Bounded_queue.try_push q v with
            | Ok () ->
                if expect_full then false
                else begin
                  model := v :: !model;
                  true
                end
            | Error Bounded_queue.Full -> expect_full
            | Error Bounded_queue.Closed -> false)
        | Pop -> (
            match (Bounded_queue.pop_opt q, List.rev !model) with
            | None, [] -> true
            | Some got, oldest :: rest ->
                model := List.rev rest;
                got = oldest
            | None, _ :: _ | Some _, [] -> false)
      in
      ok
      && Bounded_queue.length q = List.length !model
      && Bounded_queue.length q <= cap)
    ops

let test_queue_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"bounded queue matches FIFO model"
       schedule_arbitrary queue_matches_model)

let test_queue_sheds_deterministically =
  (* Same seeded schedule, two replays: the accept/shed pattern must
     be identical — backpressure depends only on queue state, never on
     timing. *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"shedding is deterministic"
       schedule_arbitrary (fun (cap, ops) ->
         let replay () =
           let q = Bounded_queue.create ~capacity:cap in
           List.map
             (function
               | Push v -> (
                   match Bounded_queue.try_push q v with
                   | Ok () -> `Accepted
                   | Error Bounded_queue.Full -> `Shed
                   | Error Bounded_queue.Closed -> `Closed)
               | Pop -> `Popped (Bounded_queue.pop_opt q))
             ops
         in
         replay () = replay ()))

(* --- bounded queue: unit corners ----------------------------------------- *)

let test_queue_close () =
  let q = Bounded_queue.create ~capacity:2 in
  Alcotest.(check bool) "push ok" true (Bounded_queue.try_push q 1 = Ok ());
  Alcotest.(check bool) "push ok" true (Bounded_queue.try_push q 2 = Ok ());
  Alcotest.(check bool) "full" true
    (Bounded_queue.try_push q 3 = Error Bounded_queue.Full);
  Bounded_queue.close q;
  Alcotest.(check bool) "closed" true (Bounded_queue.is_closed q);
  Alcotest.(check bool) "push after close rejected" true
    (Bounded_queue.try_push q 4 = Error Bounded_queue.Closed);
  Alcotest.(check (list int)) "drain keeps queued elements, oldest first"
    [ 1; 2 ] (Bounded_queue.drain q);
  Alcotest.(check int) "empty after drain" 0 (Bounded_queue.length q)

let test_queue_rejects_bad_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Bounded_queue.create: capacity 0") (fun () ->
      ignore (Bounded_queue.create ~capacity:0))

(* --- ladder: every transition, down and up -------------------------------- *)

let rung_idx = Alcotest.int

let cfg =
  {
    Ladder.default_config with
    Ladder.high_watermark = 0.8;
    low_watermark = 0.2;
    hold_ticks = 3;
  }

let observe_many t occs =
  List.fold_left
    (fun (t, trs) occ ->
      let t, tr = Ladder.observe t ~occupancy:occ in
      (t, match tr with Some tr -> tr :: trs | None -> trs))
    (t, []) occs

let test_ladder_starts_full () =
  let t = Ladder.create ~config:cfg () in
  Alcotest.check rung_idx "initial rung" 0 (Ladder.rung t);
  Alcotest.(check string) "rung 0 is full detection" "full"
    (Ladder.name cfg 0);
  Alcotest.(check int) "three default rungs" 3 (Ladder.rung_count t)

let test_ladder_degrades_immediately () =
  let t = Ladder.create ~config:cfg () in
  let t, tr = Ladder.observe t ~occupancy:0.85 in
  Alcotest.check rung_idx "one observation degrades" 1 (Ladder.rung t);
  (match tr with
  | Some { Ladder.from_rung = 0; to_rung = 1 } -> ()
  | _ -> Alcotest.fail "expected rung 0 -> 1 transition");
  let t, _ = Ladder.observe t ~occupancy:0.9 in
  Alcotest.check rung_idx "second overload reaches the bottom" 2
    (Ladder.rung t);
  let t, tr = Ladder.observe t ~occupancy:1.0 in
  Alcotest.check rung_idx "bottom rung holds" 2 (Ladder.rung t);
  Alcotest.(check bool) "no transition below the bottom" true (tr = None)

let test_ladder_climbs_after_hold () =
  let t = Ladder.create ~config:cfg () in
  let t, _ = observe_many t [ 0.9; 0.9 ] in
  Alcotest.check rung_idx "degraded to bottom" 2 (Ladder.rung t);
  (* hold_ticks - 1 calm observations: not yet. *)
  let t, trs = observe_many t [ 0.1; 0.1 ] in
  Alcotest.(check int) "no climb before hold_ticks" 0 (List.length trs);
  let t, trs = observe_many t [ 0.1 ] in
  Alcotest.check rung_idx "climbs one rung" 1 (Ladder.rung t);
  (match trs with
  | [ { Ladder.from_rung = 2; to_rung = 1 } ] -> ()
  | _ -> Alcotest.fail "expected rung 2 -> 1 transition");
  (* A full fresh hold is required for the next rung. *)
  let t, _ = observe_many t [ 0.1; 0.1; 0.1 ] in
  Alcotest.check rung_idx "climbs back to full detection" 0 (Ladder.rung t);
  let t, trs = observe_many t [ 0.0; 0.0; 0.0; 0.0 ] in
  Alcotest.check rung_idx "no rung above full" 0 (Ladder.rung t);
  Alcotest.(check int) "calm at the top is quiet" 0 (List.length trs)

let test_ladder_midband_resets_streak () =
  let t = Ladder.create ~config:cfg () in
  let t, _ = observe_many t [ 0.95 ] in
  Alcotest.check rung_idx "degraded" 1 (Ladder.rung t);
  (* calm, calm, mid-band, calm, calm: the streak restarts, so still
     degraded; only the third consecutive calm tick climbs. *)
  let t, _ = observe_many t [ 0.1; 0.1; 0.5; 0.1; 0.1 ] in
  Alcotest.check rung_idx "mid-band resets the calm streak" 1 (Ladder.rung t);
  let t, _ = observe_many t [ 0.1 ] in
  Alcotest.check rung_idx "then the full hold climbs" 0 (Ladder.rung t)

let test_ladder_overload_resets_streak () =
  let t = Ladder.create ~config:cfg () in
  let t, _ = observe_many t [ 0.9; 0.9 ] in
  let t, _ = observe_many t [ 0.1; 0.1; 0.9 ] in
  Alcotest.check rung_idx "overload mid-climb degrades again (already bottom)"
    2 (Ladder.rung t);
  let t, _ = observe_many t [ 0.1; 0.1; 0.1 ] in
  Alcotest.check rung_idx "fresh hold still climbs" 1 (Ladder.rung t)

let test_ladder_detection_sets () =
  let open Xentry_core.Pipeline in
  let detection i = Ladder.default_rungs.(i).Ladder.rung_detection in
  Alcotest.(check bool) "full rung arms everything" true
    (detection 0 = full_detection);
  Alcotest.(check bool) "runtime rung drops the transition detector" true
    (detection 1 = runtime_only);
  Alcotest.(check bool) "filter rung keeps only hw exceptions" true
    (detection 2
    = {
        hw_exceptions = true;
        sw_assertions = false;
        vm_transition = false;
        ras_polling = true;
      });
  (* Default rungs keep the detector model untouched: the knob dial is
     the Pareto ladder's job. *)
  Array.iter
    (fun r ->
      Alcotest.(check bool) "default rungs use the stock knob" true
        (r.Ladder.rung_knob = Xentry_core.Detector.Stock))
    Ladder.default_rungs;
  (* Ordered costliest-first: shedding detection must shed cost. *)
  Array.iteri
    (fun i r ->
      if i > 0 then
        Alcotest.(check bool) "rung costs strictly decrease" true
          (r.Ladder.rung_cost < Ladder.default_rungs.(i - 1).Ladder.rung_cost))
    Ladder.default_rungs

let test_ladder_rungs_indexed () =
  let t = Ladder.create ~config:cfg () in
  Alcotest.(check int) "three rungs" 3 (Array.length Ladder.default_rungs);
  Array.iteri
    (fun i r ->
      Alcotest.(check string) "rung_at matches default_rungs"
        r.Ladder.rung_name
        (Ladder.rung_at t i).Ladder.rung_name;
      Alcotest.(check string) "name matches the rung list" r.Ladder.rung_name
        (Ladder.name cfg i))
    Ladder.default_rungs;
  Alcotest.(check string) "current is rung 0 at start" "full"
    (Ladder.current t).Ladder.rung_name

(* Regression for the rung-list redesign: [default_rungs] under the
   new index-based machine must replay the historical three-variant
   ladder (full -> runtime_only -> filter_only) transition for
   transition.  The replica below is the old variant machine verbatim,
   driven over a deterministic occupancy walk. *)
let test_ladder_default_rungs_replays_old_machine () =
  let replica_step (lvl, streak) occ =
    (* old semantics: degrade immediately at >= high; climb one rung
       after hold_ticks consecutive observations at <= low. *)
    if occ >= cfg.Ladder.high_watermark then
      let lvl' = min 2 (lvl + 1) in
      ((lvl', 0), if lvl' <> lvl then Some (lvl, lvl') else None)
    else if occ <= cfg.Ladder.low_watermark then
      let streak = streak + 1 in
      if streak >= cfg.Ladder.hold_ticks && lvl > 0 then
        ((lvl - 1, 0), Some (lvl, lvl - 1))
      else ((lvl, streak), None)
    else ((lvl, 0), None)
  in
  (* A seeded occupancy walk that visits calm, mid-band and overload. *)
  let state = ref 20147 in
  let occs =
    List.init 600 (fun _ ->
        state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
        float_of_int (!state mod 1000) /. 999.0)
  in
  let _, _, trs_old, trs_new =
    List.fold_left
      (fun (rep, t, old_acc, new_acc) occ ->
        let rep, tr_old = replica_step rep occ in
        let t, tr_new = Ladder.observe t ~occupancy:occ in
        let old_acc =
          match tr_old with Some p -> p :: old_acc | None -> old_acc
        in
        let new_acc =
          match tr_new with
          | Some { Ladder.from_rung; to_rung } ->
              (from_rung, to_rung) :: new_acc
          | None -> new_acc
        in
        (rep, t, old_acc, new_acc))
      ((0, 0), Ladder.create ~config:cfg (), [], [])
      occs
  in
  Alcotest.(check bool) "walk exercised the ladder" true
    (List.length trs_new > 4);
  Alcotest.(check (list (pair int int)))
    "identical transition sequence to the historical variant ladder"
    (List.rev trs_old) (List.rev trs_new)

let test_ladder_validates_config () =
  let bad config msg =
    match Ladder.create ~config () with
    | _ -> Alcotest.failf "config accepted: %s" msg
    | exception Invalid_argument _ -> ()
  in
  bad { cfg with Ladder.low_watermark = 0.9 } "low >= high";
  bad { cfg with Ladder.high_watermark = 1.5 } "high > 1";
  bad { cfg with Ladder.low_watermark = -0.1 } "low < 0";
  bad { cfg with Ladder.hold_ticks = 0 } "hold_ticks < 1";
  bad { cfg with Ladder.rungs = [||] } "empty rung list"

(* --- the serving step ------------------------------------------------------ *)

module Pipeline = Xentry_core.Pipeline
module Hypervisor = Xentry_vmm.Hypervisor
module Cpu = Xentry_machine.Cpu

let step_seed = 5
let pcfg = Pipeline.Config.default

(* A softirq whose pending bits include the schedule softirq: retiring
   it rotates the run queue, so whether a run retired shows in the
   scheduler's current domain (0 when prepared, 1 once retired). *)
let step_request =
  Xentry_vmm.Request.make ~reason:Xentry_vmm.Exit_reason.Softirq ~args:[ 2L ]
    ~guest:[ 1L; 2L; 3L ]

(* A high RIP bit flipped before step 1: the next fetch faults in host
   mode, which full detection reports. *)
let rip_fault = Cpu.reg_injection Xentry_isa.Reg.Rip ~bit:62 ~step:1

let current_dom host =
  let module S = Xentry_vmm.Scheduler in
  (S.current (Hypervisor.scheduler host)).S.dom

(* Each domain's scheduler credits: a second [prepare] of one request
   debits a second tick. *)
let credits host =
  let module S = Xentry_vmm.Scheduler in
  List.map
    (fun dom -> S.credits (Hypervisor.scheduler host) { S.dom; vcpu = 0 })
    [ 0; 1; 2 ]

let check_detected (out : Pipeline.outcome) =
  Alcotest.(check bool) "the fault is detected" true
    (match out.Pipeline.verdict with
    | Pipeline.Detected _ -> true
    | Pipeline.Clean -> false)

let check_clean_entry what (out : Pipeline.outcome) =
  Alcotest.(check bool) (what ^ " reaches VM entry") true
    (out.Pipeline.result.Cpu.stop = Cpu.Vm_entry);
  Alcotest.(check bool) (what ^ " is clean") true
    (out.Pipeline.verdict = Pipeline.Clean)

let test_step_keep_serving () =
  let st = Server.Step.create Server.Keep_serving ~seed:step_seed in
  let host = Server.Step.host st in
  check_detected (Server.Step.detect st pcfg ~inject:rip_fault step_request);
  Alcotest.(check bool) "same host" true (Server.Step.host st == host);
  Alcotest.(check int) "retired" 1 (current_dom host)

let test_step_microboot () =
  let st = Server.Step.create Server.Microboot ~seed:step_seed in
  let host = Server.Step.host st in
  check_detected (Server.Step.detect st pcfg ~inject:rip_fault step_request);
  Alcotest.(check int) "the detection run did not retire" 0 (current_dom host);
  let replay = Server.Step.recover st pcfg step_request in
  let rebooted = Server.Step.host st in
  Alcotest.(check bool) "the host is replaced" true (rebooted != host);
  check_clean_entry "the replay" replay;
  Alcotest.(check int) "the replay retired" 1 (current_dom rebooted);
  let golden = Hypervisor.create ~seed:step_seed () in
  check_clean_entry "the golden run"
    (Pipeline.run pcfg ~host:golden ~retire:true step_request);
  let diffs = Xentry_faultinject.Classify.diffs ~golden ~faulted:rebooted in
  Alcotest.(check bool) "guest-visible state equals the golden host's" true
    (List.for_all (fun d -> d = Xentry_faultinject.Classify.Stack_diff) diffs);
  Alcotest.(check (list int)) "prepared once, as the golden host"
    (credits golden) (credits rebooted)

let test_step_restart () =
  let st = Server.Step.create Server.Restart ~seed:step_seed in
  let host = Server.Step.host st in
  check_detected (Server.Step.detect st pcfg ~inject:rip_fault step_request);
  Alcotest.(check int) "the detection run did not retire" 0 (current_dom host);
  let replay = Server.Step.recover st pcfg step_request in
  Alcotest.(check bool) "a new host boots" true (Server.Step.host st != host);
  check_clean_entry "the replay" replay;
  Alcotest.(check int) "the replay retired" 1
    (current_dom (Server.Step.host st))

let test_step_clean () =
  List.iter
    (fun policy ->
      let st = Server.Step.create policy ~seed:step_seed in
      let host = Server.Step.host st in
      check_clean_entry (Server.recovery_policy_name policy)
        (Server.Step.detect st pcfg step_request);
      Alcotest.(check bool) "same host" true (Server.Step.host st == host);
      Alcotest.(check int) "retired" 1 (current_dom host))
    [ Server.Keep_serving; Server.Microboot; Server.Restart ]

(* --- summary arithmetic: availability and throughput ----------------------- *)

let test_availability_robust () =
  let av = Server.availability_of in
  Alcotest.(check (float 1e-9)) "no recovery time is fully available" 1.0
    (av ~recovery_total_s:0.0 ~wall_s:2.0 ~jobs:4);
  Alcotest.(check (float 1e-9)) "half the capacity lost" 0.75
    (av ~recovery_total_s:2.0 ~wall_s:2.0 ~jobs:4);
  (* The bug this pins: a zero wall (instant run, or a summary built
     before the clock advanced) must not divide by zero or report
     garbage — it reads as fully available. *)
  Alcotest.(check (float 1e-9)) "zero wall is fully available" 1.0
    (av ~recovery_total_s:1.0 ~wall_s:0.0 ~jobs:4);
  Alcotest.(check (float 1e-9)) "negative wall is fully available" 1.0
    (av ~recovery_total_s:1.0 ~wall_s:(-3.0) ~jobs:4);
  Alcotest.(check (float 1e-9)) "zero jobs is fully available" 1.0
    (av ~recovery_total_s:1.0 ~wall_s:2.0 ~jobs:0);
  (* Clamping: recovery overlap can exceed wall * jobs in pathological
     schedules; availability still lands in [0, 1]. *)
  Alcotest.(check (float 1e-9)) "clamped below" 0.0
    (av ~recovery_total_s:100.0 ~wall_s:1.0 ~jobs:1);
  Alcotest.(check (float 1e-9)) "clamped above" 1.0
    (av ~recovery_total_s:(-5.0) ~wall_s:1.0 ~jobs:1)

let test_throughput_robust () =
  Alcotest.(check (float 1e-9)) "simple rate" 50.0
    (Server.throughput_of ~completed:100 ~wall_s:2.0);
  Alcotest.(check (float 1e-9)) "zero wall is zero throughput" 0.0
    (Server.throughput_of ~completed:100 ~wall_s:0.0);
  Alcotest.(check (float 1e-9)) "negative wall is zero throughput" 0.0
    (Server.throughput_of ~completed:100 ~wall_s:(-1.0))

(* --- summary JSON: schema xentry-serve-summary-v2 ------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let golden_config =
  Server.make ~benchmark:Xentry_workload.Profile.Postmark ~rate:1000.
    ~streams:4 ~jobs:2 ~duration_s:1.5 ~deadline_us:5000
    ~recovery:Server.Microboot
    ~storm:{ Server.storm_start = 0.25; storm_end = 0.75; storm_prob = 0.02 }
    ()

let golden_summary =
  {
    Server.wall_s = 1.625;
    offered = 1000;
    admitted = 990;
    completed = 980;
    detected = 3;
    injected = 4;
    recoveries = 2;
    recovery_us = [| 300.; 100. |];
    recovery_total_s = 0.0004;
    availability = 0.999875;
    shed_queue_full = 10;
    shed_deadline = 6;
    shed_draining = 4;
    throughput_rps = 603.0769230769231;
    latency_us = [| 40.; 10.; 30.; 20.; 50. |];
    transitions = [ (0.25, 1); (0.75, 0) ];
    time_at_rung = [| 1.0; 0.625 |];
    rung_names = [| "full"; "runtime_only" |];
    final_rung = 0;
    deepest_rung = 1;
    peak_occupancy = 0.875;
    mined = 12;
    mine_dropped = 1;
    retrained = 2;
    shadow_rejected = 1;
    swaps =
      [
        {
          Server.swap_t_s = 0.5;
          swap_version = 2;
          swap_stats =
            {
              Xentry_lifecycle.Shadow.scored = 64;
              faulted = 8;
              candidate_hits = 7;
              incumbent_hits = 6;
              clean = 56;
              candidate_fp = 0;
              incumbent_fp = 1;
            };
        };
      ];
    final_detector_version = 2;
  }

let summary_json cfg s =
  Xentry_util.Json.to_string (Server.summary_json cfg s)

let test_summary_json_golden () =
  Alcotest.(check string) "byte-exact"
    "{\"schema\": \"xentry-serve-summary-v2\", \"benchmark\": \"postmark\", \
     \"mode\": \"para-virtualization\", \"streams\": 4, \"jobs\": 2, \
     \"rate_rps\": 1000, \"burst\": null, \"storm\": {\"start_s\": 0.25, \
     \"end_s\": 0.75, \"prob\": 0.02}, \"deadline_us\": 5000, \
     \"queue_capacity\": 64, \"duration_s\": 1.5, \"wall_s\": 1.625, \
     \"offered\": 1000, \"admitted\": 990, \"completed\": 980, \
     \"detected\": 3, \"recovery\": {\"policy\": \"microboot\", \
     \"injected\": 4, \"recoveries\": 2, \"total_s\": 0.0004, \
     \"availability\": 0.999875, \"recovery_us\": {\"count\": 2, \
     \"mean\": 200, \"p50\": 200, \"p99\": 298, \"max\": 300}}, \
     \"lifecycle\": {\"mined\": 12, \"dropped\": 1, \"retrained\": 2, \
     \"rejected\": 1, \"final_detector_version\": 2, \
     \"swaps\": [{\"t_s\": 0.5, \"version\": 2, \"scored\": 64}]}, \
     \"shed\": {\"queue_full\": 10, \"deadline_expired\": 6, \
     \"draining\": 4, \"total\": 20}, \"shed_fraction\": 0.02, \
     \"throughput_rps\": 603.07692307692309, \"latency_us\": {\"count\": 5, \
     \"mean\": 30, \"p50\": 30, \"p90\": 46, \"p99\": 49.6, \"max\": 50}, \
     \"transitions\": [{\"t_s\": 0.25, \"to\": \"runtime_only\"}, \
     {\"t_s\": 0.75, \"to\": \"full\"}], \"time_at_level\": {\"full\": 1, \
     \"runtime_only\": 0.625}, \"final_level\": \"full\", \
     \"deepest_level\": \"runtime_only\", \"peak_occupancy\": 0.875}"
    (summary_json golden_config golden_summary)

(* Rung names can come from a file ([serve --rungs] decodes a Pareto
   front's labels), so every field that prints one must escape it:
   "to", the time_at_level keys, final_level and deepest_level. *)
let test_summary_json_escapes_rung_names () =
  let json =
    summary_json golden_config
      {
        golden_summary with
        Server.rung_names = [| "full\"/depth=8\\"; "tab\there\001" |];
      }
  in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" sub) true
        (contains json sub))
    [
      "\"to\": \"tab\\there\\u0001\"}";
      "\"to\": \"full\\\"/depth=8\\\\\"}";
      "\"time_at_level\": {\"full\\\"/depth=8\\\\\": 1, \
       \"tab\\there\\u0001\": 0.625}";
      "\"final_level\": \"full\\\"/depth=8\\\\\"";
      "\"deepest_level\": \"tab\\there\\u0001\"";
    ];
  Alcotest.(check bool) "no raw control byte" false
    (String.contains json '\001')

let () =
  Alcotest.run "xentry_serve"
    [
      ( "bounded queue",
        [
          test_queue_model;
          test_queue_sheds_deterministically;
          Alcotest.test_case "close and drain" `Quick test_queue_close;
          Alcotest.test_case "capacity validation" `Quick
            test_queue_rejects_bad_capacity;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "starts at full detection" `Quick
            test_ladder_starts_full;
          Alcotest.test_case "degrades immediately at the high watermark" `Quick
            test_ladder_degrades_immediately;
          Alcotest.test_case "climbs after hold_ticks calm" `Quick
            test_ladder_climbs_after_hold;
          Alcotest.test_case "mid-band resets the calm streak" `Quick
            test_ladder_midband_resets_streak;
          Alcotest.test_case "overload resets the calm streak" `Quick
            test_ladder_overload_resets_streak;
          Alcotest.test_case "rung detection sets" `Quick
            test_ladder_detection_sets;
          Alcotest.test_case "rungs indexed in order" `Quick
            test_ladder_rungs_indexed;
          Alcotest.test_case "default rungs replay the old machine" `Quick
            test_ladder_default_rungs_replays_old_machine;
          Alcotest.test_case "config validation" `Quick
            test_ladder_validates_config;
        ] );
      ( "serving step",
        [
          Alcotest.test_case "keep-serving keeps the host and retires" `Quick
            test_step_keep_serving;
          Alcotest.test_case "micro-reboot replays on a golden-equal host"
            `Quick test_step_microboot;
          Alcotest.test_case "restart boots a new host" `Quick
            test_step_restart;
          Alcotest.test_case "a clean run retires on the same host" `Quick
            test_step_clean;
        ] );
      ( "summary arithmetic",
        [
          Alcotest.test_case "availability is robust and clamped" `Quick
            test_availability_robust;
          Alcotest.test_case "throughput handles a zero wall" `Quick
            test_throughput_robust;
        ] );
      ( "summary json",
        [
          Alcotest.test_case "xentry-serve-summary-v2 golden" `Quick
            test_summary_json_golden;
          Alcotest.test_case "rung names are escaped" `Quick
            test_summary_json_escapes_rung_names;
        ] );
    ]
