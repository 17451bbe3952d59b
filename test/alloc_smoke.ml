(* Allocation guards for the two hot loops, by direct major-heap
   allocation: words allocated straight into the major heap,
   [major_words - promoted_words] from [Gc.quick_stat].  Both counts
   repeat exactly from run to run.  Most of what they catch is 4 KiB
   page frames: such a block is too big for the minor heap.

   - Campaign: a planned campaign (400 injections x 16 faults, all six
     fault classes, seed 3, jobs 1, no detector) must return the
     exhaustive run's records and stay under [campaign_bound] words per
     record.  A campaign that stops recycling the frames of the hosts
     it discards lands far above it.
   - Serve: one micro-reboot serving step (postmark PV, host seed 5,
     no detector) serves 200 warm-up requests, then 2,000 measured ones
     — prepare, capture, run, retire — with a reboot forced every 500
     requests, and must stay under [serve_bound] words per request.  A
     capture that makes the next execution duplicate the pages it
     writes lands far above it.

   A third leg counts minor-heap words instead, per simulated step of
   the fast engine, around the interpreter calls alone (the count
   repeats exactly too).  One postmark PV host (seed 5) serves 2,000
   requests:
   - Hot loop: the plain executions, after the first 100 requests
     (which compile their handlers), must stay under [hot_bound] words
     per step.
   - RIP-driven loop: every tenth request is executed with snapshots
     at steps 0 and 40, and a random register fault is resumed from
     each; the resumed suffixes must stay under [resumed_bound].
   An engine that boxes its register writes, flags, branch targets,
   addresses or loaded words again lands far above both. *)

open Xentry_util
open Xentry_workload
open Xentry_vmm
open Xentry_core
open Xentry_faultinject
module Step = Xentry_serve.Server.Step

(* See test/dune for the base of these figures. *)
let campaign_bound = 500.
let serve_bound = 400.
let hot_bound = 1.
let resumed_bound = 1.5

let config ~prune =
  Campaign.Config.make ~jobs:1 ~benchmark:Profile.Postmark
    ~fault_classes:(Array.to_list Fault.all_classes) ~injections:400 ~seed:3
    ~fuel:2000 ~faults_per_run:16 ~prune ()

let direct_major_words () =
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("FAIL: " ^ msg); exit 1) fmt

let campaign_leg () =
  let exhaustive = Campaign.execute (config ~prune:false) in
  Gc.full_major ();
  let w0 = direct_major_words () in
  let planned = Campaign.execute (config ~prune:true) in
  let per_record =
    (direct_major_words () -. w0) /. float_of_int (List.length planned)
  in
  if planned <> exhaustive then fail "planned records differ from the exhaustive run's";
  if per_record >= campaign_bound then
    fail "%.1f direct major-heap words per record, bound %.0f" per_record
      campaign_bound;
  Printf.printf
    "alloc-smoke campaign OK: %d records identical to exhaustive, %.1f direct \
     major-heap words per record (bound %.0f)\n"
    (List.length planned) per_record campaign_bound

let serve_leg () =
  let pcfg = Pipeline.Config.make () in
  let step = Step.create Xentry_serve.Server.Microboot ~seed:5 in
  let stream = Stream.create (Profile.get Profile.Postmark) Profile.PV (Rng.create 5) in
  let reboots = ref 0 in
  let serve i =
    let req = Stream.next_request stream in
    match (Step.detect step pcfg req).Pipeline.verdict with
    | Pipeline.Clean when (i + 1) mod 500 <> 0 -> ()
    | _ ->
        incr reboots;
        ignore (Step.recover step pcfg req : Pipeline.outcome)
  in
  let warmup = 200 and measured = 2000 in
  for i = 0 to warmup - 1 do
    serve i
  done;
  Gc.full_major ();
  reboots := 0;
  let w0 = direct_major_words () in
  for i = warmup to warmup + measured - 1 do
    serve i
  done;
  let per_request = (direct_major_words () -. w0) /. float_of_int measured in
  if per_request >= serve_bound then
    fail "%.1f direct major-heap words per served request, bound %.0f"
      per_request serve_bound;
  Printf.printf
    "alloc-smoke serve OK: %d requests, %d reboots, %.1f direct major-heap \
     words per request (bound %.0f)\n"
    measured !reboots per_request serve_bound

(* Minor words allocated and steps simulated by [f ()]. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  let (r : Xentry_machine.Cpu.run_result) = f () in
  (Gc.minor_words () -. w0, r.Xentry_machine.Cpu.steps)

let interpreter_leg () =
  let host = Hypervisor.create ~seed:5 ~engine:Xentry_machine.Cpu.Fast () in
  let stream =
    Stream.create (Profile.get Profile.Postmark) Profile.PV (Rng.create 5)
  in
  let faults = Rng.create 6 in
  let archs = Xentry_isa.Reg.all_arch in
  let requests = 2000 and resumed_every = 10 in
  let hot_words = ref 0. and hot_steps = ref 0 in
  let res_words = ref 0. and res_steps = ref 0 and res_runs = ref 0 in
  for i = 0 to requests - 1 do
    let req = Stream.next_request stream in
    Hypervisor.prepare host req;
    if i mod resumed_every <> 0 then begin
      let w, n = minor_words_of (fun () -> Hypervisor.execute host req) in
      (* The first requests compile their handlers. *)
      if i >= 100 then begin
        hot_words := !hot_words +. w;
        hot_steps := !hot_steps + n
      end
    end
    else begin
      let golden, _trace, snaps =
        Hypervisor.execute_recorded host ~snapshot_at:[| 0; 40 |] req
      in
      List.iter
        (fun snap ->
          let from = Hypervisor.snapshot_step snap in
          let arch = archs.(Rng.int faults (Array.length archs)) in
          let bit = Rng.int faults 64 in
          let span = max 1 (golden.Xentry_machine.Cpu.steps - from) in
          let step = from + Rng.int faults span in
          let inject = Xentry_machine.Cpu.reg_injection arch ~bit ~step in
          let h = Hypervisor.restore snap in
          let w, n =
            minor_words_of (fun () -> Hypervisor.resume h snap ~inject req)
          in
          res_words := !res_words +. w;
          res_steps := !res_steps + (n - from);
          incr res_runs;
          Hypervisor.release h)
        snaps;
      List.iter Hypervisor.release_snapshot snaps
    end;
    Hypervisor.retire host req
  done;
  let per_step words steps = words /. float_of_int (max 1 steps) in
  let hot = per_step !hot_words !hot_steps in
  let resumed = per_step !res_words !res_steps in
  if hot >= hot_bound then
    fail "%.3f minor words per hot-loop step, bound %g" hot hot_bound;
  if resumed >= resumed_bound then
    fail "%.3f minor words per resumed step, bound %g" resumed resumed_bound;
  Printf.printf
    "alloc-smoke interpreter OK: %.3f minor words per hot-loop step over %d \
     steps (bound %g), %.3f per resumed step over %d runs, %d steps (bound \
     %g)\n"
    hot !hot_steps hot_bound resumed !res_runs !res_steps resumed_bound

let () =
  campaign_leg ();
  serve_leg ();
  interpreter_leg ()
