(* Tests for Xentry_workload: benchmark profiles, activation-rate
   bands (Fig 3), reason mixes, request validity and streams. *)

open Xentry_util
open Xentry_workload
open Xentry_vmm
open Xentry_machine

let all_benchmarks = Array.to_list Profile.all_benchmarks

(* --- Profiles --------------------------------------------------------- *)

let test_six_benchmarks () =
  Alcotest.(check int) "six benchmarks" 6 (Array.length Profile.all_benchmarks)

let test_benchmark_names () =
  Alcotest.(check (list string)) "paper order"
    [ "mcf"; "bzip2"; "freqmine"; "canneal"; "x264"; "postmark" ]
    (List.map Profile.benchmark_name all_benchmarks)

let test_workload_classes () =
  (* Paper §V-A: postmark/freqmine/x264 exercise I/O, canneal/bzip2
     CPU, mcf memory. *)
  let cls b = Profile.workload_class (Profile.get b) in
  Alcotest.(check bool) "mcf memory" true (cls Profile.Mcf = Profile.Memory_bound);
  Alcotest.(check bool) "bzip2 cpu" true (cls Profile.Bzip2 = Profile.Cpu_bound);
  Alcotest.(check bool) "postmark io" true (cls Profile.Postmark = Profile.Io_bound);
  Alcotest.(check bool) "freqmine io" true (cls Profile.Freqmine = Profile.Io_bound)

let test_pv_rates_in_paper_band () =
  (* Fig 3: PV activation frequencies between 5,000/s and 100,000/s,
     with freqmine's peak toward 650,000/s. *)
  let rng = Rng.create 3 in
  List.iter
    (fun b ->
      let p = Profile.get b in
      for _ = 1 to 200 do
        let r = Profile.sample_activation_rate p Profile.PV rng in
        Alcotest.(check bool)
          (Profile.benchmark_name b ^ " pv rate plausible")
          true
          (r >= 5_000.0 && r <= 650_000.0)
      done)
    all_benchmarks

let test_hvm_rates_lower_than_pv () =
  (* The paper observes PV rates generally higher than HVM. *)
  let rng = Rng.create 4 in
  List.iter
    (fun b ->
      let p = Profile.get b in
      let mean mode =
        let total = ref 0.0 in
        for _ = 1 to 300 do
          total := !total +. Profile.sample_activation_rate p mode rng
        done;
        !total /. 300.0
      in
      Alcotest.(check bool)
        (Profile.benchmark_name b ^ " PV > HVM")
        true
        (mean Profile.PV > mean Profile.HVM))
    all_benchmarks

let test_hvm_rates_in_band () =
  (* HVM: "Most of them are between 2,000/s and 10,000/s". *)
  let rng = Rng.create 5 in
  let in_band = ref 0 and total = ref 0 in
  List.iter
    (fun b ->
      let p = Profile.get b in
      for _ = 1 to 200 do
        incr total;
        let r = Profile.sample_activation_rate p Profile.HVM rng in
        if r >= 2_000.0 && r <= 10_000.0 then incr in_band
      done)
    all_benchmarks;
  Alcotest.(check bool) "most HVM rates in 2k-10k" true
    (float_of_int !in_band /. float_of_int !total > 0.6)

let test_freqmine_peak_highest () =
  let rng = Rng.create 6 in
  let peak b =
    let p = Profile.get b in
    let m = ref 0.0 in
    for _ = 1 to 2000 do
      m := Float.max !m (Profile.sample_activation_rate p Profile.PV rng)
    done;
    !m
  in
  let fm = peak Profile.Freqmine in
  Alcotest.(check bool) "freqmine peak dominates" true
    (List.for_all (fun b -> b = Profile.Freqmine || peak b < fm) all_benchmarks);
  Alcotest.(check bool) "peak approaches 650k" true (fm > 300_000.0)

let test_reason_mix_sums_to_one () =
  List.iter
    (fun b ->
      List.iter
        (fun mode ->
          let mix = Profile.reason_mix (Profile.get b) mode in
          let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 mix in
          Alcotest.(check (float 1e-6)) "weights sum to 1" 1.0 total)
        [ Profile.PV; Profile.HVM ])
    all_benchmarks

let test_pv_hypercall_heavy_hvm_exception_heavy () =
  let weight mix name = try List.assoc name mix with Not_found -> 0.0 in
  List.iter
    (fun b ->
      let p = Profile.get b in
      let pv = Profile.reason_mix p Profile.PV in
      let hvm = Profile.reason_mix p Profile.HVM in
      Alcotest.(check bool) "PV has more hypercalls" true
        (weight pv "hypercall" > weight hvm "hypercall");
      Alcotest.(check bool) "HVM has more exceptions" true
        (weight hvm "exception" > weight pv "exception"))
    all_benchmarks

let test_physical_rates_ordering () =
  (* Fig 11: postmark's recovery overhead dominates, bzip2/mcf lowest;
     that ordering comes from the physical trace rates. *)
  let tr b = Profile.trace_rate (Profile.get b) in
  Alcotest.(check bool) "postmark highest" true
    (List.for_all
       (fun b -> b = Profile.Postmark || tr b < tr Profile.Postmark)
       all_benchmarks);
  Alcotest.(check bool) "bzip2 lowest" true
    (List.for_all (fun b -> b = Profile.Bzip2 || tr b >= tr Profile.Bzip2) all_benchmarks)

(* --- Request validity ---------------------------------------------------- *)

let test_sampled_requests_run_clean () =
  (* Every request a profile can generate must execute fault-free to
     VM entry: error paths are reserved for fault injection. *)
  let host = Hypervisor.create ~seed:31 () in
  let rng = Rng.create 77 in
  List.iter
    (fun b ->
      let p = Profile.get b in
      List.iter
        (fun mode ->
          for _ = 1 to 150 do
            let req = Profile.sample_request p mode rng in
            let result = Hypervisor.handle host req in
            match result.Cpu.stop with
            | Cpu.Vm_entry -> ()
            | s ->
                Alcotest.failf "%s/%s: %s stopped with %a"
                  (Profile.benchmark_name b) (Profile.mode_name mode)
                  (Exit_reason.name req.Request.reason) Cpu.pp_stop s
          done)
        [ Profile.PV; Profile.HVM ])
    all_benchmarks

let test_requests_cover_many_reasons () =
  let p = Profile.get Profile.Postmark in
  let rng = Rng.create 123 in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 3000 do
    let req = Profile.sample_request p Profile.PV rng in
    Hashtbl.replace seen (Exit_reason.to_id req.Request.reason) ()
  done;
  Alcotest.(check bool) "at least half the reasons appear" true
    (Hashtbl.length seen > Exit_reason.count / 2)

(* The sampler as it was before its weight tables were built once at
   module initialisation: every draw rebuilds each weight list and
   converts it to an array.  Kept as the reference the table-driven
   sampler must match draw for draw. *)
let list_building_sample p mode rng =
  let wclass = Profile.workload_class p in
  let pick weights = Rng.weighted_choice rng (Array.of_list weights) in
  let reason =
    match pick (Profile.reason_mix p mode) with
    | "hypercall" -> Exit_reason.Hypercall (pick (Profile.hypercall_weights wclass))
    | "exception" -> Exit_reason.Exception (pick (Profile.exception_weights wclass))
    | "irq" -> Exit_reason.Irq (pick (Profile.irq_weights wclass))
    | "apic" -> Exit_reason.Apic (pick Profile.apic_weights)
    | "softirq" -> Exit_reason.Softirq
    | _ -> Exit_reason.Tasklet
  in
  Profile.request_for_reason reason rng

let test_tables_match_list_building_sampler () =
  List.iter
    (fun b ->
      List.iter
        (fun mode ->
          let p = Profile.get b in
          let rng = Rng.create 77 and ref_rng = Rng.create 77 in
          for i = 1 to 2000 do
            let req = Profile.sample_request p mode rng in
            if req <> list_building_sample p mode ref_rng then
              Alcotest.failf "%s %s: draw %d differs (%s)" (Profile.benchmark_name b)
                (Profile.mode_name mode) i
                (Exit_reason.name req.Request.reason)
          done)
        [ Profile.PV; Profile.HVM ])
    all_benchmarks

let test_mean_handler_length_reasonable () =
  let p = Profile.get Profile.Postmark in
  let len = Profile.mean_handler_length p Profile.PV in
  Alcotest.(check bool) "within detection-latency scale" true
    (len > 50.0 && len < 5_000.0)

(* --- Stream ----------------------------------------------------------------- *)

let test_stream_rates_shape () =
  let s = Stream.create (Profile.get Profile.Mcf) Profile.PV (Rng.create 9) in
  let rates = Stream.activation_rates s ~seconds:50 in
  Alcotest.(check int) "one per second" 50 (Array.length rates);
  Array.iter
    (fun r -> Alcotest.(check bool) "positive" true (r > 0.0))
    rates

let test_stream_next_second_caps_events () =
  let s = Stream.create (Profile.get Profile.Postmark) Profile.PV (Rng.create 10) in
  let rate, events = Stream.next_second s ~max_events:25 in
  Alcotest.(check bool) "rate positive" true (rate > 0.0);
  Alcotest.(check bool) "capped" true (List.length events <= 25)

let test_stream_deterministic () =
  let mk () = Stream.create (Profile.get Profile.X264) Profile.PV (Rng.create 11) in
  let a = Stream.activation_rates (mk ()) ~seconds:10 in
  let b = Stream.activation_rates (mk ()) ~seconds:10 in
  Alcotest.(check bool) "same seed same stream" true (a = b)

(* --- qcheck -------------------------------------------------------------------- *)

let prop_requests_have_bounded_args =
  QCheck.Test.make ~name:"request args stay in staging range" ~count:300
    QCheck.(pair (int_range 0 5) int)
    (fun (bidx, seed) ->
      let p = Profile.get Profile.all_benchmarks.(bidx) in
      let rng = Rng.create seed in
      let req = Profile.sample_request p Profile.PV rng in
      Array.length req.Request.args = 8
      && Array.length req.Request.guest = 6)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_requests_have_bounded_args ] in
  Alcotest.run "xentry_workload"
    [
      ( "profile",
        [
          Alcotest.test_case "six benchmarks" `Quick test_six_benchmarks;
          Alcotest.test_case "names" `Quick test_benchmark_names;
          Alcotest.test_case "classes" `Quick test_workload_classes;
          Alcotest.test_case "pv band" `Quick test_pv_rates_in_paper_band;
          Alcotest.test_case "pv > hvm" `Quick test_hvm_rates_lower_than_pv;
          Alcotest.test_case "hvm band" `Quick test_hvm_rates_in_band;
          Alcotest.test_case "freqmine peak" `Slow test_freqmine_peak_highest;
          Alcotest.test_case "mix sums" `Quick test_reason_mix_sums_to_one;
          Alcotest.test_case "pv/hvm mixes" `Quick
            test_pv_hypercall_heavy_hvm_exception_heavy;
          Alcotest.test_case "physical ordering" `Quick test_physical_rates_ordering;
        ] );
      ( "requests",
        [
          Alcotest.test_case "run clean" `Slow test_sampled_requests_run_clean;
          Alcotest.test_case "reason coverage" `Quick test_requests_cover_many_reasons;
          Alcotest.test_case "tables match list-building sampler" `Quick
            test_tables_match_list_building_sampler;
          Alcotest.test_case "mean length" `Quick test_mean_handler_length_reasonable;
        ] );
      ( "stream",
        [
          Alcotest.test_case "rates shape" `Quick test_stream_rates_shape;
          Alcotest.test_case "caps events" `Quick test_stream_next_second_caps_events;
          Alcotest.test_case "deterministic" `Quick test_stream_deterministic;
        ] );
      ("properties", qsuite);
    ]
