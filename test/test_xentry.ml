(* Tests for Xentry_core: Table I features, the fatal-exception filter,
   transition detection, the framework's attribution, and the
   overhead/recovery models. *)

open Xentry_machine
open Xentry_vmm
open Xentry_core
open Xentry_mlearn

(* --- Features (Table I) --------------------------------------------------- *)

let test_features_table1_names () =
  Alcotest.(check (array string)) "synonyms"
    [| "VMER"; "RT"; "BR"; "RM"; "WM" |]
    Features.names;
  Alcotest.(check int) "five features" 5 Features.count

let test_features_of_run () =
  let snapshot = { Pmu.inst = 100; branches = 10; loads = 20; stores = 5 } in
  let v = Features.of_run ~reason:Exit_reason.Softirq snapshot in
  Alcotest.(check int) "arity" 5 (Array.length v);
  Alcotest.(check (float 0.0)) "VMER"
    (float_of_int (Exit_reason.to_id Exit_reason.Softirq)) v.(0);
  Alcotest.(check (float 0.0)) "RT" 100.0 v.(1);
  Alcotest.(check (float 0.0)) "BR" 10.0 v.(2);
  Alcotest.(check (float 0.0)) "RM" 20.0 v.(3);
  Alcotest.(check (float 0.0)) "WM" 5.0 v.(4)

let test_features_table1_render () =
  let s = Format.asprintf "%a" Features.pp_table1 () in
  List.iter
    (fun needle ->
      let rec contains i =
        i + String.length needle <= String.length s
        && (String.sub s i (String.length needle) = needle || contains (i + 1))
      in
      Alcotest.(check bool) (needle ^ " present") true (contains 0))
    [ "VMER"; "INST_RETIRED"; "BR_INST_RETIRED"; "MEM_INST_RETIRED.LOADS" ]

(* --- Exception filter ------------------------------------------------------- *)

let test_filter_host_mode_fatal_set () =
  (* In host mode, corruption symptoms are fatal... *)
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Hw_exception.name e ^ " fatal in host mode")
        true
        (Exception_filter.is_detection e Exception_filter.Host_mode))
    [ Hw_exception.PF; Hw_exception.GP; Hw_exception.UD; Hw_exception.DE;
      Hw_exception.DF; Hw_exception.MC ];
  (* ...but debug traps and NMIs are not. *)
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Hw_exception.name e ^ " benign in host mode")
        false
        (Exception_filter.is_detection e Exception_filter.Host_mode))
    [ Hw_exception.DB; Hw_exception.BP; Hw_exception.NMI ]

let test_filter_guest_servicing_benign () =
  (* Paper §III-A: "Some exceptions are legal in correct executions,
     such as minor/major page faults and general protection
     exceptions" — when raised on behalf of guests. *)
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Hw_exception.name e ^ " benign while servicing guests")
        false
        (Exception_filter.is_detection e Exception_filter.Guest_servicing))
    [ Hw_exception.PF; Hw_exception.GP; Hw_exception.DE ];
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Hw_exception.name e ^ " always fatal")
        true
        (Exception_filter.is_detection e Exception_filter.Guest_servicing))
    [ Hw_exception.DF; Hw_exception.MC ]

let test_filter_fatal_set_sizes () =
  Alcotest.(check int) "host-mode fatal count" 16
    (List.length (Exception_filter.fatal_set Exception_filter.Host_mode));
  Alcotest.(check int) "guest-servicing fatal count" 6
    (List.length (Exception_filter.fatal_set Exception_filter.Guest_servicing))

(* --- Transition detector ------------------------------------------------------ *)

let toy_tree () =
  (* Incorrect iff RT > 100. *)
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
  Tree.train
    (Dataset.create ~feature_names:Features.names ~n_classes:2 samples)

let test_detector_classifies () =
  let det = Transition_detector.of_tree (toy_tree ()) in
  let reason = Exit_reason.Softirq in
  let verdict snapshot = fst (Transition_detector.classify det ~reason snapshot) in
  Alcotest.(check bool) "normal signature accepted" true
    (verdict { Pmu.inst = 60; branches = 5; loads = 5; stores = 5 }
    = Transition_detector.Correct);
  Alcotest.(check bool) "deviant signature flagged" true
    (verdict { Pmu.inst = 500; branches = 5; loads = 5; stores = 5 }
    = Transition_detector.Incorrect)

let test_detector_comparisons_positive () =
  let det = Transition_detector.of_tree (toy_tree ()) in
  let _, comparisons =
    Transition_detector.classify det ~reason:Exit_reason.Softirq
      { Pmu.inst = 60; branches = 5; loads = 5; stores = 5 }
  in
  Alcotest.(check bool) "traversal cost counted" true (comparisons >= 1);
  Alcotest.(check bool) "bounded by worst case" true
    (comparisons <= Transition_detector.worst_case_comparisons det)

let test_detector_ensemble () =
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
  let ds = Dataset.create ~feature_names:Features.names ~n_classes:2 samples in
  let forest = Forest.train ~trees:5 ~seed:3 ds in
  let det = Transition_detector.create (Transition_detector.Ensemble forest) in
  let verdict, comparisons =
    Transition_detector.classify det ~reason:Exit_reason.Softirq
      { Pmu.inst = 500; branches = 5; loads = 5; stores = 5 }
  in
  Alcotest.(check bool) "ensemble flags deviant" true
    (verdict = Transition_detector.Incorrect);
  (* Members that degenerate to a single leaf (uninformative random
     feature subsets) cost zero comparisons, so only a lower bound of
     one split overall is guaranteed. *)
  Alcotest.(check bool) "ensemble cost is summed" true (comparisons >= 1)

let test_detector_threshold_tradeoff () =
  let det_strict =
    Transition_detector.with_threshold (toy_tree ()) ~min_incorrect_probability:0.9
  in
  let det_paranoid =
    Transition_detector.with_threshold (toy_tree ()) ~min_incorrect_probability:0.05
  in
  let borderline = { Pmu.inst = 60; branches = 5; loads = 5; stores = 5 } in
  (* A clean signature passes the strict detector... *)
  Alcotest.(check bool) "strict accepts" true
    (fst
       (Transition_detector.classify det_strict ~reason:Exit_reason.Softirq
          borderline)
    = Transition_detector.Correct);
  (* ...and the paranoid threshold can only flag more, never less. *)
  let flags det s =
    fst (Transition_detector.classify det ~reason:Exit_reason.Softirq s)
    = Transition_detector.Incorrect
  in
  List.iter
    (fun inst ->
      let s = { Pmu.inst; branches = 5; loads = 5; stores = 5 } in
      Alcotest.(check bool) "monotone in threshold" true
        ((not (flags det_strict s)) || flags det_paranoid s))
    [ 10; 60; 120; 200; 500 ]

let test_detector_threshold_validation () =
  Alcotest.check_raises "threshold out of range"
    (Invalid_argument
       "Transition_detector.with_threshold: probability out of [0, 1]")
    (fun () ->
      ignore
        (Transition_detector.with_threshold (toy_tree ())
           ~min_incorrect_probability:1.5))

(* --- Verdict attribution (the paper's Fig 4 framework) -------------------------- *)

let run_result stop =
  {
    Cpu.stop;
    steps = 100;
    final_pmu = { Pmu.inst = 60; branches = 5; loads = 5; stores = 5 };
    activation =
      Some
        {
          Cpu.injection =
            (Cpu.reg_injection Xentry_isa.Reg.Rip ~bit:1 ~step:10);
          fate = Cpu.Activated 20;
        };
  }

(* These tests exercise [Pipeline.verdict] through a shim taking a
   bare detection set and an optional model, wrapped at v0. *)
let process config ~detector ~reason result =
  Pipeline.verdict
    {
      Pipeline.Config.default with
      Pipeline.Config.detection = config;
      detector = Option.map (Detector.make ~version:0) detector;
    }
    ~reason result

(* The versioned [Detector.t] wrapper must be verdict-transparent: the
   same model wrapped at any version/origin gives the same answers
   through [Pipeline.verdict] as the v0 wrap. *)
let test_pipeline_detector_version_transparent () =
  let model = Transition_detector.of_tree (toy_tree ()) in
  let stops =
    [
      Cpu.Hw_fault { exn = Hw_exception.PF; detail = 0L };
      Cpu.Hw_fault { exn = Hw_exception.BP; detail = 0L };
      Cpu.Out_of_fuel;
      Cpu.Vm_entry;
      Cpu.Halted;
    ]
  in
  List.iter
    (fun config ->
      List.iter
        (fun reason ->
          List.iter
            (fun stop ->
              let base =
                process config ~detector:(Some model) ~reason (run_result stop)
              in
              List.iter
                (fun version ->
                  let det =
                    Detector.make ~version ~origin:Detector.Streamed
                      ~trained_on:0 model
                  in
                  let v =
                    Pipeline.verdict
                      {
                        Pipeline.Config.default with
                        Pipeline.Config.detection = config;
                        detector = Some det;
                      }
                      ~reason (run_result stop)
                  in
                  Alcotest.(check bool)
                    "versioned detector is verdict-transparent" true (v = base))
                [ 1; 7 ])
            stops)
        [
          Exit_reason.Softirq;
          Exit_reason.Exception Hw_exception.PF;
          Exit_reason.Hypercall Hypercall.Sched_op;
        ])
    [ Pipeline.full_detection; Pipeline.runtime_only; Pipeline.detection_disabled ]

let test_framework_attributes_hw () =
  let v =
    process Pipeline.full_detection ~detector:None
      ~reason:Exit_reason.Softirq
      (run_result (Cpu.Hw_fault { exn = Hw_exception.PF; detail = 0L }))
  in
  match v with
  | Pipeline.Detected { technique = Pipeline.Hw_exception_detection; latency } ->
      Alcotest.(check (option int)) "latency from activation" (Some 80) latency
  | _ -> Alcotest.fail "expected hw detection"

let test_framework_benign_exception_not_detected () =
  let v =
    process Pipeline.full_detection ~detector:None
      ~reason:Exit_reason.Softirq
      (run_result (Cpu.Hw_fault { exn = Hw_exception.BP; detail = 0L }))
  in
  Alcotest.(check bool) "breakpoint is benign" true (v = Pipeline.Clean)

let test_framework_watchdog_counts_as_hw () =
  let v =
    process Pipeline.full_detection ~detector:None
      ~reason:Exit_reason.Softirq (run_result Cpu.Out_of_fuel)
  in
  match v with
  | Pipeline.Detected { technique = Pipeline.Hw_exception_detection; _ } -> ()
  | _ -> Alcotest.fail "expected watchdog as hw detection"

let test_framework_assertion_attribution () =
  let assertion =
    {
      Xentry_isa.Instr.assert_id = 1;
      assert_name = "x";
      assert_src = Xentry_isa.Operand.imm 0L;
      assert_kind = Xentry_isa.Instr.Assert_nonzero;
    }
  in
  let v =
    process Pipeline.full_detection ~detector:None
      ~reason:Exit_reason.Softirq
      (run_result (Cpu.Assertion_failure { assertion; observed = 0L }))
  in
  match v with
  | Pipeline.Detected { technique = Pipeline.Sw_assertion; _ } -> ()
  | _ -> Alcotest.fail "expected sw assertion detection"

let test_framework_vm_transition () =
  let det = Transition_detector.of_tree (toy_tree ()) in
  let deviant =
    {
      (run_result Cpu.Vm_entry) with
      Cpu.final_pmu = { Pmu.inst = 500; branches = 5; loads = 5; stores = 5 };
    }
  in
  let v =
    process Pipeline.full_detection ~detector:(Some det)
      ~reason:Exit_reason.Softirq deviant
  in
  (match v with
  | Pipeline.Detected { technique = Pipeline.Vm_transition; _ } -> ()
  | _ -> Alcotest.fail "expected vm transition detection");
  let normal = run_result Cpu.Vm_entry in
  Alcotest.(check bool) "normal accepted" true
    (process Pipeline.full_detection ~detector:(Some det)
       ~reason:Exit_reason.Softirq normal
    = Pipeline.Clean)

let test_framework_context_follows_reason () =
  (* Regression: [process] must derive the filter context from the
     exit reason.  A #PF raised while servicing a trapped guest
     exception is normal guest servicing (demand paging) — not a
     detection — while the same #PF during any other exit is fatal.
     #DF stays fatal in both contexts. *)
  let pf = Cpu.Hw_fault { exn = Hw_exception.PF; detail = 0L } in
  Alcotest.(check bool) "PF while servicing a guest exception is benign" true
    (process Pipeline.full_detection ~detector:None
       ~reason:(Exit_reason.Exception Hw_exception.PF)
       (run_result pf)
    = Pipeline.Clean);
  (match
     process Pipeline.full_detection ~detector:None
       ~reason:Exit_reason.Softirq (run_result pf)
   with
  | Pipeline.Detected { technique = Pipeline.Hw_exception_detection; _ } -> ()
  | _ -> Alcotest.fail "PF during a softirq must be a detection");
  match
    process Pipeline.full_detection ~detector:None
      ~reason:(Exit_reason.Exception Hw_exception.PF)
      (run_result (Cpu.Hw_fault { exn = Hw_exception.DF; detail = 0L }))
  with
  | Pipeline.Detected { technique = Pipeline.Hw_exception_detection; _ } -> ()
  | _ -> Alcotest.fail "#DF is fatal even in guest servicing"

let test_exception_filter_context_of_reason () =
  Alcotest.(check bool) "exception exits are guest servicing" true
    (Exception_filter.context_of_reason (Exit_reason.Exception Hw_exception.GP)
    = Exception_filter.Guest_servicing);
  List.iter
    (fun reason ->
      Alcotest.(check bool)
        (Format.asprintf "%a runs in host mode" Exit_reason.pp reason)
        true
        (Exception_filter.context_of_reason reason = Exception_filter.Host_mode))
    [
      Exit_reason.Irq 3;
      Exit_reason.Softirq;
      Exit_reason.Tasklet;
      Exit_reason.Apic Exit_reason.Apic_timer;
      Exit_reason.Hypercall Hypercall.Sched_op;
    ]

let test_framework_disabled_detects_nothing () =
  List.iter
    (fun stop ->
      Alcotest.(check bool) "disabled is blind" true
        (process Pipeline.detection_disabled ~detector:None
           ~reason:Exit_reason.Softirq (run_result stop)
        = Pipeline.Clean))
    [
      Cpu.Hw_fault { exn = Hw_exception.PF; detail = 0L };
      Cpu.Out_of_fuel;
      Cpu.Vm_entry;
    ]

let test_framework_runtime_only_skips_transition () =
  let det = Transition_detector.of_tree (toy_tree ()) in
  let deviant =
    {
      (run_result Cpu.Vm_entry) with
      Cpu.final_pmu = { Pmu.inst = 500; branches = 5; loads = 5; stores = 5 };
    }
  in
  Alcotest.(check bool) "runtime-only ignores signature" true
    (process Pipeline.runtime_only ~detector:(Some det)
       ~reason:Exit_reason.Softirq deviant
    = Pipeline.Clean)

(* --- Cost model (Fig 7) ----------------------------------------------------------- *)

let test_cost_per_exit_zero_when_disabled () =
  Alcotest.(check (float 0.0)) "disabled costs nothing" 0.0
    (Cost_model.per_exit_seconds Cost_model.default_params Pipeline.detection_disabled
       ~tree_comparisons:10)

let test_cost_full_exceeds_runtime_only () =
  let p = Cost_model.default_params in
  let full =
    Cost_model.per_exit_seconds p Pipeline.full_detection ~tree_comparisons:10
  in
  let runtime =
    Cost_model.per_exit_seconds p Pipeline.runtime_only ~tree_comparisons:10
  in
  Alcotest.(check bool) "full > runtime-only" true (full > runtime);
  Alcotest.(check bool) "sub-microsecond" true (full < 1e-6)

let test_cost_fig7_shape () =
  let rows = Cost_model.fig7 ~tree_comparisons:12 ~seed:5 () in
  Alcotest.(check int) "six benchmarks" 6 (List.length rows);
  let find name = List.find (fun (n, _, _) -> n = name) rows in
  let _, _, postmark = find "postmark" in
  let _, _, bzip2 = find "bzip2" in
  (* Fig 7's shape: postmark worst, bzip2 best, CPU/memory benchmarks
     under 1%, runtime-only nearly free. *)
  Alcotest.(check bool) "postmark > bzip2" true
    (postmark.Cost_model.avg > bzip2.Cost_model.avg);
  Alcotest.(check bool) "bzip2 under 1%" true (bzip2.Cost_model.avg < 0.01);
  List.iter
    (fun (_, runtime, full) ->
      Alcotest.(check bool) "runtime-only <= full" true
        (runtime.Cost_model.avg <= full.Cost_model.avg +. 1e-12))
    rows;
  Alcotest.(check bool) "postmark max heavy tail" true
    (postmark.Cost_model.max > postmark.Cost_model.avg)

(* --- Recovery model (Fig 11) --------------------------------------------------------- *)

let test_recovery_fig11_shape () =
  let rows = Recovery.fig11 ~trials:30 ~seed:5 () in
  Alcotest.(check int) "six benchmarks" 6 (List.length rows);
  let find name = List.assoc name rows in
  let postmark = find "postmark" and bzip2 = find "bzip2" and mcf = find "mcf" in
  (* Fig 11: postmark highest (~6.3%), mcf/bzip2 lowest (~1.6%),
     min-max spread tiny. *)
  Alcotest.(check bool) "postmark worst" true
    (postmark.Recovery.avg > mcf.Recovery.avg
    && postmark.Recovery.avg > bzip2.Recovery.avg);
  Alcotest.(check bool) "postmark in 4-9% band" true
    (postmark.Recovery.avg > 0.04 && postmark.Recovery.avg < 0.09);
  Alcotest.(check bool) "bzip2 in 0.5-3% band" true
    (bzip2.Recovery.avg > 0.005 && bzip2.Recovery.avg < 0.03);
  Alcotest.(check bool) "spread is small" true
    (postmark.Recovery.max -. postmark.Recovery.min < 0.01)

let test_recovery_average_near_paper () =
  let rows = Recovery.fig11 ~trials:30 ~seed:6 () in
  let avg =
    List.fold_left (fun acc (_, s) -> acc +. s.Recovery.avg) 0.0 rows
    /. float_of_int (List.length rows)
  in
  (* Paper: 2.7% average. *)
  Alcotest.(check bool) "average in 1.5-4.5% band" true (avg > 0.015 && avg < 0.045)

let () =
  Alcotest.run "xentry_core"
    [
      ( "features",
        [
          Alcotest.test_case "table1 names" `Quick test_features_table1_names;
          Alcotest.test_case "of_run" `Quick test_features_of_run;
          Alcotest.test_case "table1 render" `Quick test_features_table1_render;
        ] );
      ( "exception_filter",
        [
          Alcotest.test_case "host mode" `Quick test_filter_host_mode_fatal_set;
          Alcotest.test_case "guest servicing" `Quick
            test_filter_guest_servicing_benign;
          Alcotest.test_case "set sizes" `Quick test_filter_fatal_set_sizes;
        ] );
      ( "transition_detector",
        [
          Alcotest.test_case "classifies" `Quick test_detector_classifies;
          Alcotest.test_case "comparisons" `Quick test_detector_comparisons_positive;
          Alcotest.test_case "ensemble" `Quick test_detector_ensemble;
          Alcotest.test_case "threshold tradeoff" `Quick
            test_detector_threshold_tradeoff;
          Alcotest.test_case "threshold validation" `Quick
            test_detector_threshold_validation;
        ] );
      ( "framework",
        [
          Alcotest.test_case "hw attribution" `Quick test_framework_attributes_hw;
          Alcotest.test_case "benign exception" `Quick
            test_framework_benign_exception_not_detected;
          Alcotest.test_case "watchdog" `Quick test_framework_watchdog_counts_as_hw;
          Alcotest.test_case "assertion attribution" `Quick
            test_framework_assertion_attribution;
          Alcotest.test_case "vm transition" `Quick test_framework_vm_transition;
          Alcotest.test_case "context follows reason" `Quick
            test_framework_context_follows_reason;
          Alcotest.test_case "context of reason" `Quick
            test_exception_filter_context_of_reason;
          Alcotest.test_case "disabled" `Quick test_framework_disabled_detects_nothing;
          Alcotest.test_case "runtime only" `Quick
            test_framework_runtime_only_skips_transition;
          Alcotest.test_case "detector version transparent" `Quick
            test_pipeline_detector_version_transparent;
        ] );
      ( "cost_model",
        [
          Alcotest.test_case "disabled zero" `Quick test_cost_per_exit_zero_when_disabled;
          Alcotest.test_case "full > runtime" `Quick test_cost_full_exceeds_runtime_only;
          Alcotest.test_case "fig7 shape" `Quick test_cost_fig7_shape;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "fig11 shape" `Slow test_recovery_fig11_shape;
          Alcotest.test_case "fig11 average" `Slow test_recovery_average_near_paper;
        ] );
    ]
