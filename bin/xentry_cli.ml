(* xentry — command-line driver for the Xentry reproduction.

   Subcommands:
     simulate   run a benchmark's VM-exit stream on a simulated host
     inject     run a fault-injection campaign and summarize it
     train      run the SIII-B training pipeline and report accuracy
     serve      run the streaming request engine (backpressure + degradation)
     recover    run the recovery campaign: checkpoint restore and micro-reboot
                (vs restart baseline)
     worker     run a cluster worker process
     optimize   sweep detector configurations for a Pareto front
     handlers   list the synthesized hypervisor handlers
     export     export the training corpus (ARFF) and classifier (C)
     features   print Table I
     bench      regenerate the paper's figures and tables, the extensions
                and the system measurements *)

open Cmdliner
open Xentry_vmm
open Xentry_workload
open Xentry_core
open Xentry_faultinject

(* --- shared arguments -------------------------------------------------- *)

let benchmark_conv =
  let parse s =
    let found =
      Array.to_list Profile.all_benchmarks
      |> List.find_opt (fun b -> Profile.benchmark_name b = String.lowercase_ascii s)
    in
    match found with
    | Some b -> Ok b
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown benchmark %S (expected one of %s)" s
               (String.concat ", "
                  (Array.to_list
                     (Array.map Profile.benchmark_name Profile.all_benchmarks)))))
  in
  let print ppf b = Format.pp_print_string ppf (Profile.benchmark_name b) in
  Arg.conv (parse, print)

let benchmark_arg =
  Arg.(
    value
    & opt benchmark_conv Profile.Postmark
    & info [ "b"; "benchmark" ] ~docv:"NAME"
        ~doc:"Benchmark workload (mcf, bzip2, freqmine, canneal, x264, postmark).")

let mode_conv =
  let parse = function
    | "pv" -> Ok Profile.PV
    | "hvm" -> Ok Profile.HVM
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S (pv or hvm)" s))
  in
  let print ppf m =
    Format.pp_print_string ppf (match m with Profile.PV -> "pv" | Profile.HVM -> "hvm")
  in
  Arg.conv (parse, print)

let mode_arg =
  Arg.(
    value & opt mode_conv Profile.PV
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:"Virtualization mode: pv (para-virtualized) or hvm.")

let seed_arg =
  Arg.(value & opt int 2014 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let jobs_arg =
  let doc =
    "Worker domains for campaign execution (0 means the runtime's \
     recommended count for this machine; default $(b,XENTRY_JOBS), else 1). \
     Campaign results are bit-identical for every value."
  in
  let env = Cmd.Env.info "XENTRY_JOBS" ~doc:"See option $(b,--jobs)." in
  Arg.(
    value
    & opt int (Xentry_util.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~env ~doc)

let resolve_jobs j = if j <= 0 then Xentry_util.Pool.recommended_jobs () else j

let engine_conv =
  let parse s =
    match Xentry_machine.Cpu.engine_of_string s with
    | Some e -> Ok e
    | None -> Error (`Msg (Printf.sprintf "unknown engine %S (ref or fast)" s))
  in
  let print ppf e =
    Format.pp_print_string ppf (Xentry_machine.Cpu.engine_name e)
  in
  Arg.conv (parse, print)

let engine_arg =
  let doc =
    "Interpreter engine for hypervisor execution: $(b,ref) (the match-based \
     reference interpreter) or $(b,fast) (the threaded-code engine). \
     Default from $(b,XENTRY_ENGINE), else fast.  Results are bit-identical \
     for both."
  in
  let env = Cmd.Env.info "XENTRY_ENGINE" ~doc:"See option $(b,--engine)." in
  Arg.(
    value
    & opt engine_conv (Xentry_machine.Cpu.default_engine ())
    & info [ "engine" ] ~docv:"ENGINE" ~env ~doc)

let apply_engine e = Xentry_machine.Cpu.set_default_engine e
let print_json v = print_endline (Xentry_util.Json.to_string v)

let telemetry_arg =
  let doc =
    "Write telemetry (counters, histograms, per-shard events) as JSON Lines \
     to $(docv) when the run completes.  Default from $(b,XENTRY_TELEMETRY). \
     Telemetry never affects results: campaign records are bit-identical \
     with it on or off."
  in
  let env = Cmd.Env.info "XENTRY_TELEMETRY" in
  Arg.(
    value & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE" ~env ~doc)

(* After exporting this process's metrics, append the telemetry dumps
   cluster workers sent back into [worker_dumps] (newest first), one
   JSON line each: one file tells the whole cluster's story. *)
let with_telemetry ?(worker_dumps = ref []) path f =
  match path with
  | None -> f ()
  | Some file ->
      Xentry_util.Telemetry.enable ();
      Fun.protect
        ~finally:(fun () ->
          Xentry_util.Telemetry.export_file file;
          (match List.rev !worker_dumps with
          | [] -> ()
          | l -> Xentry_cluster.Front.append_worker_telemetry ~path:file l);
          Printf.eprintf "telemetry written to %s\n%!" file)
        f

(* --- cluster scale-out -------------------------------------------------- *)

let workers_arg =
  Arg.(
    value & opt int 0
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Scale out across $(docv) worker processes coordinated over a \
           Unix-domain socket (0, the default, runs in-process).  With \
           workers, $(b,-j) is each worker's domain count.  Campaign \
           records are bit-identical for every worker count, including \
           across worker crashes.")

(* Run [f sock pids] with [workers] worker processes of this binary,
   [jobs] domains each, connecting to [sock]. *)
let with_local_workers ~name ~workers ~jobs ~engine ~telemetry f =
  Xentry_cluster.Worker.with_scratch_dir name @@ fun dir ->
  let sock = Filename.concat dir "coord.sock" in
  Xentry_cluster.Worker.with_workers ~n:workers
    ([ "worker"; "--connect"; sock; "-j"; string_of_int jobs; "--engine";
       Xentry_machine.Cpu.engine_name engine ]
    @ if telemetry <> None then [ "--enable-telemetry" ] else [])
  @@ f sock

(* --- simulate ------------------------------------------------------------- *)

let simulate benchmark mode exits seed engine telemetry =
  apply_engine engine;
  with_telemetry telemetry @@ fun () ->
  let host = Hypervisor.create ~seed () in
  let profile = Profile.get benchmark in
  let stream = Stream.create profile mode (Xentry_util.Rng.create seed) in
  let by_category = Hashtbl.create 8 in
  let total_instructions = ref 0 in
  for _ = 1 to exits do
    let req = Stream.next_request stream in
    let result = Hypervisor.handle host req in
    total_instructions := !total_instructions + result.Xentry_machine.Cpu.steps;
    let cat = Exit_reason.category req.Request.reason in
    Hashtbl.replace by_category cat
      (1 + Option.value ~default:0 (Hashtbl.find_opt by_category cat))
  done;
  Printf.printf "%d hypervisor executions of %s (%s), %d instructions total\n"
    exits
    (Profile.benchmark_name benchmark)
    (Profile.mode_name mode) !total_instructions;
  Printf.printf "mean handler length: %.0f instructions\n"
    (float_of_int !total_instructions /. float_of_int exits);
  Printf.printf "activation rate band (sampled): %.0f/s\n"
    (Profile.sample_activation_rate profile mode (Xentry_util.Rng.create seed));
  print_endline "exit reasons by category:";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_category []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.iter (fun (cat, n) -> Printf.printf "  %-10s %d\n" cat n)

let simulate_cmd =
  let exits =
    Arg.(
      value & opt int 1000
      & info [ "n"; "exits" ] ~docv:"N" ~doc:"Number of VM exits to simulate.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a benchmark's VM-exit stream on a simulated host")
    Term.(
      const simulate $ benchmark_arg $ mode_arg $ exits $ seed_arg $ engine_arg
      $ telemetry_arg)

(* --- detector training shared by inject/export ------------------------- *)

(* The corpus-collect / corpus-collect / fit sequence both commands
   need: training corpus seeded at [seed], testing corpus at
   [seed + 1]. *)
let train_quick_detector ~jobs ~seed ~benchmarks ~mode ~train_injections
    ~train_fault_free ~test_injections ~test_fault_free () =
  let train =
    Training.collect ~jobs ~seed ~benchmarks ~mode
      ~injections_per_benchmark:train_injections
      ~fault_free_per_benchmark:train_fault_free ()
  in
  let test =
    Training.collect ~jobs ~seed:(seed + 1) ~benchmarks ~mode
      ~injections_per_benchmark:test_injections
      ~fault_free_per_benchmark:test_fault_free ()
  in
  Training.train_and_evaluate ~train ~test ()

(* --- inject ------------------------------------------------------------------ *)

let inject benchmark mode injections seed jobs engine detector_src checkpoint
    no_prune faults_per_run snapshot_interval workers telemetry fault_classes =
  apply_engine engine;
  let worker_dumps = ref [] in
  with_telemetry ~worker_dumps telemetry @@ fun () ->
  let jobs = resolve_jobs jobs in
  let detector =
    match detector_src with
    | `No_detector -> None
    | `Load file -> (
        match
          Xentry_store.Artifact.load Xentry_store.Codec.versioned_detector file
        with
        | Ok det ->
            Printf.eprintf "loaded detector artifact %s (v%d)\n%!" file
              (Detector.version det);
            Some det
        | Error e ->
            Printf.eprintf "xentry: cannot load detector %s: %s\n%!" file
              (Xentry_store.Artifact.error_message e);
            exit 1)
    | `Train ->
        prerr_endline
          "training detector (use --no-detector to skip, or --detector FILE \
           to reload a saved one)...";
        Some
          (Training.detector
             (train_quick_detector ~jobs ~seed:(seed + 1)
                ~benchmarks:[ benchmark ] ~mode
                ~train_injections:(max 500 (injections / 2))
                ~train_fault_free:(max 200 (injections / 8))
                ~test_injections:300 ~test_fault_free:100 ()))
  in
  let config =
    { (Campaign.Config.make ?detector ~benchmark ~injections ~seed
         ~faults_per_run ~snapshot_interval ~fault_classes ())
      with
      Campaign.mode }
  in
  let config = { config with Campaign.jobs = Some jobs } in
  let config =
    if no_prune then { config with Campaign.prune = false } else config
  in
  let checkpoint =
    match checkpoint with
    | None -> None
    | Some dir -> (
        match Xentry_store.Journal.for_campaign ~dir config with
        | Ok cp -> Some cp
        | Error e ->
            Printf.eprintf "xentry: %s\n%!"
              (Xentry_store.Journal.open_error_message e);
            exit 1)
  in
  let records =
    if workers <= 0 then Campaign.execute ?checkpoint config
    else
      with_local_workers ~name:"inject" ~workers ~jobs ~engine ~telemetry
      @@ fun sock _pids ->
      Xentry_cluster.Coordinator.run ?checkpoint
        ~on_worker_telemetry:(fun j -> worker_dumps := j :: !worker_dumps)
        ~listen:(Xentry_cluster.Protocol.Unix_sock sock)
        { config with Campaign.jobs = None }
  in
  let summary = Report.summarize records in
  Printf.printf "injections: %d  activated: %d  manifested: %d  coverage: %.1f%%\n"
    summary.Report.total_injections summary.Report.activated
    summary.Report.manifested
    (100.0 *. summary.Report.coverage);
  List.iter
    (fun (name, pct) -> Printf.printf "  %-26s %5.1f%%\n" name pct)
    (Report.technique_percentages summary);
  print_endline "undetected breakdown:";
  List.iter
    (fun (name, pct) -> Printf.printf "  %-14s %5.1f%%\n" name pct)
    (Report.undetected_percentages summary);
  (match Report.by_class records with
  | [] | [ _ ] -> ()
  | per_class ->
      print_endline "per fault class:";
      List.iter
        (fun (c, s) ->
          let t = s.Report.techniques in
          Printf.printf
            "  %-5s injections=%-5d manifested=%-5d coverage=%5.1f%%  \
             hw=%d sw=%d vmt=%d ras=%d\n"
            (Fault.cls_name c) s.Report.total_injections s.Report.manifested
            (100.0 *. s.Report.coverage)
            t.Report.hw_exception t.Report.sw_assertion t.Report.vm_transition
            t.Report.ras_report)
        per_class)

let inject_cmd =
  let injections =
    Arg.(
      value & opt int 3000
      & info [ "n"; "injections" ] ~docv:"N" ~doc:"Number of fault injections.")
  in
  let detector_src =
    let no_detector =
      Arg.(
        value & flag
        & info [ "no-detector" ]
            ~doc:
              "Skip VM-transition detector training (runtime detection only).")
    in
    let detector_file =
      Arg.(
        value
        & opt (some string) None
        & info [ "detector" ] ~docv:"FILE"
            ~doc:
              "Reload a detector artifact saved by $(b,xentry train --save) \
               instead of training one (a reloaded detector produces verdicts \
               identical to the saved one).")
    in
    Term.term_result
      (Term.app
         (Term.app
            (Term.const (fun no_det file ->
                 match (no_det, file) with
                 | true, Some _ ->
                     Error
                       (`Msg
                         "--no-detector and --detector FILE are mutually \
                          exclusive: skip VM-transition detection or load a \
                          saved detector, not both")
                 | true, None -> Ok `No_detector
                 | false, Some f -> Ok (`Load f)
                 | false, None -> Ok `Train))
            no_detector)
         detector_file)
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"DIR"
          ~doc:
            "Journal each completed shard of the campaign to $(docv) and \
             resume from shards already journaled there, so a killed run \
             restarts where it left off.  The resumed record list is \
             bit-identical to an uninterrupted run.")
  in
  let no_prune =
    Arg.(
      value & flag
      & info [ "no-prune" ]
          ~doc:
            "Simulate every sampled fault exhaustively instead of planning \
             against the golden trace (pruning, class collapsing and \
             snapshot fast-forwarding).  Records are bit-identical either \
             way; this flag exists for cross-checking and timing the \
             exhaustive path.")
  in
  let faults_per_run =
    Arg.(
      value & opt int 1
      & info [ "faults-per-run" ] ~docv:"N"
          ~doc:
            "Faults sampled per golden execution (default 1).  Amortizes \
             the golden run — and, with pruning, the trace and snapshots — \
             across $(docv) recorded injections.")
  in
  let snapshot_interval =
    Arg.(
      value & opt int 64
      & info [ "snapshot-interval" ] ~docv:"STEPS"
          ~doc:
            "Dynamic steps between mid-run COW snapshots on recorded golden \
             runs (default 64; 0 disables mid-run snapshots).  Smaller \
             intervals shorten replayed suffixes at the cost of more \
             clones.  Records match --no-prune's except, rarely, a tlb \
             fault's: whether a TLB strike's alias survives later writes \
             depends on where the resumed snapshot was taken.")
  in
  let fault_classes =
    let classes_conv =
      let parse s =
        match Fault.parse_classes s with
        | Ok cs -> Ok cs
        | Error e -> Error (`Msg e)
      in
      let print ppf cs =
        Format.pp_print_string ppf (Fault.classes_to_string cs)
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt classes_conv [ Fault.Reg_single_bit ]
      & info [ "fault-classes" ] ~docv:"CLASSES"
          ~doc:
            "Comma-separated fault classes to sample uniformly: $(b,reg1) \
             (single register bit, the default and the paper's model), \
             $(b,reg2) (2-4 adjacent register bits), $(b,set) (transient \
             register flip reverting after a bounded window), $(b,mem) \
             (memory word), $(b,tlb) (cached translation), $(b,pte) \
             (page-table entry).  The default keeps campaign records \
             bit-identical to the register-only fault model.")
  in
  Cmd.v
    (Cmd.info "inject" ~doc:"Run a fault-injection campaign")
    Term.(
      const inject $ benchmark_arg $ mode_arg $ injections $ seed_arg
      $ jobs_arg $ engine_arg $ detector_src $ checkpoint $ no_prune
      $ faults_per_run $ snapshot_interval $ workers_arg
      $ telemetry_arg $ fault_classes)

(* --- train -------------------------------------------------------------------- *)

let train train_injections test_injections seed jobs engine show_rules save
    telemetry =
  apply_engine engine;
  with_telemetry telemetry @@ fun () ->
  let trained =
    Training.default_pipeline ~jobs:(resolve_jobs jobs) ~seed ~train_injections
      ~test_injections ()
  in
  let open Xentry_mlearn in
  let corpus name (c : Training.corpus) =
    Printf.printf "%s: %d samples (%d correct, %d incorrect)\n" name
      (Dataset.length c.Training.dataset)
      c.Training.correct c.Training.incorrect
  in
  corpus "training" trained.Training.train_corpus;
  corpus "testing " trained.Training.test_corpus;
  let eval name tree c =
    Printf.printf "%-13s accuracy %.1f%%  FP rate %.2f%%  depth %d\n" name
      (100.0 *. Metrics.accuracy c)
      (100.0 *. Metrics.false_positive_rate c)
      (Tree.depth tree)
  in
  eval "decision tree" trained.Training.decision_tree
    trained.Training.decision_tree_eval;
  eval "random tree" trained.Training.random_tree trained.Training.random_tree_eval;
  if show_rules then begin
    print_endline "deployed (random tree) rules:";
    List.iter
      (fun r -> Printf.printf "  %s\n" r)
      (Tree.rules trained.Training.random_tree)
  end;
  match save with
  | None -> ()
  | Some file ->
      Xentry_store.Artifact.save Xentry_store.Codec.versioned_detector file
        (Training.detector trained);
      Printf.printf
        "saved detector artifact: %s (reload with xentry inject --detector)\n"
        file

let train_cmd =
  let ti =
    Arg.(
      value & opt int 23_400
      & info [ "train-injections" ] ~docv:"N"
          ~doc:"Fault injections for the training corpus (paper: 23,400).")
  in
  let te =
    Arg.(
      value & opt int 17_700
      & info [ "test-injections" ] ~docv:"N"
          ~doc:"Fault injections for the testing corpus (paper: 17,700).")
  in
  let rules =
    Arg.(value & flag & info [ "rules" ] ~doc:"Print the learned decision rules.")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:
            "Save the deployed (random tree) detector as a versioned, \
             CRC-checked binary artifact, reloadable with $(b,xentry inject \
             --detector FILE).")
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Run the VM-transition detector training pipeline")
    Term.(
      const train $ ti $ te $ seed_arg $ jobs_arg $ engine_arg $ rules $ save
      $ telemetry_arg)

(* --- handlers ------------------------------------------------------------------- *)

let handlers verbose =
  Printf.printf "%d exit reasons, %d static handler instructions\n"
    Exit_reason.count
    (Handlers.static_instruction_count ());
  Array.iter
    (fun (reason, program) ->
      Printf.printf "%3d  %-32s %4d instructions  (%s)\n"
        (Exit_reason.to_id reason)
        (Exit_reason.name reason)
        (Xentry_isa.Program.length program)
        (Exit_reason.category reason);
      if verbose then
        print_endline (Format.asprintf "%a" Xentry_isa.Program.pp program))
    (Handlers.all_programs ())

let handlers_cmd =
  let verbose =
    Arg.(value & flag & info [ "v"; "disassemble" ] ~doc:"Print full listings.")
  in
  Cmd.v
    (Cmd.info "handlers" ~doc:"List the synthesized hypervisor handlers")
    Term.(const handlers $ verbose)

(* --- export --------------------------------------------------------------------- *)

let export arff_path c_path injections seed jobs telemetry =
  with_telemetry telemetry @@ fun () ->
  let jobs = resolve_jobs jobs in
  let benchmarks = Array.to_list Profile.all_benchmarks in
  let n = List.length benchmarks in
  prerr_endline "collecting corpus and training the random tree...";
  let trained =
    train_quick_detector ~jobs ~seed ~benchmarks ~mode:Profile.PV
      ~train_injections:(max 200 (injections / n))
      ~train_fault_free:(max 100 (injections / n / 4))
      ~test_injections:200 ~test_fault_free:100 ()
  in
  let train = trained.Training.train_corpus in
  (match arff_path with
  | Some path ->
      Xentry_mlearn.Arff.save path
        (Xentry_mlearn.Arff.to_arff ~relation:"xentry_vm_transitions"
           train.Training.dataset);
      Printf.printf "wrote WEKA corpus: %s (%d samples)\n" path
        (Xentry_mlearn.Dataset.length train.Training.dataset)
  | None -> ());
  match c_path with
  | Some path ->
      Xentry_mlearn.Arff.save path
        (Xentry_mlearn.Tree_io.to_c ~function_name:"xentry_vm_transition_check"
           trained.Training.random_tree);
      Printf.printf "wrote C classifier: %s (%d nodes, depth %d)\n" path
        (Xentry_mlearn.Tree.node_count trained.Training.random_tree)
        (Xentry_mlearn.Tree.depth trained.Training.random_tree)
  | None -> ()

let export_cmd =
  let arff =
    Arg.(
      value & opt (some string) None
      & info [ "arff" ] ~docv:"FILE" ~doc:"Write the training corpus as ARFF.")
  in
  let c =
    Arg.(
      value & opt (some string) None
      & info [ "c-file" ] ~docv:"FILE"
          ~doc:"Write the trained classifier as a C function.")
  in
  let injections =
    Arg.(
      value & opt int 6000
      & info [ "n"; "injections" ] ~docv:"N" ~doc:"Corpus size in injections.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export the training corpus (WEKA ARFF) and the classifier (C)")
    Term.(
      const export $ arff $ c $ injections $ seed_arg $ jobs_arg
      $ telemetry_arg)

(* --- serve ---------------------------------------------------------------------- *)

let front_summary_text workers (s : Xentry_cluster.Front.summary) =
  let q = Xentry_cluster.Front.latency_quantile s in
  Printf.printf
    "cluster serve: %d workers, %.2fs wall\n\
    \  offered %d  sent %d  completed %d  detected %d\n\
    \  shed: window_full %d  worker_lost %d  draining %d\n\
    \  throughput %.0f req/s  latency p50 %.0fus  p99 %.0fus\n\
    \  workers lost %d  streams remapped %d\n"
    workers s.Xentry_cluster.Front.wall_s s.Xentry_cluster.Front.offered
    s.Xentry_cluster.Front.sent s.Xentry_cluster.Front.completed
    s.Xentry_cluster.Front.detected s.Xentry_cluster.Front.shed_window_full
    s.Xentry_cluster.Front.shed_worker_lost
    s.Xentry_cluster.Front.shed_draining
    s.Xentry_cluster.Front.throughput_rps (q 0.50) (q 0.99)
    s.Xentry_cluster.Front.workers_lost
    s.Xentry_cluster.Front.streams_remapped

let serve benchmark mode duration streams rate deadline_us jobs queue_capacity
    seed engine workers recovery storm_window storm_prob retrain_on
    retrain_interval shadow_window retrain_dir rungs json telemetry =
  apply_engine engine;
  let worker_dumps = ref [] in
  with_telemetry ~worker_dumps telemetry @@ fun () ->
  let jobs = resolve_jobs jobs in
  let module Serve = Xentry_serve.Server in
  let module Ladder = Xentry_serve.Ladder in
  let storm =
    match storm_window with
    | None -> None
    | Some (storm_start, storm_end) ->
        Some { Serve.storm_start; storm_end; storm_prob }
  in
  let retrain =
    if not retrain_on then None
    else
      Some
        {
          Serve.retrain_interval_s = retrain_interval;
          shadow_window;
          artifact_dir = retrain_dir;
        }
  in
  let ladder =
    match rungs with
    | None -> Ladder.default_config
    | Some file -> (
        match Xentry_store.Artifact.load Xentry_store.Codec.pareto file with
        | Ok front ->
            let rungs = Ladder.rungs_of_front front in
            Printf.eprintf
              "loaded Pareto ladder %s: %d rungs from detector v%d\n%!" file
              (Array.length rungs) front.Xentry_core.Pareto.source_version;
            { Ladder.default_config with Ladder.rungs }
        | Error e ->
            Printf.eprintf "xentry: cannot load Pareto front %s: %s\n%!" file
              (Xentry_store.Artifact.error_message e);
            exit 1)
  in
  let base =
    Serve.make ~mode ~streams ?deadline_us ~duration_s:duration ~jobs
      ~queue_capacity ~seed ~benchmark ~recovery ?storm ?retrain ~ladder
      ~rate:1.0 ()
  in
  let total_jobs = jobs * max 1 workers in
  let rate =
    if rate > 0.0 then rate
    else begin
      (* No rate given: size the offered load to ~75% of the measured
         aggregate capacity so the service starts inside its envelope. *)
      let per_worker = Serve.calibrate base in
      let r = 0.75 *. per_worker *. float_of_int total_jobs in
      Printf.eprintf
        "calibrated capacity: %.0f req/s/worker; serving at %.0f req/s\n%!"
        per_worker r;
      r
    end
  in
  let cfg = { base with Serve.rate } in
  if workers <= 0 then begin
    let summary = Serve.run cfg in
    if json then print_json (Serve.summary_json cfg summary)
    else Format.printf "%a@." Serve.pp_summary summary
  end
  else begin
    let summary =
      with_local_workers ~name:"serve" ~workers ~jobs ~engine ~telemetry
      @@ fun sock _pids ->
      Xentry_cluster.Front.run
        ~listen:(Xentry_cluster.Protocol.Unix_sock sock)
        ~workers cfg
    in
    worker_dumps := List.rev summary.Xentry_cluster.Front.worker_telemetry;
    if json then print_json (Xentry_cluster.Front.summary_json ~workers summary)
    else front_summary_text workers summary
  end

let serve_cmd =
  let duration =
    Arg.(
      value & opt float 2.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Service lifetime before drain begins.")
  in
  let streams =
    Arg.(
      value & opt int 8
      & info [ "streams" ] ~docv:"N"
          ~doc:"Concurrent guest workload streams (one ingress queue each).")
  in
  let rate =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~docv:"REQ_PER_S"
          ~doc:
            "Aggregate offered load in requests/second.  0 (the default) \
             calibrates the host and serves at 75% of measured capacity.")
  in
  let deadline_us =
    let doc =
      "Per-request queueing deadline in microseconds: requests still \
       queued past it are shed ($(b,deadline_expired)) instead of \
       executed.  Default from $(b,XENTRY_DEADLINE_US), else no deadline."
    in
    let env = Cmd.Env.info "XENTRY_DEADLINE_US" ~doc:"See option $(b,--deadline-us)." in
    Arg.(
      value & opt (some int) None
      & info [ "deadline-us" ] ~docv:"MICROSECONDS" ~env ~doc)
  in
  let queue_capacity =
    Arg.(
      value & opt int 64
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:"Bound of each per-stream ingress queue.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the run summary as a single JSON object on stdout.")
  in
  let recovery =
    let policy_conv =
      let parse = function
        | "keep" | "keep-serving" -> Ok Xentry_serve.Server.Keep_serving
        | "microboot" -> Ok Xentry_serve.Server.Microboot
        | "restart" -> Ok Xentry_serve.Server.Restart
        | s ->
            Error
              (`Msg
                (Printf.sprintf
                   "unknown recovery policy %S (keep, microboot or restart)" s))
      in
      let print ppf p =
        Format.pp_print_string ppf (Xentry_serve.Server.recovery_policy_name p)
      in
      Arg.conv (parse, print)
    in
    let doc =
      "Worker failover on a detection verdict: $(b,keep) records the \
       verdict and keeps serving on the same host, $(b,microboot) \
       micro-reboots the hypervisor in place (boot-image reset of \
       hypervisor-private state, guest state preserved) and replays the \
       in-flight request, $(b,restart) boots a whole new hypervisor \
       (guest state lost).  Default from $(b,XENTRY_RECOVERY), else keep. \
       In-process engine only (ignored with $(b,--workers))."
    in
    let env = Cmd.Env.info "XENTRY_RECOVERY" ~doc:"See option $(b,--recovery)." in
    Arg.(
      value & opt policy_conv Xentry_serve.Server.Keep_serving
      & info [ "recovery" ] ~docv:"POLICY" ~env ~doc)
  in
  let storm_window =
    Arg.(
      value
      & opt (some (pair ~sep:',' float float)) None
      & info [ "storm" ] ~docv:"START,END"
          ~doc:
            "Fault-storm window in seconds since service start: each \
             request dequeued inside it is hit by a random architectural \
             bit flip with probability $(b,--storm-prob).  In-process \
             engine only (ignored with $(b,--workers)).")
  in
  let storm_prob =
    Arg.(
      value & opt float 0.01
      & info [ "storm-prob" ] ~docv:"P"
          ~doc:"Per-request injection probability inside the storm window.")
  in
  let retrain_on =
    Arg.(
      value & flag
      & info [ "retrain" ]
          ~doc:
            "Enable the online detector lifecycle: mine VM-transition \
             signatures from live traffic, retrain candidate detectors in \
             a background domain, shadow-score each candidate against the \
             incumbent, and hot-swap it in once it wins the gate.  \
             In-process engine only (ignored with $(b,--workers)).")
  in
  let retrain_interval =
    Arg.(
      value
      & opt float Xentry_serve.Server.(default_retrain.retrain_interval_s)
      & info [ "retrain-interval" ] ~docv:"SECONDS"
          ~doc:"Retrain manager wake-up cadence (with $(b,--retrain)).")
  in
  let shadow_window =
    Arg.(
      value
      & opt int Xentry_serve.Server.(default_retrain.shadow_window)
      & info [ "shadow-window" ] ~docv:"N"
          ~doc:
            "Requests a candidate detector must shadow-score before the \
             promotion gate decides (with $(b,--retrain)).")
  in
  let retrain_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "retrain-dir" ] ~docv:"DIR"
          ~doc:
            "Persist each retrained candidate to $(docv) as a versioned \
             detector artifact ($(b,detector-vNNNN.xart)).")
  in
  let rungs =
    Arg.(
      value
      & opt (some string) None
      & info [ "rungs" ] ~docv:"FILE"
          ~doc:
            "Build the degradation ladder from a Pareto-front artifact \
             saved by $(b,xentry optimize --save) instead of the fixed \
             full/runtime-only/filter-only sequence.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the streaming request engine: bounded ingress queues, typed \
          load shedding, a detection degradation ladder that trades \
          coverage for throughput under overload, micro-reboot failover \
          for workers whose hypervisor trips a verdict, and an optional \
          online detector lifecycle (mine, retrain, shadow, hot-swap).")
    Term.(
      const serve $ benchmark_arg $ mode_arg $ duration $ streams $ rate
      $ deadline_us $ jobs_arg $ queue_capacity $ seed_arg $ engine_arg
      $ workers_arg $ recovery $ storm_window $ storm_prob $ retrain_on
      $ retrain_interval $ shadow_window $ retrain_dir $ rungs $ json
      $ telemetry_arg)

(* --- recover -------------------------------------------------------------------- *)

let recover benchmark injections follow_ups fuel seed engine json =
  apply_engine engine;
  let module C = Xentry_recover.Campaign in
  let cfg =
    {
      C.seed;
      benchmark;
      injections;
      follow_ups;
      pipeline = Pipeline.Config.make ~fuel ();
    }
  in
  let r = C.run cfg in
  if json then print_json (C.to_json ~benchmark r)
  else begin
    List.iter
      (fun (c : C.class_stats) ->
        Printf.printf
          "%-24s faults %-6d checkpoint %-6d micro-reboot %-6d mismatches %-4d \
           carryover %d\n"
          (C.class_name c.C.cls) c.C.faults c.C.checkpoint_recovered
          c.C.recovered_exactly c.C.mismatches c.C.carryover)
      r.C.classes;
    Format.printf "%a@." C.pp r
  end

let recover_cmd =
  let injections =
    Arg.(
      value & opt int 1000
      & info [ "n"; "injections" ] ~docv:"N"
          ~doc:"Injected bit flips (one per request).")
  in
  let follow_ups =
    Arg.(
      value & opt int 2
      & info [ "follow-ups" ] ~docv:"N"
          ~doc:
            "Fault-free requests run after each micro-reboot to expose \
             state corruption that survives an exact-looking recovery.")
  in
  let fuel =
    Arg.(
      value & opt int 4000
      & info [ "fuel" ] ~docv:"STEPS"
          ~doc:"Dynamic instruction budget per hypervisor execution.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the campaign result as a single JSON object on stdout.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Run the recovery campaign: recover every detected fault twice \
          from the VM-exit context — by checkpoint restore and \
          re-execution, and by micro-reboot (hypervisor-private state \
          from a boot-time image, live guest state re-attached, the \
          in-flight request replayed) — and check bit-exact identity \
          against a golden host, reported per fault class against the \
          restart-everything baseline.")
    Term.(
      const recover $ benchmark_arg $ injections $ follow_ups $ fuel
      $ seed_arg $ engine_arg $ json)

(* --- worker --------------------------------------------------------------------- *)

let worker connect jobs engine enable_telemetry =
  apply_engine engine;
  if enable_telemetry then Xentry_util.Telemetry.enable ();
  Xentry_cluster.Worker.run ~jobs:(resolve_jobs jobs)
    ~connect:(Xentry_cluster.Protocol.Unix_sock connect) ()

let worker_cmd =
  let connect =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"SOCKET"
          ~doc:"Path of the coordinator's Unix-domain socket.")
  in
  let enable_telemetry =
    Arg.(
      value & flag
      & info [ "enable-telemetry" ]
          ~doc:
            "Record telemetry and send the final dump back to the \
             coordinator when the run ends (it lands in the \
             coordinator's $(b,--telemetry) file, one JSON line per \
             worker).")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Run a cluster worker process.  $(b,xentry inject --workers) \
          and $(b,xentry serve --workers) spawn these themselves, each \
          connecting to a socket in a private temporary directory.")
    Term.(const worker $ connect $ jobs_arg $ engine_arg $ enable_telemetry)

(* --- optimize ------------------------------------------------------------------- *)

let optimize benchmark mode injections fault_free seed jobs engine depths
    thresholds save json telemetry =
  apply_engine engine;
  with_telemetry telemetry @@ fun () ->
  let jobs = resolve_jobs jobs in
  let module O = Xentry_lifecycle.Optimizer in
  prerr_endline "training the detector to sweep...";
  let detector =
    Training.detector
      (train_quick_detector ~jobs ~seed:(seed + 1) ~benchmarks:[ benchmark ]
         ~mode
         ~train_injections:(max 500 (injections / 2))
         ~train_fault_free:(max 200 (injections / 8))
         ~test_injections:300 ~test_fault_free:100 ())
  in
  let cfg =
    O.default_config ~seed ~mode ~injections ~fault_free_runs:fault_free
      ~depths ~thresholds ~jobs ~benchmark ()
  in
  let r = O.sweep ~detector_version:(Detector.version detector) cfg ~detector in
  if json then print_json (O.to_json cfg r)
  else begin
    Printf.printf
      "swept %d candidates over %d manifested faults, %d clean runs:\n"
      (List.length r.O.all_points)
      r.O.manifested r.O.clean_runs;
    Printf.printf "  %-16s %9s %8s %12s %6s  %s\n" "candidate" "coverage"
      "fp_rate" "overhead_us" "cmps" "front";
    List.iter
      (fun (p : Xentry_core.Pareto.point) ->
        Printf.printf "  %-16s %8.1f%% %7.2f%% %12.3f %6d  %s\n"
          p.Xentry_core.Pareto.label
          (100. *. p.Xentry_core.Pareto.coverage)
          (100. *. p.Xentry_core.Pareto.fp_rate)
          (1e6 *. p.Xentry_core.Pareto.overhead)
          p.Xentry_core.Pareto.comparisons
          (if O.on_front r p then "*" else ""))
      r.O.all_points;
    Printf.printf "Pareto front: %d rungs (most detection first)\n"
      (List.length r.O.front.Xentry_core.Pareto.points);
    List.iter
      (fun (p : Xentry_core.Pareto.point) ->
        Printf.printf "  %s\n"
          (Format.asprintf "%a" Xentry_core.Pareto.pp_point p))
      r.O.front.Xentry_core.Pareto.points
  end;
  match save with
  | None -> ()
  | Some file ->
      Xentry_store.Artifact.save Xentry_store.Codec.pareto file r.O.front;
      Printf.printf
        "saved Pareto front: %s (serve it with xentry serve --rungs)\n" file

let optimize_cmd =
  let injections =
    Arg.(
      value & opt int 600
      & info [ "n"; "injections" ] ~docv:"N"
          ~doc:"Fault injections for the measurement campaign.")
  in
  let fault_free =
    Arg.(
      value & opt int 200
      & info [ "fault-free" ] ~docv:"N"
          ~doc:"Fault-free runs for the false-positive population.")
  in
  let depths =
    Arg.(
      value
      & opt (list int) [ 4; 8 ]
      & info [ "depths" ] ~docv:"D1,D2,..."
          ~doc:"Tree-depth truncation knobs to sweep on full detection.")
  in
  let thresholds =
    Arg.(
      value
      & opt (list float) [ 0.9 ]
      & info [ "thresholds" ] ~docv:"T1,T2,..."
          ~doc:"Veto-threshold knobs to sweep on full detection.")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:
            "Save the Pareto front as a versioned artifact, loadable with \
             $(b,xentry serve --rungs FILE).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the sweep as a single JSON object.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Sweep detector configurations (technique subsets and model \
          knobs) against the cost model and emit the non-dominated \
          coverage/false-positive/overhead front — the data-driven \
          degradation ladder for $(b,xentry serve).")
    Term.(
      const optimize $ benchmark_arg $ mode_arg $ injections $ fault_free
      $ seed_arg $ jobs_arg $ engine_arg $ depths $ thresholds $ save $ json
      $ telemetry_arg)

(* --- features ------------------------------------------------------------------- *)

let features () = print_string (Format.asprintf "%a" Features.pp_table1 ())

let features_cmd =
  Cmd.v
    (Cmd.info "features" ~doc:"Print the Table I feature set")
    Term.(const features $ const ())

(* --- bench ---------------------------------------------------------------------- *)

(* The experiments in the order "all" runs them.  One whose
   measurements --json keeps returns them as a named section; the
   report lists sections in this order, whatever order the command
   line names them in. *)
let experiments =
  let open Xentry_bench in
  let no_json f ctx =
    f ctx;
    None
  in
  let section key f ctx = Some (key, f ctx) in
  [
    ("fig3", no_json Paper.fig3);
    ("table1", no_json Paper.table1);
    ("accuracy", no_json Paper.accuracy);
    ("fig6", no_json Paper.fig6);
    ("fig7", no_json Paper.fig7);
    ("fig8", no_json Paper.fig8);
    ("fig9", no_json Paper.fig9);
    ("fig10", no_json Paper.fig10);
    ("table2", no_json Paper.table2);
    ("fig11", no_json Paper.fig11);
    ("ablation", no_json Extensions.ablation);
    ("modes", no_json Extensions.modes);
    ("exposure", no_json Extensions.exposure);
    ("hardening", no_json Extensions.hardening);
    ("campaign", section "campaign" Extensions.campaign);
    ("cluster", section "cluster" Extensions.cluster);
    ("serve", section "serve" Extensions.serve);
    ("recover", section "recover" Extensions.recover);
    ("micro", section "micro" Extensions.micro);
    ("classes", section "fault_classes" Extensions.classes);
  ]

let bench names jobs engine json telemetry =
  apply_engine engine;
  with_telemetry telemetry @@ fun () ->
  let scale =
    match Option.bind (Sys.getenv_opt "XENTRY_SCALE") float_of_string_opt with
    | Some v when v > 0.0 -> v
    | _ -> 1.0
  in
  let jobs = resolve_jobs jobs in
  let ctx =
    Xentry_bench.Context.make ~scale ~jobs
      {
        with_workers =
          (fun ~name ~n ~jobs f ->
            with_local_workers ~name ~workers:n ~jobs ~engine ~telemetry f);
      }
  in
  let names =
    if names = [] || List.mem "all" names then List.map fst experiments
    else names
  in
  Printf.printf
    "Xentry benchmark harness (scale %.2f, jobs %d, engine %s; set \
     XENTRY_SCALE / -j / --engine to adjust)\n"
    scale jobs
    (Xentry_machine.Cpu.engine_name engine);
  let ran =
    List.map
      (fun name ->
        let t0 = Unix.gettimeofday () in
        let section = (List.assoc name experiments) ctx in
        (name, Unix.gettimeofday () -. t0, section))
      names
  in
  match json with
  | None -> ()
  | Some path -> (
      (* An experiment named twice reports its last run. *)
      let sections =
        List.filter_map
          (fun (name, _) ->
            List.find_map
              (fun (n, _, section) -> if n = name then section else None)
              (List.rev ran))
          experiments
      in
      let doc =
        Xentry_util.Json.(
          Obj
            ([ ("scale", Float scale); ("jobs", Int jobs);
               ("engine", String (Xentry_machine.Cpu.engine_name engine)) ]
            @ sections
            @ [ ( "experiments",
                  List
                    (List.map
                       (fun (name, seconds, _) ->
                         Obj
                           [ ("name", String name); ("seconds", Float seconds) ])
                       ran) ) ]))
      in
      match open_out path with
      | exception Sys_error msg ->
          Printf.eprintf "xentry: cannot write %s: %s\n%!" path msg;
          exit 1
      | oc ->
          output_string oc (Xentry_util.Json.to_string doc);
          output_char oc '\n';
          close_out oc;
          Printf.printf "[json] wrote %s\n" path)

let bench_cmd =
  let names =
    let all = "all" :: List.map fst experiments in
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) all)) []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            (Printf.sprintf
               "Experiments to run, in the order given, each %s.  None, or \
                $(b,all), runs every experiment in the order listed."
               (Arg.doc_alts all)))
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write one single-line JSON object to $(docv): the scale, jobs \
             and engine, the measurements the $(b,campaign), $(b,cluster), \
             $(b,serve), $(b,recover), $(b,micro) and $(b,classes) \
             experiments return, and each experiment's wall seconds.")
  in
  let scale_env =
    Cmd.Env.info "XENTRY_SCALE"
      ~doc:
        "Campaign sizes relative to the paper's (default 1.0: 23,400 \
         training and 17,700 testing injections, 30,000 for the coverage \
         study)."
  in
  Cmd.v
    (Cmd.info "bench" ~envs:[ scale_env ]
       ~doc:
         "Regenerate the paper's evaluation (Fig 3 to Fig 11, Tables I and \
          II), the ablations and extensions, and the system measurements. \
          Experiments that check an identity exit 1 when it fails.")
    Term.(const bench $ names $ jobs_arg $ engine_arg $ json $ telemetry_arg)

(* --- main ----------------------------------------------------------------------- *)

let () =
  let doc = "Xentry: hypervisor-level soft error detection (ICPP 2014 reproduction)" in
  let info = Cmd.info "xentry" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            simulate_cmd; inject_cmd; train_cmd; serve_cmd; recover_cmd;
            worker_cmd; optimize_cmd;
            handlers_cmd; features_cmd; export_cmd; bench_cmd;
          ]))
