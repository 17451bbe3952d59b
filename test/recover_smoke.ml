(* Recovery smoke check: a small recovery campaign over injected bit
   flips.  The recovery-identity invariant is hard on both arms: every
   detected fault must recover bit-exactly against the golden host by
   checkpoint restore (every compared structure) and by micro-reboot
   (all guest-visible structures, with zero carryover into follow-up
   requests), and micro-reboot must strictly beat the
   restart-everything baseline on recovered work (restart recovers
   none by construction).  Any violation prints the offending counters
   and exits non-zero. *)

module C = Xentry_recover.Campaign

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let check ~label (r : C.result) =
  if r.C.detected = 0 then fail "%s: no faults detected (campaign too small)" label;
  List.iter
    (fun (c : C.class_stats) ->
      if c.C.mismatches > 0 then
        fail "%s: %d recovery mismatches in class %s" label c.C.mismatches
          (C.class_name c.C.cls);
      if c.C.carryover > 0 then
        fail "%s: %d corruption carryovers in class %s" label c.C.carryover
          (C.class_name c.C.cls))
    r.C.classes;
  if r.C.checkpoint_work_recovered <> r.C.detected then
    fail "%s: checkpoint restore recovered %d of %d detected" label
      r.C.checkpoint_work_recovered r.C.detected;
  if r.C.micro_work_recovered <> r.C.detected then
    fail "%s: recovered %d of %d detected" label r.C.micro_work_recovered
      r.C.detected;
  (* Strictly beats restart-everything: restart recovers zero in-flight
     work, so any recovery at all wins — require all of it. *)
  let restart_recovered = r.C.detected - r.C.restart_work_lost in
  if r.C.micro_work_recovered <= restart_recovered then
    fail "%s: micro-reboot (%d) does not beat restart (%d) on recovered work"
      label r.C.micro_work_recovered restart_recovered;
  if r.C.mttf_improvement <> Float.infinity && r.C.mttf_improvement <= 1.0 then
    fail "%s: MTTF improvement %.2f not > 1" label r.C.mttf_improvement;
  if r.C.image_bytes <= 0 then fail "%s: empty boot image" label

let () =
  let base =
    {
      C.default_config with
      C.injections = 400;
      follow_ups = 2;
      pipeline = Xentry_core.Pipeline.Config.make ~fuel:4000 ();
    }
  in
  (* Both engines: the fast interpreter is the serve default, the
     reference engine is the executable spec. *)
  let engines = [ ("fast", Xentry_machine.Cpu.Fast); ("ref", Xentry_machine.Cpu.Ref) ] in
  List.iter
    (fun (label, engine) ->
      Xentry_machine.Cpu.set_default_engine engine;
      let r = C.run base in
      check ~label r;
      Format.printf "recover-smoke %s OK: %a@." label C.pp r)
    engines
