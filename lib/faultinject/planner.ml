open Xentry_machine

type disposition =
  | Pruned of Cpu.fault_fate
  | Run of { rep : int; act : int }

type plan = {
  dispositions : disposition array;
  reps : int list;
}

let plan (trace : Golden_trace.t) (faults : Fault.t array) =
  let n = Array.length faults in
  let dispositions = Array.make n (Pruned Cpu.Never_touched) in
  let reps = ref [] in
  if trace.Golden_trace.asserted then
    (* Replays toggle assertions relative to the recorded run, so the
       trace says nothing about execution past the failing assertion:
       every fault is its own representative, simulated from its own
       injection step. *)
    for i = n - 1 downto 0 do
      dispositions.(i) <- Run { rep = i; act = faults.(i).Fault.step };
      reps := i :: !reps
    done
  else begin
    let classes = Hashtbl.create 16 in
    (* A memory-class fault, given [hit]: the log's first access at or
       after the strike step that the live watch counts, or -1.  Until
       that access the faulted run is the golden run, so without one
       the strike is never touched (or, past the run's end, never
       fires).  Everything else runs individually at its sampled step:
       a partly overwritten word may still be read, and a TLB strike's
       alias binding depends on page ownership at the strike, so
       neither shifts nor collapses. *)
    let memory i hit =
      if hit < 0 then dispositions.(i) <- Pruned Cpu.Never_touched
      else begin
        dispositions.(i) <- Run { rep = i; act = faults.(i).Fault.step };
        reps := i :: !reps
      end
    in
    for i = 0 to n - 1 do
      let f = faults.(i) in
      match f.Fault.target with
      | Fault.Reg target -> (
          match Golden_trace.fate trace ~target ~step:f.Fault.step with
          | (Cpu.Never_touched | Cpu.Overwritten _) as fate ->
              dispositions.(i) <- Pruned fate
          | Cpu.Activated s -> (
              match f.Fault.window with
              | Some w when s >= f.Fault.step + w ->
                  (* SET pulse: the revert (at the top of step
                     [step + w], before that step executes) beats the
                     first read — the register is clean again when it
                     is finally consumed, and the watch is cleared. *)
                  dispositions.(i) <- Pruned Cpu.Never_touched
              | _ -> (
                  (* Activated before any revert window expires: from
                     the first read on, the execution only depends on
                     which bits are wrong and when they first reach
                     the data path — a SET pulse that activates is a
                     persistent flip.  Class key: (register, bits,
                     activation step). *)
                  let key = (f.Fault.target, f.Fault.bit, f.Fault.width, s) in
                  match Hashtbl.find_opt classes key with
                  | Some rep -> dispositions.(i) <- Run { rep; act = s }
                  | None ->
                      Hashtbl.add classes key i;
                      dispositions.(i) <- Run { rep = i; act = s };
                      reps := i :: !reps)))
      | Fault.Mem addr | Fault.Pte addr ->
          memory i (Golden_trace.word_access trace ~addr ~step:f.Fault.step)
      | Fault.Tlb page ->
          memory i (Golden_trace.page_access trace ~page ~step:f.Fault.step)
    done;
    reps := List.rev !reps
  end;
  { dispositions; reps = !reps }
