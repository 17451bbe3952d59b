(** Campaign planning over a golden trace.

    Given the golden trace of one (host state, request) execution and
    the faults sampled against it, the planner decides — with zero
    simulation — which faults can be answered from the trace alone and
    which must actually run:

    - a fault whose {!Xentry_machine.Golden_trace.fate} is
      [Never_touched] or [Overwritten] is {e pruned}: the corrupted
      value is provably never consumed, so the detected execution is
      step-identical to the golden one and its record can be
      synthesized without touching a CPU;
    - register faults that activate are grouped into equivalence
      classes by [(target, bit, width, activation step)].  Members of
      a class flip the same dead bits at different points of the same
      dead interval, so the corrupted value first reaches the data
      path at the same step with the same contents: their executions
      are bit-identical from the flip on, and one {e representative}
      run serves the whole class.  For the same reason the
      representative itself need not replay its dead interval:
      injecting at the {e activation} step [act] — from a snapshot at
      or before [act] rather than the sampled step — produces a
      bit-identical execution and verdict (the register is untouched
      between the sampled step and [act], and detection latency is
      measured from activation, not from injection).  A
      [Set_transient] pulse whose revert window expires before the
      first read is pruned to [Never_touched] (the revert fires at
      the top of step [step + window], before the read); one that
      activates first is a persistent flip and collapses normally;
    - memory-class faults ([Mem]/[Tlb]/[Pte]) consult the trace's
      timed access log instead of register def/use.  Until the struck
      word or translation is first consumed, the faulted run is
      step-identical to the golden one, so the log's first access at or
      after the strike step that the live watch would count
      ({!Xentry_machine.Golden_trace.word_access} for [Mem]/[Pte],
      {!Xentry_machine.Golden_trace.page_access} for [Tlb]) is exactly
      the live watch's first hit.  A fault with no such access — struck
      after the last access to its word or page, or after the run ends
      — is pruned to [Never_touched].  Everything else runs
      individually at its sampled step, with no shift and no
      collapsing: a store that overwrites part of a word leaves the
      rest corrupted, and a TLB strike's alias binding depends on page
      ownership at the strike.  A strike on an unmapped target does
      nothing live while the log may still show an access there; such
      faults run, which is conservative.

    The one case the trace cannot vouch for is a golden run that
    stopped on an assertion failure: replays may toggle assertions
    (the detected run honours the framework config, the natural run
    disables them), so execution past the assertion diverges from
    anything the trace recorded.  Such traces force every fault to be
    simulated individually. *)

type disposition =
  | Pruned of Xentry_machine.Cpu.fault_fate
      (** answer from the trace: [Never_touched] or [Overwritten] *)
  | Run of { rep : int; act : int }
      (** simulate; [rep] is the index (into the planned fault array)
          of the class representative whose execution serves this
          fault — [rep = i] for the representative itself — and [act]
          is the step to inject at and resume from: the activation
          step when the trace is trusted, the sampled step otherwise *)

type plan = {
  dispositions : disposition array;  (** one per input fault, same order *)
  reps : int list;
      (** representative indices in first-appearance order — exactly
          the faults that need a simulated execution *)
}

val plan : Xentry_machine.Golden_trace.t -> Fault.t array -> plan
