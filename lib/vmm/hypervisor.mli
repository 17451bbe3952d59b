(** The simulated virtualized host: memory, CPU, domains, scheduler
    and the synthesized hypervisor.

    One {!t} models a physical server running a Xen-like hypervisor
    with a control domain (Dom0) and guest domains.  The request
    lifecycle mirrors a VM exit:

    {ol
    {- {!prepare} stages a request: writes the request page, applies
       the reason's structure preconditions (softirq bits, tasklet
       chains, page-table entries, IRQ bindings, buffer contents), and
       publishes the scheduler's current VCPU to the hypervisor
       globals;}
    {- {!execute} seeds the CPU with the guest register file and runs
       the reason's handler program from VM exit to VM entry (or to a
       fault/assertion/watchdog stop), optionally with a fault
       injection;}
    {- {!retire} synchronizes the OCaml-side scheduler with any
       context switch the handler performed (live host only).}}

    {!clone} deep-copies the host so a fault-injection campaign can run
    a golden and a faulted execution of the same prepared request from
    identical states. *)

type t

val create :
  ?seed:int ->
  ?cpus:int ->
  ?domains:int ->
  ?hardened:bool ->
  ?engine:Xentry_machine.Cpu.engine ->
  unit ->
  t
(** [create ()] builds a host with [domains] guests (default 3: Dom0 +
    two DomUs, the paper's setup) and [cpus] CPUs (default 1 —
    handler execution is per-CPU).  [seed] drives deterministic
    initialization of buffers and bindings.  [hardened] selects the
    selective-duplication handler variants (paper SVI future work).
    [engine] picks the interpreter {!execute} dispatches to (default:
    {!Xentry_machine.Cpu.default_engine}, i.e. the [XENTRY_ENGINE]
    environment variable or the fast threaded-code engine); {!clone}
    preserves it. *)

val is_hardened : t -> bool

val engine : t -> Xentry_machine.Cpu.engine

val memory : t -> Xentry_machine.Memory.t
val cpu : t -> Xentry_machine.Cpu.t
val domains : t -> Domain.t array
val scheduler : t -> Scheduler.t
val current_domain : t -> Domain.t
val exits_handled : t -> int

val set_assertions_enabled : t -> bool -> unit
(** Toggle Xentry's software-assertion runtime detection. *)

val prepare : t -> Request.t -> unit

val restage : t -> Request.t -> unit
(** Re-stage a request whose {!prepare} already ran on this host (or
    on the host this one was cloned from): republish the scheduler
    view and rewrite the request arguments and reason-specific staging
    state, without advancing the scheduler or refreshing the guest
    buffer (the RNG stays untouched).  The micro-reboot path uses this
    to rebuild hypervisor-private scratch regions that were
    reinitialized from the boot image; on a host whose preserved state
    matches the original staging, every write is a byte-identical
    replay. *)

val execute :
  t ->
  ?inject:Xentry_machine.Cpu.injection ->
  ?fuel:int ->
  ?on_step:(int -> int Xentry_isa.Instr.t -> unit) ->
  Request.t ->
  Xentry_machine.Cpu.run_result
(** Run the handler for a prepared request.  Default fuel 50_000.
    [on_step] observes each executed instruction (see
    {!Xentry_machine.Trace}). *)

val retire : t -> Request.t -> unit
(** Advance scheduler state after a fault-free execution. *)

val handle : t -> Request.t -> Xentry_machine.Cpu.run_result
(** [prepare] + [execute] + [retire] in one step (the fault-free fast
    path used by workload simulation). *)

val clone : t -> t
(** Deep copy: memory contents, CPU architectural state and TSC, and
    scheduler ordering.  The clone evolves independently.  The clone's
    CPU starts with a fresh (empty) RAS bank: error records are
    per-host diagnostic state, not guest-visible memory. *)

type checkpoint
(** The host's state at one {!val-checkpoint}: a memory journal epoch
    ({!Xentry_machine.Memory.val-checkpoint}) plus copies of the
    scheduler, RNG, TSC, assertion flag and exit count. *)

val checkpoint : t -> checkpoint
(** Capture the host as it stands and let it run on.  Unlike {!clone},
    this leaves the host owning its pages: a page the host writes
    after the checkpoint is copied aside once, into a recycled frame,
    instead of being duplicated into a fresh private one.  The
    checkpoint is valid until the next [checkpoint] of the same host
    or its {!release}. *)

val copy_checkpoint : checkpoint -> t
(** A new host in the checkpointed state, as {!clone} at the
    checkpoint would have made it; the checkpointed host is
    unaffected.  One checkpoint can seed any number of hosts.
    @raise Invalid_argument if the host has checkpointed again since,
    or was released. *)

val release : t -> unit
(** Discard a host that will not be used again, recycling its memory
    ({!Xentry_machine.Memory.release}): the page frames it privatised
    and its TLB arrays go back to per-domain pools for the next hosts
    created or cloned on this domain.  Hosts it was cloned from, and
    clones or snapshots taken of it, are unaffected.  Any later memory
    access through the host, a second [release] and {!copy_checkpoint}
    of its checkpoints raise [Invalid_argument]. *)

val drain_ras : t -> Xentry_ras.Ras.record list
(** Poll-and-clear the CPU's RAS error-record bank, in log order —
    the hypervisor-side half of the RAS detection channel (the
    {!Xentry_machine.Cpu} access-site watches are the logging half).
    Idempotent when nothing new was logged; drain latency is recorded
    in the [ras.drain_latency.ns] telemetry histogram. *)

(** {2 Golden-trace recording and mid-run snapshots}

    Campaign-planner substrate: {!execute_recorded} runs a prepared
    request while recording a {!Xentry_machine.Golden_trace.t} (the
    per-step def/use record pruning consults) and taking COW
    {!snapshot}s at chosen dynamic steps; {!restore}+{!resume}
    re-execute only the suffix of a run from a snapshot, bit-identical
    to a full re-execution from the pre-run state (a fault scheduled
    at or after the snapshot step still fires exactly as in the full
    run, because states are captured before the injection point of
    their step). *)

type snapshot
(** A COW copy of the whole host mid-execution plus the CPU state at
    that step.  Cheap to hold (memory pages are shared copy-on-write)
    and reusable: every {!restore} yields a fresh independent host. *)

val snapshot_step : snapshot -> int
(** The dynamic step the snapshot was taken at. *)

val execute_recorded :
  t ->
  ?fuel:int ->
  ?snapshot_at:int array ->
  Request.t ->
  Xentry_machine.Cpu.run_result
  * Xentry_machine.Golden_trace.t
  * snapshot list
(** {!execute} plus golden-trace recording (which forces the engines'
    instrumented loop) and snapshots at the given (sorted ascending)
    dynamic steps; steps the run never reaches yield no snapshot. *)

val restore : snapshot -> t
(** An independent host positioned at the snapshot point (COW clone;
    the live host and other restores are unaffected). *)

val release_snapshot : snapshot -> unit
(** Recycle a snapshot that will not be restored again.  A snapshot
    owns no page frame — its pages are frozen and shared — so only its
    software-TLB arrays go back to the pool ({!release}); hosts already
    restored from it are unaffected.  A later {!restore} raises
    [Invalid_argument]. *)

val resume :
  t ->
  snapshot ->
  ?inject:Xentry_machine.Cpu.injection ->
  ?fuel:int ->
  Request.t ->
  Xentry_machine.Cpu.run_result
(** [resume h snap req] continues the run on [h] (a {!restore} of
    [snap], possibly with assertions re-toggled) from the snapshot's
    step.  [fuel] keeps its absolute meaning, counting the skipped
    prefix.  [inject] with a step at or after the snapshot step fires
    exactly as in a full run. *)

val guest_output_regions : t -> (string * int64 * int) list
(** Every region whose post-execution contents are guest-visible or
    system-critical, labelled for consequence classification: per
    domain (user_regs, pending traps, shared info, event channels,
    grants), the time areas, and the hypervisor globals. *)

val observed_current_vcpu : t -> int64
(** The current-VCPU pointer as the handler left it in memory (used to
    detect context switches and corrupted scheduler state). *)
