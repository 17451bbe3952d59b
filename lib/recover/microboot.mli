(** Hypervisor recovery from a VM-exit context: the paper's §VI
    checkpoint-and-re-execute, and a ReHype-style micro-reboot.

    Both start from one {!context}, captured at the VM-exit boundary
    after {!Xentry_vmm.Hypervisor.prepare}.  The capture is a journal
    epoch on the live host ({!Xentry_vmm.Hypervisor.val-checkpoint}),
    not a byte copy: the host keeps running on its own pages and copies
    a page aside only on its first write after the capture, into a
    recycled frame.

    {!restore} is the paper's sketch (§VI): roll the whole host back to
    the context, hypervisor scratch included, and re-execute the
    request.  Soft errors are transient and detection fires before VM
    entry, so the re-execution is a fault-free first run.

    {!reboot} is ReHype ("Resilient Virtualized Systems Using ReHype",
    PAPERS.md): instead of undoing the hypervisor's writes, boot a
    fresh hypervisor and re-attach the live domain state.  It splits
    the host into three state classes:

    - {b Reinitialized} from a boot-time {!image}: the
      hypervisor-private scratch regions (hypervisor stack, bounce
      buffer, request page, tasklet pool).  A fault may have corrupted
      them mid-handler, and no guest state derives from their residue
      — handlers only read bytes they first wrote within the same
      execution.
    - {b Preserved} from the context: everything guest-visible or
      guest-derived — domain blocks, vCPU areas, time areas,
      hypervisor globals, event channels, grant tables, page tables,
      the guest input buffer — plus the scheduler, RNG cursor and TSC.
    - {b Replayed}: the in-flight request.  {!reboot} re-stages its
      exit context ({!Xentry_vmm.Hypervisor.restage} — no scheduler
      tick, no RNG advance) and the caller re-executes it; the aborted
      execution leaked nothing to the guest, so the replay is
      indistinguishable from a fault-free first run.

    The recovery-identity properties (test_faultinject, bench
    [recover]): after {!restore} and re-execution the host equals a
    golden host bit-exactly ({!Xentry_faultinject.Classify.diffs} is
    empty); after {!reboot} and replay it does over every
    guest-visible structure (the diffs minus the hypervisor-stack
    entry, which is private scratch deliberately left boot-clean). *)

val reinit_regions : (string * int64 * int) list
(** The reinitialized partition, as [(name, base, length)] — the
    regions {!capture_image} snapshots and {!reboot} restores. *)

type image
(** Byte copy of {!reinit_regions} taken from a freshly created host:
    the clean hypervisor a micro-reboot boots into. *)

val capture_image : Xentry_vmm.Hypervisor.t -> image
(** Capture the boot image.  Call once, on a host that has not yet
    executed any request. *)

val image_bytes : image -> int
(** Size of the boot image (the micro-reboot's only byte-copy cost;
    paid once per host lifetime, not per exit). *)

type context
(** Live state captured at a VM-exit boundary, after
    {!Xentry_vmm.Hypervisor.prepare} and before execution, plus the
    in-flight request.  A context is valid until the next {!capture} on
    its host, or until that host is released: capture, run, then
    either go on to the next request or recover. *)

val capture : Xentry_vmm.Hypervisor.t -> Xentry_vmm.Request.t -> context
(** Capture the exit context for [req], already prepared on the
    host.  Supersedes the host's previous context. *)

val request : context -> Xentry_vmm.Request.t
(** The in-flight request to replay. *)

val restore : context -> Xentry_vmm.Hypervisor.t
(** Checkpoint restore: a new host in exactly the captured state, with
    the in-flight request still staged and ready to re-execute.  One
    context can seed more than one restore or reboot.  The faulted
    host keeps its contents (callers simply drop it).
    @raise Invalid_argument if the context was superseded by a later
    {!capture} on its host, or the host was released. *)

val reboot : image -> context -> Xentry_vmm.Hypervisor.t
(** Micro-reboot: {!restore}, then the boot image over the
    hypervisor-private scratch, then the in-flight request re-staged.
    The guest-visible state is the context's.
    @raise Invalid_argument as {!restore}. *)
