(** A credit scheduler in the style of Xen's default scheduler.

    Each VCPU receives credits proportional to its weight; the running
    VCPU is debited on every scheduler tick; VCPUs with positive
    credits ([Under] priority) run before those that have overdrawn
    ([Over]).  When every runnable VCPU is in [Over], credits are
    refilled.  The hypervisor model uses it to rotate guest VCPUs
    across VM exits, and the context-switch handler synthesis reads the
    queue head it publishes. *)

type vcpu_id = { dom : int; vcpu : int }

type priority = Under | Over

type t

val create : (vcpu_id * int) list -> t
(** [create vcpus] builds a scheduler over [(id, weight)] pairs;
    weights must be positive.  The first VCPU in the list runs first.
    Raises [Invalid_argument] on an empty list or non-positive
    weight. *)

val current : t -> vcpu_id
(** The VCPU currently running. *)

val credits : t -> vcpu_id -> int
(** Remaining credits (may be negative). *)

val priority : t -> vcpu_id -> priority

val tick : t -> unit
(** Account one scheduler tick against the running VCPU: 100 credits,
    as in Xen's 10 ms tick at weight 256. *)

val pick_next : t -> vcpu_id
(** Preempt the current VCPU, move it to the tail of its priority
    class, and dispatch the best runnable VCPU.  Refills credits when
    all runnable VCPUs are over. *)

val block : t -> vcpu_id -> unit
(** Remove a VCPU from the run queue (it keeps its credits).  Blocking
    the running VCPU forces a dispatch of the next one. *)

val wake : t -> vcpu_id -> unit
(** Return a blocked VCPU to the run queue; wakers with [Under]
    priority preempt an [Over] current VCPU (boost), as in Xen. *)

val is_runnable : t -> vcpu_id -> bool

val runnable_count : t -> int

val run_queue : t -> vcpu_id list
(** Runnable VCPUs in dispatch order, current first. *)

val pp : Format.formatter -> t -> unit

val copy : t -> t
(** Deep copy preserving credits, runnable flags and queue order. *)
