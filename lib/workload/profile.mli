(** Benchmark workload profiles.

    The paper exercises the hypervisor with six benchmarks chosen to
    stress different subsystems (§V-A): postmark, freqmine and x264
    for I/O, canneal and bzip2 for CPU, mcf for memory.  A profile
    models how a benchmark drives the hypervisor: its activation
    frequency distribution (Fig 3's box plots, per virtualization
    mode), its mix of VM-exit reasons, and the share of CPU time spent
    in the hypervisor (used by the overhead studies of Figs 7 and
    11). *)

type benchmark = Mcf | Bzip2 | Freqmine | Canneal | X264 | Postmark

type virt_mode = PV | HVM

type workload_class = Cpu_bound | Memory_bound | Io_bound

type t

val all_benchmarks : benchmark array
(** In the paper's Fig 3 order: mcf, bzip2, freqmine, canneal, x264,
    postmark. *)

val benchmark_name : benchmark -> string
val mode_name : virt_mode -> string

val get : benchmark -> t
val benchmark : t -> benchmark
val workload_class : t -> workload_class

val sample_activation_rate : t -> virt_mode -> Xentry_util.Rng.t -> float
(** One observed per-second hypervisor activation count.  PV rates
    fall in the paper's 5,000–100,000/s band (freqmine peaking toward
    650,000/s); HVM rates mostly within 2,000–10,000/s. *)

val sample_request : t -> virt_mode -> Xentry_util.Rng.t -> Xentry_vmm.Request.t
(** Draw one VM-exit request from the benchmark's reason mix, with
    arguments valid for fault-free execution (error paths are reached
    only through fault injection, matching the paper's setup where
    benchmarks run correctly unless a fault intervenes). *)

val reason_mix : t -> virt_mode -> (string * float) list
(** Category weights (irq/apic/softirq/tasklet/exception/hypercall)
    for reporting. *)

(** {2 Draw weights}

    The weights {!sample_request} draws from: a category
    ({!reason_mix}), then the reason within it, then
    {!request_for_reason}.  It builds these lists into arrays once, at
    module initialisation, per workload class and mode. *)

val hypercall_weights : workload_class -> (Xentry_vmm.Hypercall.t * float) list
val exception_weights :
  workload_class -> (Xentry_machine.Hw_exception.t * float) list
val irq_weights : workload_class -> (int * float) list
val apic_weights : (Xentry_vmm.Exit_reason.apic * float) list

val request_for_reason :
  Xentry_vmm.Exit_reason.t -> Xentry_util.Rng.t -> Xentry_vmm.Request.t
(** A request for the given reason, with arguments drawn as
    {!sample_request} draws them. *)

val mean_handler_length : t -> virt_mode -> float
(** Expected dynamic instructions per hypervisor execution under this
    profile (used by the fault-free overhead model). *)

val sample_physical_rate : t -> Xentry_util.Rng.t -> float
(** One observed per-second activation count on the paper's physical
    measurement host (Xeon E5506, 4 VMs).  These bands are lower than
    the {!sample_activation_rate} simulator bands and drive the
    overhead studies (Fig 7's measured runtimes, Fig 11's traces). *)

val trace_rate : t -> float
(** The fixed per-second activation rate of the recorded hypervisor
    execution trace used in the recovery study (§VI): the physical
    band's median. *)
