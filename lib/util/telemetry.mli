(** Process-wide metrics and tracing for the detection pipeline.

    A campaign is a pipeline of hot loops — interpreter steps, TLB
    probes, shard executions, detector traversals — whose behaviour the
    paper reports only in aggregate (coverage, latency CDFs, per-exit
    overhead).  This module is the measurement substrate underneath
    those numbers: named {e counters}, log-bucketed {e histograms}, and
    lightweight {e spans}/{e events}, exported as JSON Lines.

    {b Cost discipline.}  Telemetry is disabled by default and every
    record operation is a no-op while disabled.  Hot paths (the
    interpreter's memory accesses, [Hypervisor.execute]) additionally
    pre-check {!enabled_ref} — a plain [bool ref], one load and one
    predictable branch — so a disabled build pays near zero in the
    interpreter hot loop.  Metric {e registration} ([counter],
    [histogram]) is cheap but mutex-protected: create metrics once at
    module level, not per call.

    {b Domain safety.}  Counters are sharded [Atomic.t] cells (merged
    on read).  Histograms and events accumulate into per-domain buffers
    (via [Domain.DLS]) that registration tracks and {!export} merges —
    no synchronization on the record path beyond the first touch per
    domain.  Enable/disable/reset are meant for the single-domain
    sections between campaigns (e.g. CLI startup), not for racing
    against live workers.

    Recording never perturbs campaign results: no RNG draws, no
    ordering dependence — records stay bit-identical for every [-j]
    (asserted by the [telemetry-smoke] runtest alias). *)

val enabled_ref : bool ref
(** Read-only fast-path flag; mutate only via {!enable}/{!disable}. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero every counter and histogram and drop buffered events.  Metric
    registrations (and handles already held by callers) stay valid. *)

(** {2 Counters} *)

type counter

val counter : string -> counter
(** [counter name] registers (or retrieves) the named counter. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {2 Histograms}

    Log-bucketed over non-negative integers: bucket 0 holds values
    [<= 0], bucket [b >= 1] holds values in [\[2{^b-1}, 2{^b})] — i.e.
    one bucket per bit length, 65 buckets total.  Coarse by design:
    the paper's distributions (steps, latencies, comparisons) span
    orders of magnitude, and a fixed bucket layout merges across
    domains without coordination. *)

type histogram

val histogram : string -> histogram
val observe : histogram -> int -> unit

val observe_span : histogram -> float -> unit
(** Record a duration in seconds as integer nanoseconds. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> int

val bucket_of_value : int -> int
(** The bucket index a value lands in (exposed for tests). *)

val bucket_bounds : int -> int * int
(** [(lo, hi)] inclusive value range of a bucket index. *)

(** {2 Spans and events} *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f ()] and records the wall-clock duration
    into histogram [name ^ ".ns"].  When disabled, exactly [f ()]. *)

val event : string -> (string * Json.t) list -> unit
(** Append a structured record (e.g. one campaign shard's summary) to
    the calling domain's event buffer; the fields export in the order
    given.  Buffers are bounded at 65,536 records per domain: once the
    calling domain's buffer is full the event is dropped and counted
    in [telemetry.events_dropped] instead — always-on services cannot
    leak memory through telemetry. *)

val events_dropped : unit -> int
(** Events discarded because a buffer was full since the last
    {!reset} — the [telemetry.events_dropped] counter. *)

(** {2 Export} *)

val export : out_channel -> unit
(** Write one JSON object per line: a [meta] header, then every
    counter, histogram (non-empty buckets only) and event, metrics
    sorted by name.  See DESIGN.md §11 for the schema. *)

val export_file : string -> unit

val to_json : unit -> string
(** The same data as one single-line JSON object
    [{"counters": {...}, "histograms": {...}, "events": [...]}] — the
    dump a cluster worker sends its coordinator. *)
