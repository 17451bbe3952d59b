(** The cluster wire protocol: length-prefixed, CRC-framed messages
    over Unix-domain sockets.

    Every byte the coordinator, the serve front tier and the workers
    exchange travels in one frame format:

    {v
    offset  size  field
    0       4     magic "XCF1" (protocol version baked into the tag)
    4       4     payload length N, little-endian u32
    8       N     payload ({!Wire}-encoded message, tag byte first)
    8+N     4     CRC-32 of bytes [0, 8+N)  (header AND payload)
    v}

    The CRC covers the header, so a flipped length byte cannot silently
    re-frame the stream: either the CRC is looked up at the wrong
    offset (mismatch) or the frame is reported oversized.  Payloads are
    encoded with the artifact store's {!Wire} primitives and message
    bodies reuse {!Xentry_store.Codec}'s encoders (outcome records,
    detectors, detection sets, exit reasons), so values that already
    round-trip through the store round-trip over the wire for free.

    Decoding is {e incremental} and {e total}: {!feed} arbitrary chunks
    (sockets deliver frames split at any byte boundary), {!next}
    returns a complete message, "need more bytes", or a typed
    {!error} — corrupt input can never hang a peer or produce garbage
    records.  After an error the decoder is poisoned (the stream has no
    recoverable framing); peers drop the connection. *)

(** {2 Addresses} *)

type addr = Unix_sock of string  (** Unix-domain socket path *)

(** {2 Messages} *)

type msg =
  | Hello of { jobs : int }
      (** worker → coordinator/front greeting; [jobs] = worker's domain
          count (sizes its lease batches / in-flight window) *)
  | Campaign_spec of Xentry_faultinject.Campaign.Config.t
      (** coordinator → worker: the campaign to shard ([jobs] travels
          as [None]; each worker substitutes its own) *)
  | Lease of int list
      (** coordinator → worker: shard indices to execute *)
  | Shard_result of {
      shard : int;
      records : Xentry_faultinject.Outcome.record list;
    }  (** worker → coordinator: one completed shard *)
  | Serve_spec of {
      worker_index : int;  (** distinct host seeds per worker *)
      seed : int;
      pipeline : Xentry_core.Pipeline.Config.t;
    }  (** front → worker: arm the serving executors *)
  | Serve_request of { seq : int; req : Xentry_vmm.Request.t }
  | Serve_response of { seq : int; detected : bool; shed : bool }
      (** [shed]: the worker was draining and did not execute it *)
  | Drain  (** front → worker: stop executing, flush and say goodbye *)
  | Telemetry_drain of string
      (** worker → front/coordinator: the worker's
          {!Xentry_util.Telemetry.to_json} dump *)
  | Bye  (** either direction: orderly close *)
  | Detector_push of Xentry_core.Detector.t
      (** front → worker: hot-swap — install this (already
          shadow-gated) detector for all subsequent requests.
          Requests already queued at the worker execute under
          whichever detector their executor reads when it picks them
          up; none is lost or re-run, so the swap is non-disruptive by
          construction. *)
  | Detector_ack of { worker_index : int; version : int }
      (** worker → front: the pushed detector version is installed —
          the front's evidence that the fleet converged *)

(** {2 Framing} *)

type error =
  | Bad_magic
  | Oversized of int
      (** a payload over 64 MiB: a typed error, not an allocation *)
  | Crc_mismatch of { stored : int32; computed : int32 }
  | Truncated  (** end-of-stream inside a frame *)
  | Malformed of string  (** CRC-clean frame whose payload failed to decode *)

val error_message : error -> string

exception Protocol_error of error
(** Raised by the blocking conveniences ({!send}, {!recv}, {!pump});
    the pure decoder returns [error] instead. *)

val encode : msg -> string
(** One complete frame. *)

(** {2 Incremental decoder} *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> string -> unit
(** Append raw bytes (any chunking).  No-op on a poisoned decoder. *)

val next : decoder -> (msg option, error) result
(** [Ok (Some m)] — one complete, CRC-verified message consumed;
    [Ok None] — need more bytes; [Error e] — the stream is corrupt and
    the decoder poisoned (every later call returns the same error). *)

val finish : decoder -> (unit, error) result
(** Call at end-of-stream: [Ok ()] iff no partial frame is buffered,
    [Error Truncated] (or the poisoning error) otherwise — a peer that
    dies mid-frame yields a typed error, never a hang. *)

(** {2 Connections} *)

type conn

val fd : conn -> Unix.file_descr
val with_listener : addr -> (Unix.file_descr -> 'a) -> 'a
(** [with_listener addr f] binds and listens on [addr] (backlog 16;
    a pre-existing socket file is unlinked first), runs [f] on the
    listening socket, then closes it and unlinks the socket file,
    however [f] ends. *)

val accept : Unix.file_descr -> conn

val connect : addr -> conn
(** Retries [ECONNREFUSED]/[ENOENT] up to 100 times, 0.1 s apart —
    workers may start before the coordinator's socket exists. *)

val select : Unix.file_descr list -> float -> Unix.file_descr list
(** The descriptors of the list that are readable within [timeout]
    seconds ([Unix.select] on reads, retried on [EINTR]). *)

val close : conn -> unit
(** Idempotent. *)

val send : conn -> msg -> unit
(** Blocking framed write through {!Xentry_util.Io.really_write}. *)

val recv : conn -> msg option
(** Blocking read of the next message; [None] on clean end-of-stream
    (between frames).  Raises {!Protocol_error} on corruption or
    mid-frame EOF, [Unix.Unix_error] on socket failure. *)

val pump : conn -> msg list * bool
(** One non-looping read (for select-driven callers): performs a single
    [read], decodes every now-complete message, and returns them with
    [true] iff end-of-stream was reached (clean only — corrupt tails
    raise {!Protocol_error}). *)

val try_pump : conn -> msg list * bool
(** Like {!pump} but never blocks: decodes whatever is already
    buffered, then reads only while [select] reports the descriptor
    readable.  Returns immediately with [([], false)] when nothing is
    available. *)
