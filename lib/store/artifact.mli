(** Crash-safe, self-describing artifact files.

    Frame layout (all little-endian):

    {v
    "XART"                     4-byte magic
    container version          u16 (currently 1)
    kind                       u32 length + bytes (Codec.kind)
    schema version             u16 (Codec.version)
    payload length             u64
    payload                    Codec-encoded value
    CRC-32                     u32 over every preceding byte
    v}

    {!save} writes the frame to [path ^ ".tmp"] and renames it into
    place, so a crash mid-write can never leave a half-written artifact
    under the final name.  {!load} validates the frame outside-in and
    returns a typed {!error} for every corruption mode — a flipped byte
    anywhere in the file yields [Bad_magic], [Wrong_kind],
    [Version_skew], [Truncated] or [Crc_mismatch], never an unhandled
    exception. *)

type error =
  | Io_error of string  (** open/read failure (missing file, EACCES…) *)
  | Bad_magic  (** not an artifact file *)
  | Wrong_kind of { expected : string; found : string }
      (** a valid artifact of another kind *)
  | Version_skew of { kind : string; expected : int; found : int }
      (** container or schema version mismatch *)
  | Truncated  (** file shorter than its frame claims *)
  | Crc_mismatch of { expected : int32; found : int32 }
  | Malformed of string
      (** frame intact but the payload failed codec validation *)

val error_message : error -> string

val encode : 'a Codec.t -> 'a -> string
(** The full frame as bytes (what {!save} writes). *)

val decode : 'a Codec.t -> string -> ('a, error) result

val save : 'a Codec.t -> string -> 'a -> unit
(** Atomic write-temp-then-rename.  Raises [Sys_error] on I/O failure
    (disk full, unwritable directory) — write failures are operator
    errors, unlike the load-side corruption {!error}s. *)

val load : 'a Codec.t -> string -> ('a, error) result

val write_atomic : string -> string -> unit
(** [write_atomic path data]: the temp-then-rename discipline for raw
    bytes (used by the journal, exposed for reuse). *)
