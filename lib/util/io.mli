(** EINTR-safe, short-count-safe file-descriptor I/O.

    Every loop in this repository that moves bytes through a
    [Unix.file_descr] — artifact files, journal shards, and the
    cluster's socket protocol — goes through these two helpers, so the
    retry discipline lives in exactly one place: [Unix.EINTR] restarts
    the call, and a short count (sockets and pipes return partial
    transfers routinely; regular files may on some filesystems)
    continues from where the kernel stopped.

    None of these helpers handle non-blocking descriptors specially: a
    [EAGAIN]/[EWOULDBLOCK] propagates to the caller, which either
    selected the descriptor first or wants the error. *)

val really_read : Unix.file_descr -> bytes -> int -> int -> int
(** [really_read fd buf pos len] reads until [len] bytes have arrived
    or end-of-file, restarting on [EINTR] and continuing after short
    reads.  Returns the number of bytes actually read: [len] normally,
    less only when end-of-file was reached first (0 at immediate
    EOF). *)

val really_write : Unix.file_descr -> bytes -> int -> int -> unit
(** [really_write fd buf pos len] writes all [len] bytes, restarting
    on [EINTR] and continuing after short writes. *)

val write_string : Unix.file_descr -> string -> unit
(** {!really_write} of a whole string. *)

val read_file : string -> string
(** Whole-file read through {!really_read}.  Raises [Unix.Unix_error]
    on open/read failure. *)

val fsync_dir : string -> unit
(** [fsync_dir dir] opens the directory read-only and fsyncs it, so a
    rename inside it is durable before the call returns.  Errors are
    swallowed: some filesystems (and non-POSIX platforms) refuse to
    fsync directories, and the rename itself already happened — this
    is a best-effort durability upgrade, never a correctness gate. *)
