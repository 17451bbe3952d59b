(** Consistent-hash ring for the serve front tier.

    Streams are assigned to workers by hashing both onto a ring of
    virtual nodes ({!Xentry_store.Crc32} of stable labels): a stream
    maps to the first vnode clockwise from its hash.  When a worker
    dies, only the streams that hashed to {e its} vnodes move — the
    survivors keep every stream they already own, preserving host
    affinity for the traffic that was never disturbed.  That locality
    (not load balance alone) is why the front tier uses a ring instead
    of round-robin reassignment.

    Lookups are deterministic: same members, same key, same answer —
    in particular, the front's request stream is reproducible given
    the same sequence of membership changes. *)

type t

val create : unit -> t
(** An empty ring; each member it gains gets 64 virtual nodes. *)

val add : t -> int -> unit
(** Add member [node] (no-op if present). *)

val remove : t -> int -> unit
(** Remove a member and its vnodes (no-op if absent). *)

val members : t -> int list
(** Current members, ascending. *)

val lookup : t -> string -> int option
(** The member owning [key], or [None] on an empty ring. *)
