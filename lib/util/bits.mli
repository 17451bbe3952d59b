(** Bit manipulation on 64-bit words.

    The fault model is a single bit flip in an architectural register
    (paper §V-B); these helpers implement flips, masks and population
    counts over [int64] register images. *)

val flip : int64 -> int -> int64
(** [flip w i] toggles bit [i] (0 = least significant).  Raises
    [Invalid_argument] unless [0 <= i < 64]. *)

val test : int64 -> int -> bool
(** [test w i] is the value of bit [i]. *)

val set : int64 -> int -> int64

val clear : int64 -> int -> int64

val popcount : int64 -> int
(** Number of set bits. *)

val hamming : int64 -> int64 -> int
(** Hamming distance between two words. *)

val low_bits : int64 -> int -> int64
(** [low_bits w n] keeps only the [n] least significant bits
    ([n = 64] is the identity, [n = 0] is zero). *)

val to_hex : int64 -> string
(** Zero-padded 16-digit lowercase hex, e.g. ["0000000000001f2a"]. *)
