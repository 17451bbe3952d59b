(** The one JSON emitter.

    Every JSON document the programs write — telemetry JSON Lines, the
    serve, cluster, recovery and optimizer summaries, the bench's
    [--json] report — is a {!t} rendered by {!to_string}, so escaping,
    number format and layout live here.  Writers return {!t}, and
    callers nest values instead of splicing strings.

    {b Layout.}  One line, a comma and a space between items, a colon
    and a space after keys, keys in the order given:
    {v {"k": 1, "k2": [1, 2], "k3": {}} v}

    {b Strings.}  Double quotes and backslashes are backslash-escaped;
    newline, carriage return and tab print as [\n], [\r], [\t]; every
    other byte below 0x20 as [\u00XX]; other bytes pass through. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** {!float_repr} when finite, [null] otherwise *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val float_repr : float -> string
(** [%g] when that parses back to the same float, else [%.17g], exact
    for every finite double; [Xentry_mlearn.Arff] writes its features
    with it too.  Non-finite values print as [nan], [inf], [-inf]. *)

val option : ('a -> t) -> 'a option -> t
(** [option f None] is [Null]; [option f (Some x)] is [f x]. *)
