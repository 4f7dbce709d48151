(** Hierarchical identifiers.

    Model elements (components, ports, channels, modes, ...) are named by
    dot-separated paths, e.g. ["EngineController.Throttle.posIn"].  A path
    is a non-empty list of segments; each segment is a non-empty string of
    letters, digits, ['_'] and ['-'].  Paths are ordered lexicographically
    segment by segment. *)

type t
(** A hierarchical identifier. *)

exception Invalid of string
(** Raised by the constructors on malformed segments. *)

val v : string -> t
(** [v seg] is the single-segment identifier [seg].
    @raise Invalid if [seg] is empty or contains ['.'] or whitespace. *)

val of_string : string -> t
(** [of_string s] parses a dot-separated path.
    @raise Invalid on empty or malformed input. *)

val to_string : t -> string
(** Dot-separated rendering. *)

val segments : t -> string list
(** The path segments, outermost first. *)

val child : t -> string -> t
(** [child id seg] appends one segment. @raise Invalid on a bad segment. *)

val append : t -> t -> t
(** [append a b] concatenates the two paths. *)

val basename : t -> string
(** The last segment. *)

val parent : t -> t option
(** The path without its last segment; [None] for single-segment paths. *)

val depth : t -> int
(** Number of segments. *)

val is_prefix : t -> t -> bool
(** [is_prefix a b] is [true] iff [a]'s segments are a prefix of [b]'s. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
