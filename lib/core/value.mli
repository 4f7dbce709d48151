(** Runtime data values and messages of the AutoMoDe operational model.

    Following the paper's Sec. 2, every channel at every discrete clock
    tick carries a {!type:message}: either an explicit {!type:t} value or
    the absence marker ["-"] ({!Absent}).  Event-triggered behavior is
    modeled by reacting to the presence or absence of messages. *)

type t =
  | Bool of bool
  | Int of int
  | Float of float
  | Enum of string * string  (** [Enum (type_name, literal)] *)
  | Tuple of t list

type message =
  | Absent      (** the "-" (tick) value: no message this tick *)
  | Present of t

exception Type_error of string
(** Raised by the arithmetic/logic helpers on ill-typed operands. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val to_string : t -> string
(** The value's text: [true], [23], a float as C's ["%g"] renders it
    ([nan], [inf], [1e+21]), an enum's literal, a tuple as
    ["(1, 2.5)"].  Rendered directly, with no formatter. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)

val equal_message : message -> message -> bool

val message_to_string : message -> string
(** {!to_string} of a present value; [Absent] is ["-"], mirroring the
    paper's Fig. 1. *)

val pp_message : Format.formatter -> message -> unit
(** Prints {!message_to_string}. *)

(** {1 Numeric and logic helpers}

    Binary numeric operations promote [Int] to [Float] when the operands
    are mixed.  All helpers raise {!Type_error} on unsupported operand
    types. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero on integer division by zero. *)

val modulo : t -> t -> t
val neg : t -> t
val abs : t -> t
val min_v : t -> t -> t
val max_v : t -> t -> t
val logical_and : t -> t -> t
val logical_or : t -> t -> t
val logical_not : t -> t
val lt : t -> t -> t
val le : t -> t -> t
val gt : t -> t -> t
val ge : t -> t -> t
val eq : t -> t -> t
val ne : t -> t -> t

val truth : t -> bool
(** [truth v] is the boolean content of [v]. @raise Type_error otherwise. *)

val to_float : t -> float
(** Numeric content as float. @raise Type_error on non-numerics. *)

val to_int : t -> int
(** Integer content. @raise Type_error on anything but [Int]. *)
