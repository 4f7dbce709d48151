(** Printer for the textual AutoMoDe model format.

    The format is the persistent representation of the meta-model: a
    [model] header, the enum declarations, and the root component with
    its hierarchy of notations.  {!Model_parser.parse} is the exact
    inverse: [parse (to_string m)] is structurally equal to [m]
    (round-trip property in the test-suite).

    Limitations: tuple-typed ports and tuple literals are not
    serializable (no automotive case-study model uses them). *)

open Automode_core

exception Unprintable of string

val pp_expr : Format.formatter -> Expr.t -> unit
(** Expression surface syntax: ASCET-style infix operators plus
    [pre(init, e)], [current(init, e)], [when(e, clock)], [present(x)]
    and [if c then a else b].  Enum literals print qualified
    ([Type.Literal]) so parsing needs no literal-uniqueness assumption. *)

val component_to_string : Model.component -> string
val to_string : Model.model -> string
(** @raise Unprintable on tuple types/values. *)
