(** Structural analysis of ASCET-like models for white-box reengineering
    (paper Secs. 4, 5).

    The paper's central case-study observation: ASCET processes encode
    operation modes {e implicitly}, as If-Then-Else over flag variables
    emitted by a central component; AutoMoDe MTDs make them explicit.
    This module finds those flags and the implicit mode structure. *)

open Automode_core

val declared_flags : Ascet_ast.t -> string list

val inferred_flags : Ascet_ast.t -> string list
(** Mode-flag candidates by structure (DESIGN.md decision 5): bool- or
    enum-typed non-input globals whose every read occurrence is inside
    an if-condition.  Declared [Flag] globals are included. *)

val flag_readers : Ascet_ast.t -> string -> string list
(** Processes reading the given global. *)

val flag_writers : Ascet_ast.t -> string -> string list
(** Processes sending to the given global. *)

val central_flag_emitters : Ascet_ast.t -> (string * int) list
(** Processes writing more than one flag, with the flag count — the
    paper's "centralized software component emits a large number of
    flags" smell, sorted by count descending. *)

val process_dataflow : Ascet_ast.t -> (string * string * string) list
(** Data-flow edges (writer process, global, reader process). *)

type mode_split = {
  split_condition : Expr.t;        (** over flags only *)
  then_branch : Ascet_ast.stmt list;
  else_branch : Ascet_ast.stmt list;
  prefix : Ascet_ast.stmt list;    (** flag-independent statements before the split *)
}

val implicit_modes :
  flags:string list -> Ascet_ast.process -> mode_split option
(** Detect the implicit two-mode structure of a process: an optional
    prefix of statements that don't read flags, followed by a top-level
    [If] whose condition reads {e only} flags, with no trailing
    statements.  (Nested splits inside the branches are found by
    re-applying the same detection to the branch bodies.) *)

val count_flag_conditionals : flags:string list -> Ascet_ast.t -> int
(** Total number of [If] statements whose condition reads at least one
    flag — the "implicit mode" count reported by the case study. *)
