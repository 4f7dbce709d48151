(** Pretty-printer of the textual ASCET-like format.  Round-trips with
    {!Ascet_parser}: parsing the printed form yields an equal module. *)

val pp_expr : Format.formatter -> Automode_core.Expr.t -> unit
(** ASCET surface syntax of the memoryless expression fragment. *)

val pp : Format.formatter -> Ascet_ast.t -> unit
val to_string : Ascet_ast.t -> string
