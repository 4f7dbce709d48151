(** Simulation traces: per-flow message streams over discrete ticks.

    A trace records, for each named flow and each tick, the message on
    the flow — mirroring the tick tables of the paper's Fig. 1 where
    absent messages show as ["-"]. *)

type t

val make : flows:string list -> t
(** An empty trace over the given flow names (column order preserved). *)

val record : t -> (string * Value.message) list -> t
(** Append one tick.  Flows not mentioned get [Absent]; unknown flow
    names are ignored. *)

val record_ordered : t -> (string * Value.message) list -> t
(** Append one tick whose messages are already listed exactly in flow
    order (one entry per flow) — skips the per-flow projection of
    {!record}.  Used by hot simulation loops; behavior is unspecified
    if the invariant is violated. *)

val length : t -> int
val flows : t -> string list

val prefix : t -> int -> t
(** [prefix t n] is the first [n] ticks of [t], over the same flows:
    [t] itself when [n >= length t].  It drops the [length t - n] last
    ticks in O(length t - n) and shares the remaining rows.  A run of
    the simulator to horizon [n] equals the prefix of length [n] of
    any longer run under the same stimulus, since every tick depends
    only on earlier ones.
    @raise Invalid_argument on a negative [n]. *)

val get : t -> flow:string -> tick:int -> Value.message
(** @raise Not_found on unknown flows; [Absent] beyond the last tick. *)

val column : t -> string -> Value.message list
(** The full message stream of one flow.  @raise Not_found. *)

val columns : t -> (string * Value.message array) list
(** Every flow's column at once, in declaration order — one O(ticks *
    flows) walk over the rows instead of a {!column} call per flow.
    Equivalent to [List.map (fun f -> (f, Array.of_list (column t f)))
    (flows t)]. *)

val equal : t -> t -> bool
(** Same flows (in any order), same length, same messages everywhere. *)

val equal_on : flows:string list -> t -> t -> bool
(** Equality restricted to the given flows. *)

val first_divergence :
  t -> t -> (int * string * Value.message * Value.message) option
(** Earliest (tick, flow, left, right) where two traces differ on their
    common flows; [None] when they agree. *)

val restrict : t -> string list -> t
(** Keep only the given flows (in the given order). *)

val rename : t -> (string * string) list -> t
(** Rename flows; names without a mapping are kept. *)

val pp : Format.formatter -> t -> unit
(** Fig. 1-style table: one row per flow, one column per tick. *)

val to_string : t -> string

val to_csv : t -> string
(** Comma-separated export: header [tick,<flow>,...], one line per tick,
    absent messages as empty cells — for spreadsheet/plot tooling.
    Cells (and header names) containing commas, double quotes, CR or
    LF are quoted
    per RFC 4180 with embedded quotes doubled, so tuple values such as
    [(1, 2)] round-trip through CSV readers. *)
