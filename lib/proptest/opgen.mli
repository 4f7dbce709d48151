(** Weighted operation generators and deterministic sequence expansion.

    A generator draws one timed operation from a seeded PRNG; a
    generator set with integer weights defines a distribution over
    operations.  {!expand} turns (seed, iteration) into a whole
    operation sequence as a {e pure function} — the same pair always
    expands to the same sequence, bit for bit, so every failing run
    replays exactly and a shrunk counterexample names the (seed,
    iteration) it came from. *)

open Automode_core
open Automode_robust

type rand
(** Deterministic PRNG handle passed to draw functions. *)

type t
(** One weighted operation generator. *)

val make : name:string -> ?weight:int -> (rand -> horizon:int -> Op.t) -> t
(** [make ~name draw] wraps an arbitrary draw function.  [?weight]
    (default 1) is the generator's relative weight in the set; weight 0
    keeps the generator declared but never drawn.
    @raise Invalid_argument on a negative weight. *)

val name : t -> string
(** The generator's declared name (report generator table). *)

val weight : t -> int
(** The generator's relative weight in the set. *)

val command :
  ?weight:int -> ?hold:int -> flow:string -> values:Value.t list -> unit -> t
(** Mode commands: override [flow] with one of [values] at a drawn tick
    (hold defaults to 1 tick).  @raise Invalid_argument on an empty
    value list. *)

val silence : ?weight:int -> ?max_hold:int -> flow:string -> unit -> t
(** Stimulus dropout windows on [flow], [1..max_hold] (default 4) ticks
    long. *)

val spike :
  ?weight:int -> ?max_hold:int -> flow:string -> values:Value.t list ->
  unit -> t
(** Fault-catalog spikes: [flow] is forced to one of [values] for a
    drawn window of [1..max_hold] (default 4) ticks. *)

val reset : ?weight:int -> ?max_down:int -> flows:string list -> unit -> t
(** Transient ECU reset of the listed flows, [1..max_down] (default 4)
    ticks of outage. *)

val crash : ?weight:int -> flows:string list -> unit -> t
(** Fail-silent ECU crash of the listed flows at a drawn tick. *)

val fault : ?weight:int -> name:string -> (rand -> horizon:int -> Fault.t) -> t
(** Arbitrary fault activations drawn from a catalog recipe. *)

val expand :
  gens:t list -> min_ops:int -> max_ops:int -> horizon:int -> seed:int ->
  iteration:int -> Op.t list
(** The operation sequence of (seed, iteration): a drawn length in
    [[min_ops, max_ops]], each operation drawn from the weighted
    generator set, the whole list stably sorted by {!Op.start_tick}.
    Pure: equal arguments yield equal sequences.
    @raise Invalid_argument on [min_ops < 0], [max_ops < min_ops],
    [horizon < 1], or a generator set whose total weight is 0. *)
