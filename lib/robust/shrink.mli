(** Shrinking of failing fault scenarios and operation sequences.

    Minimization is generic in how a candidate (fault subset, horizon
    prefix) is executed: the caller supplies [run], typically a closure
    over a component, stimulus and monitor set.  This keeps the module
    usable for stimulus-level and timing-level campaigns, the proptest
    builder and litmus pins alike.

    Every entry point runs the same delta-debugging loop (ddmin): it
    drops whole chunks of a failing list, refining the chunks until no
    single element can be removed, then bisects the shortest failing
    horizon prefix.  Operation sequences start with halves; fault lists
    start with singletons, which makes the loop the drop-one fixpoint
    (retry from the first element after every removal).  Every kept
    candidate was re-executed and observed to fail, so a result replays
    to a failure by construction.

    A campaign sweep has already judged the full case, so
    {!minimize_faults} and {!minimize_ops} take its failure [reason] and
    do not replay it; {!minimize} and {!ddmin} first replay the full
    case to find out whether, and why, it fails. *)

type 'a outcome = {
  faults : 'a list;  (** minimal fault subset still failing *)
  ticks : int;       (** shortest failing horizon prefix *)
  reason : string;   (** the failure reason of the shrunk replay *)
}

val ddmin :
  fails:('a list -> string option) -> 'a list -> ('a list * string) option
(** [ddmin ~fails ops] delta-debugs a sequence: [fails candidate]
    returns [Some reason] when the candidate still exhibits the
    failure.  Returns the 1-minimal failing subsequence of [ops] (in
    order; removing any single element, including a lone one, passes)
    with the reason of its replay, or [None] when [ops] itself does not
    fail. *)

val minimize_faults :
  run:(faults:'a list -> ticks:int -> (string * Monitor.verdict) list) ->
  monitor:string ->
  faults:'a list ->
  ticks:int ->
  reason:string ->
  'a outcome
(** [minimize_faults ~run ~monitor ~faults ~ticks ~reason] shrinks a
    fault list known to fail [monitor] at horizon [ticks] with [reason]
    (the verdict of the sweep that found it): it removes single faults
    to a fixpoint where every remaining fault is necessary, then
    binary-searches the shortest failing prefix of the horizon.  When
    nothing can be removed or cut, the outcome carries [reason].  Runs
    O(|faults|^2 + log ticks) simulations. *)

val minimize :
  run:(faults:'a list -> ticks:int -> (string * Monitor.verdict) list) ->
  monitor:string ->
  faults:'a list ->
  ticks:int ->
  'a outcome option
(** {!minimize_faults} after one replay of the full scenario, which
    supplies the reason; [None] when that replay does not fail
    [monitor]. *)

val minimize_ops :
  run:(faults:'b list -> ticks:int -> (string * Monitor.verdict) list) ->
  compile:('a list -> 'b list) ->
  monitor:string ->
  ops:'a list ->
  ticks:int ->
  reason:string ->
  'a list * 'b outcome
(** [minimize_ops ~run ~compile ~monitor ~ops ~ticks ~reason] shrinks an
    operation sequence whose faults [compile ops] are known to fail
    [monitor] at horizon [ticks] with [reason]: ddmin over [ops] at the
    full horizon (starting with halves), bisection of the horizon, then
    {!minimize_faults} over the minimal sequence's faults at that
    horizon, which the bisection already saw fail and is not replayed.
    Returns the minimal sequence and the fault-level outcome. *)
