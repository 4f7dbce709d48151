(** Shrinking of failing fault scenarios and operation sequences.

    Minimization is generic in how a candidate (fault subset, horizon
    prefix) is executed: the caller supplies [run], typically a closure
    over a component, stimulus and monitor.  This keeps the module
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

    A run yields a {!judge} over horizon prefixes.  Every tick of a run
    depends only on earlier ticks, so a run to horizon [h] is the first
    [h] ticks of any longer run ({!Automode_core.Trace.prefix}): the
    bisection asks the judge of the last candidate ddmin kept instead
    of re-simulating each shorter horizon.

    A campaign sweep has already judged the full case, so
    {!minimize_faults} and {!minimize_ops} take its failure [reason] and
    do not replay it; {!minimize} and {!ddmin} first replay the full
    case to find out whether, and why, it fails. *)

open Automode_core

type 'a outcome = {
  faults : 'a list;  (** minimal fault subset still failing *)
  ticks : int;       (** shortest failing horizon prefix *)
  reason : string;   (** the failure reason of the shrunk replay *)
}

type judge = int -> string option
(** A prefix judge of one run to some horizon [ticks]: [judge h], for
    [0 <= h <= ticks], is the failure reason of the monitor being
    shrunk on the run's first [h] ticks, or [None] when it passes
    there. *)

val judge_trace : Monitor.t list -> monitor:string -> Trace.t -> judge
(** [judge_trace monitors ~monitor tr] judges the prefixes of the
    recorded run [tr] by the monitor named [monitor] alone
    ({!Automode_core.Trace.prefix}, then {!Monitor.eval}); a name no
    monitor carries never fails.  The judge behind every campaign's
    shrinker. *)

val ddmin :
  fails:('a list -> string option) -> 'a list -> ('a list * string) option
(** [ddmin ~fails ops] delta-debugs a sequence: [fails candidate]
    returns [Some reason] when the candidate still exhibits the
    failure.  Returns the 1-minimal failing subsequence of [ops] (in
    order; removing any single element, including a lone one, passes)
    with the reason of its replay, or [None] when [ops] itself does not
    fail. *)

val minimize_faults :
  run:(faults:'a list -> ticks:int -> judge) ->
  faults:'a list ->
  ticks:int ->
  reason:string ->
  'a outcome
(** [minimize_faults ~run ~faults ~ticks ~reason] shrinks a fault list
    known to fail at horizon [ticks] with [reason] (the verdict of the
    sweep that found it).  [run ~faults ~ticks] simulates once and
    returns that run's {!judge}.  It removes single faults to a
    fixpoint where every remaining fault is necessary, then
    binary-searches the shortest failing prefix of the horizon on the
    judge of the last kept fault list.  When nothing can be removed
    or cut, the outcome carries [reason].  Runs O(|faults|^2)
    simulations plus at most one, and O(log ticks) prefix judgements:
    the full fault list is simulated only when no fault can be removed
    and the bisection needs its judge. *)

val minimize :
  run:(faults:'a list -> ticks:int -> (string * Monitor.verdict) list) ->
  monitor:string ->
  faults:'a list ->
  ticks:int ->
  'a outcome option
(** {!minimize_faults} after one replay of the full scenario, which
    supplies the reason; [None] when that replay does not fail
    [monitor].  [run] evaluates every monitor of one replay, so each
    judged prefix is a replay at that horizon: the same outcome from
    one replay, then one per ddmin candidate and one per bisection
    step. *)

val minimize_ops :
  run:(faults:'b list -> ticks:int -> judge) ->
  compile:('a list -> 'b list) ->
  ops:'a list ->
  ticks:int ->
  reason:string ->
  'a list * 'b outcome
(** [minimize_ops ~run ~compile ~ops ~ticks ~reason] shrinks an
    operation sequence whose faults [compile ops] are known to fail at
    horizon [ticks] with [reason]: ddmin over [ops] at the full horizon
    (starting with halves), bisection of the horizon on the last kept
    sequence's judge, then {!minimize_faults} over the minimal
    sequence's faults at that horizon, starting from the same judge, so
    the fault pass replays nothing it already saw.  Returns the minimal
    sequence and the fault-level outcome. *)
