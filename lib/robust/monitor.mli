(** Trace monitors: safety properties evaluated over recorded traces.

    A monitor inspects a {!Automode_core.Trace.t} after the fact and
    renders a verdict.  Monitors are the oracle side of the robustness
    harness: the fault catalog perturbs the stimulus, the monitors say
    whether the perturbed run still satisfies the requirement. *)

open Automode_core

type verdict =
  | Pass
  | Fail of { at_tick : int; reason : string }
      (** [at_tick] is the earliest tick witnessing the violation. *)

type t

val name : t -> string

val eval : t -> Trace.t -> verdict
(** Evaluation is pure; a flow the monitor needs that is missing from
    the trace is itself a failure (at tick 0). *)

val distinct_names : caller:string -> t list -> t list
(** The list itself when no two monitors share a name.  Reports, the
    shrinker and the campaign cache look verdicts up by monitor name,
    so a set of monitors must name each one once.
    @raise Invalid_argument naming [caller] and the first repeated
    name. *)

val is_fail : verdict -> bool
val verdict_to_string : verdict -> string

val range : name:string -> flow:string -> lo:float -> hi:float -> t
(** Every present numeric message on [flow] stays within [lo, hi];
    absent ticks are fine, non-numeric present values fail. *)

val bounded_response :
  ?stim_pred:(Value.t -> bool) ->
  ?resp_pred:(Value.t -> bool) ->
  name:string -> stimulus:string -> response:string -> within:int ->
  unit -> t
(** Whenever [stimulus] carries a message satisfying [stim_pred]
    (default: any present message) at tick [t], [response] must carry a
    message satisfying [resp_pred] at some tick in [t, t + within].
    Obligations whose window extends past the end of the trace are
    inconclusive and do not fail. *)

val recovers :
  ?pred:(Value.t -> bool) ->
  name:string -> flow:string -> after:int -> within:int -> unit -> t
(** After tick [after] (typically {!Fault.last_active_tick} of the
    injected faults), [flow] must satisfy [pred] (default: any present
    message; absent ticks never satisfy) at some tick no later than
    [after + within] and keep satisfying it to the end of the trace.
    A window running past the trace end is inconclusive (passes), like
    {!bounded_response} obligations.
    @raise Invalid_argument on [within < 1] or [after < 0]. *)

val mode_safety :
  name:string -> mode_flow:string -> mode:string -> flag_flow:string -> t
(** Never in mode [mode] (compared against the enum literal emitted on
    [mode_flow]) while [flag_flow] carries a true/present flag. *)

val never :
  name:string ->
  flows:string list ->
  pred:((string * Value.message) list -> bool) ->
  t
(** Fails at the first tick where [pred] holds of the listed flows'
    messages (missing trailing ticks read as [Absent]). *)

val predicate :
  name:string -> (Trace.t -> (int * string) option) -> t
(** Escape hatch: an arbitrary trace predicate returning the violation
    tick and reason, or [None] for pass. *)
