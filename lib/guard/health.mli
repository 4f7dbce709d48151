(** Signal health qualification: a per-flow receiver state machine
    (Valid / Suspect / Timeout / Invalid) with debounce counters and
    substitute / last-known-good policies.

    The qualifier is a plain {!Automode_core.Model.std} (FDA-level
    model element), so it flows through the interpreted and compiled
    simulation engines unchanged, and {!protect} is a reusable network
    transform wrapping any component's input flows.

    Semantics per tick, driven by the raw flow's message:
    - a {e good} sample (present, inside the plausibility range) is
      passed through untouched and refreshes the last-known-good value;
    - an {e implausible} sample (present, outside the range) is rejected
      and substituted; [invalid_after] consecutive rejections enter
      [Invalid];
    - an {e absent} tick increments the miss counter; [suspect_after]
      consecutive absences enter [Suspect] (substitution starts),
      [timeout_after] enter [Timeout];
    - from [Timeout]/[Invalid], [recover_after] consecutive good samples
      requalify the flow to [Valid].

    The health flag [ok] is true in [Valid]/[Suspect] (degraded but
    serviceable) and false in [Timeout]/[Invalid].

    {b Transparency}: in [Valid], an absent tick below the suspect
    threshold emits no substitute — with no faults injected and
    [suspect_after] larger than the flow's nominal inter-sample gap, the
    qualified stream is byte-identical to the raw stream. *)

open Automode_core

val status_type : Dtype.t
(** [HealthStatus = Valid | Suspect | Timeout | Invalid]. *)

val status_value : string -> Value.t

type policy =
  | Hold_last           (** substitute the last accepted sample
                            ([startup] before any) *)
  | Substitute of Value.t  (** substitute a fixed fallback value *)
  | Drop                (** emit nothing while unhealthy *)

type config = {
  suspect_after : int;  (** consecutive absent ticks before [Suspect] *)
  timeout_after : int;  (** consecutive absent ticks before [Timeout] *)
  invalid_after : int;  (** consecutive implausible samples before [Invalid] *)
  recover_after : int;  (** consecutive good samples to requalify *)
  plausible : (float * float) option;
      (** numeric plausibility range; [None] accepts any present value *)
  policy : policy;
  startup : Value.t;    (** last-known-good before the first sample *)
}

val config :
  ?suspect_after:int -> ?timeout_after:int -> ?invalid_after:int ->
  ?recover_after:int -> ?plausible:float * float -> ?policy:policy ->
  startup:Value.t -> unit -> config
(** Defaults: suspect after 2, timeout after 8, invalid after 2,
    recover after 1, no plausibility range, [Hold_last].  Thresholds are
    in base-clock ticks: for a flow on [every n] pick
    [suspect_after > n - 1] so nominal inter-sample gaps stay silent.
    @raise Invalid_argument on non-positive thresholds,
    [timeout_after <= suspect_after], or an empty range. *)

val qualifier :
  ?name:string -> ?ty:Dtype.t -> ?clock:Clock.t -> config -> Model.component
(** The machine packaged as a component (default name ["Qualifier"];
    [ty]/[clock] type the [raw] port). *)

val ok_flow : string -> string
(** [<flow>_ok] *)

val status_flow : string -> string
(** [<flow>_status] *)

val qualified_flow : string -> string
(** [<flow>_q] *)

val protect :
  ?name:string -> ?expose_qualified:bool ->
  flows:(string * config) list -> Model.component -> Model.component
(** Wrap [comp] in a DFD network interposing one qualifier per listed
    input flow: the boundary flow feeds the qualifier, the qualified
    stream feeds the inner component's port, and per flow the wrapper
    exposes [<flow>_ok] and [<flow>_status] output ports (plus
    [<flow>_q], the qualified stream itself, with
    [~expose_qualified:true]).  Unlisted inputs and all outputs forward
    unchanged; the wrapping is delay-free, so with healthy inputs the
    wrapper's observable behavior equals [comp]'s.
    Default name: [<comp>Guarded].
    @raise Invalid_argument on an empty flow list or a name that is not
    an input port of [comp]. *)

val observe : Trace.t -> unit
(** Feed health-qualification metrics from a finished trace to the
    installed probe sink (a no-op without one): for every flow named
    [<base>_status], count per-verdict ticks as [health.<base>.<Status>]
    and verdict changes as [health.<base>.transitions].  Scanning the
    trace after the run keeps the simulation itself untouched. *)
