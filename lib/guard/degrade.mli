(** Limp-home degradation manager: an {!Automode_core.Mtd}-based
    automaton [Nominal -> Degraded -> LimpHome] driven by the health
    flags of {!Health}-qualified flows.

    MTD guards are memoryless, so the debounce counters live in a
    companion STD inside the manager's DFD (the pattern DESIGN.md
    prescribes for stateful mode triggers): the STD folds the health
    flags into a single healthy/unhealthy verdict per tick and debounces
    it, the MTD reacts to the debounced flags.

    Mode discipline: any unhealthy tick leaves [Nominal] for [Degraded];
    [limp_after] consecutive unhealthy ticks escalate to [LimpHome];
    [recover_after] consecutive healthy ticks return to [Nominal] from
    either degraded mode.  An {e absent} health flag counts as unhealthy
    — a guard layer that has gone silent is itself a fault. *)

open Automode_core

val mtd : Model.mtd
(** The degradation automaton over debounced flags [ok_d] and [limp]. *)

val mode_type : Dtype.t
(** [Degradation_mode = Nominal | Degraded | LimpHome]. *)

val mode_value : string -> Value.t

val manager :
  ?name:string -> ?limp_after:int -> ?recover_after:int ->
  health_inputs:string list -> unit -> Model.component
(** A component (default name ["DegradationManager"]) with one boolean
    input port per health flag and an output port [mode] of
    {!mode_type}, emitting the current degradation mode every tick.
    Defaults: [limp_after = 4], [recover_after = 3].
    @raise Invalid_argument on an empty input list or non-positive
    thresholds. *)
