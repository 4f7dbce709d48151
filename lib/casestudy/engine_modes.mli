(** The engine-operation-modes MTD of the paper's Fig. 6.

    Modes: [Stalled], [Cranking], [Idle], [PartLoad], [FullLoad],
    [Overrun]; transitions are triggered by engine speed [n] and pedal
    position [pedal].  Each mode carries a simple fuel-command law as
    its subordinate behavior, so the MTD is fully simulatable and usable
    by the mode-refactoring transformations. *)

open Automode_core

val mtd : Model.mtd
val component : Model.component
val mode_type : Dtype.t

val demo_trace : ?ticks:int -> unit -> Trace.t
(** Simulate the MTD (with its mode output port) over a start / rev-up /
    cruise / overrun / stop profile for [n] and [pedal]. *)

val global_mode_system : Model.mtd
(** The product of the engine MTD with the throttle MTD of {!Throttle} —
    the "global mode transition system ... correct by construction" of
    the paper's Sec. 5. *)
