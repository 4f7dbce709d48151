(** The simplified engine controller CCD of the paper's Fig. 7.

    Five clusters on two rates: [AirMass], [FuelInjection] and
    [IgnitionTiming] at 10 ms; [IdleSpeedControl] and [Diagnosis] at
    100 ms.  The slow-to-fast channel (idle-speed correction into fuel
    injection) carries the delay operator required by the OSEK
    well-definedness conditions (paper Sec. 3.3). *)

open Automode_core
open Automode_la

val ccd : Ccd.t
val component : Model.component

val deployment : Deploy.t
(** The CCD deployed onto a two-ECU, one-CAN-bus Technical Architecture
    matching the CCD rates (10 ms / 100 ms tasks): fast clusters on
    [ecu_engine], slow clusters on [ecu_body], cross signals mapped to
    CAN frames. *)

val demo_trace : ?ticks:int -> unit -> Trace.t
(** Simulate the CCD as a component on a pedal/speed profile. *)
