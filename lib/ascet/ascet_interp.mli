(** Interpreter for the ASCET-like substrate.

    Execution model (single ECU, no preemption modeled here — scheduling
    effects are {!Automode_osek}'s concern): time advances in 1 ms
    steps; at step [t], every task with [t mod period = 0] activates and
    runs its processes in declaration order; statements execute
    sequentially; [Send] updates the global message store immediately
    (raw shared-memory semantics, which is exactly what white-box
    reengineering starts from).  Locals are reset to their declared
    initial values at each activation — persistent state lives in
    globals.

    The interpreter is the trace-equivalence oracle for the
    reengineering transformation: the reengineered AutoMoDe model must
    produce the same output-global streams. *)

open Automode_core

exception Run_error of string

type state
(** Global message store. *)

val init : Ascet_ast.t -> state

val step :
  Ascet_ast.t -> inputs:(string * Value.t) list -> t_ms:int -> state -> state
(** Execute one 1 ms step: apply environment inputs to the [Input]
    globals, then run the processes of every task activated at [t_ms].
    @raise Run_error on evaluation failures. *)

type input_fn = int -> (string * Value.t) list

val run :
  Ascet_ast.t -> ticks:int -> inputs:input_fn -> observe:string list ->
  Trace.t
(** Run for [ticks] milliseconds, recording the listed globals after
    every step (as always-present messages). *)
