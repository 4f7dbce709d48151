(** Stated-bound checks evaluated per scenario.

    A check is a pure function of the guarded twin's nominal and faulty
    traces plus both twins' monitor failures.  The unguarded twin
    reaches a check only through its failures: synthesis classifies
    each guarded trace as it completes, against a summary of the
    unguarded run (its failures and divergence text), so no unguarded
    trace is held for the checks.  Purity matters: two scenarios with
    the same trace divergence must classify byte-identically, so checks
    never look at the scenario's fault list — everything is derived
    from the runs themselves. *)

open Automode_core

type input = {
  horizon : int;                 (** simulation ticks of both twins *)
  nominal_guarded : Trace.t;
  faulty_guarded : Trace.t;
  unguarded_failures : (string * int * string) list;
      (** (monitor, tick, reason) of the faulty unguarded run *)
  guarded_failures : (string * int * string) list;
      (** (monitor, tick, reason) of the faulty guarded run *)
}

type finding =
  | Info of string       (** a classification tag, not a failure *)
  | Violation of string  (** a stated bound does not hold *)

type t

val name : t -> string
(** Stable check name — prefixes violation details in reports. *)

val eval : t -> input -> finding option
(** [None] when the check has nothing to say about this scenario. *)

val make : name:string -> (input -> finding option) -> t
(** An arbitrary pure check. *)

val guard_regression : t
(** Violation when the guarded twin fails a monitor the unguarded run
    passes — the guard made things worse (the verdict-contrast bound;
    scenarios where {e both} twins fail are the stimulus's fault and
    only tagged, not violations). *)

val detectable_gap : flow:string -> ok_flow:string -> gap:int -> t
(** The E2E detectable-gap bound on the guarded twin: every absent run
    on [flow] longer than [gap] ticks must be flagged ([ok_flow]
    carrying [false]) within [gap] ticks of the run's start.  Runs
    whose detection window extends past the trace end are
    inconclusive.  Detected gaps yield an [Info] tag with the run
    lengths. *)

val recovers : flow:string -> ok_flow:string -> within:int -> t
(** The failover-latency bound on the guarded twin: after the last
    tick where the faulty [flow] diverges from its nominal stream,
    [ok_flow] must return to [true] within [within] ticks and stay
    there ({!Automode_robust.Monitor.recovers} semantics, windows past
    the trace end inconclusive).  [None] when the scenario never
    touches [flow]. *)

val well_defined : flows:string list -> t
(** CCD well-definedness on the guarded twin: each listed output
    carries a message at every tick of the faulty run — degradation
    must never leave the mode/status undefined. *)
