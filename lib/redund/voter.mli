(** Generated voter components for replicated clusters.

    A voter merges the output streams of N replicas of one cluster into
    a single stream plus an agreement verdict.  Voters are plain
    expression components ({!Automode_core.Model.B_exprs}), so they run
    unchanged on the interpreted and compiled engines, and they are
    {e presence-aware}: a crashed (fail-silent) replica contributes an
    absent stream and is simply outvoted — the situation the redundancy
    subsystem exists for.

    The agreement flags are always-present booleans, suitable as raw
    inputs of {!Automode_guard.Health} qualifiers or
    {!Automode_guard.Degrade} managers. *)

open Automode_core

type strategy =
  | Majority  (** exact-match 2-of-N voting; any value type *)
  | Median    (** rank-order middle value; numeric types only *)

val pair : ?name:string -> ?ty:Dtype.t -> unit -> Model.component
(** Hot-standby comparator (default name ["StandbyPair"]): inputs
    [primary] and [standby], outputs
    - [out] — the primary's value while present, else the standby's
      (absent only when both replicas are silent);
    - [using_standby] — always-present flag, [true] when the standby
      serves the tick;
    - [agree] — always-present flag, [false] exactly when both replicas
      are present and disagree (a silent replica cannot disagree);
    - [mismatch] — negation of [agree]. *)

val tmr :
  ?name:string -> ?ty:Dtype.t -> ?strategy:strategy -> unit ->
  Model.component
(** 2-out-of-3 voter (default name ["VoterTmr"], default strategy
    {!Majority}): inputs [in1]..[in3], outputs
    - [out] — the voted value: under {!Majority} the value of any
      agreeing present pair, under {!Median} the rank-order middle of
      the three (the deterministic minimum of the present pair when one
      replica is silent); with no agreeing pair and under both
      strategies with fewer than two present inputs, the first present
      input (absent when all replicas are silent);
    - [agree] — always-present flag, [true] iff some present pair
      agrees ({!Majority}) resp. at least two inputs are present
      ({!Median});
    - [nvalid] — always-present count of present inputs this tick. *)

val qualified :
  ?name:string -> ?ty:Dtype.t -> ?strategy:strategy ->
  config:Automode_guard.Health.config -> unit -> Model.component
(** The {!tmr} voter with its voted stream fed through a
    {!Automode_guard.Health} qualifier (default name
    ["QualifiedVoter"]): inputs [in1]..[in3], outputs [out] (the
    qualified voted stream), [ok] and [status] (the qualifier's
    verdict), [agree] and [nvalid] (the voter's flags) — the wiring
    that lets voter verdicts feed degradation managers. *)

val observe : Trace.t -> unit
(** Feed voting metrics from a finished trace to the installed probe
    sink (a no-op without one): for every agreement flow ([agree] or
    [<x>_agree]), count ticks carrying an explicit [false] verdict as
    [voter.<flow>.disagreements].  Scanning the trace after the run
    keeps the simulation itself untouched. *)
