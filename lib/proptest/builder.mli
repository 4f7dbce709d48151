(** The unified property-testing builder over the robustness stack.

    Declare a system under test (a component plus an engine choice),
    attach weighted generators of timed operations ({!Opgen}), base
    fault recipes, invariants (hand-written {!Automode_robust.Monitor}s
    plus monitors auto-derived from port types via {!Derive}) and trace
    observers, then sweep (seed, iteration) pairs: every pair expands
    deterministically into an operation sequence, simulates, and is
    judged by every monitor.  Failing cases are shrunk {e at the
    sequence level} by {!Automode_robust.Shrink.minimize_ops} — the
    one delta-debugging loop of {!Automode_robust.Shrink} over the
    operation list, a horizon bisection, then the same loop over the
    minimal sequence's compiled faults — down to a minimal failing
    trace that replays bit-for-bit.  Each shrink run is simulated once
    and judged by the failing monitor alone ({!judge}); the horizon
    bisections judge prefixes of the last kept run's trace.

    Everything downstream of (seed, iteration) is pure, so campaigns,
    reports and shrunk counterexamples are byte-identical across
    reruns, engines and [?domains] fan-outs. *)

open Automode_core
open Automode_robust

type engine = Interpreted | Indexed
(** [Interpreted] is the oracle ({!Automode_core.Sim.run}); [Indexed]
    (the default) runs the lowered engine and, for sweeps, the campaign
    executor {!Automode_robust.Prefix.map}. *)

type t
(** A test specification (immutable; the [with_*] combinators return
    extended copies). *)

val spec :
  name:string -> component:Model.component -> ticks:int ->
  ?inputs:Sim.input_fn -> unit -> t
(** A spec over [component] simulated for [ticks] ticks against the
    nominal stimulus [?inputs] (default {!Automode_core.Sim.no_inputs}).
    Defaults: no generators, no monitors, 1 iteration per seed,
    {!Indexed} engine.  @raise Invalid_argument on a negative horizon. *)

val with_ops : ?min_ops:int -> ?max_ops:int -> Opgen.t list -> t -> t
(** Attach the weighted generator set; each case draws between
    [?min_ops] (default 1) and [?max_ops] (default 8) operations.
    @raise Invalid_argument on negative or inverted bounds. *)

val with_base_faults : (int -> Fault.t list) -> t -> t
(** A static per-seed fault recipe injected underneath every generated
    sequence (the classic {!Automode_robust.Scenario} catalog). *)

val with_monitors : Monitor.t list -> t -> t
(** Append hand-written invariants (cumulative).
    @raise Invalid_argument when two monitors of the spec would share
    a name: reports and the shrinker look monitors up by name. *)

val with_derived_monitors :
  ?ranges:(string * float * float) list ->
  ?staleness:(string * int) list -> t -> t
(** Append {!Derive.monitors} of the spec's component.
    @raise Invalid_argument when two monitors of the spec would share
    a name. *)

val with_observers : (Trace.t -> unit) list -> t -> t
(** Attach trace observers (e.g.
    {!Automode_guard.Health.observe},
    {!Automode_redund.Voter.observe},
    {!Automode_redund.Failover.observe}) — run over every case trace
    for their probe side effects; they render no verdicts. *)

val with_event : event:string -> flow:string -> t -> t
(** Declare that input [flow] is clocked by event [event]: the event
    fires whenever an operation or fault is active on the flow (in
    addition to the spec's base schedule), and keeps tracking the fault
    set as shrinking removes operations. *)

val with_schedule : (Fault.t list -> Clock.schedule) -> t -> t
(** Replace the base schedule derivation (default: no event fires). *)

val with_engine : engine -> t -> t
(** Choose the simulation engine (default {!Indexed}); both produce
    identical traces, so campaigns and shrunk counterexamples are
    engine-independent — pinned in the test-suite. *)

val with_iterations : int -> t -> t
(** Generated sequences per seed (default 1).
    @raise Invalid_argument on a non-positive count. *)

val name : t -> string
(** The spec's declared name (report header). *)

val ticks : t -> int
(** The simulation horizon. *)

val component : t -> Model.component
(** The system under test. *)

val iterations : t -> int
(** Generated sequences per seed. *)

val monitors : t -> string list
(** Names of every attached monitor, in declaration order. *)

val generators : t -> (string * int) list
(** Declared generator (name, weight) pairs, in declaration order. *)

val prepare : t -> unit
(** Force the index compilation now, so parallel sweeps share the
    immutable indexed form instead of racing on the lazy. *)

val expand : t -> seed:int -> iteration:int -> Op.t list
(** The operation sequence of (seed, iteration) — pure
    ({!Opgen.expand} over the spec's generator set and horizon). *)

val faults_of : t -> seed:int -> ops:Op.t list -> Fault.t list
(** The complete fault list of a case: the base recipe of [seed], then
    every operation compiled in sequence order. *)

val run_ops :
  t -> seed:int -> ops:Op.t list -> ticks:int ->
  (string * Monitor.verdict) list
(** Simulate the case defined by an explicit operation list and
    evaluate every monitor — the replay primitive behind shrinking. *)

val run_faults :
  t -> faults:Fault.t list -> ticks:int ->
  (string * Monitor.verdict) list
(** Simulate an explicit fault list (bypassing the op layer) and
    evaluate every monitor — the runner shape
    {!Automode_robust.Shrink.minimize} expects. *)

val judge :
  t -> monitor:string -> faults:Fault.t list -> ticks:int -> Shrink.judge
(** Simulate an explicit fault list once and judge prefixes of its
    trace by the monitor named [monitor] alone
    ({!Automode_robust.Shrink.judge_trace}) — the runner shape
    {!Automode_robust.Shrink.minimize_faults} and
    {!Automode_robust.Shrink.minimize_ops} expect, behind
    {!case_failures} and litmus pin horizons. *)

val trace_ops : t -> seed:int -> ops:Op.t list -> ticks:int -> Trace.t
(** The raw trace of the case defined by an explicit operation list —
    {!run_ops} without the monitor pass, for callers that canonicalize
    or diff traces themselves (e.g. litmus-scenario deduplication). *)

val map_cases :
  ?domains:int -> ?instances:int -> ?share:bool -> t -> seed:int ->
  ticks:int -> Op.t list array -> f:(int -> Trace.t -> 'a) -> 'a array
(** [f i trace] over the {!trace_ops} traces of many operation lists at
    once: element [i] of the result is [f i] of the trace of element
    [i] of the input.  On the {!Indexed} engine the lists run through
    the campaign executor ({!Automode_robust.Prefix.map}, whose
    contract for [f] holds here) under the plan [?domains] (default 1),
    [?instances] (default 1) and [~share] (default [false]): [share]
    simulates the fault-free prefix common to the compiled op sequences
    once and replays only suffixes; [instances] steps the cases through
    the batched engine.  The {!Interpreted} oracle loops through
    {!trace_ops} over a [?domains] {!Automode_robust.Parallel.map}
    pool, calling [f] right after each run.  Every plan yields
    byte-identical traces, and each trace is consumed by [f] as its
    chunk completes, so a caller that keeps only what [f] returns never
    holds the sweep's traces — this is the litmus synthesis fan-out
    primitive. *)

val trace_cases :
  ?domains:int -> ?instances:int -> ?share:bool -> t -> seed:int ->
  ticks:int -> Op.t list array -> Trace.t array
(** {!map_cases} with the identity consumer [fun _ tr -> tr]: trace [i]
    belongs to element [i] of the input, all held at once. *)

val eval_monitors : t -> Trace.t -> (string * Monitor.verdict) list
(** Judge an already-recorded trace against every attached monitor, in
    declaration order — the oracle half of {!run_ops}. *)

val ddmin_ops :
  fails:(Op.t list -> string option) ->
  Op.t list -> (Op.t list * string) option
(** {!Automode_robust.Shrink.ddmin} on operation lists — the
    sequence-level pass of {!case_failures}, for external minimality
    certification: [fails ops] returns [Some reason] when the candidate
    still exhibits the failure.  Returns the 1-minimal failing
    subsequence and its reason, or [None] when the full list does not
    fail. *)

type case = {
  seed : int;
  iteration : int;
  ops : Op.t list;
  verdicts : (string * Monitor.verdict) list;
}

type shrunk = {
  shrunk_ops : Op.t list;     (** minimal failing subsequence *)
  shrunk_faults : Fault.t list;
      (** minimal fault subset of the minimal sequence *)
  shrunk_ticks : int;         (** shortest failing horizon prefix *)
  shrunk_reason : string;     (** failure reason of the minimal replay *)
}

type failure = {
  fail_seed : int;
  fail_iteration : int;
  fail_monitor : string;
  verdict : Monitor.verdict;  (** on the full, unshrunk case *)
  shrunk : shrunk option;
}

type campaign = {
  spec_name : string;
  horizon : int;
  seeds : int list;
  case_iterations : int;
  gens : (string * int) list;
  cases : case list;          (** seed-major, iteration-minor order *)
  failures : failure list;
}

val run_case : t -> seed:int -> iteration:int -> case
(** Expand, simulate, observe, judge — one case of a campaign. *)

val case_failures : ?shrink:bool -> t -> case -> failure list
(** The failing (monitor, verdict) pairs of one case, each shrunk to a
    minimal operation subsequence, fault subset and horizon prefix
    unless [~shrink:false].  Shrinking starts from the case's verdict,
    so the full case is not replayed unless no operation can be
    removed; the horizon bisections judge trace prefixes ({!judge}). *)

val run :
  ?shrink:bool -> ?domains:int -> ?instances:int -> ?prefix_share:bool ->
  t -> seeds:int list -> campaign
(** The full sweep: [iterations] cases per seed.  Every case is
    expanded up front and all of them are simulated in one sweep, as
    {!trace_cases} does (plan [?domains], [?instances], both default 1,
    and [?prefix_share], default [true]); then observers and monitors
    run over the traces in case order — also under
    [~prefix_share:false].  Shrinking always runs serially after the
    sweep.  The campaign is byte-identical under every plan. *)

val gate : campaign -> bool
(** [true] iff the campaign has no failures — the CI exit-code gate. *)

val to_text : campaign -> string
(** Byte-stable report: generator table, per-monitor verdict counts
    over all cases, and one block per failure with the original
    sequence, the shrunk minimal sequence, its fault set, prefix length
    and replay reason. *)
