(** Robustness scenarios: a component under test, a nominal stimulus, a
    seeded fault recipe and a monitor set — swept over seeds into a
    campaign of verdicts with shrunk counterexamples.

    Everything downstream of the seed list is deterministic: the fault
    recipe receives the seed, fault activation and noise are PRNG-seeded
    per (seed, tick, flow), and simulation itself is pure, so the same
    sweep replays bit-for-bit. *)

open Automode_core

type t

val make :
  ?schedule:(Fault.t list -> Clock.schedule) ->
  name:string ->
  component:Model.component ->
  ticks:int ->
  inputs:Sim.input_fn ->
  faults:(int -> Fault.t list) ->
  monitors:Monitor.t list ->
  unit -> t
(** [?schedule] derives the clock schedule from the currently injected
    faults (default: no event clocks fire) — use
    {!Fault.schedule_of_faults} when spikes target an event-clocked
    port, so the schedule tracks the fault set as shrinking removes
    faults.
    @raise Invalid_argument on a negative horizon, or when two
    monitors share a name: reports, the shrinker and the campaign cache
    look verdicts up by monitor name. *)

val name : t -> string
(** The scenario's name, as given to {!make} — the campaign title in
    reports. *)

val ticks : t -> int
(** The simulated horizon every seed of a sweep runs for. *)

val component : t -> Model.component
(** The component under test. *)

val monitors : t -> string list
(** The monitor names, in the order their verdicts are listed. *)

val faults : t -> seed:int -> Fault.t list
(** The fault set the scenario's recipe derives for [seed] — a pure
    function of the seed. *)

val prepare : t -> unit
(** Force the index compilation now.  {!sweep} calls it before fanning
    out over domains; callers that fan out themselves (e.g. a cached
    sweep computing only the uncached seeds in parallel) should too, so
    domains share the immutable compiled form instead of racing on the
    lazy. *)

val stimulus : t -> faults:Fault.t list -> Sim.input_fn * Clock.schedule
(** The stimulus under the given fault set and the clock schedule the
    scenario derives from it: what {!trace} and {!run_seeds} simulate. *)

val trace : t -> faults:Fault.t list -> ticks:int -> Trace.t
(** Simulate the component under the given fault set for [ticks] —
    the replay primitive behind {!run} and shrinking.  A run to [h]
    ticks is the first [h] ticks of any longer run
    ({!Automode_core.Trace.prefix}), so shrinking judges horizon
    prefixes of one trace instead of replaying them. *)

val run :
  t -> faults:Fault.t list -> ticks:int -> (string * Monitor.verdict) list
(** Simulate, then evaluate every monitor on the recorded trace. *)

type seed_result = {
  seed : int;
  injected : Fault.t list;
  verdicts : (string * Monitor.verdict) list;
}

type failure = {
  fail_seed : int;
  fail_monitor : string;
  verdict : Monitor.verdict;       (** on the full, unshrunk scenario *)
  shrunk : Fault.t Shrink.outcome option;
}

type campaign = {
  scenario : string;
  horizon : int;
  seeds : int list;
  results : seed_result list;   (** one per seed, in seed order *)
  failures : failure list;
}

val run_seed : t -> seed:int -> seed_result
(** Derive the seed's fault set, simulate, evaluate every monitor —
    one seed of a {!sweep}, exposed so callers (the content-addressed
    campaign cache) can compute exactly the seeds they are missing and
    splice the rest from storage. *)

val seed_failures : ?shrink:bool -> t -> seed_result -> failure list
(** The failing (monitor, verdict) pairs of one seed's result, each
    shrunk to a minimal fault subset unless [~shrink:false] — the
    per-seed slice of a campaign's [failures] list, in verdict order.
    Shrinking starts from the verdict's reason
    ({!Shrink.minimize_faults}), so the seed's full run is not
    replayed unless no fault can be removed; each shrink run is judged
    by the failing monitor alone, and the horizon bisection judges
    prefixes of the last kept run's {!trace}
    ({!Shrink.judge_trace}). *)

val run_seeds :
  ?domains:int -> ?instances:int -> ?prefix_share:bool -> t ->
  seeds:int list -> seed_result list
(** {!run_seed} over a seed list, results in seed order: every seed's
    fault set and stimulus are expanded up front, and all cases are
    simulated in one sweep through the campaign executor ({!Prefix.map})
    under the plan [?domains], [?instances] (both default 1) and
    [?prefix_share] (default [true]).  The monitors judge each trace as
    soon as it exists, inside the executor, and the sweep keeps only
    the verdicts, so its memory does not grow with seeds x ticks — also
    under [~prefix_share:false].  [?domains] fans the sweep out over a
    {!Parallel.map} domain pool, [?instances] steps it through the
    batched engine, and [?prefix_share] simulates the fault-free prefix
    shared by the seeds' catalogs once and replays only suffixes.  The
    scenario's [~schedule] function must then agree with
    [schedule []] strictly below each catalog's first activation
    (automatic for {!Fault.schedule_of_faults}-derived schedules; pass
    [~prefix_share:false] otherwise).  Results are byte-identical under
    every plan. *)

val failing_seeds : campaign -> int list
(** The distinct seeds with at least one failing monitor, ascending —
    the "N/M seeds failing" count of the campaign reports.  A seed on
    which several monitors fail counts once. *)

val sweep :
  ?shrink:bool -> ?domains:int -> ?instances:int -> ?prefix_share:bool ->
  t -> seeds:int list -> campaign
(** Run the scenario once per seed and collect verdicts; each failing
    (seed, monitor) pair is shrunk to a minimal fault subset and
    shortest failing prefix (disable with [~shrink:false] for cheap
    smoke runs).  The seeds are swept by {!run_seeds} under the plan
    [?domains], [?instances] and [?prefix_share].  Verdicts are merged
    back in seed order, so the resulting campaign — and any report
    rendered from it — is identical to a serial sweep.  Shrinking
    always runs serially after the sweep. *)
