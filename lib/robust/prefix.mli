(** The campaign executor: every campaign sweep simulates its cases
    here, under the plan [?domains] x [?instances] x [?share].

    With sharing on, it is checkpointed prefix-sharing execution.
    Campaign cases over one compiled net are byte-identical until their
    fault catalogs first take effect: every fault kind passes the
    original stimulus through while inactive, and schedules derived via
    {!Fault.schedule_of_faults} only add events at active ticks.  The
    executor therefore simulates the fault-free {e trunk} once,
    snapshots it where cases resume (at or before their first-effect
    tick, {!Fault.first_effect_tick}), and replays only the per-case
    suffixes — byte-identical to looping [run_indexed] by construction
    (asserted by the test-suite for all five campaign kinds, pinned by
    bench section E22).

    Probe counters (no-ops without a sink, as all probes), counted only
    with sharing on, measure the work the plan actually does.  A case's
    {e resume tick} is its fork tick on the looped plan and its chunk's
    smallest fork tick on the batched one:
    - [campaign.prefix.groups] — trunk snapshots taken, one per distinct
      resume tick after 0 (not counted when there is none);
    - [campaign.prefix.forks] — cases resumed from a snapshot;
    - [campaign.prefix.shared_ticks] — the sum of those cases' resume
      ticks: prefix ticks {e not} re-simulated;
    - [campaign.prefix.replayed_ticks] — ticks actually simulated: the
      trunk up to its last snapshot plus [ticks - resume] per case. *)

val map :
  ?domains:int ->
  ?instances:int ->
  ?share:bool ->
  ix:Automode_core.Sim.indexed ->
  ticks:int ->
  base_inputs:Automode_core.Sim.input_fn ->
  base_schedule:Automode_core.Clock.schedule ->
  (Fault.t list * Automode_core.Sim.input_fn * Automode_core.Clock.schedule)
  array ->
  f:(int -> Automode_core.Trace.t -> 'a) ->
  'a array
(** [map ~ix ~ticks ~base_inputs ~base_schedule cases ~f] simulates
    every [(faults, inputs, schedule)] case and returns [f i trace] for
    case [i], in case order.  [base_inputs] / [base_schedule] are the
    fault-free stimulus and schedule the trunk runs under; each case's
    [inputs] / [schedule] must agree with them strictly below the
    case's {!Fault.first_effect_tick} — automatic when [inputs] is
    [Fault.apply faults base_inputs] and [schedule] is derived from
    [faults] via {!Fault.schedule_of_faults} over a fault-independent
    base.  Callers with hand-written schedules that consult the fault
    list before its first activation must pass [~share:false].

    Each case forks at its first fault effect with [~share:true] (the
    default), at tick 0 for every case with [~share:false].  With
    [min instances (length cases) <= 1] (default [instances] 1) the
    cases run one by one, in case order, fanned out over a [domains]
    (default 1) {!Parallel.map} pool: [run_indexed], or
    [resume_indexed] from the trunk snapshot at the case's fork tick
    when that is after 0.  Otherwise the cases, stably sorted by fork
    tick, are cut into chunks of that width and stepped through one
    {!Sim.batch}, its instance axis sharded over [domains]; a chunk
    resumes at its smallest fork tick — restored from the trunk
    snapshot there ([batch_restore] plus a [~reset:false] span), or
    reset and run from tick 0 — so the trunk is snapshotted at most
    once per chunk.  The traces are byte-identical under every plan.

    [f] consumes each trace as soon as it is complete, so a sweep that
    keeps only what [f] returns never holds its traces:
    - [f] is called exactly once per case;
    - looped, it runs right after the case's [run_indexed] /
      [resume_indexed], in case order on each worker, on a worker
      domain under [domains > 1];
    - batched, it runs on the calling domain right after each chunk's
      simulation, before the next chunk reuses the columns — in chunk
      order, that is with the cases sorted by fork tick.
    [f] must therefore be pure, or at least insensitive to call order
    and safe to run from several domains at once; scenario monitors
    are pure functions of the trace. *)

val traces :
  ?domains:int ->
  ?instances:int ->
  ?share:bool ->
  ix:Automode_core.Sim.indexed ->
  ticks:int ->
  base_inputs:Automode_core.Sim.input_fn ->
  base_schedule:Automode_core.Clock.schedule ->
  (Fault.t list * Automode_core.Sim.input_fn * Automode_core.Clock.schedule)
  array ->
  Automode_core.Trace.t array
(** [traces ~ix ~ticks ~base_inputs ~base_schedule cases] is {!map} with
    the identity consumer [fun _ tr -> tr]: every case's trace, in case
    order, all held at once.  For callers that need several traces
    together (proptest observers, litmus twin pairs); a sweep that only
    judges each trace should pass its judgement to {!map} instead. *)
