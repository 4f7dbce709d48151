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
    suffixes — byte-identical to simulating every case from tick 0 by
    construction (asserted by the test-suite for all five campaign
    kinds, pinned by bench section E22).

    Probe counters (no-ops without a sink, as all probes), counted only
    with sharing on, measure the work the plan actually does.  A case's
    {e resume tick} is its fork tick at width 1 and its chunk's
    smallest fork tick on a wider batch:
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
    default), at tick 0 for every case with [~share:false].  The cases
    are cut into chunks of width [min instances (length cases)]
    (default [instances] 1), and every chunk runs the same way: it
    resumes at its smallest fork tick — restored from the trunk
    snapshot there ({!Sim.batch_restore} plus a [~reset:false] span),
    or reset and run from tick 0 — so the trunk is snapshotted at most
    once per chunk.  At width 1 every case is its own chunk, and the
    chunks run in case order, fanned out over a [domains] (default 1)
    {!Parallel.map} pool, each worker on its own one-instance
    {!Sim.batch}.  Wider, the cases are stably sorted by fork tick
    before they are cut, and the chunks run one after another on one
    batch, its instance axis sharded over [domains].  The traces are
    byte-identical under every plan.

    [f] consumes each trace as soon as its chunk is done, so a sweep
    that keeps only what [f] returns never holds its traces:
    - [f] is called exactly once per case;
    - at width 1, it runs right after the case's run, in case order on
      each worker, on a worker domain under [domains > 1];
    - wider, it runs on the calling domain right after each chunk's
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
    order, all held at once.  A sweep that only judges each trace
    passes its judgement to {!map} instead, as the campaign sweeps
    ([Scenario.run_seeds]) and litmus synthesis (through
    [Builder.map_cases], one sweep per twin) do; proptest's
    [Builder.run], whose observers must run in case order, still holds
    its traces through the identity consumer.  No [lib/] caller is left
    for [traces] itself: the tests and the benchmark harness use it. *)
