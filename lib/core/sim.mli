(** Discrete-time simulation of AutoMoDe models (paper Secs. 2, 3.1).

    The simulator executes a component (and its whole hierarchy) tick by
    tick against a global, discrete time-base.  Per tick, every flow
    carries a message or the absence value "-".

    Composition semantics:
    - {b SSD}: every channel between sibling components carries an
      implicit one-tick delay (paper Sec. 3.1); channels forwarding a
      boundary port are direct.  The initial register value is the
      channel's [ch_init] (absent if not given).
    - {b DFD}: communication is instantaneous; sub-components are
      evaluated in the topological order computed by {!Causality};
      explicitly [ch_delayed] channels read their register instead.
    - {b MTD}: strong preemption — the transition relation sees the
      current tick's inputs, then the {e target} mode's behavior runs on
      those same inputs; mode-local state uses history semantics.  If the
      MTD's component declares an output port named ["mode"], the current
      mode is emitted on it as an enum value each tick.
    - {b STD}: see {!Std_machine.step}.
    - {b Unspecified} behavior emits only absent messages (adequate for
      FAA-level prototype simulation of incomplete models). *)

exception Sim_error of string

type comp_state
(** Run-time state of a component instance (registers, FSM states,
    current modes, channel delay registers — recursively). *)

val init : Model.component -> comp_state
(** Initial state.  @raise Sim_error on instantaneous loops anywhere in
    the hierarchy (the causality check runs up front). *)

val step :
  ?schedule:Clock.schedule -> tick:int ->
  inputs:(string -> Value.message) -> Model.component -> comp_state ->
  (string * Value.message) list * comp_state
(** One synchronous step: input messages in, output messages out.
    Output ports with no message this tick are reported [Absent].
    @raise Sim_error on run-time evaluation failures. *)

type input_fn = int -> (string * Value.message) list
(** Stimulus: the input messages offered at each tick (unlisted input
    ports are absent). *)

val run :
  ?schedule:Clock.schedule -> ticks:int -> inputs:input_fn ->
  Model.component -> Trace.t
(** Simulate [ticks] ticks and record a trace over all boundary input
    and output ports of the component. *)

val no_inputs : input_fn
(** The empty stimulus. *)

(** {1 Indexed simulation}

    {!step} resolves channels and components by name on every tick; for
    long runs, {!index} lowers the component once: the routing (driving
    channel per input port, evaluation order, boundary collection) is
    precomputed and components, ports and channels are numbered.  An
    {!indexed} value is immutable, so one indexed component can feed
    many concurrent simulations (including from different domains).  It
    is the input of the batch compiler ({!batch}), which every lowered
    simulation runs through.  The interpreted engine ({!run}) is the
    oracle: every lowered run produces traces identical to it (asserted
    in the test-suite); the speedup is measured by the E17 bench
    section. *)

type indexed

val index : Model.component -> indexed
(** @raise Sim_error on instantaneous loops (as {!init}). *)

val run_indexed :
  ?schedule:Clock.schedule -> ticks:int -> inputs:input_fn -> indexed ->
  Trace.t
(** Like {!run}, over an indexed component: compiles a fresh one-instance
    {!batch} and steps it over [\[0, ticks)].
    @raise Sim_error when [ticks] is negative. *)

(** {1 Batched simulation}

    A second lowering stage on top of {!index}: one compiled net stepped
    across [instances] independent instances at once (a "fleet"), each
    with its own stimulus, clock schedule and (through the stimulus)
    fault seed.

    {b Memory layout.}  All per-tick values live in struct-of-arrays
    planes: for every slot, delay register, boundary port and [Pre] /
    [Current] register there is one {e row} of [instances] consecutive
    cells (tag byte + int / float64-Bigarray / boxed payload lanes), and
    cell [row * instances + i] belongs to instance [i].  The driver
    loops iterate the instance axis innermost, so the hot loop walks
    cache-sequential storage; bools, ints and floats never allocate.

    {b Staging.}  Expression blocks are translated once, at
    {!batch}-compile time, into {e row operations}: every AST node
    becomes one branch-light loop over the whole instance range, with
    intermediate results in one-row planes and [Var] / [Const] /
    [Current] results mere row aliases — the interpretive overhead is
    amortized over the range instead of being paid per instance.  STD
    transitions stage into per-instance scratch kernels (their control
    flow diverges per instance); MTD behaviors fall back to the
    per-instance interpreter.  Slow paths (enum/tuple payloads, mixed
    types, errors) decode back to the same {!Value} operations as the
    interpreter, so traces, error messages and probe counter totals are
    identical to the interpreter's ({!run}) — asserted per instance by
    the test-suite and pinned by bench section E21.

    {b Instance-axis invariants.}  Instances never interact: each owns
    disjoint plane columns, so any contiguous instance range can be
    stepped by a different domain ([shards] ranges executed by [map]).
    Per instance, ticks run strictly in order (stimuli built by
    [Robust.Fault.apply] rely on it).

    {b Determinism contract.}  [run_batch] over instances
    [0..count-1] with stimulus [inputs i] and schedule [schedules i]
    yields, for every [i], a {!batch_trace} byte-identical to
    [run ~schedule:(schedules i) ~ticks ~inputs:(inputs i)] on the
    indexed component — independent of [shards], of the [map]
    executor, and of how instances are packed into batches (one
    instance per batch is {!run_indexed}).  If a step raises (e.g.
    [Sim_error] on an evaluation failure), the whole run aborts; which
    instance's error surfaces is unspecified when several fail. *)

type batch
(** A batch-compiled component: staged kernels plus the mutable planes
    holding the state of [instances] instances.  Unlike {!indexed}, a
    [batch] value owns run-time state — use one batch per concurrent
    run (the instance axis inside it may still be sharded across
    domains). *)

val batch : instances:int -> indexed -> batch
(** Compile for a fixed instance capacity.  @raise Sim_error when
    [instances <= 0]. *)

val batch_count : batch -> int
(** Instances simulated by the most recent {!run_batch} (0 before the
    first run). *)

val run_batch :
  ?schedules:(int -> Clock.schedule) ->
  ?map:((unit -> unit) list -> unit) ->
  ?shards:int ->
  ?count:int ->
  ?start:int ->
  ?stop:int ->
  ?reset:bool ->
  ticks:int -> inputs:(int -> input_fn) -> batch -> unit
(** Step instances [0..count-1] (default: the full capacity) over the
    tick span [\[start, stop)] (defaults [0] and [ticks]) of a
    [ticks]-tick horizon.  With [reset] (the default) all state is
    reset first and every column starts an empty trace — a batch is
    reusable across runs.  The trace store ([instances × flows ×
    ticks] cells) is reallocated only when the horizon differs from
    the previous run's; at an unchanged horizon it is kept and merely
    marked absent, which reads exactly as a fresh store.  With
    [~reset:false] the batch continues from its current state (after
    a previous span or a {!batch_restore}) and keeps recording into
    the same trace store, which requires the same [ticks] as the
    previous run; each stepped column must not have a trace prefix
    (from {!batch_restore} or {!batch_snapshot}) ending after [start].
    [inputs i] / [schedules i] give instance [i]'s stimulus and clock
    schedule (default: no events).  The instance axis is split into
    [shards] contiguous ranges (default 1), one thunk each, executed by
    [map] (default: sequential [List.iter]); pass a domain pool's map
    to run shards in parallel — results are deterministic either way.
    Traces are recorded into planes and materialized lazily by
    {!batch_trace}.  Running [\[0, t)] then [\[t, ticks)] without reset
    is byte-identical to one [\[0, ticks)] run (same loop iterations).
    @raise Sim_error when [count] exceeds the compiled capacity, the
    span is out of range, or a [~reset:false] span starts inside a
    stepped column's trace prefix. *)

val batch_trace : batch -> instance:int -> Trace.t
(** The trace instance [instance] produced in the most recent
    {!run_batch} — byte-identical to the {!run} trace under the same
    stimulus and schedule.  A column restored from a snapshot
    captured at tick [t] returns the snapshot's persistent trace
    prefix with only rows [\[t, ticks)] built from the planes, in
    O((ticks - t) × flows); the prefix is shared, not copied.
    @raise Sim_error when [instance] is outside the last run. *)

(** {1 Snapshots}

    First-class checkpoints of a batched run, the substrate for
    prefix-sharing campaign execution ([Robust.Prefix]): when many
    scenarios agree on a stimulus prefix, the prefix is simulated once,
    snapshotted at each divergence tick, and only the suffixes replay.

    {b Determinism contract.}  Capture copies the complete carried state
    of one column — every value slot, delay register, boundary output
    and sub-component state (STD states and variables, MTD mode
    history, [Pre]/[Current] registers), recursively — in O(sites)
    time, without touching the model.  A snapshot restores into any
    column of any batch compiled from the same {!indexed} (whatever its
    width) whose horizon is the capture run's.  Restoring a snapshot
    taken at tick [t] and running [\[t, ticks)] with [~reset:false]
    replays {e exactly} the loop iterations a straight run executes for
    that column: if the resumed stimulus and schedule agree with the
    capture run on every tick [>= t], the column's trace is
    byte-identical to the straight run's — independent of how many
    snapshots were taken, of restore order, and of which batch or
    domain resumes (a restore never mutates the snapshot).  Asserted at
    [cmp] level by the test-suite across faulted, guarded and
    replicated nets, including mid-silence-window capture points.

    Probe counters [sim.snapshot.capture] / [sim.snapshot.restore]
    count captures and restores; like all probes they are no-ops
    without an installed sink, so default reports are unaffected. *)

type batch_snapshot
(** A checkpoint of one instance column of a batch: the capture tick,
    every snapshot site's cells for that column (copied out, so the
    column may be stepped on or reused) and the column's trace before
    the capture tick as one persistent {!Trace.t}, shared by every
    column it is restored into and by their {!batch_trace}s. *)

val batch_snapshot : batch -> instance:int -> tick:int -> batch_snapshot
(** Capture instance [instance]'s state; the column must have been
    stepped exactly to [tick].  The state costs O(sites).  The trace
    prefix costs only the rows the column recorded since its own
    prefix ended — rows [\[p, tick)], where [p] is the tick of its last
    restore or capture (0 after a reset) — consed onto that prefix in
    O((tick - p) × flows); no earlier row is copied.  The result
    becomes the column's prefix, so capturing one column at ascending
    ticks builds each trace row once.  Hits [sim.snapshot.capture].
    @raise Sim_error when [instance] or [tick] is out of range, or
    [tick] lies before [p]. *)

val batch_snapshot_tick : batch_snapshot -> int
(** The capture tick. *)

val batch_restore : batch -> batch_snapshot -> instance:int -> unit
(** Write the snapshot's state into column [instance] (any column —
    forking one snapshot across the instance axis is the point) and
    make its trace prefix the column's, in O(sites): no trace cell is
    copied, and the column's trace before the capture tick is the
    snapshot's from then on.  The snapshot must come from a batch
    compiled from the same {!indexed} as this one (this batch or
    another, of any width), and this batch's last {!run_batch} must
    have had the capture run's horizon.  Follow with
    [run_batch ~reset:false ~start:(batch_snapshot_tick snap)]; a span
    starting earlier is rejected.  Hits [sim.snapshot.restore].
    @raise Sim_error on a snapshot of another index or a different
    horizon. *)
