(** Global probe hook points.

    Instrumented code (the simulator, the scheduler, the buses, the
    guard/redundancy layers) reports events through this module.  When
    no sink is installed every probe is a cheap [if]-guarded no-op —
    the instrumented code paths are observationally identical to the
    uninstrumented ones (same traces, byte for byte) and the overhead
    is a single mutable-ref load per probe site.

    A {!sink} routes probe events wherever the caller wants; the
    {!standard} sink routes counters/gauges/samples into a
    {!Metrics.t}, optionally span events into a {!Span.t} and
    wall-clock scope timing into a {!Profile.t}.

    The registry is intentionally global (one [sink option ref]): the
    simulation/scheduler call sites have no spare parameter to thread a
    context through, and campaigns install a sink around a whole run
    via {!with_sink}. *)

type sink = {
  on_count : string -> int -> unit;
      (** [on_count key by] — a counter increment. *)
  on_gauge : string -> int -> unit;
      (** [on_gauge key v] — a gauge assignment. *)
  on_sample : string -> int -> unit;
      (** [on_sample key v] — a histogram observation. *)
  on_enter : tick:int -> cat:string -> string -> unit;
      (** Scope entry (component evaluation, tick start, ...). *)
  on_exit : tick:int -> cat:string -> string -> unit;
      (** Matching scope exit. *)
  on_instant : tick:int -> cat:string -> string -> unit;
      (** Point event (clock firing, mode switch, ...). *)
  resolve_counter : string -> int ref option;
      (** Hand out a direct cell for a counter key so {!hit} can skip
          the string-keyed dispatch; [None] makes handles fall back to
          {!field-on_count}. *)
  record_spans : bool;
      (** When [false], instrumented code skips enter/exit/instant
          probes entirely — counters stay cheap even on hot paths. *)
}

val active : unit -> bool
(** [true] iff a sink is installed.  Probe call sites are written
    [if Probe.active () then ...], so the disabled cost is one load. *)

val spans_on : unit -> bool
(** [true] iff a sink is installed and it wants span events. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink s f] installs [s], runs [f ()], and uninstalls on the
    way out (also when [f] raises).  The previous sink, if any, is
    restored. *)

val count : ?by:int -> string -> unit
(** Report a counter increment (default 1) to the sink, if any. *)

type counter
(** A pre-resolved counter handle for per-event hot paths (e.g. the
    simulator's per-tick channel probes).  A handle caches the sink's
    cell for its key; the cache is invalidated whenever the sink
    changes, so handles may be created once and kept in globals. *)

val counter : string -> counter
(** A handle for counter [key].  Creation is cheap and does not touch
    the sink; resolution happens lazily on first {!hit} per sink. *)

val hit : counter -> unit
(** Increment the handle's counter by 1 — with a sink installed and the
    cache warm this is two loads, a compare and a store, no hashing. *)

val gauge : string -> int -> unit
(** Report a gauge value to the sink, if any. *)

val sample : string -> int -> unit
(** Report a histogram sample to the sink, if any. *)

val enter : tick:int -> ?cat:string -> string -> unit
(** Report a scope entry (default category ["sim"]); dropped unless
    {!spans_on}. *)

val exit_ : tick:int -> ?cat:string -> string -> unit
(** Report the matching scope exit; dropped unless {!spans_on}. *)

val instant : tick:int -> ?cat:string -> string -> unit
(** Report a point event; dropped unless {!spans_on}. *)

val standard :
  ?span:Span.t -> ?profile:Profile.t -> Metrics.t -> sink
(** The standard routing sink: counters/gauges/samples go to the
    metrics registry; enter/exit/instant go to [span] when given
    ([record_spans] is set accordingly); when [profile] is given,
    enter/exit pairs additionally accumulate wall-clock time per scope
    name (unbalanced exits are ignored).  Wall-clock data never reaches
    the metrics registry — determinism of the registry is preserved. *)
