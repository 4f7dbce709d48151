(** Bounded-exhaustive synthesis: enumerate, deduplicate, classify,
    pin minimal survivors.

    The pipeline: {!Space.enumerate} the scenario space (capped at
    [max_scenarios], with the truncation reported), evaluate every
    scenario on both twins — one sweep per twin through the campaign
    executor, classified as each trace completes (no trace outlives its
    chunk), merged back in enumeration order, optionally memoized
    through caller-supplied cache hooks keyed by canonical form —
    deduplicate by divergence
    hash (first occurrence in enumeration order wins, TransForm's
    new-hash/total bookkeeping), keep the survivors (distinguishing or
    bound-violating), prune them to the minimal ones (no proper atom
    subset survives — exact, because the size-ordered enumeration and a
    prefix cap evaluate every subset of an evaluated scenario), and pin
    each minimal scenario's shortest failing horizon with
    {!Automode_robust.Shrink.minimize_faults}.  Everything
    downstream of (twin, alphabet, config) is pure, so the report is
    byte-identical across reruns, engines, domain counts and cache
    states. *)

type cache = {
  cache_prefix : string;
      (** prepended to every key — bind the model digest and engine
          revision here so a model edit invalidates cleanly *)
  cache_find : string -> string option;
  cache_store : (string * string) list -> unit;
      (** receives the [(key, payload)] list of one synthesis run's
          misses, in enumeration order, once per run *)
}
(** Memoization hooks ({!Automode_serve.Cache} shaped — its disk tier
    writes each stored batch as one pack — but any string-keyed store
    works: litmus itself stays service-agnostic). *)

type config = {
  bound : int;           (** max atoms per scenario (k) *)
  max_scenarios : int;   (** evaluation cap, truncation is reported *)
  shrink : bool;         (** pin shortest failing horizons *)
}

val default_config : config
(** bound 2, max_scenarios 100_000, shrink true. *)

type pinned = {
  pin_id : string;            (** stable suite id, [L001]... *)
  pin_atoms : string list;    (** atom names, alphabet order *)
  pin_class : Eval.classification;
  pin_min_ticks : int;
      (** shortest horizon prefix where the unguarded twin still fails
          (the full horizon for pure bound-violation pins or with
          [shrink = false]) *)
}

type size_row = {
  row_size : int;
  row_enumerated : int;
  row_unique : int;          (** new hashes first seen at this size *)
  row_distinguishing : int;  (** unique and distinguishing *)
  row_minimal : int;
}

type result = {
  res_twin : string;
  res_bound : int;
  res_alphabet : int;
  res_horizon : int;
  res_enumerated : int;   (** size of the full space *)
  res_evaluated : int;    (** after the [max_scenarios] cap *)
  res_capped : bool;
  res_unique : int;       (** distinct divergence hashes *)
  res_duplicates : int;
  res_distinguishing : int;  (** unique scenarios with verdict contrast *)
  res_violations : (string * string * string) list;
      (** (canon, check, detail) over unique scenarios *)
  res_minimal : pinned list;   (** enumeration order *)
  res_rows : size_row list;
  res_cache_hits : int;
  res_cache_misses : int;
}

val run :
  ?cache:cache -> ?config:config -> ?domains:int -> ?instances:int ->
  ?prefix_share:bool -> twin:Eval.twin -> alphabet:Alphabet.t -> unit ->
  result
(** Synthesize.  Every scenario is first looked up in [?cache]; the
    missing scenarios are then swept through
    {!Automode_proptest.Builder.map_cases}, once per twin (one case per
    scenario), under the plan [?domains], [?instances] (both default 1)
    and [?prefix_share] (default [true]).  The unguarded sweep's
    consumer reduces each trace to its {!Eval.summarize} summary; the
    guarded sweep's consumer finishes each scenario's classification
    with {!Eval.classify}.  So each trace is classified as it completes
    and no trace outlives its chunk: the sweeps hold one summary per
    scenario, never the twins' traces.  [?instances] steps
    the sweep through the batched engine; [?prefix_share] simulates the
    fault-free prefix common to the enumerated scenarios once per
    distinct first-effect tick and replays only suffixes — exact when
    scenarios activate late in the horizon.  The result, the report and
    the cache contents are byte-identical under every plan.
    @raise Invalid_argument on a non-positive bound, cap, domain or
    instance count. *)

val gate : result -> bool
(** The CI gate: at least one minimal distinguishing scenario found
    and no stated-bound violations. *)

val to_text : result -> string
(** Byte-stable report: header counts (enumerated vs unique like
    TransForm), the per-size table, violations, and one block per
    pinned minimal scenario.  Cache statistics are deliberately
    excluded so cold and warm runs render identically. *)
