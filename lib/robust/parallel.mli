(** Deterministic fork/join parallelism for campaign sweeps.

    A thin wrapper over OCaml 5 domains: work items are distributed
    dynamically over a fixed-size pool, results are returned in input
    order.  Callers are responsible for [f] being safe to run from
    several domains at once (the simulation engines are: an indexed or
    compiled component is immutable, and all run-time state is created
    per call). *)

val map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f items] is observably [List.map f items], computed by
    [min domains (length items)] domains (the calling domain included).
    With [domains <= 1] no domain is spawned and the map runs serially.
    If any application raises, the exception of the earliest failing
    item is re-raised (with its backtrace) after all workers joined. *)
