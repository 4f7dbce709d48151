(** Clusters — the "smallest deployable units" of the Logical
    Architecture (paper Sec. 3.3).

    A cluster groups and instantiates FDA-level components.  Its
    interface is statically typed and its signal frequencies are
    explicit (every port carries a declared clock).  Several clusters
    may be mapped to one operating system task, but a cluster is never
    split across tasks. *)

open Automode_core

type t = {
  cluster_name : string;
  ports : Model.port list;
  body : Model.network;  (** hierarchical DFDs are fine inside a cluster *)
  impl_types : (string * Impl_type.t) list;
      (** implementation type per port (LA type-system extension) *)
}

val make :
  ?impl_types:(string * Impl_type.t) list -> name:string ->
  ports:Model.port list -> body:Model.network -> unit -> t

val to_component : t -> Model.component
(** View the cluster as a DFD-behavior component (for simulation). *)

val check : t -> string list
(** LA well-formedness: statically typed ports, periodic port clocks
    (explicit frequencies), implementation types refine the declared
    abstract types, body passes the DFD checks, and the body is not a
    CCD (no recursive cluster definitions — guaranteed by construction,
    checked for nested clusters encoded as components). *)

val period : t -> int option
(** The cluster's activation period: the greatest common divisor of its
    ports' clock periods ([None] if any port clock is aperiodic). *)

val wcet_estimate : t -> int
(** Abstract execution cost in "operation units": the number of
    expression nodes, transitions, and channels in the body.  Deployment
    scales it by the ECU speed factor to obtain task WCETs. *)
