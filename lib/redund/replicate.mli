(** Deployment-level cluster replication (hot-standby pairs and 2oo3
    TMR).

    Replication is a {e deployment} decision, not a change to FDA
    behavior: the transform copies one LA cluster verbatim into N
    replicas, fans every channel feeding the cluster out to all
    replicas, and routes every channel the cluster sourced through a
    generated {!Voter} cluster.  Consumers keep their original channel
    names and see a single (voted) stream; a fail-silent replica is
    outvoted, so the CCD survives the loss of any single replica's ECU.

    The voter cluster additionally exposes one [<port>_agree] flag per
    replicated output — the verdict stream that feeds
    {!Automode_guard.Health} qualifiers at the consumer. *)

open Automode_la

val voter_input_channel : cluster:string -> port:string -> int -> string
(** [<cluster>_<port>_v<k>] — the channel carrying replica [k]'s copy of
    [port] to the voter (the inter-ECU signal generated communication
    components vote on). *)

val in_ccd :
  ?strategy:Voter.strategy -> cluster:string -> replicas:int -> Ccd.t ->
  Ccd.t
(** Replicate [cluster] inside the CCD: [replicas = 2] builds a
    hot-standby pair merged by {!Voter.pair} (primary = replica 1),
    [replicas = 3] a TMR triple merged by {!Voter.tmr} with [strategy]
    (default {!Voter.Majority}).  Channels into the cluster are
    duplicated per replica (named [<ch>_r<k>]); channels out of it are
    re-sourced at the voter cluster under their original names; the
    replica-to-voter channels are named [<c>_<port>_v<k>].
    @raise Invalid_argument on an unknown cluster or a replica count
    other than 2 or 3. *)

val deploy :
  ?strategy:Voter.strategy -> cluster:string -> replica_tasks:string list ->
  voter_task:string -> Deploy.t -> Deploy.t
(** Replicate [cluster] in a full deployment: the CCD is transformed
    with {!in_ccd} ([replicas = length replica_tasks]), the replicas
    are mapped onto [replica_tasks] (one each, in order — put them on
    distinct ECUs for the transform to buy anything), the voter onto
    [voter_task], and the signal-to-frame map is rebuilt: stale entries
    of rewired channels are dropped and new inter-ECU channels mapped
    first-fit via {!Deploy.auto_map_signals}.
    @raise Invalid_argument as {!in_ccd}. *)
