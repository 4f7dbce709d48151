(** Canonical structural digests.

    The operational pipeline is deterministic, so a campaign verdict is
    a pure function of (model, fault catalog, seed, horizon, engine
    revision): digest those and the verdict becomes content-addressable
    ({!Cache}).  Digests are {e structural}: a component is rendered
    into a canonical text form in which everything whose order carries
    no meaning — ports, sub-components, channels, STD states and
    variables, MTD modes, transition lists (ordered by their explicit
    priorities) — is sorted by name, then MD5-hashed.  Building the
    same model in a different order yields the same digest; renaming a
    port, changing a guard, a clock, an init value or a fault parameter
    yields a different one.

    Fault {e lists} are digested in order: {!Automode_robust.Fault.apply}
    composes left to right, so catalog order is semantics and two
    orderings of the same faults are different catalogs. *)

open Automode_core

val string : string -> string
(** MD5 of a string, as 32 lowercase hex characters — the raw hash
    every other digest bottoms out in. *)

val component : Model.component -> string
(** Canonical structural digest of a component hierarchy (order
    insensitive, see above).  Behaviors hash via {!Automode_core.Expr},
    {!Automode_core.Dtype}, {!Automode_core.Clock} and
    {!Automode_core.Value} renderings, which are stable. *)

val faults : Automode_robust.Fault.t list -> string
(** Digest of a fault catalog slice (one seed's fault list), via
    {!Automode_robust.Fault.describe} — order sensitive by design. *)

val deployment : Automode_la.Deploy.t -> string
(** Digest of a deployment via its stable rendering
    ({!Automode_la.Deploy.pp}). *)

val scenario : Automode_robust.Scenario.t -> string
(** Digest of a scenario's cacheable identity: component digest, name,
    horizon and monitor names.  The stimulus and monitor predicates are
    closures and cannot be hashed — they are covered by the scenario
    name plus {!engine_rev}; per-seed fault sets are digested
    separately by the cache key. *)

val engine_rev : string
(** Revision tag of the simulation engine + report format, baked into
    every cache key: bump it when a change makes old cached verdicts or
    report bytes stale. *)
