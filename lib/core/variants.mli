(** Product-family variant management.

    The paper's introduction names the "large number of variants in
    product families" as one of the complexity drivers the methodology
    must address.  This module provides feature-conditional models at
    the FAA/FDA level: top-level components carry {e presence
    conditions} over a feature set; configuring a variant model against
    a feature assignment prunes the disabled functions and every channel
    that touches them.

    Variability is component-granular at the root network, matching the
    FAA use case (optional vehicle functions such as ParkAssist or
    RainSensor); inner structure is not conditional. *)

type feature = string

type condition =
  | Ftrue
  | Fvar of feature
  | Fnot of condition
  | Fand of condition * condition
  | For of condition * condition

val eval : (feature * bool) list -> condition -> bool
(** Unassigned features count as disabled. *)

val features_of : condition -> feature list
(** Features mentioned, without duplicates. *)

type t = {
  base : Model.model;
  presence : (string * condition) list;
      (** root-network component name -> presence condition; unmentioned
          components are unconditionally present *)
}

val make : ?presence:(string * condition) list -> Model.model -> t

val features : t -> feature list
(** All features mentioned by any presence condition. *)

val check : t -> string list
(** Problems: presence conditions for unknown components; a condition on
    a component that some other unconditional component depends on
    through a channel (a disabled provider would silence a mandatory
    function — flagged so the modeler adds a condition or a default). *)

exception Not_variant_model of string

val configure : t -> assignment:(feature * bool) list -> Model.model
(** The variant for one feature assignment: disabled components and
    their channels are removed from the root network.
    @raise Not_variant_model when the root has no network behavior. *)

val configurations : t -> (string * Model.model) list
(** Every variant of the family, keyed by a readable assignment label
    like ["+park_assist-rain_sensor"]. *)
