(** Rule-based analysis on the Functional Analysis Architecture (paper
    Sec. 3.1).

    "Based on the functional structure and dependencies, rules identify
    possible conflicts (e.g. two vehicle functions access the same
    actuator) and suggest suitable countermeasures to resolve them (e.g.
    introduce a coordinating functionality)."

    Sensors and actuators are modeled as [port_resource] tags on the
    ports of FAA-level vehicle functions: an [Out] port tagged with
    resource [r] {e drives} actuator [r]; an [In] port tagged [r]
    {e reads} sensor [r]. *)

type finding = {
  rule : string;                  (** rule identifier *)
  severity : [ `Conflict | `Warning | `Info ];
  subject : string list;          (** involved component names *)
  message : string;
  countermeasure : string option; (** suggested resolution, if any *)
}

val pp_finding : Format.formatter -> finding -> unit

type rule = Model.model -> finding list

val actuator_conflict : rule
(** Two distinct vehicle functions drive the same actuator resource.
    Countermeasure: introduce a coordinating functionality. *)

val run : Model.model -> finding list
(** Apply every rule; findings are ordered by severity ([`Conflict]
    first).  The rules, by the identifier their findings carry in
    [rule]:
    - [actuator-conflict]: {!actuator_conflict};
    - [shared-sensor] ([`Info]): several functions read one sensor;
    - [unspecified-behavior]: a [`Warning] on FAA, where prototypical
      behavior may be missing, a [`Conflict] on FDA, which must be
      behaviorally complete;
    - [dangling-channel]: channels with unresolvable endpoints anywhere
      in the hierarchy;
    - [unconnected-function] ([`Warning]): top-level functions with no
      connected port;
    - [prototype-actuator] ([`Warning]): an actuator driven by a
      component whose behavior is still unspecified;
    - [non-harmonic-channel] ([`Warning]): a top-level channel between
      periodic clocks neither of which divides the other;
    - [faa-feedback] ([`Warning]): a DFD used directly at FAA level
      with a feedback loop. *)

val summary : finding list -> string
(** One-line count summary, e.g. ["2 conflicts, 1 warning, 3 infos"]. *)
