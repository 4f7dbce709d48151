(** The AutoMoDe meta-model (paper Sec. 3).

    All notations — SSDs, DFDs, MTDs, STDs — are views on one coherent
    meta-model, which guarantees consistency between abstraction levels.
    This module holds the shared abstract syntax; the per-notation
    operations live in {!Ssd}, {!Dfd}, {!Mtd} and {!Std_machine}.

    Structural conventions:
    - A {!type:component} is a typed box with named, directed ports.
    - A {!type:channel} connects a source endpoint to a destination
      endpoint inside one network.  Endpoints either name a sub-component
      port or (with [ep_comp = None]) a port on the enclosing component's
      own boundary.
    - SSD channels between components carry an implicit one-tick message
      delay (paper Sec. 3.1); DFD channels are instantaneous unless the
      explicit [ch_delayed] delay operator is set.  Channels forwarding a
      boundary port are never delayed. *)

type level = Faa | Fda | La | Ta | Oa

val level_name : level -> string

type port_dir = In | Out

type port = {
  port_name : string;
  port_dir : port_dir;
  port_type : Dtype.t option;
      (** [None] = dynamically typed (allowed inside DFDs, paper 3.2) *)
  port_clock : Clock.t;
  port_resource : string option;
      (** sensor/actuator resource tag, used by the FAA rules *)
}

val port :
  ?ty:Dtype.t -> ?clock:Clock.t -> ?resource:string -> port_dir -> string ->
  port
(** Port constructor; defaults: untyped, base clock, no resource. *)

val in_port : ?ty:Dtype.t -> ?clock:Clock.t -> ?resource:string -> string -> port
val out_port : ?ty:Dtype.t -> ?clock:Clock.t -> ?resource:string -> string -> port

type endpoint = {
  ep_comp : string option;  (** [None] = enclosing component boundary *)
  ep_port : string;
}

val boundary : string -> endpoint
val at : string -> string -> endpoint
(** [at comp port] is the endpoint [port] of sub-component [comp]. *)

type channel = {
  ch_name : string;
  ch_src : endpoint;
  ch_dst : endpoint;
  ch_delayed : bool;          (** explicit delay operator on the channel *)
  ch_init : Value.t option;   (** initial value of the delay register *)
}

val channel :
  ?delayed:bool -> ?init:Value.t -> name:string -> endpoint -> endpoint ->
  channel

(** {1 Behaviors and components} *)

type behavior =
  | B_exprs of (string * Expr.t) list
      (** direct definition: one base-language expression per output port *)
  | B_std of std
  | B_mtd of mtd
  | B_dfd of network   (** recursively defined by a DFD *)
  | B_ssd of network   (** recursively defined by an SSD *)
  | B_unspecified
      (** behavior intentionally left open (adequate on the FAA level) *)

and component = {
  comp_name : string;
  comp_ports : port list;
  comp_behavior : behavior;
}

and network = {
  net_name : string;
  net_components : component list;
  net_channels : channel list;
}

(** Mode Transition Diagram: modes with subordinate behaviors and
    message-triggered transitions (paper Sec. 3.2). *)
and mtd = {
  mtd_name : string;
  mtd_modes : mode list;
  mtd_initial : string;
  mtd_transitions : mtd_transition list;
}

and mode = { mode_name : string; mode_behavior : behavior }

and mtd_transition = {
  mt_src : string;
  mt_dst : string;
  mt_guard : Expr.t;     (** over the MTD component's input ports *)
  mt_priority : int;     (** smaller = higher priority *)
}

(** State Transition Diagram: restricted extended FSM (paper Sec. 3.2). *)
and std = {
  std_name : string;
  std_states : string list;
  std_initial : string;
  std_vars : (string * Value.t) list;  (** extended state variables + inits *)
  std_transitions : std_transition list;
}

and std_transition = {
  st_src : string;
  st_dst : string;
  st_guard : Expr.t;                   (** over inputs and state variables *)
  st_outputs : (string * Expr.t) list; (** output port assignments *)
  st_updates : (string * Expr.t) list; (** state variable assignments *)
  st_priority : int;
}

type model = {
  model_name : string;
  model_level : level;
  model_root : component;
  model_enums : Dtype.enum_decl list;
}

(** {1 Accessors} *)

val component :
  ?ports:port list -> ?behavior:behavior -> string -> component
(** Component constructor; default behavior {!B_unspecified}. *)

val find_port : component -> string -> port option
val input_ports : component -> port list
val output_ports : component -> port list
val find_component : network -> string -> component option

val behavior_kind : behavior -> string
(** ["exprs" | "std" | "mtd" | "dfd" | "ssd" | "unspecified"]. *)

val iter_components : (string list -> component -> unit) -> component -> unit
(** Depth-first visit of all components with their hierarchical path
    (outermost first; the root component's own name is not included). *)

val count_components : component -> int
(** Total number of components in the hierarchy, root included. *)

val validate_unique_names : network -> (unit, string) result
(** Component and channel names within a network are unique. *)
