(** Structural well-formedness of component networks, shared by SSDs
    (paper Sec. 3.1) and DFDs (paper Sec. 3.2).

    A network is checked {e relative to its enclosing component}: channel
    endpoints may refer to sub-component ports or to the enclosing
    boundary ports.  Directionality convention: a channel flows from a
    data source (sub-component [Out] port, or boundary [In] port) to a
    data sink (sub-component [In] port, or boundary [Out] port). *)

type issue = {
  issue_severity : [ `Error | `Warning ];
  issue_msg : string;
}

val pp_issue : Format.formatter -> issue -> unit

val errors : issue list -> string list
(** Messages of the [`Error]-severity issues. *)

val check :
  ?require_static_types:bool -> enclosing:Model.component -> Model.network ->
  issue list
(** All structural issues of the network:
    - duplicate component / channel names ([`Error]);
    - unresolvable endpoints: unknown component or port ([`Error]);
    - direction violations: channel reading an [In] port of a sibling or
      writing an [Out] port of a sibling ([`Error]);
    - several channels driving the same destination port ([`Error]);
    - type incompatibility between two statically typed endpoints
      ([`Error]);
    - clock mismatch between statically clocked endpoints ([`Warning],
      since refinement may still insert rate adapters);
    - unconnected sub-component input ports ([`Warning]);
    - with [require_static_types] (SSD interfaces are statically typed):
      untyped ports on any sub-component ([`Error]). *)

val resolve_port :
  enclosing:Model.component -> Model.network -> Model.endpoint ->
  Model.port option
(** The port a well-formed endpoint denotes. *)

val flatten : prefix_sep:string -> Model.network -> Model.network
(** Inline every sub-component that is itself defined by a network of the
    same kind, one level at a time until fixpoint.  Inner component names
    are prefixed with the inlined component's name and [prefix_sep].
    Channels crossing the dissolved boundary are re-spliced; a dissolved
    channel keeps a delay if either spliced half was delayed. *)
