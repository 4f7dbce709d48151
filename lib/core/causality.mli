(** Causality analysis of DFDs (paper Sec. 3.2).

    The default semantics of DFD communication is instantaneous; the tool
    accompanies it with "a causality check for detecting instantaneous
    loops".  We adopt the block-level, conservative discipline (DESIGN.md
    decision 4): every undelayed channel between two sub-components is an
    instantaneous dependency, and feedback must be broken by an explicit
    delay — a [ch_delayed] channel, or SSD composition (whose channels
    are implicitly delayed).  [Pre] inside a block provides local state
    but does not license a feedback loop around the block.

    The same dependency graph yields the deterministic evaluation order
    used by the simulator. *)

type loop = string list
(** An instantaneous loop, as the cycle's component names. *)

val check : Model.network -> (unit, loop list) result
(** [Ok ()] when the instantaneous dependency graph is acyclic; otherwise
    every strongly connected component with a cycle, smallest first. *)

val evaluation_order : Model.network -> (string list, loop list) result
(** A topological order of the sub-components along instantaneous
    dependencies; [Error] on instantaneous loops.  Components not
    constrained relative to each other stay in declaration order. *)

val check_recursive : Model.component -> (string list * loop) list
(** Run {!check} on every DFD network in the hierarchy (including those
    inside MTD modes).  Returns the offending loops with the path of the
    enclosing component.  Empty = causally correct. *)
