(** C-like code generation from AutoMoDe behaviors (paper Sec. 3.4).

    The Operational Architecture is reached by generating code that runs
    inside OSEK tasks.  Clock semantics maps onto the OA as follows: a
    component's activation clock is realized by the period of the task
    its cluster is deployed to, so [when]-sampling disappears from the
    generated body (the task simply runs at that rate), absence is
    realized by not executing, and [pre]/[current] registers become
    [static] state variables.

    The generator is deliberately textual (the produced projects are
    inspected by tests and humans, not compiled here). *)

open Automode_core

exception Codegen_error of string

val component_to_c : Model.component -> string
(** A C translation unit for one atomic component: a step function per
    output for [B_exprs], a state enum + switch for [B_std], a mode
    enum + transition/dispatch switch for [B_mtd].  Composite components
    (DFD/SSD) emit one function calling the sub-steps in causal order.
    @raise Codegen_error on unspecified behaviors. *)
