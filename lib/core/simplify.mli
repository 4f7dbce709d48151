(** Model optimization: expression simplification (paper Sec. 4 names
    "optimizing system models" as one purpose of tool-supported
    transformations).

    The white-box reengineering's symbolic execution produces large
    expressions full of constant subterms and degenerate conditionals;
    this module normalizes them.  All rewrites are semantics-preserving
    for well-typed expressions under the operational model, including
    message absence: a rewrite never changes an expression's presence
    behavior (e.g. [x * 0] is {e not} rewritten to [0], because the
    product is absent whenever [x] is, while the constant is always
    present).  Constant folding additionally never masks run-time errors
    (a division by zero is kept in place); the neutral-element rules, as
    in any optimizer, assume the operands are well-typed.  Verified by a
    qcheck property over random expressions in the test-suite. *)


val expr : Expr.t -> Expr.t
(** Bottom-up simplification to a fixpoint:
    - constant folding of operators and library calls over constants
      (faithful to run-time evaluation, including integer division);
    - [if true/false] and [if c then e else e] collapse (the latter only
      when [c] cannot be absent, i.e. [c] is constant);
    - neutral elements on the always-present side: [e + 0], [e - 0],
      [e * 1], [e / 1], [b && true], [b || false] where the constant is
      the {e other} operand (integer [0] / [1] only: a float constant
      would promote an integer [e] to a float);
    - double negation, [not] of comparisons;
    - nested [When] on the same clock;
    - idempotent [min]/[max] with equal constant operands. *)

val size : Expr.t -> int
(** Node count (for reporting optimization effect). *)

val behavior : Model.behavior -> Model.behavior
(** Apply {!expr} to every expression of a behavior, recursively through
    networks, MTD modes/guards, and STD guards/actions. *)

val component : Model.component -> Model.component
val model : Model.model -> Model.model
