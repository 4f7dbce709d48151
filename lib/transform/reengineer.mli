(** Reengineering transformations (paper Secs. 4, 5).

    {b White-box} reengineering lifts a complete ASCET-SD-like software
    implementation to a behaviorally complete FDA model:

    - every ASCET process becomes an FDA component activated at its
      task's rate (output expressions are [when]-sampled on the task
      clock);
    - inter-process messages become explicit channels — the undocumented
      global-variable accesses of the implementation are made visible,
      which the AutoMoDe operational model {e requires} ("prohibits
      implicit exchange of information, such as undocumented access of
      global variables", Sec. 2);
    - shared-variable {e read} semantics is preserved by generated
      hold components ([current] over the writer's message stream);
      a reader executing {e before} its writer (in task/process order)
      reads through a one-activation delay, one executing after reads
      the fresh value — exactly the ASCET sequential semantics;
    - processes whose body is an If-Then-Else over {e mode flags} become
      MTD components: the implicit modes are made explicit (Fig. 8).

    The resulting model is trace-equivalent to the ASCET module on the
    observable output globals (validated by {!Equiv} and the ASCET
    interpreter in the test-suite).

    {b Black-box} reengineering builds a {e partial} FAA model from a
    communication matrix: one unspecified vehicle function per node,
    one channel per signal. *)

open Automode_core
open Automode_ascet

type report = {
  processes : int;            (** ASCET processes translated *)
  components : int;           (** FDA components generated (incl. holds) *)
  mtds_extracted : int;       (** implicit mode splits made explicit *)
  flags_found : string list;  (** mode flags detected *)
  flag_conditionals : int;    (** If-statements over flags in the input *)
  multi_flag_emitters : (string * int) list;
      (** central flag-emitting processes (paper Sec. 5 smell) *)
}

val pp_report : Format.formatter -> report -> unit

exception Unsupported of string

val whitebox :
  ?mode_naming:(string -> (string * string) option) -> ?simplify:bool ->
  Ascet_ast.t -> Model.model * report
(** Translate an ASCET module to an FDA-level AutoMoDe model.
    [mode_naming proc] may supply (then-mode, else-mode) names for the
    MTD extracted from process [proc] (default [<proc>_on]/[<proc>_off]).
    [simplify] (default [true]) post-processes the symbolic-execution
    output with {!Automode_core.Simplify} — semantics-preserving, see
    the ablation bench for the size effect.
    @raise Unsupported on models outside the translatable fragment
    (several writers of one global, [Ascet_ast.check] failures). *)

val blackbox : name:string -> Automode_osek.Comm_matrix.t -> Model.model
(** Partial FAA model from a communication matrix: per node one
    component with [B_unspecified] behavior, per signal an output port
    on the sender (tagged with the signal as resource), input ports on
    the receivers, and SSD channels for every dependency. *)
