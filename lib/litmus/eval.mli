(** Scenario evaluation against a guarded/unguarded twin.

    One scenario runs on both twins (2 faulty simulations; the nominal
    pair is computed once per synthesis), every attached monitor
    judges both traces, every {!Check} inspects the guarded twin's
    runs, and the whole outcome is folded into a {!classification}
    whose identity is the canonical trace-divergence hash: two
    scenarios with equal hashes have byte-equal faulty traces and
    therefore byte-equal classifications — the deduplication invariant
    the fuzz-suite pins.

    Classification comes in two halves, so that no trace has to
    outlive its simulation: {!summarize} reduces the faulty unguarded
    trace to a {!summary}, and {!classify} finishes the classification
    from that summary and the faulty guarded trace.  Synthesis runs
    each half as the consumer of one twin's sweep; {!evaluate_ops} runs
    both on one scenario. *)

open Automode_core
open Automode_proptest

type twin = {
  twin_name : string;
  unguarded : Builder.t;
  guarded : Builder.t;
  checks : Check.t list;
}
(** The system under synthesis.  Both builders must share the horizon
    and stimulus; litmus runs them with seed 0 and no generated
    sequences, so base-fault recipes should be empty. *)

type nominal
(** The fault-free reference runs of both twins. *)

val nominal : twin -> nominal
(** Simulate the fault-free reference runs, guarded twin first, and
    keep what classification reads of them: their columns and the
    guarded trace.  Computed once per synthesis or replay and shared by
    every scenario evaluation. *)

type classification = {
  canon : string;              (** the scenario's canonical form *)
  hash : string;               (** canonical trace-divergence hash (hex) *)
  unguarded_failures : (string * int * string) list;
      (** (monitor, tick, reason), declaration order *)
  guarded_failures : (string * int * string) list;
  tags : string list;          (** sorted classification tags *)
  violations : (string * string) list;
      (** (check, detail) — stated bounds that do not hold *)
}

val distinguishing : classification -> bool
(** The verdict contrast: unguarded fails at least one monitor while
    the guarded twin is completely clean. *)

val survivor : classification -> bool
(** Worth keeping: distinguishing, or violating a stated bound. *)

type summary
(** The unguarded half of a classification: the faulty unguarded run's
    monitor failures and its divergence lines against the nominal run,
    which is all that classification reads of that trace. *)

val summarize : twin -> nominal:nominal -> Trace.t -> summary
(** Reduce the faulty unguarded trace of one scenario to its
    {!summary}.  Pure, and safe to run from several domains at once. *)

val classify :
  twin -> nominal:nominal -> canon:string -> summary -> Trace.t ->
  classification
(** [classify twin ~nominal ~canon summary faulty_guarded] finishes the
    classification of the scenario [summary] was made from: the guarded
    run's monitor failures and divergence lines, the hash of the
    unguarded then the guarded divergence text, the checks and the
    tags, labelled [canon].  Pure, and safe to run from several domains
    at once. *)

val evaluate : twin -> nominal:nominal -> Space.scenario -> classification
(** Run one scenario on both twins and classify it.  Pure: equal
    (twin, scenario) always yields the same classification. *)

val evaluate_ops :
  twin -> nominal:nominal -> canon:string -> Op.t list -> classification
(** {!evaluate} over an explicit operation list (minimality probes and
    suite replay), labelled with the caller's canonical form: the
    seed-0 trace of [ops] on each twin, {!summarize}d and
    {!classify}d. *)

val encode : classification -> string
(** Canonical byte encoding of everything {e except} [canon] — equal
    hashes must encode identically even across different scenarios,
    which is exactly what the dedup fuzz test compares.  Also the
    cache payload body. *)

val decode : canon:string -> string -> classification option
(** Inverse of {!encode} (plus the given [canon]); [None] on any
    malformed input — cache corruption degrades to a recompute. *)
