(** Campaign jobs: the newline-delimited JSON schema of the job queue.

    One job is one JSON object on one line:

    {v
    {"id":"job-a","kind":"robustness","seeds":{"from":1,"to":4},
     "shrink":false,"engine":false,"horizon":200000}
    v}

    - [id] (required): [A-Za-z0-9._-]+, at most 64 chars — it names the
      result files, so it must be a safe file name;
    - [kind] (required): ["robustness" | "guard" | "redund" |
      "proptest" | "litmus"] — the same campaigns the one-shot CLI
      subcommands run;
    - [seeds] (required except for [litmus], which enumerates instead
      of sweeping): either an explicit array [[1,7,9]] of positive
      seeds or an inclusive range [{"from":1,"to":10}] (at most
      100000 seeds);
    - [shrink] (default [true]): counterexample shrinking;
    - [engine] (default [false]): the TA-level engine campaign variant
      of [robustness]/[guard] (ignored by [redund]);
    - [horizon] (default [200000]): deployment campaign horizon in
      microseconds, for the TA-level legs;
    - [iterations] (default [2]): generated sequences per seed, for
      the [proptest] kind (ignored by the others);
    - [bound] (default [2]): max fault atoms per enumerated scenario,
      for the [litmus] kind (ignored by the others);
    - [instances] (default [1]): instance-axis width of the
      struct-of-arrays batched engine — purely a throughput knob,
      every report stays byte-identical to the looped run;
    - [prefix_share] (default [true]): checkpointed prefix-sharing
      execution ({!Automode_robust.Prefix}) — like [instances], a pure
      throughput knob with byte-identical reports; set [false] to
      force the straight per-case loop. *)

type kind = Robustness | Guard | Redund | Proptest | Litmus

type t = {
  id : string;
  kind : kind;
  seeds : int list;
  shrink : bool;
  engine : bool;
  horizon : int;
  iterations : int;
  bound : int;
  instances : int;
  prefix_share : bool;
}

val parse_line : string -> (t, string) result
(** Parse, validate and decode one NDJSON job line; the error string
    names the offending field. *)

val to_json : t -> Json.t
(** Re-encode (seeds always as an explicit array) — used by the
    daemon's status files. *)
