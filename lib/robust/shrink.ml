(* Counterexample shrinking.  Generic over how a fault set + horizon is
   simulated, so it serves stimulus-level scenarios, the proptest
   builder's operation sequences and litmus pins without a module
   cycle.  Every entry point runs the one delta-debugging loop below;
   they differ in its starting granularity and in the passes they
   chain. *)

open Automode_core

type 'a outcome = {
  faults : 'a list;
  ticks : int;
  reason : string;
}

type judge = int -> string option

let reason_of = function
  | Monitor.Fail { reason; _ } -> Some reason
  | Monitor.Pass -> None

let judge_trace monitors ~monitor tr =
  match
    List.find_opt (fun m -> String.equal (Monitor.name m) monitor) monitors
  with
  | None -> fun _ -> None
  | Some m -> fun h -> reason_of (Monitor.eval m (Trace.prefix tr h))

let fails ~run ~monitor ~faults ~ticks =
  match List.assoc_opt monitor (run ~faults ~ticks) with
  | Some v -> reason_of v
  | None -> None

(* Split [items] into [n] contiguous chunks (sizes differ by at most 1). *)
let chunks_of items n =
  let len = List.length items in
  let base = len / n and extra = len mod n in
  let rec go i remaining =
    if i >= n then []
    else
      let size = base + if i < extra then 1 else 0 in
      let chunk = List.filteri (fun j _ -> j < size) remaining in
      chunk :: go (i + 1) (List.filteri (fun j _ -> j >= size) remaining)
  in
  go 0 items

(* ddmin: drop whole chunks of the failing list [items] (observed to fail
   as [seen]) at granularity [n], refining to singletons until no chunk
   can be removed.  A one-element list tries the empty list too, so the
   result is 1-minimal: no single removal still fails.  Started at
   [n = List.length items] this is the drop-one fixpoint — restart from
   the first element after every successful removal.  Every kept
   candidate was re-run and observed to fail, and removal preserves
   order, so the result is a failing subsequence returned with what its
   own run observed. *)
let ddmin_from ~fails ~n items seen =
  let rec go items n seen =
    let len = List.length items in
    if len = 0 then (items, seen)
    else
      let n = min n len in
      let chunks = chunks_of items n in
      let rec try_chunk i =
        if i >= n then None
        else
          let candidate =
            List.concat (List.filteri (fun j _ -> j <> i) chunks)
          in
          match fails candidate with
          | Some seen' -> Some (candidate, seen')
          | None -> try_chunk (i + 1)
      in
      match try_chunk 0 with
      | Some (smaller, seen') -> go smaller (max (n - 1) 2) seen'
      | None -> if n >= len then (items, seen) else go items (2 * n) seen
  in
  go items n seen

(* Shortest failing horizon prefix by bisection, asked of one run's
   judge.  Invariant: [hi] always fails, with [reason]. *)
let shortest_prefix judge ticks reason =
  let rec go lo hi reason =
    if hi - lo <= 1 then (hi, reason)
    else
      let mid = (lo + hi) / 2 in
      match Lazy.force judge mid with
      | Some reason' -> go lo mid reason'
      | None -> go mid hi reason
  in
  go 0 ticks reason

(* ddmin over the list at the full horizon, then bisect the horizon on
   the judge of the last kept candidate.  [items] is known to fail with
   [reason], and [judge] is its run's judge, simulated only if ddmin
   keeps [items] whole and the bisection asks it.  Returns the outcome
   and the judge it was bisected on. *)
let shrink ~run ~n items ~ticks ~reason ~judge =
  let items, (reason, judge) =
    ddmin_from ~n items (reason, judge) ~fails:(fun faults ->
        let judge = run ~faults ~ticks in
        Option.map (fun reason -> (reason, Lazy.from_val judge)) (judge ticks))
  in
  let ticks, reason = shortest_prefix judge ticks reason in
  ({ faults = items; ticks; reason }, judge)

let minimize_faults ~run ~faults ~ticks ~reason =
  fst
    (shrink ~run ~n:(List.length faults) faults ~ticks ~reason
       ~judge:(lazy (run ~faults ~ticks)))

let minimize_ops ~run ~compile ~ops ~ticks ~reason =
  let o, judge =
    shrink
      ~run:(fun ~faults ~ticks -> run ~faults:(compile faults) ~ticks)
      ~n:2 ops ~ticks ~reason
      ~judge:(lazy (run ~faults:(compile ops) ~ticks))
  in
  (* [o.faults] failed at [o.ticks] with [o.reason] on [judge]'s run,
     so the fault pass starts from that judge instead of replaying *)
  let faults = compile o.faults in
  ( o.faults,
    fst
      (shrink ~run ~n:(List.length faults) faults ~ticks:o.ticks
         ~reason:o.reason ~judge) )

(* The entry points for a failure not yet observed: one replay finds
   its reason. *)
let ddmin ~fails ops =
  Option.map (fun reason -> ddmin_from ~fails ~n:2 ops reason) (fails ops)

(* A verdict runner as a judge runner: the judge of [faults] replays
   them at each horizon it is asked, so the run count is that of a
   shrinker replaying every candidate and every bisection step. *)
let minimize ~run ~monitor ~faults ~ticks =
  let replaying ~faults ~ticks:_ h = fails ~run ~monitor ~faults ~ticks:h in
  let judge = replaying ~faults ~ticks in
  Option.map
    (fun reason ->
      fst
        (shrink ~run:replaying ~n:(List.length faults) faults ~ticks ~reason
           ~judge:(Lazy.from_val judge)))
    (judge ticks)
