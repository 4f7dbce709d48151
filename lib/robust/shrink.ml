(* Counterexample shrinking.  Generic over how a fault set + horizon is
   turned into verdicts, so it serves stimulus-level scenarios, the
   proptest builder's operation sequences and litmus pins without a
   module cycle.  Every entry point runs the one delta-debugging loop
   below; they differ in its starting granularity and in the passes
   they chain. *)

type 'a outcome = {
  faults : 'a list;
  ticks : int;
  reason : string;
}

let find_verdict monitor verdicts =
  match List.assoc_opt monitor verdicts with
  | Some v -> v
  | None -> Monitor.Pass

let fails ~run ~monitor ~faults ~ticks =
  match find_verdict monitor (run ~faults ~ticks) with
  | Monitor.Fail { reason; _ } -> Some reason
  | Monitor.Pass -> None

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
   with [reason]) at granularity [n], refining to singletons until no
   chunk can be removed.  A one-element list tries the empty list too,
   so the result is 1-minimal: no single removal still fails.  Started
   at [n = List.length items] this is the drop-one fixpoint — restart
   from the first element after every successful removal.  Every kept
   candidate was re-run and observed to fail, and removal preserves
   order, so the result is a failing subsequence whose reason is that
   of its own replay. *)
let ddmin_from ~fails ~n items reason =
  let rec go items n reason =
    let len = List.length items in
    if len = 0 then (items, reason)
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
          | Some reason' -> Some (candidate, reason')
          | None -> try_chunk (i + 1)
      in
      match try_chunk 0 with
      | Some (smaller, reason') -> go smaller (max (n - 1) 2) reason'
      | None -> if n >= len then (items, reason) else go items (2 * n) reason
  in
  go items n reason

(* Shortest failing horizon prefix by bisection.  Invariant: [hi]
   always fails, with [reason]. *)
let shortest_prefix ~fails ticks reason =
  let rec go lo hi reason =
    if hi - lo <= 1 then (hi, reason)
    else
      let mid = (lo + hi) / 2 in
      match fails mid with
      | Some reason' -> go lo mid reason'
      | None -> go mid hi reason
  in
  go 0 ticks reason

(* ddmin over the list at the full horizon, then bisect the horizon of
   the minimal list.  [items] is known to fail with [reason]. *)
let shrink ~run ~monitor ~n items ~ticks reason =
  let items, reason =
    ddmin_from ~n items reason ~fails:(fun faults ->
        fails ~run ~monitor ~faults ~ticks)
  in
  let ticks, reason =
    shortest_prefix ticks reason ~fails:(fun ticks ->
        fails ~run ~monitor ~faults:items ~ticks)
  in
  { faults = items; ticks; reason }

let minimize_faults ~run ~monitor ~faults ~ticks ~reason =
  shrink ~run ~monitor ~n:(List.length faults) faults ~ticks reason

let minimize_ops ~run ~compile ~monitor ~ops ~ticks ~reason =
  let run_ops ~faults ~ticks = run ~faults:(compile faults) ~ticks in
  let o = shrink ~run:run_ops ~monitor ~n:2 ops ~ticks reason in
  (* [o.faults] was observed failing at [o.ticks] with [o.reason], so
     the fault pass starts from that replay instead of repeating it *)
  ( o.faults,
    minimize_faults ~run ~monitor ~faults:(compile o.faults) ~ticks:o.ticks
      ~reason:o.reason )

(* The entry points for a failure not yet observed: one replay finds
   its reason. *)
let ddmin ~fails ops =
  Option.map (fun reason -> ddmin_from ~fails ~n:2 ops reason) (fails ops)

let minimize ~run ~monitor ~faults ~ticks =
  Option.map
    (fun reason -> minimize_faults ~run ~monitor ~faults ~ticks ~reason)
    (fails ~run ~monitor ~faults ~ticks)
