open Automode_core
open Automode_obs

(* The campaign executor: checkpointed prefix-sharing execution, which
   degenerates to plain looped or batched execution when nothing forks
   late or sharing is off.

   Every case of a campaign simulates the same compiled net under the
   same base stimulus until its fault catalog first takes effect
   ({!Fault.first_effect_tick}).  Instead of re-simulating that shared
   prefix per case, the executor runs the fault-free trunk once,
   snapshots it where cases resume ({!Sim.snapshot_run} /
   {!Sim.batch_snapshot}), and replays only the per-case suffixes.
   Byte-identity with the looped execution holds by construction:

   - below its fork tick a case's stimulus and schedule are identical
     to the base ones (every fault kind passes the original message
     through while inactive, and {!Fault.schedule_of_faults} only adds
     events at active ticks), so the trunk's loop iterations are
     exactly the iterations the case itself would have executed — at
     any resume tick up to the case's fork tick;
   - a snapshot resume replays exactly the remaining loop iterations of
     a straight run (see the {!Sim.Snapshot} contract).

   Looped, each case resumes at its own fork tick.  Batched, the cases
   are stably sorted by fork tick and cut into chunks of the batch
   width; a chunk resumes at its smallest fork tick (the first lemma
   lets its later-forking cases start there too), so the batch always
   runs at full width and the trunk is snapshotted at most once per
   chunk.  A restored column shares the snapshot's trace prefix
   ({!Sim.batch_restore}).

   Callers whose [~schedule] is NOT derived from the fault list via
   {!Fault.schedule_of_faults} must guarantee the same property
   themselves (schedule agreeing with the fault-free one below the
   first activation) or disable sharing. *)

let traces ?(domains = 1) ?(instances = 1) ?(share = true) ~ix ~ticks
    ~base_inputs ~base_schedule
    (cases : (Fault.t list * Sim.input_fn * Clock.schedule) array) :
    Trace.t array =
  let n = Array.length cases in
  let share = share && n > 0 && ticks > 0 in
  (* a case forks from the trunk at its first fault effect; without
     sharing every case forks at tick 0 *)
  let forks =
    Array.map
      (fun (faults, _, _) ->
        if share then Fault.first_effect_tick faults ~horizon:ticks else 0)
      cases
  in
  let width = min instances n in
  (* the cases stably sorted by fork tick ([order.(k)] is the k-th),
     cut into chunks of [width]: a case resumes at its chunk's smallest
     fork tick — its own when looped; earlier is sound, since below its
     own fork tick a case agrees with the trunk *)
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Int.compare forks.(i) forks.(j)) order;
  let resume = Array.make n 0 in
  let chunk = max 1 width in
  Array.iteri (fun k i -> resume.(i) <- forks.(order.(k - (k mod chunk)))) order;
  (* trunk snapshots: one per distinct late resume tick; a case that
     resumes at tick 0 runs from scratch *)
  let late = List.filter (fun t -> t > 0) (Array.to_list resume) in
  let at = List.sort_uniq Int.compare late in
  if share && Probe.active () then begin
    if at <> [] then Probe.count ~by:(List.length at) "campaign.prefix.groups";
    Probe.count ~by:(List.length late) "campaign.prefix.forks";
    Probe.count ~by:(List.fold_left ( + ) 0 late)
      "campaign.prefix.shared_ticks";
    Probe.count
      ~by:
        (Array.fold_left
           (fun acc t -> acc + ticks - t)
           (List.fold_left max 0 at) resume)
      "campaign.prefix.replayed_ticks"
  end;
  if width <= 1 then begin
    (* looped: one serial trunk run captures every snapshot, then the
       cases run in case order over [domains] (a resume steps a private
       copy of the snapshot state) *)
    let trunk =
      List.combine at
        (Sim.snapshot_run ~schedule:base_schedule ~at ~inputs:base_inputs ix)
    in
    Array.of_list
      (Parallel.map ~domains
         (fun i ->
           let _, inputs, schedule = cases.(i) in
           match List.assoc_opt resume.(i) trunk with
           | Some snap -> Sim.resume_indexed ~schedule ~ticks ~inputs snap
           | None -> Sim.run_indexed ~schedule ~ticks ~inputs ix)
         (List.init n Fun.id))
  end
  else begin
    (* batched: the trunk advances column 0 span by span, capturing a
       snapshot at each tick of [at]; each chunk then restores its
       snapshot across the instance axis (or, at tick 0, resets) and
       replays [resume, ticks) at full width *)
    let b = Sim.batch ~instances:width ix in
    let start = ref 0 in
    let trunk =
      List.mapi
        (fun k t ->
          Sim.run_batch ~count:1 ~start:!start ~stop:t ~reset:(k = 0) ~ticks
            ~inputs:(fun _ -> base_inputs)
            ~schedules:(fun _ -> base_schedule)
            b;
          start := t;
          (t, Sim.batch_snapshot b ~instance:0 ~tick:t))
        at
    in
    let out = Array.make n None in
    for c = 0 to (n - 1) / width do
      let lo = c * width in
      let count = min width (n - lo) in
      let case j = cases.(order.(lo + j)) in
      let t = resume.(order.(lo)) in
      let snap = List.assoc_opt t trunk in
      Option.iter
        (fun s ->
          for j = 0 to count - 1 do
            Sim.batch_restore b s ~instance:j
          done)
        snap;
      Sim.run_batch ~count ~start:t ~reset:(Option.is_none snap) ~ticks
        ~inputs:(fun j ->
          let _, inputs, _ = case j in
          inputs)
        ~schedules:(fun j ->
          let _, _, schedule = case j in
          schedule)
        ~shards:domains
        ~map:(fun thunks ->
          ignore (Parallel.map ~domains (fun f -> f ()) thunks))
        b;
      (* materialize before the next chunk reuses the columns *)
      for j = 0 to count - 1 do
        out.(order.(lo + j)) <- Some (Sim.batch_trace b ~instance:j)
      done
    done;
    Array.map Option.get out
  end
