open Automode_core
open Automode_obs

(* The campaign executor: checkpointed prefix-sharing execution, which
   degenerates to plain looped or batched execution when nothing forks
   late or sharing is off.

   Every case of a campaign simulates the same compiled net under the
   same base stimulus until its fault catalog first takes effect
   ({!Fault.first_effect_tick}).  Instead of re-simulating that shared
   prefix per case, the executor runs the fault-free trunk once,
   snapshots it at every distinct fork tick ({!Sim.snapshot_run} /
   {!Sim.batch_snapshot}), and replays only the per-case suffixes.
   Byte-identity with the looped execution holds by construction:

   - below its fork tick a case's stimulus and schedule are identical
     to the base ones (every fault kind passes the original message
     through while inactive, and {!Fault.schedule_of_faults} only adds
     events at active ticks), so the trunk's loop iterations are
     exactly the iterations the case itself would have executed;
   - a snapshot resume replays exactly the remaining loop iterations of
     a straight run (see the {!Sim.Snapshot} contract).

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
  let fork_ticks = List.sort_uniq Int.compare (Array.to_list forks) in
  let max_fork = Array.fold_left max 0 forks in
  let width = min instances n in
  (* trunk snapshots: one per fork tick once any case forks late — the
     looped path runs its tick-0 cases from scratch instead *)
  let at =
    if max_fork = 0 then []
    else List.filter (fun t -> t > 0 || width > 1) fork_ticks
  in
  if share && Probe.active () then begin
    let late = List.filter (fun f -> f > 0) (Array.to_list forks) in
    if at <> [] then Probe.count ~by:(List.length at) "campaign.prefix.groups";
    Probe.count ~by:(List.length late) "campaign.prefix.forks";
    Probe.count ~by:(List.fold_left ( + ) 0 late)
      "campaign.prefix.shared_ticks";
    Probe.count
      ~by:(Array.fold_left (fun acc f -> acc + ticks - f) max_fork forks)
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
           match List.assoc_opt forks.(i) trunk with
           | Some snap -> Sim.resume_indexed ~schedule ~ticks ~inputs snap
           | None -> Sim.run_indexed ~schedule ~ticks ~inputs ix)
         (List.init n Fun.id))
  end
  else begin
    (* batched: the trunk advances column 0 span by span, capturing a
       snapshot at each tick of [at]; each fork group then restores its
       snapshot across the instance axis (or, without one, resets) and
       replays [fork, ticks) chunk by chunk *)
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
    List.iter
      (fun t ->
        let group =
          Array.of_list
            (List.filter (fun i -> forks.(i) = t) (List.init n Fun.id))
        in
        let snap = List.assoc_opt t trunk in
        for chunk = 0 to (Array.length group - 1) / width do
          let lo = chunk * width in
          let count = min width (Array.length group - lo) in
          let case j = cases.(group.(lo + j)) in
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
            out.(group.(lo + j)) <- Some (Sim.batch_trace b ~instance:j)
          done
        done)
      fork_ticks;
    Array.map Option.get out
  end
