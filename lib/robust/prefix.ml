open Automode_core
open Automode_obs

(* The campaign executor: checkpointed prefix-sharing execution, which
   degenerates to plain batched runs from tick 0 when nothing forks
   late or sharing is off.

   Every case of a campaign simulates the same compiled net under the
   same base stimulus until its fault catalog first takes effect
   ({!Fault.first_effect_tick}).  Instead of re-simulating that shared
   prefix per case, the executor runs the fault-free trunk once,
   snapshots it where cases resume ({!Sim.batch_snapshot}), and replays
   only the per-case suffixes.  Byte-identity with straight runs holds
   by construction:

   - below its fork tick a case's stimulus and schedule are identical
     to the base ones (every fault kind passes the original message
     through while inactive, and {!Fault.schedule_of_faults} only adds
     events at active ticks), so the trunk's loop iterations are
     exactly the iterations the case itself would have executed — at
     any resume tick up to the case's fork tick;
   - a restored snapshot replays exactly the remaining loop iterations
     of a straight run (the snapshot contract of {!Sim.batch_restore}).

   At width 1 each case resumes at its own fork tick.  Wider, the cases
   are stably sorted by fork tick and cut into chunks of the batch
   width; a chunk resumes at its smallest fork tick (the first lemma
   lets its later-forking cases start there too), so the batch always
   runs at full width and the trunk is snapshotted at most once per
   chunk.  A restored column shares the snapshot's trace prefix.

   Callers whose [~schedule] is NOT derived from the fault list via
   {!Fault.schedule_of_faults} must guarantee the same property
   themselves (schedule agreeing with the fault-free one below the
   first activation) or disable sharing.

   Each trace goes to the consumer [f] as soon as its chunk is done, in
   the worker that ran the chunk, so a sweep that keeps only [f]'s
   results (verdicts) holds one chunk of traces per worker, never the
   whole sweep. *)

let map ?(domains = 1) ?(instances = 1) ?(share = true) ~ix ~ticks
    ~base_inputs ~base_schedule
    (cases : (Fault.t list * Sim.input_fn * Clock.schedule) array)
    ~(f : int -> Trace.t -> 'a) : 'a array =
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
  let width = max 1 (min instances n) in
  (* the cases cut into chunks of [width]: width 1 keeps case order;
     wider chunks take the cases stably sorted by fork tick
     ([order.(k)] is the k-th), and a case resumes at its chunk's
     smallest fork tick — earlier than its own is sound, since below
     its own fork tick a case agrees with the trunk *)
  let order = Array.init n Fun.id in
  if width > 1 then
    Array.stable_sort (fun i j -> Int.compare forks.(i) forks.(j)) order;
  let resume = Array.make n 0 in
  Array.iteri (fun k i -> resume.(i) <- forks.(order.(k - (k mod width)))) order;
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
  (* a batch at this horizon: a restore needs the batch's last run to
     have had the capture run's horizon, which an empty span sets *)
  let fresh () =
    let b = Sim.batch ~instances:width ix in
    Sim.run_batch ~stop:0 ~ticks ~inputs:(fun _ -> base_inputs) b;
    b
  in
  (* the trunk advances column 0 span by span, capturing a snapshot at
     each tick of [at] *)
  let b0 = fresh () in
  let start = ref 0 in
  let trunk =
    List.map
      (fun t ->
        Sim.run_batch ~count:1 ~start:!start ~stop:t ~reset:false ~ticks
          ~inputs:(fun _ -> base_inputs)
          ~schedules:(fun _ -> base_schedule)
          b0;
        start := t;
        (t, Sim.batch_snapshot b0 ~instance:0 ~tick:t))
      at
  in
  (* chunk [c] restores its snapshot across the instance axis (or, at
     tick 0, resets) and replays [resume, ticks); [f] consumes each
     trace before the next chunk reuses the columns *)
  let run_chunk ?map ?shards b c =
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
      ?shards ?map b;
    List.init count (fun j ->
        let i = order.(lo + j) in
        (i, f i (Sim.batch_trace b ~instance:j)))
  in
  let chunks = List.init ((n + width - 1) / width) Fun.id in
  let results =
    if width = 1 then begin
      (* one case per chunk, fanned out over [domains] in case order:
         each worker takes an idle batch (the trunk's first) or
         compiles its own, so no two run on one batch *)
      let idle = Atomic.make [ b0 ] in
      let rec take () =
        match Atomic.get idle with
        | [] -> fresh ()
        | b :: rest as l ->
          if Atomic.compare_and_set idle l rest then b else take ()
      in
      let rec give b =
        let l = Atomic.get idle in
        if not (Atomic.compare_and_set idle l (b :: l)) then give b
      in
      Parallel.map ~domains
        (fun c ->
          let b = take () in
          let r = run_chunk b c in
          give b;
          r)
        chunks
    end
    else
      (* wider chunks run one after another, each sharding its instance
         axis over [domains] *)
      List.map
        (run_chunk b0 ~shards:domains ~map:(fun thunks ->
             ignore (Parallel.map ~domains (fun f -> f ()) thunks)))
        chunks
  in
  let out = Array.make n None in
  List.iter (List.iter (fun (i, r) -> out.(i) <- Some r)) results;
  Array.map Option.get out

let traces ?domains ?instances ?share ~ix ~ticks ~base_inputs ~base_schedule
    cases =
  map ?domains ?instances ?share ~ix ~ticks ~base_inputs ~base_schedule cases
    ~f:(fun _ tr -> tr)
