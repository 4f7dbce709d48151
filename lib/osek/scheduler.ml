(* Observability hooks: no-ops (one ref load) unless a sink is
   installed, so scheduling results and timings are unchanged. *)
module Probe = Automode_obs.Probe

(* Per-task probe handles, memoized: activations and response-time
   samples fire once per job and must not rebuild key strings (E16). *)
let task_probes : (string, Probe.counter * string) Hashtbl.t =
  Hashtbl.create 16

let probes_of task_name =
  match Hashtbl.find task_probes task_name with
  | p -> p
  | exception Not_found ->
    let p =
      ( Probe.counter ("sched." ^ task_name ^ ".activations"),
        "sched." ^ task_name ^ ".response_us" )
    in
    Hashtbl.add task_probes task_name p;
    p

type task_stats = {
  activations : int;
  completions : int;
  deadline_misses : int;
  max_response : int;
  preemptions : int;
  overruns : int;
  watchdog_fires : int;
}

type exec_model = {
  jitter_frac : float;
  overrun_rate : float;
  overrun_factor : float;
  exec_seed : int;
}

let exec_model ?(jitter_frac = 0.) ?(overrun_rate = 0.)
    ?(overrun_factor = 1.5) ?(seed = 0) () =
  if jitter_frac < 0. || jitter_frac > 1. then
    invalid_arg "Scheduler.exec_model: jitter fraction outside [0, 1]";
  if overrun_rate < 0. || overrun_rate > 1. then
    invalid_arg "Scheduler.exec_model: overrun rate outside [0, 1]";
  if overrun_factor < 1. then
    invalid_arg "Scheduler.exec_model: overrun factor below 1";
  { jitter_frac; overrun_rate; overrun_factor; exec_seed = seed }

(* Per-job execution demand.  Deterministic in (seed, task, release):
   with both rates at 0 no PRNG is consulted and the demand is exactly
   the task's WCET — today's fault-free behavior. *)
let job_exec_time exec (t : Osek_task.t) ~release =
  match exec with
  | None -> t.Osek_task.wcet
  | Some m ->
    let wcet = t.Osek_task.wcet in
    let draw () =
      Random.State.make
        [| m.exec_seed; Hashtbl.hash t.Osek_task.task_name; release |]
    in
    let overrun =
      m.overrun_rate > 0.
      && (m.overrun_rate >= 1.
         || Random.State.float (draw ()) 1.0 < m.overrun_rate)
    in
    if overrun then
      Stdlib.max (wcet + 1)
        (int_of_float (ceil (float_of_int wcet *. m.overrun_factor)))
    else if m.jitter_frac > 0. then begin
      let lo = float_of_int wcet *. (1. -. m.jitter_frac) in
      let st = draw () in
      (* burn the overrun draw so jitter and overrun decisions stay
         independent of each other's presence *)
      ignore (Random.State.float st 1.0);
      Stdlib.max 1
        (int_of_float
           (Float.round (lo +. Random.State.float st (float_of_int wcet -. lo))))
    end
    else wcet

(* Execution-budget watchdog: a job whose injected demand exceeds
   [budget_factor * wcet] is cut off at the budget.  [Skip] sheds the
   job (deliberate degradation — not a deadline miss), [Restart] runs a
   fresh attempt at plain WCET after the budget burn. *)
type recovery = Skip | Restart

type watchdog = { budget_factor : float; recovery : recovery }

let watchdog ?(budget_factor = 2.) recovery =
  if budget_factor < 1. then
    invalid_arg "Scheduler.watchdog: budget factor below 1";
  { budget_factor; recovery }

let budget_of wd (t : Osek_task.t) =
  Stdlib.max 1
    (int_of_float (ceil (float_of_int t.Osek_task.wcet *. wd.budget_factor)))

type wd_mark = Wd_nominal | Wd_killed | Wd_restarted

type result = {
  horizon : int;
  per_task : (string * task_stats) list;
  busy_time : int;
  schedulable : bool;
}

type job = {
  j_task : Osek_task.t;
  release : int;
  mutable remaining : int;
  mutable started : bool;
  wd : wd_mark;
}

let empty_stats =
  { activations = 0; completions = 0; deadline_misses = 0; max_response = 0;
    preemptions = 0; overruns = 0; watchdog_fires = 0 }

let validate tasks =
  let names = List.map (fun (t : Osek_task.t) -> t.task_name) tasks in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Scheduler.simulate: duplicate task names";
  let prios = List.map (fun (t : Osek_task.t) -> t.priority) tasks in
  if List.length (List.sort_uniq Int.compare prios) <> List.length prios then
    invalid_arg "Scheduler.simulate: duplicate priorities on one ECU"

(* The job to run among ready jobs: a started non-preemptable job wins;
   otherwise highest priority (smallest number), then earliest release,
   then task name. *)
let pick_job ready =
  let non_preemptable_running =
    List.find_opt
      (fun j -> j.started && not j.j_task.Osek_task.preemptable)
      ready
  in
  match non_preemptable_running with
  | Some j -> Some j
  | None ->
    (match ready with
     | [] -> None
     | _ :: _ ->
       let best a b =
         let pa = a.j_task.Osek_task.priority
         and pb = b.j_task.Osek_task.priority in
         if pa <> pb then (if pa < pb then a else b)
         else if a.release <> b.release then
           (if a.release < b.release then a else b)
         else if
           String.compare a.j_task.Osek_task.task_name
             b.j_task.Osek_task.task_name <= 0
         then a
         else b
       in
       (match ready with
        | first :: rest -> Some (List.fold_left best first rest)
        | [] -> None))

(* The event-driven scheduling loop behind [simulate] and [timeline]:
   it reports every CPU slice to [on_slice owner start stop], where
   [owner] is the running task's name or ["idle"] for a gap up to the
   next release (or the horizon). *)
let run ?exec ?watchdog ~horizon ~on_slice tasks =
  let stats = Hashtbl.create 16 in
  List.iter
    (fun (t : Osek_task.t) -> Hashtbl.replace stats t.task_name empty_stats)
    tasks;
  let update name f =
    let s = Hashtbl.find stats name in
    Hashtbl.replace stats name (f s)
  in
  (* precomputed release instants (periodic or sporadic) + next index *)
  let releases = Hashtbl.create 16 in
  let next_release = Hashtbl.create 16 in
  List.iter
    (fun (t : Osek_task.t) ->
      Hashtbl.replace releases t.task_name
        (Array.of_list (Osek_task.release_times t ~horizon));
      Hashtbl.replace next_release t.task_name 0)
    tasks;
  let release_time (t : Osek_task.t) k =
    let rs = Hashtbl.find releases t.task_name in
    if k < Array.length rs then rs.(k) else max_int
  in
  let next_release_instant () =
    List.fold_left
      (fun acc (t : Osek_task.t) ->
        let k = Hashtbl.find next_release t.task_name in
        let r = release_time t k in
        if r < horizon then Stdlib.min acc r else acc)
      max_int tasks
  in
  let release_jobs now ready =
    List.fold_left
      (fun ready (t : Osek_task.t) ->
        let k = Hashtbl.find next_release t.task_name in
        let r = release_time t k in
        if r = now then begin
          Hashtbl.replace next_release t.task_name (k + 1);
          let demand = job_exec_time exec t ~release:now in
          update t.task_name (fun s ->
              { s with
                activations = s.activations + 1;
                overruns = (s.overruns + if demand > t.wcet then 1 else 0) });
          if Probe.active () then begin
            Probe.hit (fst (probes_of t.task_name));
            if demand > t.wcet then begin
              Probe.count ("sched." ^ t.task_name ^ ".overruns");
              Probe.count ~by:(demand - t.wcet)
                ("sched." ^ t.task_name ^ ".budget_burn_us")
            end;
            Probe.instant ~tick:now ~cat:"sched" (t.task_name ^ ":release")
          end;
          (* the watchdog cuts runaway demand at the budget: Skip sheds
             the job after the budget burn, Restart runs a fresh attempt
             at plain WCET on top of it *)
          let remaining, wd =
            match watchdog with
            | Some w when demand > budget_of w t ->
              (match w.recovery with
               | Skip -> (budget_of w t, Wd_killed)
               | Restart -> (budget_of w t + t.wcet, Wd_restarted))
            | Some _ | None -> (demand, Wd_nominal)
          in
          if Probe.active () then
            (match wd with
             | Wd_killed -> Probe.count ("sched." ^ t.task_name ^ ".wd_skip")
             | Wd_restarted ->
               Probe.count ("sched." ^ t.task_name ^ ".wd_restart")
             | Wd_nominal -> ());
          { j_task = t; release = now; remaining; started = false; wd }
          :: ready
        end
        else ready)
      ready tasks
  in
  let rec loop now ready busy current =
    if now >= horizon then (busy, ready)
    else
      let ready = release_jobs now ready in
      (* a running preemptable job may have been preempted at this instant *)
      let running = pick_job ready in
      (match current, running with
       | Some prev, Some next when prev != next && prev.remaining > 0 ->
         update prev.j_task.Osek_task.task_name (fun s ->
             { s with preemptions = s.preemptions + 1 })
       | _ -> ());
      match running with
      | None ->
        (* pending releases all lie below the horizon *)
        let nr = next_release_instant () in
        if nr = max_int then begin
          on_slice "idle" now horizon;
          (busy, ready)
        end
        else begin
          on_slice "idle" now nr;
          loop nr ready busy None
        end
      | Some job ->
        job.started <- true;
        let nr = next_release_instant () in
        let finish = now + job.remaining in
        let until = Stdlib.min finish (Stdlib.min nr horizon) in
        on_slice job.j_task.Osek_task.task_name now until;
        let ran = until - now in
        job.remaining <- job.remaining - ran;
        let busy = busy + ran in
        if job.remaining = 0 then begin
          let response = until - job.release in
          let name = job.j_task.Osek_task.task_name in
          if Probe.active () && job.wd <> Wd_killed then
            Probe.sample (snd (probes_of name)) response;
          (match job.wd with
           | Wd_killed ->
             (* deliberately shed: a watchdog fire, not a completion and
                not a deadline miss — the shed protects the other tasks *)
             update name (fun s ->
                 { s with watchdog_fires = s.watchdog_fires + 1 })
           | Wd_restarted ->
             update name (fun s ->
                 { s with
                   watchdog_fires = s.watchdog_fires + 1;
                   completions = s.completions + 1;
                   max_response = Stdlib.max s.max_response response;
                   deadline_misses =
                     (s.deadline_misses
                     + if response > job.j_task.Osek_task.deadline then 1
                       else 0) })
           | Wd_nominal ->
             update name (fun s ->
                 { s with
                   completions = s.completions + 1;
                   max_response = Stdlib.max s.max_response response;
                   deadline_misses =
                     (s.deadline_misses
                     + if response > job.j_task.Osek_task.deadline then 1
                       else 0) }));
          let ready = List.filter (fun j -> j != job) ready in
          loop until ready busy None
        end
        else loop until ready busy (Some job)
  in
  let busy, leftover = loop 0 [] 0 None in
  (* jobs still pending at the horizon with passed deadlines count as
     misses — except jobs the watchdog already marked for shedding *)
  List.iter
    (fun j ->
      if
        j.wd <> Wd_killed
        && j.release + j.j_task.Osek_task.deadline <= horizon
      then
        update j.j_task.Osek_task.task_name (fun s ->
            { s with deadline_misses = s.deadline_misses + 1 }))
    leftover;
  let per_task =
    List.map
      (fun (t : Osek_task.t) -> (t.task_name, Hashtbl.find stats t.task_name))
      tasks
  in
  { horizon;
    per_task;
    busy_time = busy;
    schedulable =
      List.for_all (fun (_, s) -> s.deadline_misses = 0) per_task }

let simulate ?exec ?watchdog ~horizon tasks =
  validate tasks;
  if horizon <= 0 then invalid_arg "Scheduler.simulate: horizon must be positive";
  run ?exec ?watchdog ~horizon ~on_slice:(fun _ _ _ -> ()) tasks

let response_time_analysis tasks =
  let higher_priority (t : Osek_task.t) =
    List.filter
      (fun (h : Osek_task.t) -> h.priority < t.priority)
      tasks
  in
  List.map
    (fun (t : Osek_task.t) ->
      let hp = higher_priority t in
      let demand r =
        t.wcet
        + List.fold_left
            (fun acc (h : Osek_task.t) ->
              acc + (((r + h.period - 1) / h.period) * h.wcet))
            0 hp
      in
      let rec iterate r =
        if r > t.deadline then None
        else
          let r' = demand r in
          if r' = r then Some r else iterate r'
      in
      (t.task_name, iterate t.wcet))
    tasks

type segment = { seg_task : string; seg_start : int; seg_end : int }

let timeline ~horizon tasks =
  validate tasks;
  let segments = ref [] in
  let on_slice task s e =
    if e > s then
      segments := { seg_task = task; seg_start = s; seg_end = e } :: !segments
  in
  ignore (run ~horizon ~on_slice tasks);
  (* merge adjacent segments of the same task *)
  let rec merge = function
    | a :: b :: rest when String.equal a.seg_task b.seg_task
                          && a.seg_end = b.seg_start ->
      merge ({ a with seg_end = b.seg_end } :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  merge (List.rev !segments)

let pp_timeline ?(width = 64) ppf segments =
  match segments with
  | [] -> Format.fprintf ppf "(empty timeline)@
"
  | _ :: _ ->
    let horizon =
      List.fold_left (fun acc s -> Stdlib.max acc s.seg_end) 0 segments
    in
    let tasks =
      List.sort_uniq String.compare
        (List.filter_map
           (fun s ->
             if String.equal s.seg_task "idle" then None else Some s.seg_task)
           segments)
    in
    let col t = t * width / Stdlib.max 1 horizon in
    List.iter
      (fun task ->
        let lane = Bytes.make width '.' in
        List.iter
          (fun s ->
            if String.equal s.seg_task task then
              for i = col s.seg_start to Stdlib.min (width - 1) (col s.seg_end - 1) do
                Bytes.set lane i '#'
              done)
          segments;
        Format.fprintf ppf "%-16s |%s|@
" task (Bytes.to_string lane))
      tasks;
    Format.fprintf ppf "%-16s  0%*s@
" "" (width - 1)
      (Printf.sprintf "%dus" horizon)

let pp_result ppf r =
  Format.fprintf ppf "horizon=%dus busy=%dus (%.1f%%) %s@\n" r.horizon
    r.busy_time
    (100. *. float_of_int r.busy_time /. float_of_int r.horizon)
    (if r.schedulable then "schedulable" else "DEADLINE MISSES");
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf
        "  %-16s act=%d done=%d miss=%d maxR=%dus preempt=%d overrun=%d wd=%d@\n"
        name s.activations s.completions s.deadline_misses s.max_response
        s.preemptions s.overruns s.watchdog_fires)
    r.per_task
