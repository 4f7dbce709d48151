(** Fixed-priority preemptive scheduling simulation (ERCOS/OSEK-style,
    paper refs [12], Sec. 3.3).

    Simulates one ECU: periodic tasks released at [offset + k*period],
    the highest-priority ready job runs, preemption at release instants
    (non-preemptable tasks finish their job first).  Ties are broken by
    task name for determinism.  The simulation is event-driven (release
    and completion instants), so the horizon can be large. *)

type task_stats = {
  activations : int;
  completions : int;
  deadline_misses : int;
  max_response : int;   (** worst observed response time, us *)
  preemptions : int;    (** times a job of this task was preempted *)
  overruns : int;       (** jobs whose injected demand exceeded the WCET *)
  watchdog_fires : int; (** jobs cut off at the watchdog budget *)
}

type exec_model = {
  jitter_frac : float;    (** job demand drawn from [(1-frac)*wcet, wcet] *)
  overrun_rate : float;   (** per-job probability of exceeding the WCET *)
  overrun_factor : float; (** an overrunning job demands [factor * wcet] *)
  exec_seed : int;        (** PRNG seed — same seed, same schedule *)
}

val exec_model :
  ?jitter_frac:float -> ?overrun_rate:float -> ?overrun_factor:float ->
  ?seed:int -> unit -> exec_model
(** Deterministic execution-time fault model (defaults: no jitter, no
    overruns, factor 1.5, seed 0).  With both rates at 0 every job runs
    exactly its WCET — today's fault-free behavior.
    @raise Invalid_argument on rates outside [0, 1] or a factor < 1. *)

(** {1 Execution-budget watchdog}

    Deadline/overrun containment for {!exec_model} runs: a job whose
    demand exceeds [budget_factor * wcet] is cut off when it has consumed
    the budget. *)

type recovery =
  | Skip     (** shed the job: the budget burn is a {!task_stats.watchdog_fires}
                 fire, not a completion and not a deadline miss — the
                 deliberate degradation protects the other tasks *)
  | Restart  (** run a fresh attempt at plain WCET after the budget burn;
                 the job completes normally (response time includes the
                 burn, so deadline misses are still possible) *)

type watchdog = { budget_factor : float; recovery : recovery }

val watchdog : ?budget_factor:float -> recovery -> watchdog
(** Default budget factor 2.0 (a job may use up to twice its WCET).
    @raise Invalid_argument on a factor below 1. *)

type result = {
  horizon : int;
  per_task : (string * task_stats) list;
  busy_time : int;         (** us the CPU was executing *)
  schedulable : bool;      (** no deadline miss observed *)
}

val simulate :
  ?exec:exec_model -> ?watchdog:watchdog -> horizon:int ->
  Osek_task.t list -> result
(** Simulate the task set over [0, horizon).  [?exec] injects per-job
    execution-time jitter and overruns (deterministic in the model's
    seed); omitting it runs every job for exactly its WCET.
    [?watchdog] contains runaway jobs at the budget (see {!recovery});
    omitting it reproduces the unwatched behavior exactly.
    @raise Invalid_argument on duplicate task names or duplicate
    priorities (OSEK requires unique priorities per ECU). *)

val response_time_analysis : Osek_task.t list -> (string * int option) list
(** Classic worst-case response-time analysis for preemptable,
    offset-free task sets: the least fixed point of
    [R = C + sum_{hp} ceil(R/T_j) * C_j], or [None] when the iteration
    exceeds the deadline (unschedulable).  Offsets are ignored
    (pessimistic but safe). *)

type segment = {
  seg_task : string;   (** task name, or ["idle"] *)
  seg_start : int;
  seg_end : int;
}

val timeline : horizon:int -> Osek_task.t list -> segment list
(** The execution timeline of the simulation: which task occupies the CPU
    over each maximal interval (idle gaps included), in time order.
    Same validation as {!simulate}. *)

val pp_timeline :
  ?width:int -> Format.formatter -> segment list -> unit
(** Gantt-style text rendering, one lane per task, scaled to [width]
    columns (default 64). *)

val pp_result : Format.formatter -> result -> unit
