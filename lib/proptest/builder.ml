open Automode_core
open Automode_robust

type engine = Interpreted | Indexed

type t = {
  spec_name : string;
  comp : Model.component;
  spec_ticks : int;
  inputs : Sim.input_fn;
  gens : Opgen.t list;
  min_ops : int;
  max_ops : int;
  base_faults : int -> Fault.t list;
  mons : Monitor.t list;
  observers : (Trace.t -> unit) list;
  events : (string * string) list;  (* (event clock, flow), newest first *)
  base_schedule : Fault.t list -> Clock.schedule;
  engine : engine;
  ixc : Sim.indexed Lazy.t;  (* forced by [prepare], shared across domains *)
  iters : int;
}

let spec ~name ~component ~ticks ?(inputs = Sim.no_inputs) () =
  if ticks < 0 then invalid_arg "Builder.spec: negative horizon";
  { spec_name = name;
    comp = component;
    spec_ticks = ticks;
    inputs;
    gens = [];
    min_ops = 1;
    max_ops = 8;
    base_faults = (fun _ -> []);
    mons = [];
    observers = [];
    events = [];
    base_schedule = (fun _ -> Clock.no_events);
    engine = Indexed;
    ixc = lazy (Sim.index component);
    iters = 1 }

let with_ops ?(min_ops = 1) ?(max_ops = 8) gens t =
  if min_ops < 0 then invalid_arg "Builder.with_ops: negative min_ops";
  if max_ops < min_ops then invalid_arg "Builder.with_ops: max_ops < min_ops";
  { t with gens; min_ops; max_ops }

let with_base_faults base_faults t = { t with base_faults }
let with_monitors mons t =
  { t with
    mons =
      Monitor.distinct_names ~caller:"Builder.with_monitors" (t.mons @ mons) }

let with_derived_monitors ?ranges ?staleness t =
  { t with
    mons =
      Monitor.distinct_names ~caller:"Builder.with_derived_monitors"
        (t.mons @ Derive.monitors ?ranges ?staleness t.comp) }

let with_observers observers t =
  { t with observers = t.observers @ observers }

let with_event ~event ~flow t = { t with events = (event, flow) :: t.events }
let with_schedule base_schedule t = { t with base_schedule }

let with_engine engine t = { t with engine }

let with_iterations iters t =
  if iters < 1 then invalid_arg "Builder.with_iterations: non-positive count";
  { t with iters }

let name t = t.spec_name
let ticks t = t.spec_ticks
let component t = t.comp
let iterations t = t.iters
let monitors t = List.map Monitor.name t.mons
let generators t = List.map (fun g -> (Opgen.name g, Opgen.weight g)) t.gens
let prepare t = ignore (Lazy.force t.ixc)

let expand t ~seed ~iteration =
  if t.gens = [] then []
  else
    Opgen.expand ~gens:t.gens ~min_ops:t.min_ops ~max_ops:t.max_ops
      ~horizon:t.spec_ticks ~seed ~iteration

let faults_of t ~seed ~ops =
  t.base_faults seed @ List.concat_map Op.compile ops

(* Every declared event clock fires whenever a fault targets its flow —
   on top of the spec's base schedule — and keeps tracking the fault set
   as shrinking removes operations. *)
let schedule_of t faults =
  List.fold_left
    (fun sched (event, flow) ->
      let on_flow =
        List.filter (fun f -> String.equal (Fault.flow f) flow) faults
      in
      Fault.schedule_of_faults ~base:sched on_flow ~event)
    (t.base_schedule faults) t.events

let trace_of t ~faults ~ticks =
  let inputs = Fault.apply faults t.inputs in
  let schedule = schedule_of t faults in
  match t.engine with
  | Interpreted -> Sim.run ~schedule ~ticks ~inputs t.comp
  | Indexed -> Sim.run_indexed ~schedule ~ticks ~inputs (Lazy.force t.ixc)

let verdicts_of t tr = List.map (fun m -> (Monitor.name m, Monitor.eval m tr)) t.mons

let run_faults t ~faults ~ticks = verdicts_of t (trace_of t ~faults ~ticks)

let judge t ~monitor ~faults ~ticks =
  Shrink.judge_trace t.mons ~monitor (trace_of t ~faults ~ticks)

let run_ops t ~seed ~ops ~ticks =
  run_faults t ~faults:(faults_of t ~seed ~ops) ~ticks

let trace_ops t ~seed ~ops ~ticks =
  trace_of t ~faults:(faults_of t ~seed ~ops) ~ticks

(* [f i trace] over the traces of many fault lists of one spec, in
   order: the interpreted oracle loops over them, the indexed engine runs
   them through the campaign executor. *)
let map_faults t ~domains ~instances ~share ~ticks faultss ~f =
  match t.engine with
  | Interpreted ->
    Array.of_list
      (Parallel.map ~domains
         (fun (i, faults) -> f i (trace_of t ~faults ~ticks))
         (List.mapi (fun i faults -> (i, faults)) (Array.to_list faultss)))
  | Indexed ->
    let cases =
      Array.map
        (fun faults ->
          (faults, Fault.apply faults t.inputs, schedule_of t faults))
        faultss
    in
    Prefix.map ~domains ~instances ~share ~ix:(Lazy.force t.ixc) ~ticks
      ~base_inputs:t.inputs ~base_schedule:(schedule_of t []) cases ~f

let map_cases ?(domains = 1) ?(instances = 1) ?(share = false) t ~seed
    ~ticks opss ~f =
  map_faults t ~domains ~instances ~share ~ticks
    (Array.map (fun ops -> faults_of t ~seed ~ops) opss)
    ~f

let trace_cases ?domains ?instances ?share t ~seed ~ticks opss =
  map_cases ?domains ?instances ?share t ~seed ~ticks opss
    ~f:(fun _ tr -> tr)

let eval_monitors t tr = verdicts_of t tr

type case = {
  seed : int;
  iteration : int;
  ops : Op.t list;
  verdicts : (string * Monitor.verdict) list;
}

type shrunk = {
  shrunk_ops : Op.t list;
  shrunk_faults : Fault.t list;
  shrunk_ticks : int;
  shrunk_reason : string;
}

type failure = {
  fail_seed : int;
  fail_iteration : int;
  fail_monitor : string;
  verdict : Monitor.verdict;
  shrunk : shrunk option;
}

type campaign = {
  spec_name : string;
  horizon : int;
  seeds : int list;
  case_iterations : int;
  gens : (string * int) list;
  cases : case list;
  failures : failure list;
}

let run_case t ~seed ~iteration =
  let ops = expand t ~seed ~iteration in
  let tr = trace_of t ~faults:(faults_of t ~seed ~ops) ~ticks:t.spec_ticks in
  List.iter (fun obs -> obs tr) t.observers;
  { seed; iteration; ops; verdicts = verdicts_of t tr }

(* ------------------------------------------------------------------ *)
(* Sequence-level shrinking                                           *)
(* ------------------------------------------------------------------ *)

let ddmin_ops = Shrink.ddmin

(* The op-level run of a case is the fault-level run of its compiled
   faults, so one judge runner serves both passes of the shrinker.  The
   case's verdict supplies the failure reason: the full case is not
   replayed. *)
let shrink_case t ~seed ~mon ~ops ~reason =
  let shrunk_ops, (o : Fault.t Shrink.outcome) =
    Shrink.minimize_ops ~run:(judge t ~monitor:mon)
      ~compile:(fun ops -> faults_of t ~seed ~ops)
      ~ops ~ticks:t.spec_ticks ~reason
  in
  { shrunk_ops;
    shrunk_faults = o.faults;
    shrunk_ticks = o.ticks;
    shrunk_reason = o.reason }

let case_failures ?(shrink = true) t case =
  List.filter_map
    (fun (mon, v) ->
      match v with
      | Monitor.Pass -> None
      | Monitor.Fail { reason; _ } ->
        let shrunk =
          if shrink then
            Some (shrink_case t ~seed:case.seed ~mon ~ops:case.ops ~reason)
          else None
        in
        Some
          { fail_seed = case.seed;
            fail_iteration = case.iteration;
            fail_monitor = mon;
            verdict = v;
            shrunk })
    case.verdicts

let run ?(shrink = true) ?(domains = 1) ?(instances = 1)
    ?(prefix_share = true) t ~seeds =
  prepare t;
  (* expand every (seed, iteration) case up front, sweep all of them,
     then run observers and monitors in case order *)
  let specs =
    Array.of_list
      (List.concat_map
         (fun seed -> List.init t.iters (fun i -> (seed, i + 1)))
         seeds)
  in
  let opss =
    Array.map (fun (seed, iteration) -> expand t ~seed ~iteration) specs
  in
  let traces =
    map_faults t ~domains ~instances ~share:prefix_share ~ticks:t.spec_ticks
      (Array.mapi (fun i ops -> faults_of t ~seed:(fst specs.(i)) ~ops) opss)
      ~f:(fun _ tr -> tr)
  in
  let cases =
    Array.to_list
      (Array.mapi
         (fun i tr ->
           List.iter (fun obs -> obs tr) t.observers;
           let seed, iteration = specs.(i) in
           { seed; iteration; ops = opss.(i); verdicts = verdicts_of t tr })
         traces)
  in
  let failures = List.concat_map (case_failures ~shrink t) cases in
  { spec_name = t.spec_name;
    horizon = t.spec_ticks;
    seeds;
    case_iterations = t.iters;
    gens = generators t;
    cases;
    failures }

let gate campaign = campaign.failures = []

(* ------------------------------------------------------------------ *)
(* Report                                                             *)
(* ------------------------------------------------------------------ *)

let monitor_names campaign =
  match campaign.cases with
  | [] -> []
  | c :: _ -> List.map fst c.verdicts

let pad s w = s ^ String.make (max 0 (w - String.length s)) ' '
let buf_addf buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

let to_text campaign =
  let buf = Buffer.create 1024 in
  buf_addf buf "proptest report: %s\n" campaign.spec_name;
  buf_addf buf "horizon: %d ticks, iterations/seed: %d, seeds: %s\n"
    campaign.horizon campaign.case_iterations
    (String.concat ", " (List.map string_of_int campaign.seeds));
  buf_addf buf "generators: %s\n\n"
    (if campaign.gens = [] then "(none)"
     else
       String.concat ", "
         (List.map
            (fun (n, w) -> Printf.sprintf "%s(w=%d)" n w)
            campaign.gens));
  let rows =
    List.map
      (fun mon ->
        let fails =
          List.length
            (List.filter
               (fun c ->
                 match List.assoc_opt mon c.verdicts with
                 | Some v -> Monitor.is_fail v
                 | None -> false)
               campaign.cases)
        in
        (mon, List.length campaign.cases - fails, fails))
      (monitor_names campaign)
  in
  let w =
    List.fold_left (fun acc (m, _, _) -> max acc (String.length m)) 7 rows
  in
  buf_addf buf "%s  pass  fail\n" (pad "monitor" w);
  buf_addf buf "%s  ----  ----\n" (String.make w '-');
  List.iter
    (fun (m, p, f) -> buf_addf buf "%s  %4d  %4d\n" (pad m w) p f)
    rows;
  (match campaign.failures with
   | [] -> buf_addf buf "\nno monitor violations.\n"
   | failures ->
     buf_addf buf "\n%d violation(s):\n" (List.length failures);
     List.iter
       (fun fl ->
         buf_addf buf "- seed %d, iteration %d, monitor %s: %s\n"
           fl.fail_seed fl.fail_iteration fl.fail_monitor
           (Monitor.verdict_to_string fl.verdict);
         let case =
           List.find_opt
             (fun c ->
               c.seed = fl.fail_seed && c.iteration = fl.fail_iteration)
             campaign.cases
         in
         (match case with
          | Some c ->
            buf_addf buf "  sequence (%d op(s)): %s\n" (List.length c.ops)
              (String.concat "; " (List.map Op.describe c.ops))
          | None -> ());
         match fl.shrunk with
         | None -> ()
         | Some o ->
           buf_addf buf "  shrunk: %d op(s), %d tick(s):\n"
             (List.length o.shrunk_ops) o.shrunk_ticks;
           List.iter
             (fun op -> buf_addf buf "    %s\n" (Op.describe op))
             o.shrunk_ops;
           buf_addf buf "  faults: %s\n"
             (if o.shrunk_faults = [] then "(none)"
              else
                String.concat "; "
                  (List.map Fault.describe o.shrunk_faults));
           buf_addf buf "  replay: %s\n" o.shrunk_reason)
       failures);
  Buffer.contents buf
