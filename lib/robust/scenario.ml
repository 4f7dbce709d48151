open Automode_core

type t = {
  scn_name : string;
  component : Model.component;
  indexed : Sim.indexed Lazy.t;
  ticks : int;
  inputs : Sim.input_fn;
  faults_of_seed : int -> Fault.t list;
  schedule : Fault.t list -> Clock.schedule;
  monitors : Monitor.t list;
}

let make ?(schedule = fun _ -> Clock.no_events) ~name ~component ~ticks
    ~inputs ~faults ~monitors () =
  if ticks < 0 then invalid_arg "Scenario.make: negative horizon";
  { scn_name = name;
    component;
    indexed = lazy (Sim.index component);
    ticks;
    inputs;
    faults_of_seed = faults;
    schedule;
    monitors = Monitor.distinct_names ~caller:"Scenario.make" monitors }

let name s = s.scn_name
let ticks s = s.ticks
let component s = s.component
let monitors s = List.map Monitor.name s.monitors
let faults s ~seed = s.faults_of_seed seed
let prepare s = ignore (Lazy.force s.indexed)

let stimulus s ~faults = (Fault.apply faults s.inputs, s.schedule faults)

let trace s ~faults ~ticks =
  let inputs, schedule = stimulus s ~faults in
  Sim.run_indexed ~schedule ~ticks ~inputs (Lazy.force s.indexed)

let verdicts_of_trace s tr =
  List.map (fun m -> (Monitor.name m, Monitor.eval m tr)) s.monitors

let run s ~faults ~ticks = verdicts_of_trace s (trace s ~faults ~ticks)

type seed_result = {
  seed : int;
  injected : Fault.t list;
  verdicts : (string * Monitor.verdict) list;
}

type failure = {
  fail_seed : int;
  fail_monitor : string;
  verdict : Monitor.verdict;
  shrunk : Fault.t Shrink.outcome option;
}

type campaign = {
  scenario : string;
  horizon : int;
  seeds : int list;
  results : seed_result list;
  failures : failure list;
}

let run_seed s ~seed =
  let injected = s.faults_of_seed seed in
  { seed; injected; verdicts = run s ~faults:injected ~ticks:s.ticks }

(* The sweep's verdict already holds the failure reason, so shrinking
   starts from it instead of replaying the full case; each shrink run
   is judged by the failing monitor alone, on prefixes of its trace. *)
let seed_failures ?(shrink = true) s r =
  List.filter_map
    (fun (mon, v) ->
      match v with
      | Monitor.Pass -> None
      | Monitor.Fail { reason; _ } ->
        let shrunk =
          if shrink then
            Some
              (Shrink.minimize_faults
                 ~run:(fun ~faults ~ticks ->
                   Shrink.judge_trace s.monitors ~monitor:mon
                     (trace s ~faults ~ticks))
                 ~faults:r.injected ~ticks:s.ticks ~reason)
          else None
        in
        Some { fail_seed = r.seed; fail_monitor = mon; verdict = v; shrunk })
    r.verdicts

let run_seeds ?(domains = 1) ?(instances = 1) ?(prefix_share = true) s ~seeds
    =
  (* Force the index compilation before fanning out, so domains share
     the immutable compiled form instead of racing on the lazy. *)
  prepare s;
  let seeds = Array.of_list seeds in
  let injected = Array.map s.faults_of_seed seeds in
  let cases =
    Array.map
      (fun faults ->
        let inputs, schedule = stimulus s ~faults in
        (faults, inputs, schedule))
      injected
  in
  (* each trace is judged as soon as it exists: the sweep keeps only
     verdicts *)
  let verdicts =
    Prefix.map ~domains ~instances ~share:prefix_share
      ~ix:(Lazy.force s.indexed) ~ticks:s.ticks ~base_inputs:s.inputs
      ~base_schedule:(s.schedule []) cases
      ~f:(fun _ tr -> verdicts_of_trace s tr)
  in
  Array.to_list
    (Array.mapi
       (fun i verdicts -> { seed = seeds.(i); injected = injected.(i); verdicts })
       verdicts)

let failing_seeds c =
  List.sort_uniq Int.compare (List.map (fun f -> f.fail_seed) c.failures)

let sweep ?(shrink = true) ?(domains = 1) ?(instances = 1)
    ?(prefix_share = true) s ~seeds =
  let results = run_seeds ~domains ~instances ~prefix_share s ~seeds in
  let failures = List.concat_map (seed_failures ~shrink s) results in
  { scenario = s.scn_name; horizon = s.ticks; seeds; results; failures }
