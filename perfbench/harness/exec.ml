(* Running jobs through the program's public API the way the CLI and
   the daemon do: the measured path. *)

open Automode_core
module R = Automode_robust
module Cs = Automode_casestudy
module L = Automode_litmus
module B = Automode_proptest.Builder
module Sv = Automode_serve

type output = { digest : string; gate : bool }

let output report gate = { digest = Stdlib.Digest.(to_hex (string report)); gate }

let job_kind = function
  | Stream.Robustness -> Sv.Job.Robustness
  | Guard -> Sv.Job.Guard
  | Redund -> Sv.Job.Redund
  | Proptest -> Sv.Job.Proptest
  | Litmus -> Sv.Job.Litmus

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Late-window catalogs (wide-late)                                   *)
(* ------------------------------------------------------------------ *)

let late_horizon = 200

(* Faults open in the last 40 % of the horizon, at a tick fixed by the
   seed. *)
let late_tick seed = 120 + (seed * 7919 mod 76)

let late_faults fault seed =
  let t = late_tick seed in
  match (fault : Stream.late_fault) with
  | Dropout ->
    [ R.Fault.dropout ~flow:"FZG_V"
        (R.Fault.Window { from_tick = t; until_tick = late_horizon }) ]
  | Spike ->
    [ R.Fault.spike ~flow:"FZG_V"
        ~value:(Value.Float (if seed land 1 = 0 then 2. else 40.))
        (R.Fault.Window
           { from_tick = t; until_tick = min late_horizon (t + 3) }) ]

let voltage_flow = function
  | Stream.Lock -> "FZG_V"
  | Guarded_lock -> Automode_guard.Health.qualified_flow "FZG_V"

let late_component = function
  | Stream.Lock -> Cs.Door_lock.component
  | Guarded_lock -> Cs.Guarded.component

let late_monitors target =
  [ R.Monitor.range ~name:"volt-range" ~flow:(voltage_flow target) ~lo:5.
      ~hi:32. ]

let late_scenario target fault =
  R.Scenario.make
    ~name:
      (Printf.sprintf "late-%s-%s"
         (match target with Stream.Lock -> "lock" | Guarded_lock -> "guarded")
         (match fault with Stream.Dropout -> "dropout" | Spike -> "spike"))
    ~component:(late_component target) ~ticks:late_horizon
    ~inputs:Cs.Robustness.lock_stimulus ~faults:(late_faults fault)
    ~monitors:(late_monitors target) ()

(* The late-atom door-lock twin of bench section E22: every atom acts
   at or after tick 168 of 200. *)
let late_twin () =
  let spec ~name target =
    B.spec ~name ~component:(late_component target) ~ticks:late_horizon
      ~inputs:Cs.Robustness.lock_stimulus ()
    |> B.with_monitors (late_monitors target)
  in
  { L.Eval.twin_name = "door-lock-late";
    unguarded = spec ~name:"door-lock-unguarded-late" Stream.Lock;
    guarded = spec ~name:"door-lock-guarded-late" Stream.Guarded_lock;
    checks = [] }

let late_alphabet () =
  let lit name = Dtype.enum_value Cs.Door_lock.lock_status name in
  L.Alphabet.union
    [ L.Alphabet.spikes ~flow:"FZG_V"
        ~values:[ Value.Float 2.; Value.Float 40. ]
        ~at:[ 170; 185 ] ~hold:3;
      L.Alphabet.silences ~flow:"FZG_V" ~at:[ 168; 182 ] ~holds:[ 6; 10 ];
      L.Alphabet.commands ~flow:"T4S"
        ~values:[ lit "Locked"; lit "Unlocked" ]
        ~at:[ 175 ];
      L.Alphabet.crashes ~flows:[ "FZG_V" ] ~at:[ 172; 190 ];
      L.Alphabet.resets ~flows:[ "FZG_V" ] ~at:[ 174; 192 ] ~down:6 ]

let late_config = { L.Synth.bound = 2; max_scenarios = 100_000; shrink = false }

(* ------------------------------------------------------------------ *)
(* Context                                                            *)
(* ------------------------------------------------------------------ *)

type serve = {
  spool : string;
  results : string;
  cache : Sv.Cache.t;
  metrics : Automode_obs.Metrics.t;
}

type ctx = {
  late : ((Stream.target * Stream.late_fault) * R.Scenario.t) list;
  twin : L.Eval.twin;
  alphabet : L.Alphabet.t;
  mutable serve : serve option;
}

(* [late] compiles the late-window catalogs and twin now, as set-up
   work. *)
let create ~late =
  let scenarios =
    List.map
      (fun key ->
        let s = late_scenario (fst key) (snd key) in
        if late then R.Scenario.prepare s;
        (key, s))
      [ (Stream.Lock, Stream.Dropout); (Lock, Spike); (Guarded_lock, Dropout);
        (Guarded_lock, Spike) ]
  in
  let twin = late_twin () in
  if late then List.iter B.prepare [ twin.unguarded; twin.guarded ];
  { late = scenarios; twin; alphabet = late_alphabet (); serve = None }

let late ctx target fault = List.assoc (target, fault) ctx.late

let serve_of ctx =
  match ctx.serve with
  | Some s -> s
  | None -> invalid_arg "Exec: serve job without a serve context"

(* ------------------------------------------------------------------ *)
(* The measured path                                                  *)
(* ------------------------------------------------------------------ *)

let parse line =
  match Sv.Job.parse_line line with
  | Ok j -> j
  | Error e -> failwith ("job rejected: " ^ e)

let catalog (j : Sv.Job.t) =
  let o =
    Sv.Catalog.run ~shrink:j.shrink ~domains:1 ~instances:j.instances
      ~prefix_share:j.prefix_share ~horizon:j.horizon
      ~iterations:j.iterations ~bound:j.bound ~kind:j.kind ~engine:j.engine
      ~seeds:j.seeds ()
  in
  output o.Sv.Catalog.report o.Sv.Catalog.gate_ok

let daemon_config s =
  { Sv.Daemon.spool = s.spool; results = s.results; cache = Some s.cache;
    workers = 1; domains = 1; poll_s = 0.; once = true; max_jobs = Some 1;
    socket = None; reclaim_s = None }

let gate_of_status text =
  match Sv.Json.parse text with
  | Ok j -> (
    match Option.bind (Sv.Json.member "gate" j) Sv.Json.to_bool with
    | Some g -> g
    | None -> failwith ("status without a gate: " ^ String.trim text))
  | Error e -> failwith ("unreadable status: " ^ e)

(* One daemon round trip: the client spools the job file, the daemon
   drains it, the client reads the report and the status back. *)
let served s ~id ~line =
  Sv.Cache.write_atomic ~path:(Filename.concat s.spool (id ^ ".json"))
    (line ^ "\n");
  let summary = Sv.Daemon.run ~metrics:s.metrics (daemon_config s) in
  if summary.Sv.Daemon.completed <> 1 then
    failwith (Printf.sprintf "daemon did not complete job %s" id);
  let report = read_file (Filename.concat s.results (id ^ ".report.txt")) in
  let status = read_file (Filename.concat s.results (id ^ ".json")) in
  output report (gate_of_status status)

let run ctx ~id ~line = function
  | Stream.Catalog _ -> catalog (parse line)
  | Served _ -> served (serve_of ctx) ~id ~line
  | Late_sweep l ->
    let c =
      R.Scenario.sweep ~shrink:false ~instances:l.instances
        (late ctx l.target l.fault) ~seeds:l.seeds
    in
    output (R.Report.to_text c) (c.R.Scenario.failures = [])
  | Late_litmus l ->
    let r =
      L.Synth.run ~config:late_config ~instances:l.instances ~twin:ctx.twin
        ~alphabet:ctx.alphabet ()
    in
    output (L.Synth.to_text r) (L.Synth.gate r)

(* Set-up: fill the serve cache with the stream's prefill campaigns. *)
let prefill cache (c : Stream.campaign) =
  ignore
    (Sv.Catalog.run ~cache ~shrink:c.shrink ~instances:c.instances
       ~iterations:c.iterations ~bound:c.bound ~kind:(job_kind c.kind)
       ~engine:c.engine ~seeds:c.seeds ())
