open Automode_core
open Automode_la
open Automode_osek
open Automode_robust
open Automode_redund

(* ------------------------------------------------------------------ *)
(* Model-level hot-standby pair vs. simplex                            *)
(* ------------------------------------------------------------------ *)

let timeout_ticks = 3
let gap_bound = timeout_ticks
let repl_ticks = 80

(* The replica law is strict on purpose: a crashed replica's boundary
   flows turn absent and strictness propagates the silence to its fuel
   stream, so fail-silence needs no extra modeling. *)
let law name pedal =
  Model.component name
    ~ports:
      [ Model.in_port ~ty:Dtype.Tfloat pedal;
        Model.out_port ~ty:Dtype.Tfloat "fuel" ]
    ~behavior:
      (Model.B_exprs
         [ ("fuel", Expr.((var pedal * float 0.07) + float 1.)) ])

let simplex =
  let chan = Model.channel in
  Model.component "EngineSimplex"
    ~ports:
      [ Model.in_port ~ty:Dtype.Tfloat "pedal_p";
        Model.out_port ~ty:Dtype.Tfloat "fuel" ]
    ~behavior:
      (Model.B_dfd
         { Model.net_name = "EngineSimplexNet";
           net_components = [ law "Law" "pedal" ];
           net_channels =
             [ chan ~name:"sx_in" (Model.boundary "pedal_p")
                 (Model.at "Law" "pedal");
               chan ~name:"sx_out" (Model.at "Law" "fuel")
                 (Model.boundary "fuel") ] })

(* Each replica owns its sensor feed and heartbeat (they live on that
   replica's ECU); the failover manager selects the live stream. *)
let replicated =
  let fm = Failover.manager ~name:"FM" ~ty:Dtype.Tfloat ~timeout_ticks () in
  let chan = Model.channel in
  Model.component "EngineReplicated"
    ~ports:
      [ Model.in_port ~ty:Dtype.Tfloat "pedal_p";
        Model.in_port ~ty:Dtype.Tfloat "pedal_s";
        Model.in_port ~ty:Dtype.Tint "hb_p";
        Model.in_port ~ty:Dtype.Tint "hb_s";
        Model.out_port ~ty:Dtype.Tfloat "fuel";
        Model.out_port ~ty:Failover.mode_type "mode";
        Model.out_port ~ty:Dtype.Tbool "p_alive";
        Model.out_port ~ty:Dtype.Tbool "s_alive" ]
    ~behavior:
      (Model.B_dfd
         { Model.net_name = "EngineReplicatedNet";
           net_components = [ law "LawP" "pedal"; law "LawS" "pedal"; fm ];
           net_channels =
             [ chan ~name:"rp_in_p" (Model.boundary "pedal_p")
                 (Model.at "LawP" "pedal");
               chan ~name:"rp_in_s" (Model.boundary "pedal_s")
                 (Model.at "LawS" "pedal");
               chan ~name:"rp_hb_p" (Model.boundary "hb_p")
                 (Model.at "FM" "hb_p");
               chan ~name:"rp_hb_s" (Model.boundary "hb_s")
                 (Model.at "FM" "hb_s");
               chan ~name:"rp_out_p" (Model.at "LawP" "fuel")
                 (Model.at "FM" "out_p");
               chan ~name:"rp_out_s" (Model.at "LawS" "fuel")
                 (Model.at "FM" "out_s");
               chan ~name:"rp_fuel" (Model.at "FM" "out")
                 (Model.boundary "fuel");
               chan ~name:"rp_mode" (Model.at "FM" "mode")
                 (Model.boundary "mode");
               chan ~name:"rp_palive" (Model.at "FM" "p_alive")
                 (Model.boundary "p_alive");
               chan ~name:"rp_salive" (Model.at "FM" "s_alive")
                 (Model.boundary "s_alive") ] })

(* ------------------------------------------------------------------ *)
(* Stimulus, fault plans, monitors                                     *)
(* ------------------------------------------------------------------ *)

let repl_stimulus tick =
  let pedal =
    Value.Present (Value.Float (0.2 +. (0.01 *. float_of_int (tick mod 40))))
  in
  let hb = Value.Present (Value.Int tick) in
  [ ("pedal_p", pedal); ("pedal_s", pedal); ("hb_p", hb); ("hb_s", hb) ]

let crash_site seed =
  let st = Random.State.make [| seed; 0xC4A5 |] in
  let tick = 20 + Random.State.int st 30 in
  (tick, Random.State.bool st)

let replica_flows primary =
  if primary then [ "pedal_p"; "hb_p" ] else [ "pedal_s"; "hb_s" ]

let crash_faults seed =
  let tick, primary = crash_site seed in
  Fault.ecu_crash ~flows:(replica_flows primary) ~at_tick:tick

(* The unreplicated system has one ECU; the same seed's crash tick
   takes it out entirely. *)
let simplex_crash_faults seed =
  let tick, _ = crash_site seed in
  Fault.ecu_crash ~flows:[ "pedal_p" ] ~at_tick:tick

let reset_down_ticks = 10

let reset_faults seed =
  let tick, _ = crash_site seed in
  Fault.ecu_reset ~flows:(replica_flows true) ~at_tick:tick
    ~down_ticks:reset_down_ticks

(* The bounded-recovery assertion: the fuel stream never goes silent
   for more than [bound] consecutive ticks.  (Failover latency is
   timeout_ticks - 1 silent ticks: the crash tick starts the count and
   the switchover tick already serves the standby's value.) *)
let max_absent_gap ~name ~flow ~bound =
  Monitor.predicate ~name (fun trace ->
      match Trace.column trace flow with
      | exception Not_found ->
        Some (0, Printf.sprintf "flow %s missing from trace" flow)
      | col ->
        let rec scan tick run = function
          | [] -> None
          | Value.Present _ :: rest -> scan (tick + 1) 0 rest
          | Value.Absent :: rest ->
            let run = run + 1 in
            if run > bound then
              Some
                ( tick,
                  Printf.sprintf "%s absent for %d > %d consecutive ticks"
                    flow run bound )
            else scan (tick + 1) run rest
        in
        scan 0 0 col)

let final_present ~name ~flow =
  Monitor.predicate ~name (fun trace ->
      let last = Trace.length trace - 1 in
      match Trace.get trace ~flow ~tick:last with
      | exception Not_found ->
        Some (0, Printf.sprintf "flow %s missing from trace" flow)
      | Value.Present _ -> None
      | Value.Absent ->
        Some (last, Printf.sprintf "%s absent at final tick" flow))

let final_mode_is ~name lit =
  Monitor.predicate ~name (fun trace ->
      let last = Trace.length trace - 1 in
      match Trace.get trace ~flow:"mode" ~tick:last with
      | exception Not_found -> Some (0, "flow mode missing from trace")
      | Value.Present v when Value.equal v (Failover.mode_value lit) -> None
      | m ->
        Some
          ( last,
            Printf.sprintf "final mode %s, expected %s"
              (Value.message_to_string m) lit ))

let fuel_monitors =
  [ max_absent_gap ~name:"fuel-gap-bounded" ~flow:"fuel" ~bound:gap_bound;
    final_present ~name:"fuel-final-present" ~flow:"fuel" ]

let replicated_monitors =
  fuel_monitors
  @ [ Monitor.mode_safety ~name:"no-standby-while-primary-alive"
        ~mode_flow:"mode" ~mode:"Standby" ~flag_flow:"p_alive" ]

let replicated_scenario =
  Scenario.make ~name:"engine-replicated" ~component:replicated
    ~ticks:repl_ticks ~inputs:repl_stimulus ~faults:crash_faults
    ~monitors:replicated_monitors ()

let simplex_scenario =
  Scenario.make ~name:"engine-simplex" ~component:simplex ~ticks:repl_ticks
    ~inputs:repl_stimulus ~faults:simplex_crash_faults ~monitors:fuel_monitors
    ()

let reset_scenario =
  Scenario.make ~name:"engine-reset" ~component:replicated ~ticks:repl_ticks
    ~inputs:repl_stimulus ~faults:reset_faults
    ~monitors:
      (replicated_monitors
      @ [ final_mode_is ~name:"switches-back-to-primary" "Primary" ])
    ()

(* ------------------------------------------------------------------ *)
(* TMR sensor triple vs. consuming one replica directly                *)
(* ------------------------------------------------------------------ *)

let tmr_voter = Voter.tmr ~name:"SensorTmr" ~ty:Dtype.Tfloat ()

let tmr_simplex =
  Model.component "SensorSimplex"
    ~ports:
      [ Model.in_port ~ty:Dtype.Tfloat "in1";
        Model.out_port ~ty:Dtype.Tfloat "out" ]
    ~behavior:(Model.B_exprs [ ("out", Expr.var "in1") ])

let tmr_stimulus tick =
  let v = Value.Present (Value.Float (20. +. float_of_int (tick mod 5))) in
  [ ("in1", v); ("in2", v); ("in3", v) ]

(* One faulty replica per seed (single-fault hypothesis): replica 1
   spikes implausibly and intermittently goes silent. *)
let tmr_faults seed =
  [ Fault.spike ~flow:"in1" ~value:(Value.Float 99.)
      (Fault.Random_ticks { probability = 0.35; seed });
    Fault.dropout ~flow:"in1"
      (Fault.Random_ticks { probability = 0.2; seed = seed + 7919 }) ]

let sensor_range ~name flow =
  Monitor.range ~name ~flow ~lo:5. ~hi:32.

let tmr_scenario =
  Scenario.make ~name:"sensor-tmr" ~component:tmr_voter ~ticks:repl_ticks
    ~inputs:tmr_stimulus ~faults:tmr_faults
    ~monitors:
      [ sensor_range ~name:"voted-in-range" "out";
        Monitor.never ~name:"voter-agrees" ~flows:[ "agree" ]
          ~pred:(fun msgs ->
            match List.assoc_opt "agree" msgs with
            | Some (Value.Present (Value.Bool false)) -> true
            | _ -> false) ]
    ()

let tmr_simplex_scenario =
  Scenario.make ~name:"sensor-simplex" ~component:tmr_simplex
    ~ticks:repl_ticks ~inputs:tmr_stimulus ~faults:tmr_faults
    ~monitors:[ sensor_range ~name:"sensor-in-range" "out" ]
    ()

(* ------------------------------------------------------------------ *)
(* TA level: replicated deployment on a dual-channel TT bus            *)
(* ------------------------------------------------------------------ *)

let redundant_ta =
  Ta.make ~name:"EngineRedundant"
    ~ecus:
      [ { Ta.ecu_name = "ecu_main"; speed_factor = 0.8 };
        { Ta.ecu_name = "ecu_p"; speed_factor = 1.0 };
        { Ta.ecu_name = "ecu_s"; speed_factor = 1.0 };
        { Ta.ecu_name = "ecu_body"; speed_factor = 1.5 } ]
    ~tasks:
      [ { Ta.task_name = "t10_main"; task_ecu = "ecu_main";
          period_us = 10_000; priority = 0; offset_us = 0 };
        { Ta.task_name = "t10_p"; task_ecu = "ecu_p"; period_us = 10_000;
          priority = 0; offset_us = 0 };
        { Ta.task_name = "t10_s"; task_ecu = "ecu_s"; period_us = 10_000;
          priority = 0; offset_us = 0 };
        { Ta.task_name = "t100_body"; task_ecu = "ecu_body";
          period_us = 100_000; priority = 0; offset_us = 0 } ]
    ~buses:[ { Ta.bus_name = "can_powertrain"; bitrate = 500_000 } ]
    ~frames:
      (List.init 8 (fun i ->
           { Ta.slot_name = Printf.sprintf "fr_r%d" i;
             slot_bus = "can_powertrain"; can_id = 0x20 + i;
             capacity_bits = 32; slot_period_us = 10_000 }))
    ()

let base_deployment =
  Deploy.make ~ccd:Engine_ccd.ccd ~ta:redundant_ta
    ~cluster_task:
      [ ("AirMass", "t10_main"); ("FuelInjection", "t10_main");
        ("IgnitionTiming", "t10_main"); ("IdleSpeedControl", "t100_body");
        ("Diagnosis", "t100_body") ]
    ()
  |> Deploy.auto_map_signals

let replicated_deployment =
  Replicate.deploy ~cluster:"FuelInjection"
    ~replica_tasks:[ "t10_p"; "t10_s" ] ~voter_task:"t10_main"
    base_deployment

(* Replica fuel streams and heartbeats in the static segment.  With
   [dual:false] the same slots ride channel A alone — the configuration
   the channel-outage seeds kill. *)
let tt_schedule ~dual =
  let channels = if dual then [ Tt_bus.A; Tt_bus.B ] else [ Tt_bus.A ] in
  Tt_bus.schedule ~slots_per_cycle:8 ~slot_us:25
    [ Tt_bus.slot ~channels ~name:"fuel_p" ~index:0 ~payload_bytes:4 ();
      Tt_bus.slot ~channels ~name:"fuel_s" ~index:1 ~payload_bytes:4 ();
      Tt_bus.slot ~channels ~name:"hb_p" ~index:2 ~payload_bytes:1 ();
      Tt_bus.slot ~channels ~name:"hb_s" ~index:3 ~payload_bytes:1 () ]

(* A 20 ms harness cut on channel A at a seeded instant, plus light
   background corruption on A; channel B untouched (single-fault
   hypothesis — dual-channel redundancy defends against one channel
   failing, not both at once). *)
let channel_faults seed =
  let st = Random.State.make [| seed; 0x7C11 |] in
  let start = 20_000 + (Random.State.int st 16 * 10_000) in
  Tt_bus.fault_model ~seed
    ~a:
      (Tt_bus.chan_faults ~loss_rate:0.02
         ~dead:[ (start, start + 20_000) ]
         ())
    ()

let channel_campaign ?(horizon = 200_000) ~dual ~seeds () =
  let schedule = tt_schedule ~dual in
  List.map
    (fun seed ->
      let report =
        Inject_net.nominal replicated_deployment
        |> Inject_net.with_tt ~faults:(channel_faults seed) ~schedule
        |> Inject_net.simulate ~horizon
      in
      (seed, Inject_net.verdicts report))
    seeds

(* ------------------------------------------------------------------ *)
(* Generated redundancy communication components                       *)
(* ------------------------------------------------------------------ *)

(* The replication layer of the deployment, as plain comm-component
   specs: the voter on ecu_main merges the replica fuel streams, and
   ecu_main supervises both replica ECUs' heartbeats with the failover
   timeout. *)
let redundancy_specs =
  let voters =
    [ { Automode_codegen.Comm_components.voter_node = "ecu_main";
        voted_signal = "FuelInjection.out";
        voter_inputs =
          List.init 2 (fun i ->
              Replicate.voter_input_channel ~cluster:"FuelInjection"
                ~port:"out" (i + 1));
        voter_strategy = "pair" } ]
  in
  let hb ecu =
    { Automode_codegen.Comm_components.hb_monitor_node = "ecu_main";
      hb_source_node = ecu; hb_signal = Heartbeat.flow ecu;
      hb_timeout_ticks = timeout_ticks }
  in
  (voters, [ hb "ecu_p"; hb "ecu_s" ])

let projects () =
  let voters, heartbeats = redundancy_specs in
  Automode_codegen.Ascet_project.generate ~voters ~heartbeats
    replicated_deployment

(* ------------------------------------------------------------------ *)
(* Campaign report                                                     *)
(* ------------------------------------------------------------------ *)

type report = {
  replicated : Scenario.campaign;
  simplex : Scenario.campaign;
  reset : Scenario.campaign;
  tmr : Scenario.campaign;
  tmr_simplex : Scenario.campaign;
  dual : (int * (string * Monitor.verdict) list) list;
  single : (int * (string * Monitor.verdict) list) list;
}

let campaign ?(shrink = true) ?domains ?horizon ~seeds () =
  { replicated = Scenario.sweep ~shrink ?domains replicated_scenario ~seeds;
    simplex = Scenario.sweep ~shrink ?domains simplex_scenario ~seeds;
    reset = Scenario.sweep ~shrink ?domains reset_scenario ~seeds;
    tmr = Scenario.sweep ~shrink ?domains tmr_scenario ~seeds;
    tmr_simplex = Scenario.sweep ~shrink ?domains tmr_simplex_scenario ~seeds;
    dual = channel_campaign ?horizon ~dual:true ~seeds ();
    single = channel_campaign ?horizon ~dual:false ~seeds () }

let net_failing results =
  List.filter
    (fun (_, verdicts) -> List.exists (fun (_, v) -> Monitor.is_fail v) verdicts)
    results

let pp_report ppf r =
  let model ppf (c : Scenario.campaign) =
    Format.fprintf ppf "%-20s %d/%d seeds failing@." c.Scenario.scenario
      (List.length (Scenario.failing_seeds c))
      (List.length c.Scenario.seeds)
  in
  let net name ppf results =
    Format.fprintf ppf "%-20s %d/%d seeds failing@." name
      (List.length (net_failing results))
      (List.length results)
  in
  model ppf r.replicated;
  model ppf r.simplex;
  model ppf r.reset;
  model ppf r.tmr;
  model ppf r.tmr_simplex;
  net "tt-dual-channel" ppf r.dual;
  net "tt-single-channel" ppf r.single;
  List.iter
    (fun (f : Scenario.failure) ->
      Format.fprintf ppf "  protected failure: %s seed %d, %s: %s@."
        r.replicated.Scenario.scenario f.Scenario.fail_seed
        f.Scenario.fail_monitor
        (Monitor.verdict_to_string f.Scenario.verdict))
    (r.replicated.Scenario.failures @ r.reset.Scenario.failures
   @ r.tmr.Scenario.failures);
  List.iter
    (fun (seed, verdicts) ->
      List.iter
        (fun (name, v) ->
          if Monitor.is_fail v then
            Format.fprintf ppf "  dual-channel failure: seed %d, %s: %s@." seed
              name (Monitor.verdict_to_string v))
        verdicts)
    r.dual

let gate r =
  r.replicated.Scenario.failures = []
  && r.reset.Scenario.failures = []
  && r.tmr.Scenario.failures = []
  && net_failing r.dual = []

let contrast_fails r =
  let all_fail (c : Scenario.campaign) =
    List.length (Scenario.failing_seeds c) = List.length c.Scenario.seeds
  in
  all_fail r.simplex && all_fail r.tmr_simplex && net_failing r.single <> []
