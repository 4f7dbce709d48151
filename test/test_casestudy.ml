(* Integration tests over the case-study models: every figure's artifact
   simulates, checks pass, and the end-to-end pipeline holds together. *)

open Automode_core
open Automode_la
open Automode_casestudy

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let msg_at trace flow tick = Trace.get trace ~flow ~tick

(* ------------------------------------------------------------------ *)
(* Fig. 1 / Fig. 4: DoorLockControl                                   *)
(* ------------------------------------------------------------------ *)

let test_door_lock_structure () =
  let issues = Ssd.check_component Door_lock.component in
  Alcotest.(check (list string)) "SSD clean" [] (Network.errors issues);
  let findings = Faa_rules.run Door_lock.model in
  checkb "no conflicts" true
    (List.for_all
       (fun (f : Faa_rules.finding) -> f.severity <> `Conflict)
       findings)

let test_door_lock_crash_unlocks () =
  let trace = Door_lock.demo_trace ~ticks:10 () in
  (* lock command after the lock request (STD sees v_ok one tick later) *)
  let unlock = Value.Present (Dtype.enum_value Door_lock.lock_command "Unlock") in
  let lock = Value.Present (Dtype.enum_value Door_lock.lock_command "Lock") in
  (* Dispatch output is delayed by the SSD channel from LockLogic *)
  checkb "locked after request" true
    (List.exists
       (fun t -> Value.equal_message (msg_at trace "T1C" t) lock)
       [ 2; 3; 4 ]);
  (* crash at tick 6 unlocks all four doors (one SSD delay later) *)
  List.iter
    (fun door ->
      checkb (door ^ " unlocked after crash") true
        (List.exists
           (fun t -> Value.equal_message (msg_at trace door t) unlock)
           [ 6; 7; 8 ]))
    [ "T1C"; "T2C"; "T3C"; "T4C" ]

let test_door_lock_voltage_pattern () =
  (* FZG_V carries a message every second tick - the "-" pattern of Fig 1 *)
  let trace = Door_lock.demo_trace ~ticks:6 () in
  checkb "voltage present at even ticks" true
    (List.for_all
       (fun t ->
         let m = msg_at trace "FZG_V" t in
         if t mod 2 = 0 then m <> Value.Absent else m = Value.Absent)
       [ 0; 1; 2; 3; 4; 5 ])

(* ------------------------------------------------------------------ *)
(* Fig. 2: sampling                                                   *)
(* ------------------------------------------------------------------ *)

let test_sampling_downsamples () =
  let trace = Sampling.demo_trace ~ticks:6 ~factor:2 () in
  (* a' = a when every(2,true): present at even ticks only *)
  List.iter
    (fun t ->
      let m = msg_at trace "a_prime" t in
      if t mod 2 = 0 then
        checkb (Printf.sprintf "present at %d" t) true
          (Value.equal_message m (Value.Present (Value.Int (20 + t))))
      else checkb (Printf.sprintf "absent at %d" t) true (m = Value.Absent))
    [ 0; 1; 2; 3; 4; 5 ]

let test_sampling_factor_4 () =
  let trace = Sampling.demo_trace ~ticks:8 ~factor:4 () in
  checki "two samples in 8 ticks" 2
    (List.length
       (List.filter (fun m -> m <> Value.Absent)
          (Trace.column trace "a_prime")))

let test_sampling_consumer_runs_at_base () =
  let trace = Sampling.demo_trace ~ticks:4 ~factor:2 () in
  checkb "b_out present every tick" true
    (List.for_all (fun m -> m <> Value.Absent) (Trace.column trace "b_out"))

(* ------------------------------------------------------------------ *)
(* Fig. 5: momentum controller                                        *)
(* ------------------------------------------------------------------ *)

let test_momentum_structure () =
  let issues = Dfd.check_component Momentum.component in
  Alcotest.(check (list string)) "DFD clean" [] (Network.errors issues)

let test_momentum_step_response () =
  let trace = Momentum.step_response ~ticks:80 ~target:20. () in
  (* the vehicle speed converges towards the target *)
  let v_end =
    match msg_at trace "v_actual" 79 with
    | Value.Present v -> Value.to_float v
    | Value.Absent -> Alcotest.fail "speed absent"
  in
  checkb "converges towards target" true (Float.abs (v_end -. 20.) < 5.);
  (* the command respects the saturation *)
  checkb "momentum bounded" true
    (List.for_all
       (fun m ->
         match m with
         | Value.Present v -> Float.abs (Value.to_float v) <= 50.
         | Value.Absent -> true)
       (Trace.column trace "momentum"))

let test_momentum_rate_limited () =
  let trace = Momentum.step_response ~ticks:10 ~target:100. () in
  let momenta =
    List.filter_map
      (function Value.Present v -> Some (Value.to_float v) | Value.Absent -> None)
      (Trace.column trace "momentum")
  in
  let rec steps = function
    | a :: (b :: _ as rest) -> Float.abs (b -. a) :: steps rest
    | [ _ ] | [] -> []
  in
  checkb "rate limited to 2 per tick" true
    (List.for_all (fun d -> d <= 2.0 +. 1e-9) (steps momenta))

(* ------------------------------------------------------------------ *)
(* Fig. 6: engine operation modes                                     *)
(* ------------------------------------------------------------------ *)

let test_engine_modes_check () =
  (match Mtd.check Engine_modes.mtd with
   | Ok () -> ()
   | Error es -> Alcotest.fail (String.concat "; " es));
  checkb "deterministic" true (Mtd.deterministic Engine_modes.mtd);
  Alcotest.(check (list string)) "all modes reachable"
    [ "Stalled"; "Cranking"; "Idle"; "PartLoad"; "FullLoad"; "Overrun" ]
    (Mtd.reachable_modes Engine_modes.mtd)

let test_engine_modes_drive_cycle () =
  let trace = Engine_modes.demo_trace ~ticks:42 () in
  let mode_at t =
    match msg_at trace "mode" t with
    | Value.Present (Value.Enum (_, m)) -> m
    | _ -> "?"
  in
  Alcotest.(check string) "starts stalled" "Stalled" (mode_at 0);
  Alcotest.(check string) "cranks" "Cranking" (mode_at 3);
  Alcotest.(check string) "idles" "Idle" (mode_at 8);
  Alcotest.(check string) "part load" "PartLoad" (mode_at 12);
  Alcotest.(check string) "full load" "FullLoad" (mode_at 22);
  Alcotest.(check string) "overrun" "Overrun" (mode_at 27);
  (* fuel cut in overrun *)
  checkb "fuel cut in overrun" true
    (Value.equal_message (msg_at trace "fuel" 27) (Value.Present (Value.Float 0.)))

let test_engine_modes_product () =
  let prod = Engine_modes.global_mode_system in
  checki "12 joint modes" 12 (List.length prod.Model.mtd_modes);
  match Mtd.check prod with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* Fig. 7: engine CCD                                                 *)
(* ------------------------------------------------------------------ *)

let test_engine_ccd_check () =
  Alcotest.(check (list string)) "CCD clean" [] (Ccd.check Engine_ccd.ccd)

let test_engine_ccd_well_defined () =
  checki "no OSEK violations" 0
    (List.length
       (Well_defined.check ~target:Well_defined.osek_fixed_priority
          Engine_ccd.ccd));
  (* removing the delay reintroduces the violation *)
  let undelayed =
    { Engine_ccd.ccd with
      Ccd.channels =
        List.map
          (fun (ch : Model.channel) ->
            if String.equal ch.ch_name "idle_to_fuel" then
              { ch with ch_delayed = false }
            else ch)
          Engine_ccd.ccd.Ccd.channels }
  in
  checki "violation without delay" 1
    (List.length
       (Well_defined.check ~target:Well_defined.osek_fixed_priority undelayed))

let test_engine_ccd_simulates () =
  let trace = Engine_ccd.demo_trace ~ticks:250 () in
  (* fuel present at the 10ms rate *)
  let fuels =
    List.filter (fun m -> m <> Value.Absent) (Trace.column trace "fuel")
  in
  checki "25 fuel samples" 25 (List.length fuels);
  let diags =
    List.filter (fun m -> m <> Value.Absent) (Trace.column trace "diag")
  in
  checki "3 diag samples (100ms)" 3 (List.length diags)

let test_engine_ccd_deployment () =
  Alcotest.(check (list string)) "deployment clean" []
    (Deploy.check Engine_ccd.deployment);
  let sets = Deploy.task_sets Engine_ccd.deployment in
  List.iter
    (fun (_, tasks) ->
      if tasks <> [] then
        checkb "schedulable" true
          (Automode_osek.Scheduler.simulate ~horizon:1_000_000 tasks)
            .Automode_osek.Scheduler.schedulable)
    sets

(* ------------------------------------------------------------------ *)
(* Fig. 8: ThrottleRateOfChange                                       *)
(* ------------------------------------------------------------------ *)

let test_throttle_modes () =
  let trace = Throttle.demo_trace ~ticks:12 () in
  let mode_at t =
    match msg_at trace "mode" t with
    | Value.Present (Value.Enum (_, m)) -> m
    | _ -> "?"
  in
  Alcotest.(check string) "cranking initially" "CrankingOverrun" (mode_at 0);
  Alcotest.(check string) "fuel enabled later" "FuelEnabled" (mode_at 6);
  checkb "constant factor while cranking" true
    (Value.equal_message (msg_at trace "rate" 2) (Value.Present (Value.Float 0.5)))

(* ------------------------------------------------------------------ *)
(* Sec. 5: the engine ASCET case study                                *)
(* ------------------------------------------------------------------ *)

let test_engine_ascet_well_formed () =
  Alcotest.(check (list string)) "parses and checks" []
    (Automode_ascet.Ascet_ast.check Engine_ascet.ascet_model);
  checki "15 processes" 15
    (List.length Engine_ascet.ascet_model.Automode_ascet.Ascet_ast.processes)

let test_engine_ascet_central_emitter () =
  let emitters =
    Automode_ascet.Ascet_analysis.central_flag_emitters Engine_ascet.ascet_model
  in
  match emitters with
  | (name, count) :: _ ->
    Alcotest.(check string) "central component" "engine_state" name;
    checki "eight flags" 8 count
  | [] -> Alcotest.fail "central flag emitter expected"

let test_engine_ascet_reengineering_report () =
  let _, report = Engine_ascet.reengineer () in
  checki "processes" 15 report.Automode_transform.Reengineer.processes;
  checkb "several MTDs extracted" true
    (report.Automode_transform.Reengineer.mtds_extracted >= 5);
  checki "eight flags found" 8
    (List.length report.Automode_transform.Reengineer.flags_found)

let test_engine_ascet_equivalence () =
  (* the reengineered FDA model reproduces the implementation's behavior
     over the full drive profile *)
  let fda, _ = Engine_ascet.reengineer () in
  let ticks = 800 in
  let t_impl =
    Automode_ascet.Ascet_interp.run Engine_ascet.ascet_model ~ticks
      ~inputs:Engine_ascet.drive_inputs ~observe:Engine_ascet.observed
  in
  let inputs tick =
    List.map
      (fun (n, v) -> (n, Value.Present v))
      (Engine_ascet.drive_inputs tick)
  in
  let t_model = Sim.run ~ticks ~inputs fda.Model.model_root in
  match
    Trace.first_divergence t_impl
      (Trace.restrict t_model Engine_ascet.observed)
  with
  | None -> ()
  | Some (tick, flow, l, r) ->
    Alcotest.failf "divergence at %d on %s: impl=%s model=%s" tick flow
      (Value.message_to_string l) (Value.message_to_string r)

let test_engine_ascet_compiled_sim () =
  let fda, _ = Engine_ascet.reengineer () in
  let inputs tick =
    List.map
      (fun (n, v) -> (n, Value.Present v))
      (Engine_ascet.drive_inputs tick)
  in
  let t1 = Sim.run ~ticks:300 ~inputs fda.Model.model_root in
  let t2 =
    Sim.run_indexed ~ticks:300 ~inputs (Sim.index fda.Model.model_root)
  in
  checkb "indexed engine model identical" true
    (Trace.equal_on ~flows:Engine_ascet.observed t1 t2)

let test_engine_ascet_throttle_mtd () =
  let fda, _ = Engine_ascet.reengineer () in
  let net =
    match fda.Model.model_root.comp_behavior with
    | Model.B_dfd net -> net
    | _ -> Alcotest.fail "root"
  in
  match Model.find_component net "throttle_rate_calc" with
  | Some { comp_behavior = Model.B_mtd mtd; _ } ->
    Alcotest.(check (list string)) "fig 8 modes"
      [ "CrankingOverrun"; "FuelEnabled" ]
      (List.map (fun (m : Model.mode) -> m.mode_name) mtd.Model.mtd_modes)
  | Some _ | None -> Alcotest.fail "ThrottleRateOfChange MTD expected"

(* ------------------------------------------------------------------ *)
(* Black-box case study                                               *)
(* ------------------------------------------------------------------ *)

let test_body_matrix () =
  Alcotest.(check (list string)) "handcrafted clean" []
    (Automode_osek.Comm_matrix.check Body_matrix.handcrafted);
  let model = Body_matrix.faa_of Body_matrix.handcrafted in
  let net =
    match model.Model.model_root.comp_behavior with
    | Model.B_ssd net -> net
    | _ -> Alcotest.fail "root"
  in
  checki "eleven nodes" 11 (List.length net.net_components)

(* ------------------------------------------------------------------ *)
(* Central-locking family (FAA + variants + coordinator)              *)
(* ------------------------------------------------------------------ *)

let test_central_locking_family () =
  Alcotest.(check (list string)) "family sound" []
    (Variants.check Central_locking.family);
  checki "four variants" 4
    (List.length (Variants.configurations Central_locking.family))

let test_central_locking_conflict_resolution () =
  let has_conflict model =
    List.exists
      (fun (f : Faa_rules.finding) -> f.rule = "actuator-conflict")
      (Central_locking.conflict_findings model)
  in
  checkb "conflict in full variant" true
    (has_conflict Central_locking.full_variant);
  checkb "coordinator resolves it" false
    (has_conflict Central_locking.coordinated);
  (* the base variant (no optional features) has a single writer: clean *)
  let base = Variants.configure Central_locking.family ~assignment:[] in
  checkb "base variant clean" false (has_conflict base)

let test_central_locking_crash_wins () =
  let trace = Central_locking.demo_trace ~ticks:10 () in
  (* remote lock (1) arrives at the coordinator one SSD delay after tick 2 *)
  checkb "remote lock seen" true
    (Value.equal_message
       (Trace.get trace ~flow:"lock_cmd" ~tick:3)
       (Value.Present (Value.Int 1)));
  (* crash at 6: unlock (0) wins the arbitration one delay later *)
  checkb "crash unlock wins" true
    (Value.equal_message
       (Trace.get trace ~flow:"lock_cmd" ~tick:7)
       (Value.Present (Value.Int 0)))

let test_central_locking_static () =
  Alcotest.(check (list string)) "statically clean" []
    (Static_check.errors
       (Static_check.model Central_locking.coordinated))

(* ------------------------------------------------------------------ *)
(* Fig. 3: the whole pipeline                                         *)
(* ------------------------------------------------------------------ *)

let test_pipeline () =
  let r = Pipeline.run ~equiv_ticks:500 () in
  checkb "LA refines FDA (bounded latency)" true r.Pipeline.la_equivalent;
  Alcotest.(check (list string)) "deployment clean" []
    r.Pipeline.deploy_problems;
  Alcotest.(check (list string)) "ccd clean" [] r.Pipeline.ccd_problems;
  checkb "every ECU schedulable" true
    (List.for_all snd r.Pipeline.schedulable);
  checki "two projects" 2 (List.length r.Pipeline.projects);
  checkb "projects non-trivial" true
    (List.for_all
       (fun (p : Automode_codegen.Ascet_project.project) ->
         String.length p.project_text > 200)
       r.Pipeline.projects);
  checkb "bus load sane" true
    (List.for_all (fun (_, l) -> l >= 0. && l < 1.) r.Pipeline.bus_load)

let () =
  Alcotest.run "automode-casestudy"
    [ ( "fig1-fig4-door-lock",
        [ Alcotest.test_case "structure" `Quick test_door_lock_structure;
          Alcotest.test_case "crash unlocks" `Quick test_door_lock_crash_unlocks;
          Alcotest.test_case "voltage pattern" `Quick test_door_lock_voltage_pattern ] );
      ( "fig2-sampling",
        [ Alcotest.test_case "downsampling" `Quick test_sampling_downsamples;
          Alcotest.test_case "factor 4" `Quick test_sampling_factor_4;
          Alcotest.test_case "consumer at base" `Quick test_sampling_consumer_runs_at_base ] );
      ( "fig5-momentum",
        [ Alcotest.test_case "structure" `Quick test_momentum_structure;
          Alcotest.test_case "step response" `Quick test_momentum_step_response;
          Alcotest.test_case "rate limiting" `Quick test_momentum_rate_limited ] );
      ( "fig6-engine-modes",
        [ Alcotest.test_case "check" `Quick test_engine_modes_check;
          Alcotest.test_case "drive cycle" `Quick test_engine_modes_drive_cycle;
          Alcotest.test_case "global product" `Quick test_engine_modes_product ] );
      ( "fig7-engine-ccd",
        [ Alcotest.test_case "check" `Quick test_engine_ccd_check;
          Alcotest.test_case "well-definedness" `Quick test_engine_ccd_well_defined;
          Alcotest.test_case "simulation" `Quick test_engine_ccd_simulates;
          Alcotest.test_case "deployment" `Quick test_engine_ccd_deployment ] );
      ( "fig8-throttle",
        [ Alcotest.test_case "modes" `Quick test_throttle_modes ] );
      ( "sec5-engine-ascet",
        [ Alcotest.test_case "well-formed" `Quick test_engine_ascet_well_formed;
          Alcotest.test_case "central emitter" `Quick test_engine_ascet_central_emitter;
          Alcotest.test_case "report" `Quick test_engine_ascet_reengineering_report;
          Alcotest.test_case "equivalence" `Slow test_engine_ascet_equivalence;
          Alcotest.test_case "fig8 MTD extracted" `Quick test_engine_ascet_throttle_mtd;
          Alcotest.test_case "compiled sim identical" `Quick test_engine_ascet_compiled_sim ] );
      ( "blackbox-body",
        [ Alcotest.test_case "matrix" `Quick test_body_matrix ] );
      ( "central-locking",
        [ Alcotest.test_case "family" `Quick test_central_locking_family;
          Alcotest.test_case "conflict resolution" `Quick test_central_locking_conflict_resolution;
          Alcotest.test_case "crash wins" `Quick test_central_locking_crash_wins;
          Alcotest.test_case "static check" `Quick test_central_locking_static ] );
      ( "fig3-pipeline",
        [ Alcotest.test_case "end to end" `Slow test_pipeline ] ) ]
