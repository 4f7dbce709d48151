(* Tests for the graceful-degradation layer: E2E frame protection,
   signal health qualification, the limp-home degradation manager, the
   scheduler watchdog, and the protected-vs-unprotected campaigns over
   the case studies. *)

open Automode_core
open Automode_la
open Automode_osek
open Automode_robust
open Automode_guard
open Automode_casestudy

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let present_f f = Value.Present (Value.Float f)

let nth col i = List.nth col i

(* ------------------------------------------------------------------ *)
(* E2E protection                                                     *)
(* ------------------------------------------------------------------ *)

let p = E2e.profile ~data_id:0x2A ()

let test_e2e_roundtrip () =
  let payloads = List.init 20 (fun i -> Value.Float (float_of_int i)) in
  let verdicts = E2e.check_stream p (E2e.wrap_stream p payloads) in
  checki "all instances accepted" 20 (List.length verdicts);
  List.iteri
    (fun i v ->
      match v with
      | E2e.Data { payload; skipped; _ } ->
        checkb "payload intact" true
          (Value.equal payload (Value.Float (float_of_int i)));
        checki "no skips in sequence" 0 skipped
      | _ -> Alcotest.fail "round trip should accept every instance")
    verdicts

let test_e2e_detects_skips () =
  let wrapped = E2e.wrap_stream p (List.init 6 (fun i -> Value.Int i)) in
  (* lose instances 1 and 2 *)
  let received =
    List.filteri (fun i _ -> i <> 1 && i <> 2) wrapped
  in
  (match E2e.check_stream p received with
   | [ E2e.Data { skipped = 0; _ }; E2e.Data { skipped = 2; _ };
       E2e.Data { skipped = 0; _ }; E2e.Data { skipped = 0; _ } ] -> ()
   | _ -> Alcotest.fail "gap of 2 should surface as skipped=2")

let test_e2e_repetition_and_tamper () =
  let w = E2e.wrap p ~counter:5 (Value.Int 7) in
  (match E2e.check p ~last:(Some 5) w with
   | E2e.Repetition -> ()
   | _ -> Alcotest.fail "stale counter should be a repetition");
  (match E2e.check p ~last:None (Value.Int 7) with
   | E2e.Not_protected -> ()
   | _ -> Alcotest.fail "bare value is not protected");
  let tampered =
    match w with
    | Value.Tuple [ id; c; sum; _ ] -> Value.Tuple [ id; c; sum; Value.Int 8 ]
    | _ -> assert false
  in
  (match E2e.check p ~last:None tampered with
   | E2e.Crc_mismatch -> ()
   | _ -> Alcotest.fail "tampered payload should fail the checksum");
  let other = E2e.profile ~data_id:0x2B () in
  (match E2e.check other ~last:None w with
   | E2e.Wrong_id 0x2A -> ()
   | _ -> Alcotest.fail "foreign data id should be flagged")

let test_e2e_capacity () =
  checki "default overhead" 20 (E2e.overhead_bits p);
  checki "4-bit counter gap" 15 (E2e.max_detectable_gap p);
  let slot =
    { Ta.slot_name = "s"; slot_bus = "b"; can_id = 1; capacity_bits = 32;
      slot_period_us = 10_000 }
  in
  checki "slot grows by the overhead" 52 (E2e.protect_slot p slot).Ta.capacity_bits;
  let big = { slot with Ta.capacity_bits = 50 } in
  checkb "oversized slot rejected" true
    (try ignore (E2e.protect_slot p big); false
     with Invalid_argument _ -> true);
  let f = Can_bus.frame ~name:"f" ~can_id:1 ~payload_bytes:4 ~period:10_000 () in
  checki "frame grows by whole bytes" 7 (E2e.protect_frame p f).Can_bus.payload_bytes;
  let full = Can_bus.frame ~name:"g" ~can_id:2 ~payload_bytes:8 ~period:10_000 () in
  checkb "full frame rejected" true
    (try ignore (E2e.protect_frame p full); false
     with Invalid_argument _ -> true)

let test_e2e_bus_verdict_gap () =
  (* a 1-bit alive counter detects a gap of at most 1: a forced burst of
     3 consecutive losses must fail, while the default 4-bit profile
     (gap 15) absorbs it *)
  let config = { Can_bus.bitrate = 500_000 } in
  let frames =
    [ Can_bus.frame ~name:"a" ~can_id:1 ~payload_bytes:4 ~period:5_000 () ]
  in
  let r =
    Can_bus.simulate
      ~faults:
        (Can_bus.fault_model ~seed:7 ~loss_rate:0.05 ~burst_rate:0.2
           ~burst_len:3 ~max_retransmits:0 ())
      config ~horizon:300_000 frames
  in
  let narrow = E2e.profile ~data_id:1 ~counter_bits:1 () in
  let name1, v1 = E2e.bus_verdict narrow ~bus:"b" r in
  checks "verdict name" "bus:b:e2e-loss-detected" name1;
  checkb "1-bit counter wraps under a burst of 3" true (Monitor.is_fail v1);
  let _, v4 = E2e.bus_verdict p ~bus:"b" r in
  checkb "4-bit counter covers the burst" true (v4 = Monitor.Pass)

(* ------------------------------------------------------------------ *)
(* Health qualification                                               *)
(* ------------------------------------------------------------------ *)

let hcfg =
  Health.config ~suspect_after:2 ~timeout_after:4 ~invalid_after:2
    ~recover_after:2 ~plausible:(0., 100.) ~startup:(Value.Float 50.) ()

(* the qualification story in one scripted stimulus: good, a short gap,
   a long gap (timeout), requalification, implausible samples (invalid),
   requalification again *)
let script =
  [| Some 10.; None; None; None; None; Some 20.; Some 30.; Some 200.;
     Some 250.; Some 40.; Some 41. |]

let run_qualifier cfg =
  let q = Health.qualifier ~ty:Dtype.Tfloat cfg in
  let inputs tick =
    match script.(tick) with
    | Some v -> [ ("raw", present_f v) ]
    | None -> []
  in
  Sim.run ~ticks:(Array.length script) ~inputs q

let test_health_qualifier_lifecycle () =
  let tr = run_qualifier hcfg in
  let out = Trace.column tr "out" in
  let ok = Trace.column tr "ok" in
  let status = Trace.column tr "status" in
  let st i =
    match nth status i with
    | Value.Present (Value.Enum (_, s)) -> s
    | _ -> "?"
  in
  let okb i = nth ok i = Value.Present (Value.Bool true) in
  (* t0: good passes through *)
  checkb "t0 out=raw" true (nth out 0 = present_f 10.);
  checks "t0 Valid" "Valid" (st 0);
  checkb "t0 ok" true (okb 0);
  (* t1: one missed tick stays silent (transparency) *)
  checkb "t1 no substitute" true (nth out 1 = Value.Absent);
  checkb "t1 still ok" true (okb 1);
  (* t2: second miss -> Suspect, hold-last substitution *)
  checks "t2 Suspect" "Suspect" (st 2);
  checkb "t2 substitutes last good" true (nth out 2 = present_f 10.);
  checkb "t2 still serviceable" true (okb 2);
  (* t4: fourth miss -> Timeout, health flag falls *)
  checks "t4 Timeout" "Timeout" (st 4);
  checkb "t4 not ok" true (not (okb 4));
  checkb "t4 still substituting" true (nth out 4 = present_f 10.);
  (* t5: first good sample during requalification still substitutes *)
  checks "t5 still Timeout" "Timeout" (st 5);
  checkb "t5 not yet ok" true (not (okb 5));
  (* t6: second consecutive good sample requalifies *)
  checks "t6 Valid" "Valid" (st 6);
  checkb "t6 out=raw" true (nth out 6 = present_f 30.);
  checkb "t6 ok" true (okb 6);
  (* t7: implausible 200 is rejected, substituted, still serviceable *)
  checks "t7 Valid (debouncing)" "Valid" (st 7);
  checkb "t7 substitutes" true (nth out 7 = present_f 30.);
  (* t8: second implausible -> Invalid *)
  checks "t8 Invalid" "Invalid" (st 8);
  checkb "t8 not ok" true (not (okb 8));
  (* t10: two good samples requalify *)
  checks "t10 Valid" "Valid" (st 10);
  checkb "t10 out=raw" true (nth out 10 = present_f 41.)

let test_health_policies () =
  let sub =
    run_qualifier
      { hcfg with Health.policy = Health.Substitute (Value.Float 0.) }
  in
  checkb "Substitute emits the fallback" true
    (nth (Trace.column sub "out") 2 = present_f 0.);
  let drop = run_qualifier { hcfg with Health.policy = Health.Drop } in
  checkb "Drop emits nothing" true
    (nth (Trace.column drop "out") 2 = Value.Absent);
  checkb "Drop still reports status" true
    (nth (Trace.column drop "status") 2
     = Value.Present (Health.status_value "Suspect"))

let test_health_startup_substitute () =
  (* silent from the first tick: the substitute is the startup value *)
  let q = Health.qualifier ~ty:Dtype.Tfloat hcfg in
  let tr = Sim.run ~ticks:4 ~inputs:(fun _ -> []) q in
  checkb "startup value substitutes" true
    (nth (Trace.column tr "out") 2 = present_f 50.)

let test_health_config_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "timeout must exceed suspect" true
    (bad (fun () ->
         Health.config ~suspect_after:3 ~timeout_after:3
           ~startup:(Value.Float 0.) ()));
  checkb "empty range rejected" true
    (bad (fun () ->
         Health.config ~plausible:(2., 1.) ~startup:(Value.Float 0.) ()));
  checkb "protect requires an input port" true
    (bad (fun () ->
         Health.protect ~flows:[ ("T1C", hcfg) ] Door_lock.component))

(* ------------------------------------------------------------------ *)
(* Degradation manager                                                *)
(* ------------------------------------------------------------------ *)

let test_degrade_mode_sequence () =
  let mgr =
    Degrade.manager ~limp_after:2 ~recover_after:2 ~health_inputs:[ "h" ] ()
  in
  let script = [| Some true; Some false; Some false; Some true; Some true |] in
  let inputs tick =
    match script.(tick) with
    | Some b -> [ ("h", Value.Present (Value.Bool b)) ]
    | None -> []
  in
  let tr = Sim.run ~ticks:(Array.length script) ~inputs mgr in
  let mode i =
    match nth (Trace.column tr "mode") i with
    | Value.Present (Value.Enum (_, m)) -> m
    | _ -> "?"
  in
  checks "healthy start stays Nominal" "Nominal" (mode 0);
  checks "first unhealthy tick degrades" "Degraded" (mode 1);
  checks "limp threshold escalates" "LimpHome" (mode 2);
  checks "one healthy tick is not enough" "LimpHome" (mode 3);
  checks "debounced recovery returns to Nominal" "Nominal" (mode 4)

let test_degrade_absent_flag_is_unhealthy () =
  let mgr =
    Degrade.manager ~limp_after:4 ~recover_after:2 ~health_inputs:[ "h" ] ()
  in
  (* the health flag goes silent: that is itself a degradation signal *)
  let inputs tick =
    if tick = 0 then [ ("h", Value.Present (Value.Bool true)) ] else []
  in
  let tr = Sim.run ~ticks:3 ~inputs mgr in
  (match nth (Trace.column tr "mode") 1 with
   | Value.Present (Value.Enum (_, "Degraded")) -> ()
   | _ -> Alcotest.fail "silent health flag should degrade");
  checkb "structurally sound MTD" true (Mtd.check Degrade.mtd = Ok ())

(* ------------------------------------------------------------------ *)
(* Scheduler watchdog                                                 *)
(* ------------------------------------------------------------------ *)

let wd_tasks =
  [ Osek_task.make ~name:"fast" ~period:10_000 ~wcet:2_000 ~priority:0 ();
    Osek_task.make ~name:"slow" ~period:50_000 ~wcet:10_000 ~priority:1 () ]

let wd_fires (r : Scheduler.result) =
  List.fold_left
    (fun acc (_, (s : Scheduler.task_stats)) ->
      acc + s.Scheduler.watchdog_fires)
    0 r.Scheduler.per_task

let overruns = Scheduler.exec_model ~overrun_rate:0.5 ~overrun_factor:8. ~seed:4 ()

let test_watchdog_nominal_identity () =
  let plain = Scheduler.simulate ~horizon:500_000 wd_tasks in
  let guarded =
    Scheduler.simulate
      ~watchdog:(Scheduler.watchdog ~budget_factor:2. Scheduler.Skip)
      ~horizon:500_000 wd_tasks
  in
  checkb "no overruns: watchdog is invisible" true (plain = guarded);
  checki "no fires" 0 (wd_fires guarded)

let test_watchdog_skip_recovers_schedule () =
  let broken = Scheduler.simulate ~exec:overruns ~horizon:500_000 wd_tasks in
  checkb "overruns break the unguarded schedule" true
    (not broken.Scheduler.schedulable);
  let guarded =
    Scheduler.simulate ~exec:overruns
      ~watchdog:(Scheduler.watchdog ~budget_factor:2. Scheduler.Skip)
      ~horizon:500_000 wd_tasks
  in
  checkb "skip recovery keeps the schedule" true guarded.Scheduler.schedulable;
  checkb "watchdog fired" true (wd_fires guarded > 0)

let test_watchdog_restart_burns_budget () =
  let guarded =
    Scheduler.simulate ~exec:overruns
      ~watchdog:(Scheduler.watchdog ~budget_factor:2. Scheduler.Restart)
      ~horizon:500_000 wd_tasks
  in
  checkb "restart fires too" true (wd_fires guarded > 0);
  (* restart re-runs the job after the budget burn: unlike skip, the
     demand stays in the schedule, so the overload persists *)
  checkb "restart does not shed load" true
    (not guarded.Scheduler.schedulable)

let test_watchdog_deterministic_and_validated () =
  let go () =
    Scheduler.simulate ~exec:overruns
      ~watchdog:(Scheduler.watchdog ~budget_factor:1.5 Scheduler.Skip)
      ~horizon:300_000 wd_tasks
  in
  checkb "same seed, same result" true (go () = go ());
  checkb "budget factor below 1 rejected" true
    (try ignore (Scheduler.watchdog ~budget_factor:0.5 Scheduler.Skip); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Generated communication components with E2E                         *)
(* ------------------------------------------------------------------ *)

let test_codegen_e2e_attributes () =
  let cm =
    { Comm_matrix.entries =
        [ Comm_matrix.entry ~signal:"speed" ~sender:"ecu_a"
            ~receivers:[ "ecu_b" ] ~size_bits:16 ~period_us:10_000 ();
          Comm_matrix.entry ~signal:"temp" ~sender:"ecu_b"
            ~receivers:[ "ecu_a" ] ~size_bits:8 ~period_us:100_000 () ] }
  in
  let frame_of = function
    | "speed" -> Some "fr_speed"
    | "temp" -> Some "fr_temp"
    | _ -> None
  in
  let e2e = function "speed" -> Some p | _ -> None in
  let sender = Automode_codegen.Comm_components.for_node ~node:"ecu_a" ~frame_of ~e2e cm in
  let contains hay needle =
    let hn = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= hn && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  checkb "send side carries the e2e profile" true
    (contains sender "e2e = { data_id = 0x2A; counter_bits = 4; crc_bits = 8; }");
  checkb "protected size includes the overhead" true
    (contains sender "size_bits = 36");
  let receiver =
    Automode_codegen.Comm_components.for_node ~node:"ecu_b" ~frame_of ~e2e cm
  in
  checkb "receive side checks" true
    (contains receiver "e2e_check = { data_id = 0x2A; max_gap = 15; }");
  checkb "unprotected signal unchanged" true
    (contains sender "comm recv temp { frame = fr_temp; publish = data_integrity;");
  let plain = Automode_codegen.Comm_components.for_node ~node:"ecu_a" ~frame_of cm in
  checkb "default emits no e2e attributes" true (not (contains plain "e2e"))

(* ------------------------------------------------------------------ *)
(* Guarded case studies                                               *)
(* ------------------------------------------------------------------ *)

let test_guarded_transparency () =
  (* protection enabled, no faults: the guarded controller's traces are
     byte-identical to the unguarded baseline on the shared flows *)
  let ticks = Robustness.lock_ticks in
  let schedule = Robustness.lock_schedule [] in
  let base =
    Sim.run ~schedule ~ticks ~inputs:Robustness.lock_stimulus
      Door_lock.component
  in
  let guarded =
    Sim.run ~schedule ~ticks ~inputs:Robustness.lock_stimulus Guarded.component
  in
  checks "byte-identical on the baseline flows" (Trace.to_string base)
    (Trace.to_string (Trace.restrict guarded (Trace.flows base)))

let test_guarded_compiled_matches () =
  let ticks = Robustness.lock_ticks in
  let schedule = Robustness.lock_schedule [] in
  let interp =
    Sim.run ~schedule ~ticks ~inputs:Robustness.lock_stimulus Guarded.component
  in
  let indexed =
    Sim.run_indexed ~schedule ~ticks ~inputs:Robustness.lock_stimulus
      (Sim.index Guarded.component)
  in
  let outs =
    List.map
      (fun (prt : Model.port) -> prt.Model.port_name)
      (Model.output_ports Guarded.component)
  in
  checkb "indexed engine agrees on every output" true
    (Trace.equal_on ~flows:outs interp indexed)

let comparison_seeds = [ 1; 2; 3; 4; 5 ]

let comparison = Guarded.door_lock_comparison ~shrink:false ~seeds:comparison_seeds ()

let test_guarded_campaign_contrast () =
  (* the acceptance shape: at least one fault configuration where the
     unprotected model fails a monitor and the guarded model passes *)
  checkb "unguarded controller fails" true
    (comparison.Guarded.unguarded.Scenario.failures <> []);
  checkb "guarded controller passes every seed" true
    (comparison.Guarded.guarded.Scenario.failures = []);
  checki "both sides saw every seed"
    (List.length comparison_seeds)
    (List.length comparison.Guarded.guarded.Scenario.results)

let test_guarded_campaign_deterministic () =
  let again =
    Guarded.door_lock_comparison ~shrink:false ~seeds:comparison_seeds ()
  in
  checkb "replay is identical" true
    (comparison.Guarded.unguarded.Scenario.results
     = again.Guarded.unguarded.Scenario.results
    && comparison.Guarded.guarded.Scenario.results
       = again.Guarded.guarded.Scenario.results)

let test_guarded_recovery () =
  let c = Guarded.recovery_campaign ~shrink:false ~seeds:[ 1; 2; 3 ] () in
  checkb "health flag recovers after the outage" true
    (c.Scenario.failures = []);
  (* the reference point is the outage's actual last active tick *)
  checki "outage ends at t23" 23
    (match
       Fault.last_active_tick (Guarded.outage_faults 0)
         ~horizon:Robustness.lock_ticks
     with
     | Some t -> t
     | None -> -1)

let test_guarded_engine () =
  let guarded = Guarded.guarded_engine_campaign ~seeds:[ 1; 2 ] () in
  List.iter
    (fun (seed, vs) ->
      List.iter
        (fun (nm, v) ->
          checkb
            (Printf.sprintf "seed %d %s passes guarded" seed nm)
            true (v = Monitor.Pass))
        vs)
    guarded;
  (* contrast: the unguarded deployment misses deadlines under the same
     execution faults *)
  let unguarded = Robustness.engine_campaign ~seeds:[ 1 ] () in
  checkb "unguarded deployment fails" true
    (List.exists
       (fun (_, vs) -> List.exists (fun (_, v) -> Monitor.is_fail v) vs)
       unguarded)

(* ------------------------------------------------------------------ *)
(* bus_verdict fuzzing: the detectable-gap bound is never violated     *)
(* ------------------------------------------------------------------ *)

(* Drive the CAN fault model across ~100 random (seed, loss, burst)
   configurations and check that bus_verdict renders Pass exactly when
   every frame's longest consecutive-loss run stays within the
   profile's detectable gap — no silent wrap in either direction. *)
let fuzz_frames =
  [ Can_bus.frame ~name:"fa" ~can_id:1 ~payload_bytes:4 ~period:2_000 ();
    Can_bus.frame ~name:"fb" ~can_id:2 ~payload_bytes:2 ~period:5_000 ();
    Can_bus.frame ~name:"fc" ~can_id:3 ~payload_bytes:6 ~period:10_000 () ]

let fuzz_result ~seed ~loss ~burst_pct ~burst_len =
  let faults =
    Can_bus.fault_model ~seed ~max_retransmits:3
      ~burst_rate:(float_of_int burst_pct /. 100.)
      ~burst_len
      ~loss_rate:(float_of_int loss /. 100.)
      ()
  in
  Can_bus.simulate ~faults { Can_bus.bitrate = 500_000 } ~horizon:200_000
    fuzz_frames

let test_bus_verdict_consistent_prop =
  QCheck.Test.make ~name:"bus_verdict <-> max_consec_dropped bound" ~count:100
    QCheck.(
      quad (int_range 0 1_000_000) (int_range 0 100) (int_range 0 30)
        (int_range 1 6))
    (fun (seed, loss, burst_pct, burst_len) ->
      let r = fuzz_result ~seed ~loss ~burst_pct ~burst_len in
      let profile = E2e.profile ~data_id:0x11 ~counter_bits:2 () in
      let gap = E2e.max_detectable_gap profile in
      let within =
        List.for_all
          (fun (_, (s : Can_bus.frame_stats)) ->
            s.Can_bus.max_consec_dropped <= gap)
          r.Can_bus.per_frame
      in
      let _, v = E2e.bus_verdict profile ~bus:"b" r in
      (v = Monitor.Pass) = within)

let test_bus_verdict_wide_counter_prop =
  QCheck.Test.make
    ~name:"wide alive counter covers every fuzzed loss run" ~count:100
    QCheck.(triple (int_range 0 1_000_000) (int_range 0 80) (int_range 1 4))
    (fun (seed, loss, burst_len) ->
      let r = fuzz_result ~seed ~loss ~burst_pct:10 ~burst_len in
      (* 8-bit counter: a gap of 255 cannot occur in a 200 ms horizon
         with these periods, so the bound must never be violated *)
      let profile = E2e.profile ~data_id:0x11 ~counter_bits:8 () in
      let _, v = E2e.bus_verdict profile ~bus:"b" r in
      v = Monitor.Pass)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "automode-guard"
    [ ( "e2e",
        [ Alcotest.test_case "roundtrip" `Quick test_e2e_roundtrip;
          Alcotest.test_case "skip detection" `Quick test_e2e_detects_skips;
          Alcotest.test_case "repetition + tamper" `Quick
            test_e2e_repetition_and_tamper;
          Alcotest.test_case "capacity accounting" `Quick test_e2e_capacity;
          Alcotest.test_case "bus verdict gap" `Quick test_e2e_bus_verdict_gap ]
        @ qsuite
            [ test_bus_verdict_consistent_prop;
              test_bus_verdict_wide_counter_prop ] );
      ( "health",
        [ Alcotest.test_case "qualifier lifecycle" `Quick
            test_health_qualifier_lifecycle;
          Alcotest.test_case "policies" `Quick test_health_policies;
          Alcotest.test_case "startup substitute" `Quick
            test_health_startup_substitute;
          Alcotest.test_case "validation" `Quick test_health_config_validation ] );
      ( "degrade",
        [ Alcotest.test_case "mode sequence" `Quick test_degrade_mode_sequence;
          Alcotest.test_case "absent flag unhealthy" `Quick
            test_degrade_absent_flag_is_unhealthy ] );
      ( "watchdog",
        [ Alcotest.test_case "nominal identity" `Quick
            test_watchdog_nominal_identity;
          Alcotest.test_case "skip recovers schedule" `Quick
            test_watchdog_skip_recovers_schedule;
          Alcotest.test_case "restart burns budget" `Quick
            test_watchdog_restart_burns_budget;
          Alcotest.test_case "deterministic + validated" `Quick
            test_watchdog_deterministic_and_validated ] );
      ( "codegen",
        [ Alcotest.test_case "e2e attributes" `Quick
            test_codegen_e2e_attributes ] );
      ( "guarded-casestudy",
        [ Alcotest.test_case "transparency" `Quick test_guarded_transparency;
          Alcotest.test_case "compiled matches" `Quick
            test_guarded_compiled_matches;
          Alcotest.test_case "campaign contrast" `Quick
            test_guarded_campaign_contrast;
          Alcotest.test_case "campaign deterministic" `Quick
            test_guarded_campaign_deterministic;
          Alcotest.test_case "recovery" `Quick test_guarded_recovery;
          Alcotest.test_case "guarded engine" `Quick test_guarded_engine ] ) ]
