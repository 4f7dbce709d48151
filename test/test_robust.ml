(* Tests for the robustness subsystem: fault catalog determinism and
   semantics, trace monitors, shrinking, report reproducibility, and the
   OSEK-level fault models (CAN loss, execution-time jitter). *)

open Automode_core
open Automode_osek
open Automode_robust
open Automode_casestudy

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let present_i i = Value.Present (Value.Int i)
let present_f f = Value.Present (Value.Float f)

let msg_equal = Value.equal_message

(* ------------------------------------------------------------------ *)
(* Fault catalog                                                      *)
(* ------------------------------------------------------------------ *)

let ramp tick = [ ("x", present_i tick) ]

let flow_at fn flow tick =
  match List.assoc_opt flow (fn tick) with
  | Some m -> m
  | None -> Value.Absent

let test_fault_dropout () =
  let f = Fault.dropout ~flow:"x" (Fault.Window { from_tick = 2; until_tick = 4 }) in
  let fn = Fault.apply [ f ] ramp in
  checkb "t1 untouched" true (msg_equal (flow_at fn "x" 1) (present_i 1));
  checkb "t2 dropped" true (msg_equal (flow_at fn "x" 2) Value.Absent);
  checkb "t3 dropped" true (msg_equal (flow_at fn "x" 3) Value.Absent);
  checkb "t4 back" true (msg_equal (flow_at fn "x" 4) (present_i 4))

let test_fault_stuck_at_last () =
  let f =
    Fault.stuck_at_last ~flow:"x" (Fault.Window { from_tick = 3; until_tick = 6 })
  in
  let fn = Fault.apply [ f ] ramp in
  checkb "t3 holds t2" true (msg_equal (flow_at fn "x" 3) (present_i 2));
  checkb "t5 still holds t2" true (msg_equal (flow_at fn "x" 5) (present_i 2));
  checkb "t6 recovers" true (msg_equal (flow_at fn "x" 6) (present_i 6))

let test_fault_stuck_before_any_value () =
  let f =
    Fault.stuck_at_last ~flow:"x" (Fault.Window { from_tick = 0; until_tick = 2 })
  in
  (* the flow was never present before the fault: stuck emits absence *)
  let sparse tick = if tick >= 1 then [ ("x", present_i tick) ] else [] in
  let fn = Fault.apply [ f ] sparse in
  checkb "t0 absent" true (msg_equal (flow_at fn "x" 0) Value.Absent);
  checkb "t1 absent (no held value)" true
    (msg_equal (flow_at fn "x" 1) Value.Absent);
  checkb "t2 passes through" true (msg_equal (flow_at fn "x" 2) (present_i 2))

let test_fault_spike_on_silent_tick () =
  let f =
    Fault.spike ~flow:"ev" ~value:(Value.Bool true)
      (Fault.Window { from_tick = 5; until_tick = 6 })
  in
  let fn = Fault.apply [ f ] Sim.no_inputs in
  checkb "silent tick gains message" true
    (msg_equal (flow_at fn "ev" 5) (Value.Present (Value.Bool true)));
  checkb "other ticks silent" true (msg_equal (flow_at fn "ev" 4) Value.Absent)

let test_fault_delayed () =
  let f = Fault.delayed ~flow:"x" ~by:2 Fault.Always in
  let fn = Fault.apply [ f ] ramp in
  checkb "t0 absent" true (msg_equal (flow_at fn "x" 0) Value.Absent);
  checkb "t5 carries t3" true (msg_equal (flow_at fn "x" 5) (present_i 3))

let test_fault_noise_bounded () =
  let base tick = [ ("v", present_f (float_of_int tick)) ] in
  let f = Fault.noise ~seed:7 ~flow:"v" ~amplitude:2.5 Fault.Always in
  let fn = Fault.apply [ f ] base in
  for t = 0 to 20 do
    match flow_at fn "v" t with
    | Value.Present (Value.Float v) ->
      checkb "noise within amplitude" true
        (Float.abs (v -. float_of_int t) <= 2.5)
    | _ -> Alcotest.fail "noise dropped the message"
  done

let test_fault_query_order_independent () =
  (* stuck-at-last is history dependent: querying out of order must give
     the same stimulus as querying forward *)
  let faults =
    [ Fault.stuck_at_last ~flow:"x"
        (Fault.Random_ticks { probability = 0.5; seed = 11 });
      Fault.dropout ~flow:"x" (Fault.Random_ticks { probability = 0.2; seed = 12 }) ]
  in
  let forward = Fault.apply faults ramp in
  let backward = Fault.apply faults ramp in
  let fw = List.init 30 (fun t -> flow_at forward "x" t) in
  let bw = List.rev (List.rev_map (fun t -> flow_at backward "x" t)
                       (List.init 30 (fun t -> 29 - t))) in
  (* bw is now ticks 29..0 in reverse, i.e. 0..29 *)
  let bw = List.rev bw in
  checkb "query order irrelevant" true (List.for_all2 msg_equal fw bw)

(* Query-order independence, kind by kind: a fresh [apply] closure
   queried descending, shuffled or twice per tick gives the very
   messages an ascending one gives, and so does a second closure.  Covers
   every stateless kind alone and stuck-at-last under a stateless layer
   (its in-order memo below a layer that computes every query afresh). *)
let test_fault_stateless_query_orders () =
  let n = 40 in
  let random seed = Fault.Random_ticks { probability = 0.4; seed } in
  let base tick =
    [ ("x", present_f (float_of_int tick)); ("y", present_i (tick mod 3)) ]
  in
  let catalogs =
    [ ("dropout", [ Fault.dropout ~flow:"x" (random 1) ]);
      ("noise", [ Fault.noise ~seed:3 ~flow:"x" ~amplitude:1.5 (random 2) ]);
      ("spike", [ Fault.spike ~flow:"y" ~value:(Value.Int 9) (random 4) ]);
      ( "stuck under noise",
        [ Fault.stuck_at_last ~flow:"x" (random 5);
          Fault.noise ~seed:6 ~flow:"x" ~amplitude:0.5 (random 7) ] ) ]
  in
  let msgs_equal =
    List.equal (fun (f, m) (g, m') -> String.equal f g && msg_equal m m')
  in
  let query faults ticks =
    let fn = Fault.apply faults base in
    let got = Array.make n [] in
    List.iter (fun t -> got.(t) <- fn t) ticks;
    got
  in
  let ascending = List.init n Fun.id in
  let shuffled =
    let st = Random.State.make [| 17 |] in
    List.map snd
      (List.sort compare
         (List.map (fun t -> (Random.State.bits st, t)) ascending))
  in
  List.iter
    (fun (name, faults) ->
      let expected = query faults ascending in
      List.iter
        (fun (order, ticks) ->
          let got = query faults ticks in
          for t = 0 to n - 1 do
            checkb
              (Printf.sprintf "%s, %s: tick %d" name order t)
              true
              (msgs_equal expected.(t) got.(t))
          done)
        [ ("second closure", ascending);
          ("descending", List.rev ascending);
          ("shuffled", shuffled);
          ("repeated", List.concat_map (fun t -> [ t; t ]) ascending) ])
    catalogs

(* Twelve stacked delayed layers read their base stimulus at most once
   per tick: each layer memoizes the stimulus below it, which it reads at
   both [tick] and [tick - by] — without the memo, 2^12 reads per tick. *)
let test_fault_delayed_stack_memo () =
  let n = 30 in
  let reads = Array.make n 0 in
  let base tick =
    reads.(tick) <- reads.(tick) + 1;
    ramp tick
  in
  let fn =
    Fault.apply
      (List.init 12 (fun _ -> Fault.delayed ~flow:"x" ~by:1 Fault.Always))
      base
  in
  for t = n - 1 downto 0 do
    let expected = if t >= 12 then present_i (t - 12) else Value.Absent in
    checkb (Printf.sprintf "tick %d delayed by 12" t) true
      (msg_equal (flow_at fn "x" t) expected)
  done;
  for t = 0 to n - 1 do
    ignore (fn t)
  done;
  Array.iteri
    (fun t k -> checkb (Printf.sprintf "tick %d read %d times" t k) true (k <= 1))
    reads

(* [first_effect_tick] scans each fault only up to the running minimum;
   the result equals the minimum over full scans, on random catalogs of
   every activation kind and horizons including 0. *)
let test_first_effect_tick_random =
  let activation =
    QCheck.Gen.(
      oneof
        [ return Fault.Always;
          map2
            (fun from_tick len ->
              Fault.Window { from_tick; until_tick = from_tick + len })
            (int_range 0 60) (int_range 0 20);
          map (fun from_tick -> Fault.From { from_tick }) (int_range 0 60);
          map2
            (fun p seed -> Fault.Random_ticks { probability = p; seed })
            (oneof [ return 0.; return 1.; float_range 0. 0.2 ])
            (int_range 0 1000) ])
  in
  let fault =
    QCheck.Gen.(
      map3
        (fun kind flow act ->
          match kind with
          | 0 -> Fault.dropout ~flow act
          | 1 -> Fault.stuck_at_last ~flow act
          | 2 -> Fault.noise ~flow ~amplitude:1. act
          | 3 -> Fault.spike ~flow ~value:(Value.Int 1) act
          | _ -> Fault.delayed ~flow ~by:2 act)
        (int_range 0 4)
        (oneofl [ "a"; "b"; "FZG_V" ])
        activation)
  in
  QCheck.Test.make ~name:"first_effect_tick = min of full scans" ~count:500
    (QCheck.make
       ~print:(fun (faults, horizon) ->
         Printf.sprintf "horizon %d: %s" horizon
           (String.concat "; " (List.map Fault.describe faults)))
       QCheck.Gen.(
         pair (list_size (int_range 0 5) fault)
           (oneof [ return 0; int_range 0 80 ])))
    (fun (faults, horizon) ->
      Fault.first_effect_tick faults ~horizon
      = List.fold_left
          (fun acc f -> min acc (Fault.first_active_tick f ~horizon))
          horizon faults)

let test_fault_activation_deterministic () =
  let f =
    Fault.dropout ~flow:"x" (Fault.Random_ticks { probability = 0.3; seed = 5 })
  in
  let a = List.init 50 (fun t -> Fault.active f ~tick:t) in
  let b = List.init 50 (fun t -> Fault.active f ~tick:t) in
  checkb "same seed, same activation" true (a = b);
  checkb "some ticks active" true (List.exists Fun.id a);
  checkb "some ticks inactive" true (List.exists not a)

let test_fault_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "bad probability" true
    (raises (fun () ->
         Fault.dropout ~flow:"x" (Fault.Random_ticks { probability = 1.5; seed = 0 })));
  checkb "bad window" true
    (raises (fun () ->
         Fault.dropout ~flow:"x" (Fault.Window { from_tick = 4; until_tick = 2 })));
  checkb "negative delay" true
    (raises (fun () -> Fault.delayed ~flow:"x" ~by:(-1) Fault.Always));
  checkb "negative amplitude" true
    (raises (fun () -> Fault.noise ~flow:"x" ~amplitude:(-1.) Fault.Always))

(* ------------------------------------------------------------------ *)
(* Monitors                                                           *)
(* ------------------------------------------------------------------ *)

let trace_of rows =
  let flows = List.map fst (List.hd rows) in
  List.fold_left Trace.record (Trace.make ~flows) rows

let test_monitor_range () =
  let tr =
    trace_of
      [ [ ("v", present_f 10.) ]; [ ("v", Value.Absent) ];
        [ ("v", present_f 99.) ] ]
  in
  let m = Monitor.range ~name:"r" ~flow:"v" ~lo:0. ~hi:50. in
  (match Monitor.eval m tr with
   | Monitor.Fail { at_tick; _ } -> checki "fails at tick 2" 2 at_tick
   | Monitor.Pass -> Alcotest.fail "range should fail");
  let ok = trace_of [ [ ("v", present_f 10.) ]; [ ("v", Value.Absent) ] ] in
  checkb "absent ticks pass" true (Monitor.eval m ok = Monitor.Pass)

let test_monitor_bounded_response () =
  let m =
    Monitor.bounded_response ~name:"b" ~stimulus:"s" ~response:"r" ~within:2 ()
  in
  let answered =
    trace_of
      [ [ ("s", present_i 1); ("r", Value.Absent) ];
        [ ("s", Value.Absent); ("r", Value.Absent) ];
        [ ("s", Value.Absent); ("r", present_i 1) ];
        [ ("s", Value.Absent); ("r", Value.Absent) ] ]
  in
  checkb "answered within window" true (Monitor.eval m answered = Monitor.Pass);
  let unanswered =
    trace_of
      [ [ ("s", present_i 1); ("r", Value.Absent) ];
        [ ("s", Value.Absent); ("r", Value.Absent) ];
        [ ("s", Value.Absent); ("r", Value.Absent) ];
        [ ("s", Value.Absent); ("r", present_i 1) ] ]
  in
  (match Monitor.eval m unanswered with
   | Monitor.Fail { at_tick; _ } -> checki "fails at stimulus tick" 0 at_tick
   | Monitor.Pass -> Alcotest.fail "late answer should fail");
  (* obligation whose window runs past the end: inconclusive, not a fail *)
  let truncated =
    trace_of
      [ [ ("s", Value.Absent); ("r", Value.Absent) ];
        [ ("s", present_i 1); ("r", Value.Absent) ] ]
  in
  checkb "truncated window inconclusive" true
    (Monitor.eval m truncated = Monitor.Pass)

let test_monitor_mode_safety () =
  let mode m = ("mode", Value.Present (Value.Enum ("M", m))) in
  let flag b = ("f", Value.Present (Value.Bool b)) in
  let m =
    Monitor.mode_safety ~name:"ms" ~mode_flow:"mode" ~mode:"Danger"
      ~flag_flow:"f"
  in
  let bad = trace_of [ [ mode "Safe"; flag true ]; [ mode "Danger"; flag true ] ] in
  (match Monitor.eval m bad with
   | Monitor.Fail { at_tick; _ } -> checki "fails at tick 1" 1 at_tick
   | Monitor.Pass -> Alcotest.fail "mode safety should fail");
  let ok = trace_of [ [ mode "Danger"; flag false ]; [ mode "Safe"; flag true ] ] in
  checkb "no overlap passes" true (Monitor.eval m ok = Monitor.Pass)

let test_monitor_never_and_missing_flow () =
  let m =
    Monitor.never ~name:"n" ~flows:[ "a"; "b" ]
      ~pred:(fun row ->
        match List.assoc "a" row, List.assoc "b" row with
        | Value.Present x, Value.Present y -> Value.equal x y
        | _ -> false)
  in
  let tr = trace_of [ [ ("a", present_i 1); ("b", present_i 2) ];
                      [ ("a", present_i 3); ("b", present_i 3) ] ] in
  checkb "never fires" true (Monitor.is_fail (Monitor.eval m tr));
  let missing = trace_of [ [ ("a", present_i 1) ] ] in
  checkb "missing flow is a failure" true
    (Monitor.is_fail (Monitor.eval m missing))

(* ------------------------------------------------------------------ *)
(* Scenario sweep, shrinking, report                                  *)
(* ------------------------------------------------------------------ *)

let seeds = [ 1; 2; 3; 4; 5; 6 ]

let campaign = Robustness.door_lock_campaign ~seeds ()

let test_campaign_finds_violations () =
  checkb "at least one violation" true (campaign.Scenario.failures <> []);
  checki "one result per seed" (List.length seeds)
    (List.length campaign.Scenario.results)

let test_shrunk_counterexamples_replay () =
  let scenario = Robustness.door_lock_scenario in
  List.iter
    (fun (fl : Scenario.failure) ->
      match fl.Scenario.shrunk with
      | None -> Alcotest.fail "failure without shrunk counterexample"
      | Some o ->
        (* the shrunk scenario replays to a failure of the same monitor *)
        let verdicts =
          Scenario.run scenario ~faults:o.Shrink.faults ~ticks:o.Shrink.ticks
        in
        (match List.assoc fl.Scenario.fail_monitor verdicts with
         | Monitor.Fail { reason; _ } ->
           checks "same failure reason" o.Shrink.reason reason
         | Monitor.Pass -> Alcotest.fail "shrunk counterexample passes");
        (* minimality: the shrunk fault list is no larger than injected *)
        let injected =
          List.find
            (fun (r : Scenario.seed_result) ->
              r.Scenario.seed = fl.Scenario.fail_seed)
            campaign.Scenario.results
        in
        checkb "no more faults than injected" true
          (List.length o.Shrink.faults
          <= List.length injected.Scenario.injected);
        checkb "prefix no longer than horizon" true
          (o.Shrink.ticks <= campaign.Scenario.horizon))
    campaign.Scenario.failures

let test_report_byte_identical () =
  let again = Robustness.door_lock_campaign ~seeds () in
  checks "text report reproducible" (Report.to_text campaign)
    (Report.to_text again);
  checks "csv report reproducible" (Report.to_csv campaign)
    (Report.to_csv again)

let test_report_csv_shape () =
  let csv = Report.to_csv campaign in
  let lines = String.split_on_char '\n' (String.trim csv) in
  checki "header + one row per (seed, monitor)"
    (1 + (List.length seeds * List.length (Scenario.monitors
                                             Robustness.door_lock_scenario)))
    (List.length lines)

let test_scenario_nominal_passes () =
  (* no faults: every monitor passes on the nominal stimulus *)
  let verdicts =
    Scenario.run Robustness.door_lock_scenario ~faults:[]
      ~ticks:(Scenario.ticks Robustness.door_lock_scenario)
  in
  List.iter
    (fun (name, v) ->
      checkb (name ^ " passes nominally") true (v = Monitor.Pass))
    verdicts

let test_failing_seeds_distinct () =
  (* seed 1 spikes the voltage out of range for the whole run, so both
     range monitors fail on it; seed 2 runs nominally *)
  let spike = Fault.spike ~flow:"FZG_V" ~value:(Value.Float 100.) Fault.Always in
  let range name = Monitor.range ~name ~flow:"FZG_V" ~lo:5. ~hi:32. in
  let scn =
    Scenario.make ~name:"two-monitors" ~component:Door_lock.component
      ~ticks:10 ~inputs:Robustness.lock_stimulus
      ~faults:(fun seed -> if seed = 1 then [ spike ] else [])
      ~monitors:[ range "a"; range "b" ] ()
  in
  let campaign = Scenario.sweep ~shrink:false scn ~seeds:[ 1; 2 ] in
  checki "two failures" 2 (List.length campaign.Scenario.failures);
  Alcotest.(check (list int)) "one failing seed" [ 1 ]
    (Scenario.failing_seeds campaign)

(* ------------------------------------------------------------------ *)
(* CAN loss model                                                     *)
(* ------------------------------------------------------------------ *)

let config = { Can_bus.bitrate = 500_000 }

let frames =
  [ Can_bus.frame ~name:"a" ~can_id:1 ~payload_bytes:4 ~period:5_000 ();
    Can_bus.frame ~name:"b" ~can_id:2 ~payload_bytes:8 ~period:10_000 () ]

let test_can_loss_zero_is_nominal () =
  let plain = Can_bus.simulate config ~horizon:100_000 frames in
  let faulted =
    Can_bus.simulate
      ~faults:(Can_bus.fault_model ~loss_rate:0. ())
      config ~horizon:100_000 frames
  in
  checkb "loss 0.0 reproduces the fault-free run" true (plain = faulted)

let test_can_loss_produces_errors () =
  let r =
    Can_bus.simulate
      ~faults:(Can_bus.fault_model ~seed:3 ~loss_rate:0.3 ())
      config ~horizon:200_000 frames
  in
  let errors =
    List.fold_left
      (fun acc (_, (s : Can_bus.frame_stats)) -> acc + s.Can_bus.errors)
      0 r.Can_bus.per_frame
  in
  checkb "corruptions observed" true (errors > 0);
  (* retransmission recovered every instance at this load *)
  List.iter
    (fun (_, (s : Can_bus.frame_stats)) ->
      checki "all instances eventually sent" s.Can_bus.queued
        (s.Can_bus.sent + s.Can_bus.dropped))
    r.Can_bus.per_frame

let test_can_loss_one_drops_everything () =
  let r =
    Can_bus.simulate
      ~faults:(Can_bus.fault_model ~max_retransmits:2 ~loss_rate:1. ())
      config ~horizon:50_000 frames
  in
  List.iter
    (fun (n, (s : Can_bus.frame_stats)) ->
      checki (n ^ ": nothing delivered") 0 s.Can_bus.sent;
      checkb (n ^ ": drops observed") true (s.Can_bus.dropped > 0))
    r.Can_bus.per_frame

let test_can_loss_deterministic () =
  let go () =
    Can_bus.simulate
      ~faults:(Can_bus.fault_model ~seed:9 ~loss_rate:0.25 ())
      config ~horizon:150_000 frames
  in
  checkb "same seed, same result" true (go () = go ())

let test_can_background_load () =
  let bg = [ Can_bus.frame ~name:"bg" ~can_id:0 ~payload_bytes:8 ~period:1_000 () ] in
  let plain = Can_bus.simulate config ~horizon:100_000 frames in
  let loaded = Can_bus.simulate ~background:bg config ~horizon:100_000 frames in
  checkb "background raises load" true (loaded.Can_bus.load > plain.Can_bus.load);
  checkb "background frames not reported" true
    (not (List.mem_assoc "bg" loaded.Can_bus.per_frame))

(* ------------------------------------------------------------------ *)
(* Burst losses                                                       *)
(* ------------------------------------------------------------------ *)

let test_can_burst_zero_is_nominal () =
  let plain =
    Can_bus.simulate
      ~faults:(Can_bus.fault_model ~seed:3 ~loss_rate:0.2 ())
      config ~horizon:200_000 frames
  in
  let with_burst_off =
    Can_bus.simulate
      ~faults:
        (Can_bus.fault_model ~seed:3 ~loss_rate:0.2 ~burst_rate:0. ~burst_len:5 ())
      config ~horizon:200_000 frames
  in
  checkb "burst rate 0 reproduces the plain loss run" true
    (plain = with_burst_off)

let test_can_burst_consecutive_losses () =
  (* no retransmissions: every burst instance is really lost, so a burst
     of length 3 must show up as a consecutive-loss run of at least 3 *)
  let r =
    Can_bus.simulate
      ~faults:
        (Can_bus.fault_model ~seed:7 ~loss_rate:0. ~burst_rate:0.2
           ~burst_len:3 ~max_retransmits:0 ())
      config ~horizon:300_000 frames
  in
  let max_run =
    List.fold_left
      (fun acc (_, (s : Can_bus.frame_stats)) ->
        Stdlib.max acc s.Can_bus.max_consec_dropped)
      0 r.Can_bus.per_frame
  in
  checkb "a full burst is observed" true (max_run >= 3);
  let dropped =
    List.fold_left
      (fun acc (_, (s : Can_bus.frame_stats)) -> acc + s.Can_bus.dropped)
      0 r.Can_bus.per_frame
  in
  checkb "bursts drop instances" true (dropped > 0)

let test_can_burst_deterministic () =
  let go () =
    Can_bus.simulate
      ~faults:
        (Can_bus.fault_model ~seed:11 ~loss_rate:0.1 ~burst_rate:0.1
           ~burst_len:4 ())
      config ~horizon:200_000 frames
  in
  checkb "same seed, same bursts" true (go () = go ());
  checkb "burst parameters validated" true
    (try
       ignore (Can_bus.fault_model ~loss_rate:0. ~burst_rate:1.5 ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Monitor edge cases                                                 *)
(* ------------------------------------------------------------------ *)

let test_monitor_empty_trace () =
  let empty = Trace.make ~flows:[ "s"; "r"; "v" ] in
  checkb "range passes on an empty trace" true
    (Monitor.eval (Monitor.range ~name:"r" ~flow:"v" ~lo:0. ~hi:1.) empty
     = Monitor.Pass);
  checkb "bounded response passes on an empty trace" true
    (Monitor.eval
       (Monitor.bounded_response ~name:"b" ~stimulus:"s" ~response:"r"
          ~within:2 ())
       empty
     = Monitor.Pass);
  checkb "recovers is inconclusive on an empty trace" true
    (Monitor.eval
       (Monitor.recovers ~name:"rec" ~flow:"v" ~after:0 ~within:1 ())
       empty
     = Monitor.Pass)

let test_monitor_window_at_trace_end () =
  let m =
    Monitor.bounded_response ~name:"b" ~stimulus:"s" ~response:"r" ~within:2 ()
  in
  (* the window [t, t+2] ends exactly at the last tick: enforced *)
  let answered_last =
    trace_of
      [ [ ("s", present_i 1); ("r", Value.Absent) ];
        [ ("s", Value.Absent); ("r", Value.Absent) ];
        [ ("s", Value.Absent); ("r", present_i 1) ] ]
  in
  checkb "answer on the last tick counts" true
    (Monitor.eval m answered_last = Monitor.Pass);
  let unanswered_last =
    trace_of
      [ [ ("s", present_i 1); ("r", Value.Absent) ];
        [ ("s", Value.Absent); ("r", Value.Absent) ];
        [ ("s", Value.Absent); ("r", Value.Absent) ] ]
  in
  (match Monitor.eval m unanswered_last with
   | Monitor.Fail { at_tick; _ } ->
     checki "exact-fit window is enforced" 0 at_tick
   | Monitor.Pass -> Alcotest.fail "window ending at the last tick must fail");
  (* one tick later the window runs past the end: inconclusive *)
  let window_past_end =
    trace_of
      [ [ ("s", Value.Absent); ("r", Value.Absent) ];
        [ ("s", present_i 1); ("r", Value.Absent) ];
        [ ("s", Value.Absent); ("r", Value.Absent) ] ]
  in
  checkb "window past the end is inconclusive" true
    (Monitor.eval m window_past_end = Monitor.Pass)

let test_monitor_recovers () =
  let row b = [ ("ok", Value.Present (Value.Bool b)) ] in
  let m =
    Monitor.recovers ~name:"rec" ~flow:"ok"
      ~pred:(fun v -> Value.equal v (Value.Bool true))
      ~after:2 ~within:3 ()
  in
  (* recovers at t4 <= 2+3 and stays good: pass *)
  let good =
    trace_of [ row true; row false; row false; row false; row true; row true ]
  in
  checkb "stable recovery passes" true (Monitor.eval m good = Monitor.Pass);
  (* comes back but relapses after the deadline: fail *)
  let relapse =
    trace_of [ row true; row false; row false; row true; row true; row false ]
  in
  checkb "relapse fails" true (Monitor.is_fail (Monitor.eval m relapse));
  (* never comes back: fail at the deadline *)
  let never_back =
    trace_of
      [ row true; row false; row false; row false; row false; row false ]
  in
  (match Monitor.eval m never_back with
   | Monitor.Fail { at_tick; _ } -> checki "fails at the deadline" 5 at_tick
   | Monitor.Pass -> Alcotest.fail "no recovery must fail");
  (* deadline beyond the trace end: inconclusive *)
  let short = trace_of [ row true; row false; row false ] in
  checkb "short trace inconclusive" true (Monitor.eval m short = Monitor.Pass);
  (* missing flow is a failure *)
  let missing = trace_of [ [ ("other", present_i 1) ] ] in
  checkb "missing flow fails" true (Monitor.is_fail (Monitor.eval m missing));
  checkb "within validated" true
    (try
       ignore (Monitor.recovers ~name:"x" ~flow:"f" ~after:0 ~within:0 ());
       false
     with Invalid_argument _ -> true)

let test_fault_last_active_tick () =
  let faults =
    [ Fault.dropout ~flow:"a" (Fault.Window { from_tick = 2; until_tick = 5 });
      Fault.spike ~flow:"b" ~value:(Value.Int 1)
        (Fault.Window { from_tick = 7; until_tick = 9 }) ]
  in
  checkb "latest active tick across faults" true
    (Fault.last_active_tick faults ~horizon:20 = Some 8);
  checkb "horizon clips the window" true
    (Fault.last_active_tick faults ~horizon:8 = Some 7);
  checkb "no faults, no tick" true
    (Fault.last_active_tick [] ~horizon:20 = None);
  (* deterministic for seeded activations too *)
  let seeded =
    [ Fault.dropout ~flow:"a"
        (Fault.Random_ticks { probability = 0.3; seed = 5 }) ]
  in
  checkb "seeded activation deterministic" true
    (Fault.last_active_tick seeded ~horizon:50
    = Fault.last_active_tick seeded ~horizon:50)

(* ------------------------------------------------------------------ *)
(* Shrink determinism                                                 *)
(* ------------------------------------------------------------------ *)

let test_shrink_deterministic () =
  let shrunk_sig (c : Scenario.campaign) =
    List.map
      (fun (f : Scenario.failure) ->
        ( f.Scenario.fail_seed,
          f.Scenario.fail_monitor,
          match f.Scenario.shrunk with
          | None -> (-1, -1, "")
          | Some o ->
            (List.length o.Shrink.faults, o.Shrink.ticks, o.Shrink.reason) ))
      c.Scenario.failures
  in
  let seeds = [ 3; 4 ] in
  let a = Robustness.door_lock_campaign ~shrink:true ~seeds () in
  let b = Robustness.door_lock_campaign ~shrink:true ~seeds () in
  checkb "found failures to shrink" true (a.Scenario.failures <> []);
  checkb "same seeds shrink to the same counterexamples" true
    (shrunk_sig a = shrunk_sig b)

(* Sequence-level shrinking (lib/proptest): the same failing
   (seed, iteration), shrunk twice and across the interpreted and
   indexed engines, pins to byte-identical minimal traces. *)
module PB = Automode_proptest.Builder

let sequence_shrunk_signature spec ~seed ~iteration =
  let case = PB.run_case spec ~seed ~iteration in
  PB.case_failures spec case
  |> List.map (fun (f : PB.failure) ->
         f.PB.fail_monitor ^ "|"
         ^
         match f.PB.shrunk with
         | None -> "unshrunk"
         | Some o ->
           String.concat ";"
             (List.map Automode_proptest.Op.describe o.PB.shrunk_ops)
           ^ "|"
           ^ String.concat ";" (List.map Fault.describe o.PB.shrunk_faults)
           ^ "|" ^ string_of_int o.PB.shrunk_ticks ^ "|" ^ o.PB.shrunk_reason)
  |> String.concat "\n"

let test_sequence_shrink_deterministic () =
  let spec = Propcase.unguarded in
  let a = sequence_shrunk_signature spec ~seed:4 ~iteration:1 in
  checkb "the pinned (seed, iteration) fails" true (a <> "");
  checks "shrinking the same case twice is byte-identical" a
    (sequence_shrunk_signature spec ~seed:4 ~iteration:1);
  checks "interpreted engine shrinks to the same minimal trace" a
    (sequence_shrunk_signature
       (PB.with_engine PB.Interpreted spec)
       ~seed:4 ~iteration:1)

(* ------------------------------------------------------------------ *)
(* The one shrinker                                                   *)
(* ------------------------------------------------------------------ *)

(* Reference fault-list shrinker: a greedy drop-one fixpoint (retry from
   the first fault after every removal), then a bisection of the
   horizon.  [Shrink.minimize] must match it, outcome and run count. *)
let drop_one_minimize ~run ~monitor ~faults ~ticks =
  let fails ~faults ~ticks =
    match List.assoc_opt monitor (run ~faults ~ticks) with
    | Some (Monitor.Fail { reason; _ }) -> Some reason
    | Some Monitor.Pass | None -> None
  in
  match fails ~faults ~ticks with
  | None -> None
  | Some reason0 ->
    let rec drop_from i faults reason =
      if i >= List.length faults then (faults, reason)
      else
        let candidate = List.filteri (fun j _ -> j <> i) faults in
        match fails ~faults:candidate ~ticks with
        | Some reason' -> drop_from 0 candidate reason'
        | None -> drop_from (i + 1) faults reason
    in
    let faults, reason = drop_from 0 faults reason0 in
    let rec prefix lo hi reason =
      if hi - lo <= 1 then (hi, reason)
      else
        let mid = (lo + hi) / 2 in
        match fails ~faults ~ticks:mid with
        | Some reason' -> prefix lo mid reason'
        | None -> prefix mid hi reason
    in
    let ticks, reason = prefix 0 ticks reason in
    Some { Shrink.faults; ticks; reason }

(* A random verdict over (list, horizon): [Needs] fails once every
   needed element is present and the horizon reaches [t0] (monotone);
   [Avoids] fails while none is present (anti-monotone in the list);
   [Hashed] fails on a pseudo-random third of all candidates.  The
   reason names the candidate, so a shrinker that threads the reason of
   the wrong replay is caught. *)
type verdict_fn =
  | Needs of int list * int
  | Avoids of int list * int
  | Hashed of int

let verdict_reason fn items ticks =
  let holds =
    match fn with
    | Needs (need, t0) ->
      ticks >= t0 && List.for_all (fun x -> List.mem x items) need
    | Avoids (need, t0) ->
      ticks >= t0 && not (List.exists (fun x -> List.mem x items) need)
    | Hashed salt -> Hashtbl.hash (salt, items, ticks) mod 3 = 0
  in
  if holds then
    Some
      (Printf.sprintf "[%s]@%d"
         (String.concat "," (List.map string_of_int items))
         ticks)
  else None

let verdict_run fn calls ~faults ~ticks =
  incr calls;
  match verdict_reason fn faults ticks with
  | Some reason -> [ ("m", Monitor.Fail { at_tick = 0; reason }) ]
  | None -> [ ("m", Monitor.Pass) ]

let shrink_input =
  let elem = QCheck.Gen.int_range 0 5 in
  QCheck.make
    ~print:(fun (items, ticks, fn) ->
      let ints l = String.concat "," (List.map string_of_int l) in
      Printf.sprintf "[%s] ticks %d, %s" (ints items) ticks
        (match fn with
         | Needs (l, t0) -> Printf.sprintf "needs [%s] from t%d" (ints l) t0
         | Avoids (l, t0) -> Printf.sprintf "avoids [%s] from t%d" (ints l) t0
         | Hashed salt -> Printf.sprintf "hashed %d" salt))
    QCheck.Gen.(
      triple
        (list_size (int_range 0 8) elem)
        (int_range 0 40)
        (oneof
           [ map2 (fun l t0 -> Needs (l, t0))
               (list_size (int_range 0 3) elem) (int_range 0 40);
             map2 (fun l t0 -> Avoids (l, t0))
               (list_size (int_range 1 3) elem) (int_range 0 40);
             map (fun salt -> Hashed salt) int ]))

let test_minimize_is_drop_one =
  QCheck.Test.make ~name:"minimize = drop-one fixpoint, run for run"
    ~count:2000 shrink_input (fun (faults, ticks, fn) ->
      let calls = ref 0 and oracle_calls = ref 0 in
      let got =
        Shrink.minimize ~run:(verdict_run fn calls) ~monitor:"m" ~faults
          ~ticks
      in
      got
      = drop_one_minimize ~run:(verdict_run fn oracle_calls) ~monitor:"m"
          ~faults ~ticks
      && !calls = !oracle_calls)

let rec is_subsequence xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' ->
    if x = y then is_subsequence xs' ys' else is_subsequence xs ys'

let test_ddmin_one_minimal =
  QCheck.Test.make ~name:"sequence ddmin: failing, ordered, 1-minimal"
    ~count:2000 shrink_input (fun (ops, ticks, fn) ->
      let fails ops = verdict_reason fn ops ticks in
      match Shrink.ddmin ~fails ops with
      | None -> fails ops = None
      | Some (min, reason) ->
        fails min = Some reason
        && is_subsequence min ops
        && List.for_all
             (fun i -> fails (List.filteri (fun j _ -> j <> i) min) = None)
             (List.init (List.length min) Fun.id))

(* A base fault sits under every generated sequence: a failure that
   needs one operation but not the base fault shrinks to that operation,
   and the fault-subset pass drops the base fault. *)
let test_base_fault_dropped () =
  let module Op = Automode_proptest.Op in
  let lock value at =
    Op.command ~flow:"T4S"
      ~value:(Dtype.enum_value Door_lock.lock_status value)
      ~at ()
  in
  let spike = Op.command ~flow:"FZG_V" ~value:(Value.Float 40.) ~at:6 () in
  let base =
    Fault.dropout ~flow:"T4S" (Fault.Window { from_tick = 0; until_tick = 30 })
  in
  let spec =
    PB.spec ~name:"base-fault" ~component:Door_lock.component
      ~ticks:Robustness.lock_ticks ~inputs:Robustness.lock_stimulus ()
    |> PB.with_base_faults (fun _ -> [ base ])
    |> PB.with_monitors
         [ Monitor.range ~name:"v-range" ~flow:"FZG_V" ~lo:5. ~hi:32. ]
  in
  let ops = [ lock "Locked" 2; spike; lock "Unlocked" 9 ] in
  let case =
    { PB.seed = 1; iteration = 1; ops;
      verdicts = PB.run_ops spec ~seed:1 ~ops ~ticks:(PB.ticks spec) }
  in
  let describe faults = String.concat "; " (List.map Fault.describe faults) in
  checks "the base fault runs under every case"
    (describe (base :: Op.compile spike))
    (describe (PB.faults_of spec ~seed:1 ~ops:[ spike ]));
  match PB.case_failures spec case with
  | [ { PB.shrunk = Some o; _ } ] ->
    checks "shrinks to the spike" (Op.describe spike)
      (String.concat "; " (List.map Op.describe o.PB.shrunk_ops));
    checks "the fault pass drops the base fault"
      (describe (Op.compile spike))
      (describe o.PB.shrunk_faults);
    checki "the horizon ends at the spike" 7 o.PB.shrunk_ticks
  | _ -> Alcotest.fail "expected one shrunk failure"

(* The counters of [f ()], as --metrics reports them. *)
let counters_of f =
  let m = Automode_obs.Metrics.create () in
  Automode_obs.Probe.with_sink (Automode_obs.Probe.standard m) (fun () ->
      ignore (f ()));
  fun key -> Option.value ~default:0 (Automode_obs.Metrics.value m key)

(* The ticks [f ()] simulates: its sim.ticks. *)
let sim_ticks_of f = counters_of f "sim.ticks"

(* Work gate: the shrink phase of [proptest --target unguarded --seeds 8]
   simulates exactly this many ticks (sim.ticks with shrinking minus
   sim.ticks without).  It was 7,215 when Builder ran its own ddmin, a
   drop-one pass over ddmin's already 1-minimal result and a replay of
   the bisected case before the fault pass.  One shrinker needed 6,280
   while it still replayed each failing case to find the reason its
   sweep verdict already holds; starting from that verdict it needs
   5,720. *)
let test_shrink_phase_ticks () =
  let sim_ticks ~shrink =
    sim_ticks_of (fun () ->
        PB.run ~shrink Propcase.unguarded ~seeds:(List.init 8 succ))
  in
  let sweep = sim_ticks ~shrink:false in
  checki "sweep ticks" 546 sweep;
  checki "shrink-phase ticks" 5720 (sim_ticks ~shrink:true - sweep)

(* Work gates on whole shrinking runs, sweep included.
   [robustness --seeds 8] simulated 4,085 ticks while each shrink first
   replayed its failing case (11 failures x 40 ticks); it needs 3,645.
   [litmus --bound 2] simulated 9,300 ticks while every pin was also
   re-certified by ddmin (each candidate re-run on both twins) and its
   horizon pin replayed the full scenario; it needs 8,580. *)
let test_campaign_ticks () =
  checki "robustness --seeds 8" 3645
    (sim_ticks_of (fun () ->
         Robustness.door_lock_campaign ~seeds:(List.init 8 succ) ()));
  checki "litmus --bound 2" 8580
    (sim_ticks_of (fun () -> Litmus_lock.synthesize ()))

(* Work gates on [litmus --bound 3], looped and at [--instances 64]:
   what the executor simulates and how many scenarios synthesis
   classifies.  Classifying each trace inside the executor, instead of
   holding both twins' traces until the end, left every count as it
   was: streaming changed what is held, not what is simulated. *)
let test_litmus_work () =
  List.iter
    (fun (instances, ticks, shared, replayed) ->
      let count =
        counters_of (fun () ->
            Litmus_lock.synthesize
              ~config:
                { Automode_litmus.Synth.default_config with
                  Automode_litmus.Synth.bound = 3 }
              ~instances ())
      in
      let pin key want =
        checki (Printf.sprintf "instances %d: %s" instances key) want
          (count key)
      in
      pin "sim.ticks" ticks;
      pin "campaign.prefix.shared_ticks" shared;
      pin "campaign.prefix.replayed_ticks" replayed;
      pin "litmus.scenarios.evaluated" 575;
      pin "litmus.scenarios.unique" 295)
    [ (1, 41_284, 5_492, 40_556); (64, 42_448, 4_316, 41_720) ]

(* Cross-commit fixture: the reports of [proptest --target unguarded
   --seeds 8] and [robustness --seeds 8], shrinking on, as committed
   under suite/shrink/.  Any change to shrinking must keep these bytes
   or re-pin them deliberately, by re-running those two commands with
   [--out suite/shrink/<file>]. *)
let test_shrink_fixtures () =
  let fixture name =
    In_channel.with_open_bin ("../suite/shrink/" ^ name) In_channel.input_all
  in
  let seeds = List.init 8 succ in
  checks "proptest --target unguarded --seeds 8"
    (fixture "proptest-unguarded-seeds8.txt")
    (PB.to_text (PB.run Propcase.unguarded ~seeds));
  checks "robustness --seeds 8"
    (fixture "robustness-seeds8.txt")
    (Report.to_text (Robustness.door_lock_campaign ~seeds ()))

(* ------------------------------------------------------------------ *)
(* Scheduler execution-time faults                                    *)
(* ------------------------------------------------------------------ *)

let tasks =
  [ Osek_task.make ~name:"fast" ~period:10_000 ~wcet:2_000 ~priority:0 ();
    Osek_task.make ~name:"slow" ~period:50_000 ~wcet:10_000 ~priority:1 () ]

let test_exec_nominal_is_plain () =
  let plain = Scheduler.simulate ~horizon:500_000 tasks in
  let faulted =
    Scheduler.simulate ~exec:(Scheduler.exec_model ()) ~horizon:500_000 tasks
  in
  checkb "default exec model reproduces the fault-free schedule" true
    (plain = faulted)

let test_exec_jitter_keeps_schedulable () =
  let r =
    Scheduler.simulate
      ~exec:(Scheduler.exec_model ~jitter_frac:0.3 ~seed:2 ())
      ~horizon:500_000 tasks
  in
  checkb "jitter only shortens demand" true r.Scheduler.schedulable;
  checkb "busy time reduced" true
    (r.Scheduler.busy_time
    < (Scheduler.simulate ~horizon:500_000 tasks).Scheduler.busy_time)

let test_exec_overruns_cause_misses () =
  let r =
    Scheduler.simulate
      ~exec:(Scheduler.exec_model ~overrun_rate:0.5 ~overrun_factor:8. ~seed:4 ())
      ~horizon:500_000 tasks
  in
  let overruns =
    List.fold_left
      (fun acc (_, (s : Scheduler.task_stats)) -> acc + s.Scheduler.overruns)
      0 r.Scheduler.per_task
  in
  checkb "overruns observed" true (overruns > 0);
  checkb "schedule broken" true (not r.Scheduler.schedulable)

let test_exec_deterministic () =
  let go () =
    Scheduler.simulate
      ~exec:(Scheduler.exec_model ~jitter_frac:0.2 ~overrun_rate:0.1 ~seed:6 ())
      ~horizon:300_000 tasks
  in
  checkb "same seed, same schedule" true (go () = go ())

(* ------------------------------------------------------------------ *)
(* Deployment-level injection                                         *)
(* ------------------------------------------------------------------ *)

let test_inject_net_nominal () =
  let r =
    Inject_net.simulate (Inject_net.nominal Engine_ccd.deployment)
      ~horizon:100_000
  in
  List.iter
    (fun (name, v) -> checkb (name ^ " nominal") true (v = Monitor.Pass))
    (Inject_net.verdicts r);
  (* the nominal wrapper reproduces the plain scheduler run *)
  List.iter
    (fun (ecu, tasks) ->
      let plain = Scheduler.simulate ~horizon:100_000 tasks in
      checkb (ecu ^ " matches plain simulate") true
        (plain = List.assoc ecu r.Inject_net.ecus))
    (Automode_la.Deploy.task_sets Engine_ccd.deployment)

let test_inject_net_engine_campaign () =
  let results = Robustness.engine_campaign ~seeds:[ 1; 2; 3; 4 ] () in
  checki "one entry per seed" 4 (List.length results);
  let any_fail =
    List.exists
      (fun (_, vs) -> List.exists (fun (_, v) -> Monitor.is_fail v) vs)
    results
  in
  checkb "faults bite at default rates" true any_fail;
  checkb "campaign deterministic" true
    (results = Robustness.engine_campaign ~seeds:[ 1; 2; 3; 4 ] ())

(* ------------------------------------------------------------------ *)
(* ECU crash / reset faults (From activation)                          *)
(* ------------------------------------------------------------------ *)

let test_fault_from_activation () =
  let f = Fault.dropout ~flow:"x" (Fault.From { from_tick = 5 }) in
  checkb "inactive before" false (Fault.active f ~tick:4);
  checkb "active at the crash tick" true (Fault.active f ~tick:5);
  checkb "permanent" true (Fault.active f ~tick:5000);
  checkb "negative from rejected" true
    (try
       ignore (Fault.dropout ~flow:"x" (Fault.From { from_tick = -1 }));
       false
     with Invalid_argument _ -> true)

let test_fault_ecu_crash () =
  let fs = Fault.ecu_crash ~flows:[ "sensor"; "hb" ] ~at_tick:7 in
  checki "one dropout per flow" 2 (List.length fs);
  List.iter
    (fun f ->
      checkb "silent from the crash on" true
        (Fault.active f ~tick:7 && Fault.active f ~tick:100);
      checkb "alive before" false (Fault.active f ~tick:6))
    fs;
  checkb "empty flow list rejected" true
    (try ignore (Fault.ecu_crash ~flows:[] ~at_tick:0); false
     with Invalid_argument _ -> true)

let test_fault_ecu_reset () =
  let fs = Fault.ecu_reset ~flows:[ "sensor" ] ~at_tick:10 ~down_ticks:4 in
  let f = List.hd fs in
  checkb "down during the outage" true
    (Fault.active f ~tick:10 && Fault.active f ~tick:13);
  checkb "rejoins afterwards" false (Fault.active f ~tick:14);
  checkb "non-positive outage rejected" true
    (try
       ignore (Fault.ecu_reset ~flows:[ "s" ] ~at_tick:0 ~down_ticks:0);
       false
     with Invalid_argument _ -> true)

(* A crash drops the flow's messages mid-run: stimulus present every
   tick, faulty stream absent exactly from the crash tick. *)
let test_fault_crash_applies () =
  let stimulus tick = [ ("s", Value.Present (Value.Int tick)) ] in
  let faulty =
    Fault.apply (Fault.ecu_crash ~flows:[ "s" ] ~at_tick:3) stimulus
  in
  List.iter
    (fun tick ->
      let v = List.assoc "s" (faulty tick) in
      if tick < 3 then
        checkb "delivered before the crash" true
          (v = Value.Present (Value.Int tick))
      else checkb "silent after the crash" true (v = Value.Absent))
    [ 0; 1; 2; 3; 4; 9 ]

(* ------------------------------------------------------------------ *)
(* Domain-parallel sweeps                                              *)
(* ------------------------------------------------------------------ *)

let test_parallel_map_order () =
  let items = List.init 37 (fun i -> i) in
  let f x = x * x in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "map order, %d domains" domains)
        (List.map f items)
        (Parallel.map ~domains f items))
    [ 1; 2; 4; 8 ]

exception Boom of int

let test_parallel_map_raises () =
  checkb "earliest failure re-raised" true
    (try
       ignore
         (Parallel.map ~domains:4
            (fun i -> if i mod 3 = 0 then raise (Boom i) else i)
            (List.init 10 (fun i -> i + 1)));
       false
     with Boom i -> i = 3)

(* The tentpole's determinism claim: a parallel sweep renders the very
   same report bytes as the serial one, at any domain count. *)
let test_parallel_campaign_byte_identical () =
  let seeds = List.init 8 (fun i -> i + 1) in
  let serial = Robustness.door_lock_campaign ~shrink:false ~seeds () in
  List.iter
    (fun domains ->
      let par =
        Robustness.door_lock_campaign ~shrink:false ~domains ~seeds ()
      in
      checks
        (Printf.sprintf "text report identical, %d domains" domains)
        (Report.to_text serial) (Report.to_text par);
      checks
        (Printf.sprintf "csv report identical, %d domains" domains)
        (Report.to_csv serial) (Report.to_csv par))
    [ 2; 4 ]

let test_parallel_engine_campaign_identical () =
  let seeds = [ 1; 2; 3 ] in
  let serial = Robustness.engine_campaign ~horizon:50_000 ~seeds () in
  checkb "engine campaign identical at 2 domains" true
    (serial = Robustness.engine_campaign ~horizon:50_000 ~domains:2 ~seeds ())

(* ------------------------------------------------------------------ *)
(* Instance-batched sweeps                                             *)
(* ------------------------------------------------------------------ *)

(* The batched engine is purely a throughput knob: a sweep at any
   (domains, instances) combination renders the very same report bytes
   as the looped serial sweep, and [~instances:1] is exactly today's
   looped path. *)
let test_batched_campaign_byte_identical () =
  let seeds = List.init 6 (fun i -> i + 1) in
  let scn = Robustness.door_lock_scenario in
  let looped = Scenario.sweep ~shrink:false scn ~seeds in
  List.iter
    (fun (domains, instances) ->
      let batched =
        Scenario.sweep ~shrink:false ~domains ~instances scn ~seeds
      in
      checks
        (Printf.sprintf "text report identical, %d domains x %d instances"
           domains instances)
        (Report.to_text looped) (Report.to_text batched);
      checks
        (Printf.sprintf "csv report identical, %d domains x %d instances"
           domains instances)
        (Report.to_csv looped) (Report.to_csv batched))
    [ (1, 1); (1, 3); (1, 64); (4, 4) ]

(* Shrinking stays serial after a batched sweep: shrunk counterexamples
   must also match the looped run exactly. *)
let test_batched_sweep_shrinks_identically () =
  let seeds = [ 1; 2; 3 ] in
  let scn = Robustness.door_lock_scenario in
  let looped = Scenario.sweep scn ~seeds in
  let batched = Scenario.sweep ~instances:8 scn ~seeds in
  checks "shrunk report identical" (Report.to_text looped)
    (Report.to_text batched)

(* ------------------------------------------------------------------ *)
(* Prefix-shared sweeps                                                *)
(* ------------------------------------------------------------------ *)

(* Prefix sharing (on by default) must be invisible in the report
   bytes at every (domains, instances) combination, including the 4x4
   cross product. *)
let test_prefix_sweep_byte_identical () =
  let seeds = List.init 8 (fun i -> i + 1) in
  let scn = Robustness.door_lock_scenario in
  let looped = Scenario.sweep ~shrink:false ~prefix_share:false scn ~seeds in
  List.iter
    (fun (domains, instances) ->
      let shared =
        Scenario.sweep ~shrink:false ~domains ~instances scn ~seeds
      in
      checks
        (Printf.sprintf "text identical, %d domains x %d instances"
           domains instances)
        (Report.to_text looped) (Report.to_text shared);
      checks
        (Printf.sprintf "csv identical, %d domains x %d instances"
           domains instances)
        (Report.to_csv looped) (Report.to_csv shared))
    [ (1, 1); (2, 1); (1, 4); (4, 4) ]

(* Shrinking after a prefix-shared sweep replays serially: shrunk
   counterexamples match the looped run exactly too. *)
let test_prefix_sweep_shrinks_identically () =
  let seeds = [ 1; 2; 3 ] in
  let scn = Robustness.door_lock_scenario in
  checks "shrunk report identical"
    (Report.to_text (Scenario.sweep ~prefix_share:false scn ~seeds))
    (Report.to_text (Scenario.sweep scn ~seeds))

(* Degenerate catalog: every fault activates at tick 0, so there is no
   shareable prefix — the executor falls back to full runs and the
   report is still byte-identical, looped and batched. *)
let test_prefix_degenerate_tick0 () =
  let scn =
    Scenario.make ~name:"tick0-dropout" ~component:Door_lock.component
      ~ticks:24 ~inputs:Door_lock.crash_scenario
      ~faults:(fun seed ->
        [ Fault.dropout ~flow:"FZG_V"
            (Fault.Window { from_tick = 0; until_tick = 4 + (seed mod 5) }) ])
      ~monitors:
        [ Monitor.range ~name:"volt-range" ~flow:"FZG_V" ~lo:0. ~hi:48. ]
      ()
  in
  let seeds = List.init 6 (fun i -> i) in
  let looped =
    Report.to_text
      (Scenario.sweep ~shrink:false ~prefix_share:false scn ~seeds)
  in
  checks "tick-0 catalog identical" looped
    (Report.to_text (Scenario.sweep ~shrink:false scn ~seeds));
  checks "tick-0 catalog identical, batched" looped
    (Report.to_text (Scenario.sweep ~shrink:false ~instances:4 scn ~seeds))

(* Direct executor check: traces come back in case order and equal the
   per-case interpreted run; the probe counters fire only under a
   sink. *)
let test_prefix_traces_and_counters () =
  let ix = Sim.index Door_lock.component in
  let ticks = 40 in
  let base = Door_lock.crash_scenario in
  let case seed =
    let faults =
      [ Fault.dropout ~flow:"FZG_V"
          (Fault.Window { from_tick = 20 + (seed mod 3); until_tick = 40 }) ]
    in
    (faults, Fault.apply faults base, Clock.no_events)
  in
  let cases = Array.init 9 case in
  let m = Automode_obs.Metrics.create () in
  let shared =
    Automode_obs.Probe.with_sink (Automode_obs.Probe.standard m) (fun () ->
        Prefix.traces ~ix ~ticks ~base_inputs:base
          ~base_schedule:Clock.no_events cases)
  in
  Array.iteri
    (fun i (_, inputs, _) ->
      checkb
        (Printf.sprintf "case %d equals interpreted" i)
        true
        (Trace.equal shared.(i) (Sim.run ~ticks ~inputs Door_lock.component)))
    cases;
  let v k = Option.value ~default:0 (Automode_obs.Metrics.value m k) in
  checki "three distinct fork ticks" 3 (v "campaign.prefix.groups");
  checki "every case forked" 9 (v "campaign.prefix.forks");
  checkb "shared ticks counted" true (v "campaign.prefix.shared_ticks" > 0);
  ignore
    (Prefix.traces ~ix ~ticks ~base_inputs:base
       ~base_schedule:Clock.no_events cases);
  checki "no sink, counters unchanged" 9 (v "campaign.prefix.forks")

(* The executor under every plan: a catalog mixing tick-0 and late
   forks (fork ticks 0, 12, 20, 27), 10 cases — not a multiple of the
   batch width 3.  Every trace equals its case's interpreted run; the
   serial prefix and snapshot counters are pinned by hand.

   At width 1, each case resumes at its own fork tick: forks 0,12,20,27
   repeat over cases 0..9, so three cases fork at 0 and 12 and two at
   20 and 27.  The trunk snapshots 12, 20, 27 (groups 3, capture 3);
   7 cases resume (forks 7, restore 7); shared = 3*12 + 2*20 + 2*27 =
   130; replayed = 27 (trunk) + 3*40 + 3*28 + 2*20 + 2*13 = 297.

   At width 3, the stably sorted forks 0,0,0 | 12,12,12 | 20,20,27 | 27
   are cut into chunks of 3 that resume at their smallest fork: 0
   (reset, no snapshot), 12, 20 and 27.  The trunk snapshots 12, 20,
   27 (groups 3, capture 3); 3 + 3 + 1 = 7 cases resume (forks 7,
   restore 7); shared = 3*12 + 3*20 + 27 = 123; replayed = 27 (trunk)
   + 3*40 + 3*28 + 3*20 + 13 = 304. *)
let test_prefix_executor_plans () =
  let ix = Sim.index Door_lock.component in
  let ticks = 40 and base = Door_lock.crash_scenario in
  let cases =
    Array.init 10 (fun i ->
        let from_tick = List.nth [ 0; 12; 20; 27 ] (i mod 4) in
        let faults =
          [ Fault.dropout ~flow:"FZG_V"
              (Fault.Window { from_tick; until_tick = from_tick + 5 + i }) ]
        in
        (faults, Fault.apply faults base, Clock.no_events))
  in
  let keys =
    List.map (( ^ ) "campaign.prefix.")
      [ "groups"; "forks"; "shared_ticks"; "replayed_ticks" ]
    @ [ "sim.snapshot.capture"; "sim.snapshot.restore" ]
  in
  let pinned = function
    | true, 1 -> List.map Option.some [ 3; 7; 130; 297; 3; 7 ]
    | true, _ -> List.map Option.some [ 3; 7; 123; 304; 3; 7 ]
    | false, _ -> List.map (fun _ -> None) keys
  in
  List.iter
    (fun (share, instances, domains) ->
      let plan = Printf.sprintf "share %b x%d j%d" share instances domains in
      let m = Automode_obs.Metrics.create () in
      let traces =
        Automode_obs.Probe.with_sink (Automode_obs.Probe.standard m)
          (fun () ->
            Prefix.traces ~domains ~instances ~share ~ix ~ticks
              ~base_inputs:base ~base_schedule:Clock.no_events cases)
      in
      Array.iteri
        (fun i (_, inputs, _) ->
          checkb (Printf.sprintf "%s: case %d equals interpreted" plan i) true
            (Trace.equal traces.(i)
               (Sim.run ~ticks ~inputs Door_lock.component)))
        cases;
      if domains = 1 then
        Alcotest.(check (list (option int)))
          (plan ^ ": counters") (pinned (share, instances))
          (List.map (Automode_obs.Metrics.value m) keys))
    (List.concat_map
       (fun (share, instances) ->
         [ (share, instances, 1); (share, instances, 2) ])
       [ (true, 1); (true, 3); (false, 1); (false, 3) ])

(* 40 cases with 40 distinct late fork ticks: case i drops FZG_V from
   tick 100 + i to the horizon. *)
let late_dropout_cases ~ticks =
  Array.init 40 (fun i ->
      let faults =
        [ Fault.dropout ~flow:"FZG_V"
            (Fault.Window { from_tick = 100 + i; until_tick = ticks }) ]
      in
      (faults, Fault.apply faults Door_lock.crash_scenario, Clock.no_events))

(* The batched plan runs at the width asked for: 40 cases with 40
   distinct late fork ticks (case i drops FZG_V from tick 100 + i) are
   sorted into chunks of 16 that resume at ticks 100, 116 and 132, so
   the trunk is captured ceil(40 / 16) = 3 times, not once per fork
   tick.  Every trace still equals its case's interpreted run. *)
let test_prefix_full_width () =
  let ix = Sim.index Door_lock.component in
  let ticks = 160 and base = Door_lock.crash_scenario in
  let cases = late_dropout_cases ~ticks in
  List.iter
    (fun domains ->
      let m = Automode_obs.Metrics.create () in
      let traces =
        Automode_obs.Probe.with_sink (Automode_obs.Probe.standard m)
          (fun () ->
            Prefix.traces ~domains ~instances:16 ~ix ~ticks ~base_inputs:base
              ~base_schedule:Clock.no_events cases)
      in
      Array.iteri
        (fun i (_, inputs, _) ->
          checkb
            (Printf.sprintf "j%d: case %d equals interpreted" domains i)
            true
            (Trace.equal traces.(i)
               (Sim.run ~ticks ~inputs Door_lock.component)))
        cases;
      let v k = Automode_obs.Metrics.value m k in
      Alcotest.(check (option int))
        (Printf.sprintf "j%d: one trunk capture per chunk" domains)
        (Some 3) (v "sim.snapshot.capture");
      Alcotest.(check (option int))
        (Printf.sprintf "j%d: every case restored" domains)
        (Some 40) (v "sim.snapshot.restore"))
    [ 1; 2 ]

(* The streaming contract of [Prefix.map], on the late-dropout catalog
   above under sharing x instances x domains: [f] runs exactly once per
   case, the results come back in case order, every trace handed to [f]
   equals its case's interpreted run, and no trace outlives its
   consumer.  Inside [f], after a full major collection, a weak pointer
   to the trace of an earlier chunk must be empty — at width 16, the
   chunks follow case order on this catalog (fork ticks rise with the
   case, or are all 0 without sharing, and the sort is stable); at
   width 1, every earlier case is its own chunk, but only cases that
   finished on the calling domain count, since the other domain may
   still be consuming its own. *)
let test_prefix_map_streams () =
  let ix = Sim.index Door_lock.component in
  let ticks = 160 in
  let cases = late_dropout_cases ~ticks in
  let n = Array.length cases in
  List.iter
    (fun (share, instances, domains) ->
      let plan = Printf.sprintf "share %b x%d j%d" share instances domains in
      let calls = Array.make n 0 in
      let domain_of = Array.make n (-1) in
      let weak = Weak.create n in
      let lock = Mutex.create () in
      let earlier i k =
        if instances > 1 then k / instances < i / instances
        else k < i && domain_of.(k) = domain_of.(i)
      in
      let f i tr =
        calls.(i) <- calls.(i) + 1;
        domain_of.(i) <- (Domain.self () :> int);
        let _, inputs, _ = cases.(i) in
        let same = Trace.equal tr (Sim.run ~ticks ~inputs Door_lock.component) in
        Gc.full_major ();
        let held =
          Mutex.protect lock (fun () ->
              Weak.set weak i (Some tr);
              List.filter
                (fun k -> earlier i k && Weak.check weak k)
                (List.init n Fun.id))
        in
        (i, same, held)
      in
      let results =
        Prefix.map ~domains ~instances ~share ~ix ~ticks
          ~base_inputs:Door_lock.crash_scenario ~base_schedule:Clock.no_events
          cases ~f
      in
      Array.iteri
        (fun i (j, same, held) ->
          checki (Printf.sprintf "%s: case %d called once" plan i) 1 calls.(i);
          checki (Printf.sprintf "%s: result %d in case order" plan i) i j;
          checkb (Printf.sprintf "%s: case %d equals interpreted" plan i)
            true same;
          Alcotest.(check (list int))
            (Printf.sprintf "%s: case %d, no earlier trace held" plan i)
            [] held)
        results)
    (List.concat_map
       (fun share ->
         List.concat_map
           (fun instances -> [ (share, instances, 1); (share, instances, 2) ])
           [ 1; 16 ])
       [ true; false ])

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "automode-robust"
    [ ( "fault",
        [ Alcotest.test_case "dropout" `Quick test_fault_dropout;
          Alcotest.test_case "stuck-at-last" `Quick test_fault_stuck_at_last;
          Alcotest.test_case "stuck without history" `Quick
            test_fault_stuck_before_any_value;
          Alcotest.test_case "spike on silent tick" `Quick
            test_fault_spike_on_silent_tick;
          Alcotest.test_case "delayed" `Quick test_fault_delayed;
          Alcotest.test_case "noise bounded" `Quick test_fault_noise_bounded;
          Alcotest.test_case "query order independent" `Quick
            test_fault_query_order_independent;
          Alcotest.test_case "stateless kinds, any query order" `Quick
            test_fault_stateless_query_orders;
          Alcotest.test_case "delayed stack reads base once" `Quick
            test_fault_delayed_stack_memo;
          Alcotest.test_case "activation deterministic" `Quick
            test_fault_activation_deterministic;
          Alcotest.test_case "validation" `Quick test_fault_validation;
          Alcotest.test_case "From activation" `Quick
            test_fault_from_activation;
          Alcotest.test_case "ecu crash" `Quick test_fault_ecu_crash;
          Alcotest.test_case "ecu reset" `Quick test_fault_ecu_reset;
          Alcotest.test_case "crash applies to stimulus" `Quick
            test_fault_crash_applies ]
        @ qsuite [ test_first_effect_tick_random ] );
      ( "monitor",
        [ Alcotest.test_case "range" `Quick test_monitor_range;
          Alcotest.test_case "bounded response" `Quick
            test_monitor_bounded_response;
          Alcotest.test_case "mode safety" `Quick test_monitor_mode_safety;
          Alcotest.test_case "never + missing flow" `Quick
            test_monitor_never_and_missing_flow;
          Alcotest.test_case "empty trace" `Quick test_monitor_empty_trace;
          Alcotest.test_case "window at trace end" `Quick
            test_monitor_window_at_trace_end;
          Alcotest.test_case "recovers" `Quick test_monitor_recovers;
          Alcotest.test_case "last active tick" `Quick
            test_fault_last_active_tick ] );
      ( "campaign",
        [ Alcotest.test_case "nominal passes" `Quick
            test_scenario_nominal_passes;
          Alcotest.test_case "finds violations" `Quick
            test_campaign_finds_violations;
          Alcotest.test_case "shrunk counterexamples replay" `Quick
            test_shrunk_counterexamples_replay;
          Alcotest.test_case "report byte-identical" `Quick
            test_report_byte_identical;
          Alcotest.test_case "csv shape" `Quick test_report_csv_shape;
          Alcotest.test_case "shrink deterministic" `Quick
            test_shrink_deterministic;
          Alcotest.test_case "sequence shrink deterministic" `Quick
            test_sequence_shrink_deterministic;
          Alcotest.test_case "failing seeds counted once" `Quick
            test_failing_seeds_distinct ] );
      ( "shrink",
        [ Alcotest.test_case "base fault dropped" `Quick
            test_base_fault_dropped;
          Alcotest.test_case "shrink-phase ticks" `Quick
            test_shrink_phase_ticks;
          Alcotest.test_case "campaign ticks" `Quick test_campaign_ticks;
          Alcotest.test_case "litmus k=3 work" `Quick test_litmus_work;
          Alcotest.test_case "suite/shrink reports" `Quick
            test_shrink_fixtures ]
        @ qsuite [ test_minimize_is_drop_one; test_ddmin_one_minimal ] );
      ( "can-faults",
        [ Alcotest.test_case "loss 0 nominal" `Quick
            test_can_loss_zero_is_nominal;
          Alcotest.test_case "loss produces errors" `Quick
            test_can_loss_produces_errors;
          Alcotest.test_case "loss 1 drops all" `Quick
            test_can_loss_one_drops_everything;
          Alcotest.test_case "deterministic" `Quick test_can_loss_deterministic;
          Alcotest.test_case "background load" `Quick test_can_background_load;
          Alcotest.test_case "burst rate 0 nominal" `Quick
            test_can_burst_zero_is_nominal;
          Alcotest.test_case "burst consecutive losses" `Quick
            test_can_burst_consecutive_losses;
          Alcotest.test_case "burst deterministic" `Quick
            test_can_burst_deterministic ] );
      ( "exec-faults",
        [ Alcotest.test_case "nominal is plain" `Quick test_exec_nominal_is_plain;
          Alcotest.test_case "jitter schedulable" `Quick
            test_exec_jitter_keeps_schedulable;
          Alcotest.test_case "overruns cause misses" `Quick
            test_exec_overruns_cause_misses;
          Alcotest.test_case "deterministic" `Quick test_exec_deterministic ] );
      ( "inject-net",
        [ Alcotest.test_case "nominal" `Quick test_inject_net_nominal;
          Alcotest.test_case "engine campaign" `Quick
            test_inject_net_engine_campaign ] );
      ( "parallel",
        [ Alcotest.test_case "map order" `Quick test_parallel_map_order;
          Alcotest.test_case "map raises" `Quick test_parallel_map_raises;
          Alcotest.test_case "batched campaign byte-identical" `Quick
            test_batched_campaign_byte_identical;
          Alcotest.test_case "batched sweep shrinks identically" `Quick
            test_batched_sweep_shrinks_identically;
          Alcotest.test_case "campaign byte-identical" `Quick
            test_parallel_campaign_byte_identical;
          Alcotest.test_case "engine campaign identical" `Quick
            test_parallel_engine_campaign_identical ] );
      ( "prefix",
        [ Alcotest.test_case "sweep byte-identical" `Quick
            test_prefix_sweep_byte_identical;
          Alcotest.test_case "sweep shrinks identically" `Quick
            test_prefix_sweep_shrinks_identically;
          Alcotest.test_case "degenerate tick-0 catalog" `Quick
            test_prefix_degenerate_tick0;
          Alcotest.test_case "traces and counters" `Quick
            test_prefix_traces_and_counters;
          Alcotest.test_case "executor plans" `Quick
            test_prefix_executor_plans;
          Alcotest.test_case "full-width chunks" `Quick
            test_prefix_full_width;
          Alcotest.test_case "map streams traces into f" `Quick
            test_prefix_map_streams ] ) ]
