(* Tests for the OSEK substrate: task model, fixed-priority preemptive
   scheduler, data-integrity IPC, CAN bus, communication matrices. *)

open Automode_osek

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let task = Osek_task.make

(* ------------------------------------------------------------------ *)
(* Osek_task                                                          *)
(* ------------------------------------------------------------------ *)

let test_task_validation () =
  checkb "bad period" true
    (try ignore (task ~name:"t" ~period:0 ~wcet:1 ~priority:0 ()); false
     with Invalid_argument _ -> true);
  checkb "bad wcet" true
    (try ignore (task ~name:"t" ~period:10 ~wcet:0 ~priority:0 ()); false
     with Invalid_argument _ -> true);
  let t = task ~name:"t" ~period:10 ~wcet:2 ~priority:1 () in
  checki "deadline defaults to period" 10 t.Osek_task.deadline

let test_task_utilization () =
  let ts =
    [ task ~name:"a" ~period:10 ~wcet:2 ~priority:0 ();
      task ~name:"b" ~period:20 ~wcet:5 ~priority:1 () ]
  in
  checkb "total utilization" true
    (Float.abs (Osek_task.total_utilization ts -. 0.45) < 1e-9)

let test_rate_monotonic () =
  let ts =
    [ task ~name:"slow" ~period:100 ~wcet:1 ~priority:0 ();
      task ~name:"fast" ~period:10 ~wcet:1 ~priority:1 () ]
  in
  match Osek_task.rate_monotonic_priorities ts with
  | [ first; second ] ->
    Alcotest.(check string) "fast first" "fast" first.Osek_task.task_name;
    checkb "priorities ordered" true
      (first.Osek_task.priority < second.Osek_task.priority)
  | _ -> Alcotest.fail "two tasks expected"

(* ------------------------------------------------------------------ *)
(* Scheduler                                                          *)
(* ------------------------------------------------------------------ *)

let test_sched_single_task () =
  let ts = [ task ~name:"t" ~period:10 ~wcet:3 ~priority:0 () ] in
  let r = Scheduler.simulate ~horizon:100 ts in
  let s = List.assoc "t" r.Scheduler.per_task in
  checki "activations" 10 s.Scheduler.activations;
  checki "completions" 10 s.Scheduler.completions;
  checki "max response" 3 s.Scheduler.max_response;
  checki "busy" 30 r.Scheduler.busy_time;
  checkb "schedulable" true r.Scheduler.schedulable

let test_sched_preemption () =
  (* low-priority long task preempted by high-priority short one *)
  let ts =
    [ task ~name:"hi" ~period:10 ~wcet:2 ~priority:0 ();
      task ~name:"lo" ~period:40 ~wcet:15 ~priority:1 () ]
  in
  let r = Scheduler.simulate ~horizon:400 ts in
  let lo = List.assoc "lo" r.Scheduler.per_task in
  checkb "lo preempted" true (lo.Scheduler.preemptions > 0);
  checkb "still schedulable" true r.Scheduler.schedulable;
  (* response of lo includes interference: 15 + 2*2 = 19 *)
  checki "lo worst response" 19 lo.Scheduler.max_response

let test_sched_deadline_miss () =
  let ts =
    [ task ~name:"a" ~period:10 ~wcet:6 ~priority:0 ();
      task ~name:"b" ~period:10 ~wcet:6 ~priority:1 () ]
  in
  let r = Scheduler.simulate ~horizon:100 ts in
  checkb "overload misses deadlines" false r.Scheduler.schedulable

let test_sched_non_preemptable () =
  let ts =
    [ task ~name:"hi" ~period:10 ~wcet:2 ~priority:0 ();
      (* lo runs 2..11 without preemption, blocking hi's release at t=10 *)
      task ~name:"lo" ~period:50 ~wcet:9 ~priority:1 ~preemptable:false () ]
  in
  let r = Scheduler.simulate ~horizon:500 ts in
  let lo = List.assoc "lo" r.Scheduler.per_task in
  checki "np task never preempted" 0 lo.Scheduler.preemptions;
  (* hi can be blocked by lo's non-preemptable section *)
  let hi = List.assoc "hi" r.Scheduler.per_task in
  checkb "hi suffers blocking" true (hi.Scheduler.max_response > 2)

let test_sched_duplicate_priorities_rejected () =
  let ts =
    [ task ~name:"a" ~period:10 ~wcet:1 ~priority:0 ();
      task ~name:"b" ~period:10 ~wcet:1 ~priority:0 () ]
  in
  checkb "rejected" true
    (try ignore (Scheduler.simulate ~horizon:10 ts); false
     with Invalid_argument _ -> true)

let test_sched_offsets () =
  let ts =
    [ task ~name:"a" ~period:10 ~offset:5 ~wcet:1 ~priority:0 () ]
  in
  let r = Scheduler.simulate ~horizon:20 ts in
  let s = List.assoc "a" r.Scheduler.per_task in
  checki "offset respected" 2 s.Scheduler.activations

let test_rta_matches_simulation () =
  let ts =
    [ task ~name:"hi" ~period:10 ~wcet:2 ~priority:0 ();
      task ~name:"mid" ~period:20 ~wcet:4 ~priority:1 ();
      task ~name:"lo" ~period:50 ~wcet:10 ~priority:2 () ]
  in
  let rta = Scheduler.response_time_analysis ts in
  let r = Scheduler.simulate ~horizon:1000 ts in
  List.iter
    (fun (name, bound) ->
      match bound with
      | None -> Alcotest.failf "task %s deemed unschedulable" name
      | Some bound ->
        let s = List.assoc name r.Scheduler.per_task in
        checkb
          (Printf.sprintf "%s: observed %d <= RTA %d" name
             s.Scheduler.max_response bound)
          true
          (s.Scheduler.max_response <= bound))
    rta

let test_rta_unschedulable () =
  let ts =
    [ task ~name:"a" ~period:10 ~wcet:6 ~priority:0 ();
      task ~name:"b" ~period:10 ~wcet:6 ~priority:1 () ]
  in
  match Scheduler.response_time_analysis ts with
  | [ (_, Some _); (_, None) ] -> ()
  | _ -> Alcotest.fail "b must be unschedulable"

let test_rta_property_sim_bounded =
  QCheck.Test.make ~name:"RTA upper-bounds simulated responses" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 4)
        (pair (int_range 1 5) (int_range 1 10)))
    (fun specs ->
      let ts =
        List.mapi
          (fun i (wcet, factor) ->
            task
              ~name:(Printf.sprintf "t%d" i)
              ~period:(10 * factor) ~wcet ~priority:i ())
          specs
      in
      let rta = Scheduler.response_time_analysis ts in
      if List.exists (fun (_, b) -> b = None) rta then
        QCheck.assume_fail ()
      else
        let r = Scheduler.simulate ~horizon:2000 ts in
        List.for_all
          (fun (name, bound) ->
            match bound with
            | Some b ->
              (List.assoc name r.Scheduler.per_task).Scheduler.max_response
              <= b
            | None -> false)
          rta)

let test_sporadic_release_times () =
  let t =
    task ~name:"ev" ~period:100 ~wcet:5 ~priority:0
      ~arrival:(Osek_task.Sporadic { seed = 7 }) ()
  in
  let rs = Osek_task.release_times t ~horizon:5_000 in
  checkb "some releases" true (List.length rs > 3);
  (* minimum inter-arrival honored *)
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b - a) :: gaps rest
    | [ _ ] | [] -> []
  in
  checkb "MIT >= period" true (List.for_all (fun g -> g >= 100) (gaps rs));
  (* deterministic *)
  checkb "deterministic" true
    (rs = Osek_task.release_times t ~horizon:5_000);
  (* fewer activations than a periodic task of the same period *)
  let p = task ~name:"p" ~period:100 ~wcet:5 ~priority:0 () in
  checkb "sparser than periodic" true
    (List.length rs < List.length (Osek_task.release_times p ~horizon:5_000))

let test_sporadic_simulation () =
  let ts =
    [ task ~name:"ctrl" ~period:10 ~wcet:2 ~priority:0 ();
      task ~name:"event" ~period:50 ~wcet:8 ~priority:1
        ~arrival:(Osek_task.Sporadic { seed = 3 }) () ]
  in
  let r = Scheduler.simulate ~horizon:10_000 ts in
  let ev = List.assoc "event" r.Scheduler.per_task in
  checkb "event task ran" true (ev.Scheduler.completions > 10);
  checkb "schedulable" true r.Scheduler.schedulable;
  (* the sporadic task set is bounded by the periodic worst case: the RTA
     with MIT-as-period upper-bounds the observed responses *)
  List.iter
    (fun (name, bound) ->
      match bound with
      | Some b ->
        checkb (name ^ " bounded") true
          ((List.assoc name r.Scheduler.per_task).Scheduler.max_response <= b)
      | None -> Alcotest.fail "schedulable by construction")
    (Scheduler.response_time_analysis ts)

let test_timeline_coverage () =
  let ts =
    [ task ~name:"hi" ~period:10 ~wcet:2 ~priority:0 ();
      task ~name:"lo" ~period:20 ~wcet:5 ~priority:1 () ]
  in
  let segs = Scheduler.timeline ~horizon:40 ts in
  (* segments tile [0, 40) exactly *)
  let rec tiles at = function
    | [] -> at
    | (s : Scheduler.segment) :: rest ->
      checki "contiguous" at s.seg_start;
      checkb "non-empty" true (s.seg_end > s.seg_start);
      tiles s.seg_end rest
  in
  checki "covers horizon" 40 (tiles 0 segs);
  (* busy time in the timeline matches the simulation *)
  let busy =
    List.fold_left
      (fun acc (s : Scheduler.segment) ->
        if String.equal s.seg_task "idle" then acc
        else acc + (s.seg_end - s.seg_start))
      0 segs
  in
  checki "busy matches sim" (Scheduler.simulate ~horizon:40 ts).Scheduler.busy_time busy;
  checkb "empty at horizon 0" true (Scheduler.timeline ~horizon:0 ts = [])

let test_timeline_preemption_order () =
  (* hi runs first at every release; lo (wcet 12) fills the gaps and
     completes at t=16, after which the CPU idles between hi jobs *)
  let ts =
    [ task ~name:"hi" ~period:10 ~wcet:2 ~priority:0 ();
      task ~name:"lo" ~period:40 ~wcet:12 ~priority:1 () ]
  in
  let segs = Scheduler.timeline ~horizon:24 ts in
  let names = List.map (fun (s : Scheduler.segment) -> s.seg_task) segs in
  Alcotest.(check (list string)) "interleaving"
    [ "hi"; "lo"; "hi"; "lo"; "idle"; "hi"; "idle" ] names

let test_timeline_render () =
  let ts = [ task ~name:"t" ~period:10 ~wcet:5 ~priority:0 () ] in
  let segs = Scheduler.timeline ~horizon:20 ts in
  let text = Format.asprintf "%a" (Scheduler.pp_timeline ~width:20) segs in
  checkb "has lane" true (String.length text > 20);
  checkb "has marks" true (String.contains text '#')

(* ------------------------------------------------------------------ *)
(* Ipc                                                                *)
(* ------------------------------------------------------------------ *)

let test_ipc_snapshot_consistency () =
  let store = Ipc.create [ ("a", 0); ("b", 0) ] in
  let store = Ipc.publish store [ ("a", 1); ("b", 10) ] in
  let snap = Ipc.copy_in store [ "a"; "b" ] in
  (* a later publication does not affect the snapshot *)
  let store' = Ipc.publish store [ ("a", 2); ("b", 20) ] in
  checki "snapshot a" 1 (Ipc.read snap "a");
  checki "snapshot b" 10 (Ipc.read snap "b");
  checkb "consistent" true (Ipc.consistent snap ~grouped:[ "a"; "b" ]);
  checki "direct read sees latest" 2 (Ipc.read_direct store' "a")

let test_ipc_torn_read_detectable () =
  let store = Ipc.create [ ("a", 0); ("b", 0) ] in
  let store = Ipc.publish store [ ("a", 1); ("b", 10) ] in
  (* simulate a preemption between reading a and b: read a from the old
     store and b from a newer one -> versions differ *)
  let store' = Ipc.publish store [ ("a", 2); ("b", 20) ] in
  let torn =
    Ipc.merge (Ipc.copy_in store [ "a" ]) (Ipc.copy_in store' [ "b" ])
  in
  checkb "torn read detected" false (Ipc.consistent torn ~grouped:[ "a"; "b" ])

let test_ipc_partial_publish () =
  let store = Ipc.create [ ("a", 0); ("b", 0) ] in
  let store = Ipc.publish store [ ("a", 5) ] in
  checki "a updated" 5 (Ipc.read_direct store "a");
  checki "b unchanged" 0 (Ipc.read_direct store "b");
  checkb "versions differ" true (Ipc.version store "a" <> Ipc.version store "b")

let test_ipc_duplicate_rejected () =
  checkb "duplicate names" true
    (try ignore (Ipc.create [ ("a", 0); ("a", 1) ]); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Can_bus                                                            *)
(* ------------------------------------------------------------------ *)

let cfg = { Can_bus.bitrate = 500_000 }

let test_can_tx_time () =
  let f = Can_bus.frame ~name:"f" ~can_id:1 ~payload_bytes:8 ~period:10_000 () in
  (* 8 bytes: 47+64=111 bits + (34+64-1)/4=24 stuff = 135 bits at 500kbit -> 270us *)
  checki "tx time" 270 (Can_bus.tx_time cfg f)

let test_can_arbitration () =
  (* two frames queued together: lower id transmits first *)
  let hi = Can_bus.frame ~name:"hi" ~can_id:1 ~payload_bytes:1 ~period:1_000 () in
  let lo = Can_bus.frame ~name:"lo" ~can_id:9 ~payload_bytes:1 ~period:1_000 () in
  let r = Can_bus.simulate cfg ~horizon:1_000 [ lo; hi ] in
  let s_hi = List.assoc "hi" r.Can_bus.per_frame in
  let s_lo = List.assoc "lo" r.Can_bus.per_frame in
  checkb "hi latency smaller" true
    (s_hi.Can_bus.max_latency < s_lo.Can_bus.max_latency)

let test_can_load () =
  let f = Can_bus.frame ~name:"f" ~can_id:1 ~payload_bytes:8 ~period:1_000 () in
  let r = Can_bus.simulate cfg ~horizon:100_000 [ f ] in
  checkb "load about 27%" true (Float.abs (r.Can_bus.load -. 0.27) < 0.01)

let test_can_supersede () =
  (* a frame whose period is shorter than its own transmission time gets
     superseded instances *)
  let hog = Can_bus.frame ~name:"hog" ~can_id:0 ~payload_bytes:8 ~period:100 () in
  let starved = Can_bus.frame ~name:"starved" ~can_id:5 ~payload_bytes:1 ~period:100 () in
  let r = Can_bus.simulate cfg ~horizon:10_000 [ hog; starved ] in
  let s = List.assoc "starved" r.Can_bus.per_frame in
  checkb "instances dropped" true (s.Can_bus.dropped > 0)

let test_can_validation () =
  checkb "payload range" true
    (try ignore (Can_bus.frame ~name:"f" ~can_id:1 ~payload_bytes:9 ~period:1 ()); false
     with Invalid_argument _ -> true);
  let f1 = Can_bus.frame ~name:"a" ~can_id:1 ~payload_bytes:1 ~period:100 () in
  let f2 = Can_bus.frame ~name:"b" ~can_id:1 ~payload_bytes:1 ~period:100 () in
  checkb "duplicate ids" true
    (try ignore (Can_bus.simulate cfg ~horizon:100 [ f1; f2 ]); false
     with Invalid_argument _ -> true)

let test_can_rta_bounds_sim () =
  let frames =
    [ Can_bus.frame ~name:"f1" ~can_id:1 ~payload_bytes:2 ~period:5_000 ();
      Can_bus.frame ~name:"f2" ~can_id:2 ~payload_bytes:4 ~period:10_000 ();
      Can_bus.frame ~name:"f3" ~can_id:3 ~payload_bytes:8 ~period:20_000 () ]
  in
  let rta = Can_bus.response_time_analysis cfg frames in
  let r = Can_bus.simulate cfg ~horizon:200_000 frames in
  List.iter
    (fun (name, bound) ->
      match bound with
      | None -> Alcotest.failf "frame %s unschedulable" name
      | Some b ->
        let s = List.assoc name r.Can_bus.per_frame in
        checkb
          (Printf.sprintf "%s observed %d <= %d" name s.Can_bus.max_latency b)
          true
          (s.Can_bus.max_latency <= b))
    rta

(* ------------------------------------------------------------------ *)
(* Comm_matrix                                                        *)
(* ------------------------------------------------------------------ *)

let test_matrix_check () =
  let module CM = Comm_matrix in
  let ok =
    { CM.entries =
        [ CM.entry ~signal:"s1" ~sender:"A" ~receivers:[ "B" ] () ] }
  in
  Alcotest.(check (list string)) "clean" [] (CM.check ok);
  let dup =
    { CM.entries =
        [ CM.entry ~signal:"s1" ~sender:"A" ~receivers:[ "B" ] ();
          CM.entry ~signal:"s1" ~sender:"B" ~receivers:[ "A" ] () ] }
  in
  checkb "duplicate caught" true (CM.check dup <> []);
  let self =
    { CM.entries =
        [ CM.entry ~signal:"s2" ~sender:"A" ~receivers:[ "A"; "B" ] () ] }
  in
  checkb "self-receive caught" true (CM.check self <> [])

let test_matrix_generator () =
  let m = Comm_matrix.generate_body_electronics ~seed:1 ~nodes:10 ~signals:50 in
  checki "signal count" 50 (List.length m.Comm_matrix.entries);
  Alcotest.(check (list string)) "well-formed" [] (Comm_matrix.check m);
  checkb "nodes bounded" true (List.length (Comm_matrix.nodes m) <= 10);
  (* deterministic *)
  let m2 = Comm_matrix.generate_body_electronics ~seed:1 ~nodes:10 ~signals:50 in
  checkb "deterministic" true (m = m2);
  let m3 = Comm_matrix.generate_body_electronics ~seed:2 ~nodes:10 ~signals:50 in
  checkb "seed-sensitive" true (m <> m3)

let test_matrix_queries () =
  let module CM = Comm_matrix in
  let m =
    { CM.entries =
        [ CM.entry ~signal:"s1" ~sender:"A" ~receivers:[ "B"; "C" ] ();
          CM.entry ~signal:"s2" ~sender:"B" ~receivers:[ "A" ] () ] }
  in
  checki "between A and B" 1 (List.length (CM.signals_between m ~src:"A" ~dst:"B"));
  checki "dependency pairs" 3 (List.length (CM.dependency_pairs m));
  Alcotest.(check (list string)) "nodes" [ "A"; "B"; "C" ] (CM.nodes m)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Scheduler watchdog Restart accounting                               *)
(* ------------------------------------------------------------------ *)

(* Regression pin for the Restart recovery's budget accounting: a
   restarted job costs exactly the budget burn (budget_factor * wcet)
   plus one fresh attempt at plain WCET — the budget must not be
   charged again for the restarted attempt.  overrun_rate 1 makes every
   job overrun, so the numbers are exact. *)
let test_watchdog_restart_accounting () =
  let t = task ~name:"t" ~period:100 ~wcet:10 ~priority:0 () in
  let exec =
    Scheduler.exec_model ~overrun_rate:1.0 ~overrun_factor:5.0 ~seed:1 ()
  in
  let r =
    Scheduler.simulate ~exec
      ~watchdog:(Scheduler.watchdog ~budget_factor:2.0 Scheduler.Restart)
      ~horizon:1000 [ t ]
  in
  let st = List.assoc "t" r.Scheduler.per_task in
  checki "every job fires the watchdog" 10 st.Scheduler.watchdog_fires;
  checki "every job still completes" 10 st.Scheduler.completions;
  (* burn = 2 * wcet, restart = wcet: 30 us per job, not 40 *)
  checki "response = burn + one fresh attempt" 30 st.Scheduler.max_response;
  checki "no double budget accounting in busy time" 300 r.Scheduler.busy_time;
  checkb "restart keeps the set schedulable" true r.Scheduler.schedulable;
  (* contrast: Skip sheds the job after the same burn *)
  let r2 =
    Scheduler.simulate ~exec
      ~watchdog:(Scheduler.watchdog ~budget_factor:2.0 Scheduler.Skip)
      ~horizon:1000 [ t ]
  in
  let st2 = List.assoc "t" r2.Scheduler.per_task in
  checki "skip: no completions" 0 st2.Scheduler.completions;
  checki "skip: only the burns" 200 r2.Scheduler.busy_time

(* ------------------------------------------------------------------ *)
(* CAN retry backoff and bus-off                                       *)
(* ------------------------------------------------------------------ *)

let cfg500 = { Can_bus.bitrate = 500_000 }

let test_can_defaults_unchanged () =
  let frames =
    [ Can_bus.frame ~name:"a" ~can_id:1 ~payload_bytes:4 ~period:1000 () ]
  in
  let base = Can_bus.simulate cfg500 ~horizon:20_000 frames in
  let with_defaults =
    Can_bus.simulate ~faults:(Can_bus.fault_model ~loss_rate:0. ()) cfg500
      ~horizon:20_000 frames
  in
  checkb "default fault model reproduces fault-free run" true
    (base = with_defaults);
  checki "no bus-off events without a bus-off model" 0 base.Can_bus.bus_offs

let test_can_bus_off () =
  let frames =
    [ Can_bus.frame ~name:"a" ~can_id:1 ~payload_bytes:2 ~period:2000 () ]
  in
  let faults =
    Can_bus.fault_model ~seed:3 ~max_retransmits:4
      ~bus_off:(Can_bus.bus_off ~off_at:16 ~recovery_us:4000 ())
      ~loss_rate:1.0 ()
  in
  let r = Can_bus.simulate ~faults cfg500 ~horizon:40_000 frames in
  checkb "permanent corruption drives the bus off" true
    (r.Can_bus.bus_offs > 0);
  let st = List.assoc "a" r.Can_bus.per_frame in
  checki "nothing gets through" 0 st.Can_bus.sent;
  (* deterministic replay *)
  let r2 = Can_bus.simulate ~faults cfg500 ~horizon:40_000 frames in
  checkb "bus-off run replays bit-for-bit" true (r = r2)

let test_can_retry_backoff () =
  let frames =
    [ Can_bus.frame ~name:"a" ~can_id:1 ~payload_bytes:4 ~period:5000 () ]
  in
  let run backoff =
    let faults =
      Can_bus.fault_model ~seed:11 ~retry_backoff_us:backoff ~loss_rate:0.5 ()
    in
    Can_bus.simulate ~faults cfg500 ~horizon:100_000 frames
  in
  let immediate = run 0 and delayed = run 200 in
  let lat r = (List.assoc "a" r.Can_bus.per_frame).Can_bus.max_latency in
  checkb "backoff stretches worst-case latency" true
    (lat delayed > lat immediate);
  checkb "backoff run replays bit-for-bit" true (run 200 = delayed)

(* ------------------------------------------------------------------ *)
(* Dual-channel TT bus                                                 *)
(* ------------------------------------------------------------------ *)

let tt_sched channels =
  Tt_bus.schedule ~slots_per_cycle:4 ~slot_us:25
    [ Tt_bus.slot ~channels ~name:"x" ~index:0 ~payload_bytes:4 ();
      Tt_bus.slot ~channels ~name:"y" ~index:1 ~payload_bytes:2 () ]

let test_tt_fault_free () =
  let r = Tt_bus.simulate (tt_sched [ Tt_bus.A; Tt_bus.B ]) ~horizon:10_000 in
  checki "cycles" 100 r.Tt_bus.cycles;
  List.iter
    (fun (_, (s : Tt_bus.slot_stats)) ->
      checki "every instance delivered" s.Tt_bus.instances s.Tt_bus.delivered;
      checki "no undelivered" 0 s.Tt_bus.undelivered;
      checki "no gap" 0 s.Tt_bus.max_consec_undelivered)
    r.Tt_bus.per_slot

let test_tt_validation () =
  checkb "payload too large" true
    (try
       ignore (Tt_bus.slot ~name:"x" ~index:0 ~payload_bytes:255 ());
       false
     with Invalid_argument _ -> true);
  checkb "duplicate index on a channel" true
    (try
       ignore
         (Tt_bus.schedule ~slots_per_cycle:4 ~slot_us:25
            [ Tt_bus.slot ~name:"x" ~index:0 ~payload_bytes:1 ();
              Tt_bus.slot ~name:"y" ~index:0 ~payload_bytes:1 () ]);
       false
     with Invalid_argument _ -> true);
  checkb "slot shorter than wire time" true
    (try
       ignore
         (Tt_bus.schedule ~slots_per_cycle:2 ~slot_us:5
            [ Tt_bus.slot ~name:"x" ~index:0 ~payload_bytes:100 () ]);
       false
     with Invalid_argument _ -> true)

(* The redundancy claim at bus level: an outage of channel A loses every
   single-channel slot inside the window but no dual-channel slot. *)
let test_tt_channel_outage () =
  let faults =
    Tt_bus.fault_model ~seed:1
      ~a:(Tt_bus.chan_faults ~dead:[ (2_000, 4_000) ] ())
      ()
  in
  let dual =
    Tt_bus.simulate ~faults (tt_sched [ Tt_bus.A; Tt_bus.B ]) ~horizon:10_000
  in
  let single =
    Tt_bus.simulate ~faults (tt_sched [ Tt_bus.A ]) ~horizon:10_000
  in
  List.iter
    (fun (_, (s : Tt_bus.slot_stats)) ->
      checki "dual survives the channel-A outage" 0 s.Tt_bus.undelivered;
      checkb "losses recorded on A" true (s.Tt_bus.lost_a > 0))
    dual.Tt_bus.per_slot;
  List.iter
    (fun (_, (s : Tt_bus.slot_stats)) ->
      checki "single loses the whole window" 20 s.Tt_bus.undelivered;
      checkb "gap spans the outage" true
        (s.Tt_bus.max_consec_undelivered >= 20))
    single.Tt_bus.per_slot;
  checkb "deterministic replay" true
    (Tt_bus.simulate ~faults (tt_sched [ Tt_bus.A ]) ~horizon:10_000 = single)

let test_tt_independent_channels () =
  (* heavy independent corruption: dual delivery strictly better than
     single-channel delivery under the same seed *)
  let faults =
    Tt_bus.fault_model ~seed:7
      ~a:(Tt_bus.chan_faults ~loss_rate:0.3 ())
      ~b:(Tt_bus.chan_faults ~loss_rate:0.3 ())
      ()
  in
  let delivered sched =
    let r = Tt_bus.simulate ~faults sched ~horizon:50_000 in
    List.fold_left
      (fun acc (_, (s : Tt_bus.slot_stats)) -> acc + s.Tt_bus.delivered)
      0 r.Tt_bus.per_slot
  in
  checkb "redundant transmission beats one channel" true
    (delivered (tt_sched [ Tt_bus.A; Tt_bus.B ])
    > delivered (tt_sched [ Tt_bus.A ]))

let () =
  Alcotest.run "automode-osek"
    [ ( "task",
        [ Alcotest.test_case "validation" `Quick test_task_validation;
          Alcotest.test_case "utilization" `Quick test_task_utilization;
          Alcotest.test_case "rate monotonic" `Quick test_rate_monotonic ] );
      ( "scheduler",
        [ Alcotest.test_case "single task" `Quick test_sched_single_task;
          Alcotest.test_case "preemption" `Quick test_sched_preemption;
          Alcotest.test_case "deadline miss" `Quick test_sched_deadline_miss;
          Alcotest.test_case "non-preemptable" `Quick test_sched_non_preemptable;
          Alcotest.test_case "duplicate priorities" `Quick test_sched_duplicate_priorities_rejected;
          Alcotest.test_case "offsets" `Quick test_sched_offsets;
          Alcotest.test_case "RTA vs simulation" `Quick test_rta_matches_simulation;
          Alcotest.test_case "sporadic releases" `Quick test_sporadic_release_times;
          Alcotest.test_case "sporadic simulation" `Quick test_sporadic_simulation;
          Alcotest.test_case "timeline coverage" `Quick test_timeline_coverage;
          Alcotest.test_case "timeline order" `Quick test_timeline_preemption_order;
          Alcotest.test_case "timeline render" `Quick test_timeline_render;
          Alcotest.test_case "RTA unschedulable" `Quick test_rta_unschedulable;
          Alcotest.test_case "watchdog restart accounting" `Quick
            test_watchdog_restart_accounting ]
        @ qsuite [ test_rta_property_sim_bounded ] );
      ( "ipc",
        [ Alcotest.test_case "snapshot consistency" `Quick test_ipc_snapshot_consistency;
          Alcotest.test_case "torn read detectable" `Quick test_ipc_torn_read_detectable;
          Alcotest.test_case "partial publish" `Quick test_ipc_partial_publish;
          Alcotest.test_case "duplicates rejected" `Quick test_ipc_duplicate_rejected ] );
      ( "can",
        [ Alcotest.test_case "tx time" `Quick test_can_tx_time;
          Alcotest.test_case "arbitration" `Quick test_can_arbitration;
          Alcotest.test_case "load" `Quick test_can_load;
          Alcotest.test_case "supersede" `Quick test_can_supersede;
          Alcotest.test_case "validation" `Quick test_can_validation;
          Alcotest.test_case "RTA bounds sim" `Quick test_can_rta_bounds_sim;
          Alcotest.test_case "fault defaults unchanged" `Quick
            test_can_defaults_unchanged;
          Alcotest.test_case "bus-off" `Quick test_can_bus_off;
          Alcotest.test_case "retry backoff" `Quick test_can_retry_backoff ] );
      ( "tt-bus",
        [ Alcotest.test_case "fault-free delivery" `Quick test_tt_fault_free;
          Alcotest.test_case "validation" `Quick test_tt_validation;
          Alcotest.test_case "channel outage" `Quick test_tt_channel_outage;
          Alcotest.test_case "independent channels" `Quick
            test_tt_independent_channels ] );
      ( "comm-matrix",
        [ Alcotest.test_case "check" `Quick test_matrix_check;
          Alcotest.test_case "generator" `Quick test_matrix_generator;
          Alcotest.test_case "queries" `Quick test_matrix_queries ] ) ]
