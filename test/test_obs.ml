(* Tests for the observability subsystem: metrics-registry determinism,
   the no-op-probe identity (instrumented code without a sink produces
   byte-identical traces), Chrome-trace JSON validity, and the shared
   RFC 4180 CSV writer's quoting rules. *)

open Automode_core
open Automode_casestudy
module Obs = Automode_obs

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                   *)
(* ------------------------------------------------------------------ *)

let fill m =
  Obs.Metrics.incr m "sim.fire.lock";
  Obs.Metrics.incr m ~by:3 "sim.fire.lock";
  Obs.Metrics.incr m "sim.fire.crash";
  Obs.Metrics.set_gauge m "tt.pose.max_consec_undelivered" 2;
  Obs.Metrics.set_gauge m "tt.pose.max_consec_undelivered" 5;
  List.iter
    (Obs.Metrics.observe m "sched.lock.response_us")
    [ 0; 1; 7; 130; 130; 4096 ]

let test_metrics_basics () =
  let m = Obs.Metrics.create () in
  fill m;
  checki "counter accumulates" 4
    (Option.get (Obs.Metrics.value m "sim.fire.lock"));
  checki "second counter" 1
    (Option.get (Obs.Metrics.value m "sim.fire.crash"));
  checki "gauge keeps last" 5
    (Option.get (Obs.Metrics.value m "tt.pose.max_consec_undelivered"));
  checki "histogram value = sample count" 6
    (Option.get (Obs.Metrics.value m "sched.lock.response_us"));
  checkb "absent key" true (Obs.Metrics.value m "nope" = None);
  Alcotest.(check (list string))
    "insertion order"
    [ "sim.fire.lock"; "sim.fire.crash"; "tt.pose.max_consec_undelivered";
      "sched.lock.response_us" ]
    (Obs.Metrics.keys m);
  Obs.Metrics.reset m;
  checki "reset empties" 0 (List.length (Obs.Metrics.keys m))

let test_metrics_kind_mismatch () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "k";
  Alcotest.check_raises "counter used as gauge"
    (Invalid_argument "Obs.Metrics: key \"k\" is a counter, not a gauge")
    (fun () -> Obs.Metrics.set_gauge m "k" 1)

let test_metrics_deterministic_renderings () =
  let render m = (Obs.Metrics.to_text m, Obs.Metrics.to_csv m,
                  Obs.Metrics.to_json m) in
  let m1 = Obs.Metrics.create () and m2 = Obs.Metrics.create () in
  fill m1; fill m2;
  let t1, c1, j1 = render m1 and t2, c2, j2 = render m2 in
  checks "text byte-identical" t1 t2;
  checks "csv byte-identical" c1 c2;
  checks "json byte-identical" j1 j2;
  checkb "csv has header" true
    (String.length c1 > 0
    && String.sub c1 0 (String.index c1 '\n')
       = "key,kind,value,count,sum,min,max")

(* ------------------------------------------------------------------ *)
(* No-op probe identity                                               *)
(* ------------------------------------------------------------------ *)

(* The instrumented simulator without a sink must behave exactly like
   the pre-instrumentation simulator: same traces, and a run under a
   sink must not perturb the functional result either. *)

let test_noop_identity_door_lock () =
  let plain = Door_lock.demo_trace ~ticks:32 () in
  let again = Door_lock.demo_trace ~ticks:32 () in
  checkb "uninstrumented reruns agree" true (Trace.equal plain again);
  let m = Obs.Metrics.create () in
  let observed =
    Obs.Probe.with_sink (Obs.Probe.standard m) (fun () ->
        Door_lock.demo_trace ~ticks:32 ())
  in
  checkb "sink does not perturb the trace" true (Trace.equal plain observed);
  checkb "sink saw fire counts" true
    (List.exists
       (fun k ->
         String.length k > 9 && String.sub k 0 9 = "sim.fire.")
       (Obs.Metrics.keys m))

let test_noop_identity_guarded () =
  let run () =
    Sim.run ~ticks:64 ~inputs:Robustness.lock_stimulus Guarded.component
  in
  let plain = run () in
  let m = Obs.Metrics.create () in
  let observed = Obs.Probe.with_sink (Obs.Probe.standard m) run in
  checkb "guarded trace unchanged under sink" true
    (Trace.equal plain observed);
  checkb "ticks counted" true
    (Obs.Metrics.value m "sim.ticks" = Some 64)

let test_compiled_identity () =
  let indexed = Sim.index Guarded.component in
  let run () =
    Sim.run_indexed ~ticks:64 ~inputs:Robustness.lock_stimulus indexed
  in
  let plain = run () in
  let m = Obs.Metrics.create () in
  let observed = Obs.Probe.with_sink (Obs.Probe.standard m) run in
  checkb "indexed trace unchanged under sink" true
    (Trace.equal plain observed);
  checkb "ticks counted" true
    (Obs.Metrics.value m "sim.ticks" = Some 64)

let test_probe_noop_without_sink () =
  checkb "inactive by default" false (Obs.Probe.active ());
  (* These must be plain no-ops, not failures. *)
  Obs.Probe.count "x";
  Obs.Probe.gauge "x" 1;
  Obs.Probe.sample "x" 1;
  Obs.Probe.enter ~tick:0 "x";
  Obs.Probe.exit_ ~tick:0 "x";
  Obs.Probe.instant ~tick:0 "x";
  checkb "still inactive" false (Obs.Probe.active ())

let test_with_sink_restores_on_raise () =
  let m = Obs.Metrics.create () in
  (try
     Obs.Probe.with_sink (Obs.Probe.standard m) (fun () -> failwith "boom")
   with Failure _ -> ());
  checkb "sink uninstalled after raise" false (Obs.Probe.active ())

(* ------------------------------------------------------------------ *)
(* Chrome-trace JSON validity                                         *)
(* ------------------------------------------------------------------ *)

(* A small recursive-descent JSON parser — no JSON library in the build
   environment, and the exporter is hand-rolled, so validity is checked
   by an independent hand-rolled reader. *)

exception Bad_json of string

let parse_json (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
           advance ()
         | Some 'u' ->
           advance ();
           for _ = 1 to 4 do
             match peek () with
             | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
             | _ -> fail "bad \\u escape"
           done
         | _ -> fail "bad escape");
        Buffer.add_char buf '?';
        go ()
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c -> advance (); Buffer.add_char buf c; go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance (); skip_ws ();
      let fields = ref [] in
      (match peek () with
       | Some '}' -> advance ()
       | _ ->
         let rec members () =
           skip_ws ();
           let k = parse_string () in
           skip_ws (); expect ':';
           let v = parse_value () in
           fields := (k, v) :: !fields;
           skip_ws ();
           match peek () with
           | Some ',' -> advance (); members ()
           | Some '}' -> advance ()
           | _ -> fail "expected , or }"
         in
         members ());
      `Obj (List.rev !fields)
    | Some '[' ->
      advance (); skip_ws ();
      let items = ref [] in
      (match peek () with
       | Some ']' -> advance ()
       | _ ->
         let rec elements () =
           let v = parse_value () in
           items := v :: !items;
           skip_ws ();
           match peek () with
           | Some ',' -> advance (); elements ()
           | Some ']' -> advance ()
           | _ -> fail "expected , or ]"
         in
         elements ());
      `Arr (List.rev !items)
    | Some '"' -> `Str (parse_string ())
    | Some ('-' | '0' .. '9') ->
      let start = !pos in
      let rec num () =
        match peek () with
        | Some ('-' | '+' | '.' | 'e' | 'E' | '0' .. '9') ->
          advance (); num ()
        | _ -> ()
      in
      num ();
      `Num (String.sub s start (!pos - start))
    | Some 't' -> pos := !pos + 4; `Bool true
    | Some 'f' -> pos := !pos + 5; `Bool false
    | Some 'n' -> pos := !pos + 4; `Null
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let test_chrome_trace_valid () =
  let span = Obs.Span.create () in
  let m = Obs.Metrics.create () in
  ignore
    (Obs.Probe.with_sink
       (Obs.Probe.standard ~span m)
       (fun () -> Door_lock.demo_trace ~ticks:10 ()));
  checkb "span recorded events" true (Obs.Span.length span > 0);
  match parse_json (Obs.Span.to_chrome_json span) with
  | `Obj fields ->
    checkb "has displayTimeUnit" true
      (List.mem_assoc "displayTimeUnit" fields);
    (match List.assoc_opt "traceEvents" fields with
     | Some (`Arr events) ->
       checki "one JSON event per span event"
         (Obs.Span.length span) (List.length events);
       List.iter
         (fun ev ->
           match ev with
           | `Obj f ->
             List.iter
               (fun k ->
                 checkb (Printf.sprintf "event has %s" k) true
                   (List.mem_assoc k f))
               [ "name"; "cat"; "ph"; "ts"; "pid"; "tid" ];
             (match List.assoc "ph" f with
              | `Str ("B" | "E" | "i") -> ()
              | _ -> Alcotest.fail "bad phase letter")
           | _ -> Alcotest.fail "trace event is not an object")
         events
     | _ -> Alcotest.fail "traceEvents missing or not an array")
  | _ -> Alcotest.fail "chrome trace is not a JSON object"

let test_metrics_json_valid () =
  let m = Obs.Metrics.create () in
  fill m;
  Obs.Metrics.incr m "tricky \"key\"\nwith\tcontrols";
  match parse_json (Obs.Metrics.to_json m) with
  | `Obj fields ->
    checki "one field per key" (List.length (Obs.Metrics.keys m))
      (List.length fields)
  | _ -> Alcotest.fail "metrics JSON is not an object"

let test_timeline_deterministic () =
  let record () =
    let span = Obs.Span.create () in
    let m = Obs.Metrics.create () in
    ignore
      (Obs.Probe.with_sink
         (Obs.Probe.standard ~span m)
         (fun () -> Door_lock.demo_trace ~ticks:10 ()));
    (Obs.Span.to_chrome_json span, Obs.Span.to_timeline span)
  in
  let j1, t1 = record () and j2, t2 = record () in
  checks "chrome json byte-identical across runs" j1 j2;
  checks "timeline byte-identical across runs" t1 t2;
  checkb "timeline mentions the tick scope" true
    (String.length t1 > 0
    &&
    let first_line = String.sub t1 0 (String.index t1 '\n') in
    first_line = "tick    0: > tick")

(* ------------------------------------------------------------------ *)
(* Shared CSV writer                                                  *)
(* ------------------------------------------------------------------ *)

let test_csv_quoting () =
  checks "plain cell untouched" "abc" (Obs.Csv.cell "abc");
  checks "empty cell untouched" "" (Obs.Csv.cell "");
  checks "comma forces quotes" "\"a,b\"" (Obs.Csv.cell "a,b");
  checks "quote doubled" "\"say \"\"hi\"\"\"" (Obs.Csv.cell "say \"hi\"");
  checks "newline forces quotes" "\"a\nb\"" (Obs.Csv.cell "a\nb");
  checks "carriage return forces quotes" "\"a\rb\"" (Obs.Csv.cell "a\rb");
  checks "line joins with LF" "a,\"b,c\",d\n" (Obs.Csv.line [ "a"; "b,c"; "d" ]);
  checks "table = header + rows"
    "k,v\nx,\"1,5\"\n"
    (Obs.Csv.table ~header:[ "k"; "v" ] [ [ "x"; "1,5" ] ])

let test_trace_csv_uses_shared_writer () =
  (* The door-lock demo trace renders through Trace.to_csv, which now
     delegates quoting to Obs.Csv — spot-check shape + determinism. *)
  let t = Door_lock.demo_trace () in
  let c1 = Trace.to_csv t and c2 = Trace.to_csv t in
  checks "trace csv deterministic" c1 c2;
  checkb "csv non-empty" true (String.length c1 > 0)

(* ------------------------------------------------------------------ *)
(* Profile separation                                                 *)
(* ------------------------------------------------------------------ *)

let test_profile_separate_from_metrics () =
  let m = Obs.Metrics.create () in
  let prof = Obs.Profile.create () in
  ignore
    (Obs.Probe.with_sink
       (Obs.Probe.standard ~profile:prof m)
       (fun () -> Door_lock.demo_trace ~ticks:10 ()));
  checkb "profile accumulated scopes" true
    (List.length (Obs.Profile.entries prof) > 0);
  (* Wall-clock data must never leak into the deterministic registry. *)
  List.iter
    (fun k ->
      checkb (Printf.sprintf "no wall-clock key %s" k) false
        (let l = String.length k in
         l >= 3 && String.sub k (l - 3) 3 = "_ms"))
    (Obs.Metrics.keys m)

let suite =
  [ ("metrics-basics", `Quick, test_metrics_basics);
    ("metrics-kind-mismatch", `Quick, test_metrics_kind_mismatch);
    ("metrics-deterministic-renderings", `Quick,
     test_metrics_deterministic_renderings);
    ("noop-identity-door-lock", `Quick, test_noop_identity_door_lock);
    ("noop-identity-guarded", `Quick, test_noop_identity_guarded);
    ("compiled-identity", `Quick, test_compiled_identity);
    ("probe-noop-without-sink", `Quick, test_probe_noop_without_sink);
    ("with-sink-restores-on-raise", `Quick,
     test_with_sink_restores_on_raise);
    ("chrome-trace-valid", `Quick, test_chrome_trace_valid);
    ("metrics-json-valid", `Quick, test_metrics_json_valid);
    ("timeline-deterministic", `Quick, test_timeline_deterministic);
    ("csv-quoting", `Quick, test_csv_quoting);
    ("trace-csv-shared-writer", `Quick, test_trace_csv_uses_shared_writer);
    ("profile-separate-from-metrics", `Quick,
     test_profile_separate_from_metrics) ]

let () = Alcotest.run "obs" [ ("obs", suite) ]
