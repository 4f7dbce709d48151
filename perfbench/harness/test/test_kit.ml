(* Tests of the harness helpers: stream generation, the percentile
   rule, case counting and the calibration arithmetic. *)

open Kit

let workload_names = List.map fst Stream.workloads

let stream_lines name seed =
  let s = Stream.generate (List.assoc name Stream.workloads) ~seed in
  Array.to_list (Array.map Stream.describe s.Stream.jobs)
  @ List.map (Stream.line ~id:"prefill") s.Stream.prefill

let same_seed_same_stream () =
  List.iter
    (fun name ->
      Alcotest.(check (list string))
        name (stream_lines name 7) (stream_lines name 7))
    workload_names

let other_seed_other_stream () =
  List.iter
    (fun name ->
      if stream_lines name 7 = stream_lines name 8 then
        Alcotest.failf "%s: seeds 7 and 8 give the same stream" name)
    workload_names

(* p90 needs at least ten samples beyond it, which every stream must
   provide. *)
let streams_support_p90 () =
  List.iter
    (fun name ->
      let n =
        Array.length
          (Stream.generate (List.assoc name Stream.workloads) ~seed:3).jobs
      in
      if n < 100 then Alcotest.failf "%s: only %d jobs" name n)
    workload_names

let sizes_are_stratified () =
  let rng = Random.State.make [| 1 |] in
  let a = Stream.stratified rng 10 ~lo:1 ~hi:100 in
  Array.sort compare a;
  Array.iteri
    (fun i x ->
      if x < 1 + (10 * i) || x > 10 * (i + 1) then
        Alcotest.failf "draw %d = %d outside its stratum" i x)
    a

let tail_rule () =
  let check n expected =
    Alcotest.(check (option (float 0.)))
      (Printf.sprintf "n=%d" n) expected (Stats.tail_percentile ~n)
  in
  check 19 None;
  check 20 (Some 50.);
  check 99 (Some 75.);
  check 100 (Some 90.);
  check 120 (Some 90.);
  check 199 (Some 90.);
  check 200 (Some 95.);
  check 1000 (Some 99.);
  check 10000 (Some 99.9);
  Alcotest.(check int) "beyond p90 of 120" 12 (Stats.beyond ~n:120 90.)

let percentiles () =
  let xs = Array.init 100 (fun i -> float (100 - i)) in
  Alcotest.(check (float 0.)) "p50" 50. (Stats.percentile xs 50.);
  Alcotest.(check (float 0.)) "p90" 90. (Stats.percentile xs 90.);
  Alcotest.(check (float 0.)) "p100" 100. (Stats.percentile xs 100.);
  Alcotest.(check (float 0.)) "median of 3" 2. (Stats.median [| 3.; 1.; 2. |])

let campaign ?(engine = false) ?(iterations = 2) kind seeds =
  { Stream.kind; seeds = List.init seeds (fun i -> i + 1); engine;
    shrink = true; instances = 1; iterations; bound = 2 }

let case_counts () =
  let count job = Stream.cases ~scenarios:120 job in
  let check name expected job = Alcotest.(check int) name expected (count job) in
  check "robustness" 10 (Stream.Catalog (campaign Robustness 10));
  check "robustness --engine" 10
    (Stream.Catalog (campaign ~engine:true Robustness 10));
  check "guard" 30 (Stream.Catalog (campaign Guard 10));
  check "guard --engine" 20 (Stream.Served (campaign ~engine:true Guard 10));
  check "redund" 70 (Stream.Catalog (campaign Redund 10));
  check "redund ignores --engine" 70
    (Stream.Catalog (campaign ~engine:true Redund 10));
  check "proptest" 60 (Stream.Catalog (campaign ~iterations:3 Proptest 10));
  check "litmus" 120 (Stream.Catalog (campaign Litmus 0));
  check "late sweep" 5
    (Stream.Late_sweep
       { target = Lock; fault = Spike; seeds = [ 1; 2; 3; 4; 5 ];
         instances = 64 });
  check "late litmus" 120 (Stream.Late_litmus { instances = 1 })

let calibration () =
  let close = Alcotest.(check (float 1e-9)) in
  let n = Calib.nominal_ms in
  close "nominal host" 10. (Calib.calibrate ~wall_ms:10. ~before_ms:n ~after_ms:n);
  close "twice as slow" 10.
    (Calib.calibrate ~wall_ms:20. ~before_ms:(2. *. n) ~after_ms:(2. *. n));
  close "mean of the two kernels" 12.
    (Calib.calibrate ~wall_ms:18. ~before_ms:n ~after_ms:(2. *. n));
  close "factor" 0.5 (Calib.factor ~before_ms:(2. *. n) ~after_ms:(2. *. n))

let kernel_allocates_nothing () =
  Alcotest.(check (float 0.)) "minor words per call" 0.
    (Calib.minor_words_per_call ())

let () =
  Alcotest.run "perfbench-kit"
    [ ( "stream",
        [ Alcotest.test_case "same seed, same stream" `Quick
            same_seed_same_stream;
          Alcotest.test_case "other seed, other stream" `Quick
            other_seed_other_stream;
          Alcotest.test_case "at least 100 jobs" `Quick streams_support_p90;
          Alcotest.test_case "stratified sizes" `Quick sizes_are_stratified;
          Alcotest.test_case "case counting" `Quick case_counts ] );
      ( "stats",
        [ Alcotest.test_case "tail percentile rule" `Quick tail_rule;
          Alcotest.test_case "nearest-rank percentiles" `Quick percentiles ] );
      ( "calib",
        [ Alcotest.test_case "calibration arithmetic" `Quick calibration;
          Alcotest.test_case "kernel allocates nothing" `Quick
            kernel_allocates_nothing ] ) ]
