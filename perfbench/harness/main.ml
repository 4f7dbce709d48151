(* Campaign benchmark harness: one workload, one seed, one process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --out DIR --work DIR

   One closed-loop client, one domain: no subprocesses, no sockets and
   no sleeps while timing.  The run sets up (three times, reporting the
   median), replays the job stream round after round for --seconds,
   checks every output against the straight-path reference and, with
   --trace 1, runs one more round rebuilt from the program's layer
   functions with spans around each call.  The last line of standard
   output is the JSON result.  Audit files go to the --out directory;
   the --work directory is scratch space and is removed at the end. *)

open Automode_core
module R = Automode_robust
module Cs = Automode_casestudy
module Sv = Automode_serve
module M = Automode_obs.Metrics

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Arguments                                                          *)
(* ------------------------------------------------------------------ *)

type args = {
  name : string;
  workload : Stream.workload;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;
  work : string;
}

let parse_args () =
  let name = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref "" and work = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string name, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N stream seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 add the traced round");
      ("--out", Arg.Set_string out, "DIR audit files");
      ("--work", Arg.Set_string work, "DIR scratch directory") ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 --out DIR --work DIR" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    Arg.usage spec usage;
    exit 2
  in
  let workload =
    match List.assoc_opt !name Stream.workloads with
    | Some w -> w
    | None ->
      fail
        (Printf.sprintf "unknown workload %S (one of: %s)" !name
           (String.concat ", " (List.map fst Stream.workloads)))
  in
  if !seconds < 1 then fail "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if !out = "" || !work = "" then fail "--out and --work are required";
  { name = !name; workload; seed = !seed; seconds = float !seconds;
    trace = !trace = 1; out = !out; work = !work }

(* ------------------------------------------------------------------ *)
(* Files                                                              *)
(* ------------------------------------------------------------------ *)

let ( // ) = Filename.concat

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (path // e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Hard-link every file of [src] into a fresh tree at [dst]: a cheap
   private copy of the prefilled cache.  The cache replaces entries by
   rename, so the shared inodes are never written. *)
let rec link_tree src dst =
  Sv.Cache.mkdir_p dst;
  Array.iter
    (fun e ->
      if Sys.is_directory (src // e) then link_tree (src // e) (dst // e)
      else Unix.link (src // e) (dst // e))
    (Sys.readdir src)

let rec tree_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.fold_left (fun acc e -> acc + tree_bytes (path // e)) 0
      (Sys.readdir path)
  | _ -> (Unix.lstat path).Unix.st_size

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* VmHWM: the resident-set high-water mark, Bigarray planes included. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* ------------------------------------------------------------------ *)
(* Set-up                                                             *)
(* ------------------------------------------------------------------ *)

let builtin_scenarios =
  [ Cs.Robustness.door_lock_scenario; Cs.Guarded.unguarded_scenario;
    Cs.Guarded.guarded_scenario; Cs.Guarded.recovery_scenario;
    Cs.Replicated.replicated_scenario; Cs.Replicated.simplex_scenario;
    Cs.Replicated.reset_scenario; Cs.Replicated.tmr_scenario;
    Cs.Replicated.tmr_simplex_scenario ]

let models = function
  | Stream.Wide_late -> [ Cs.Door_lock.component; Cs.Guarded.component ]
  | Cli_shrink | Wide_early | Serve_resubmit ->
    List.fold_left
      (fun acc c -> if List.memq c acc then acc else acc @ [ c ])
      []
      (List.map R.Scenario.component builtin_scenarios)

type setup = {
  stream : Stream.t;
  ids : string array;
  lines : string array;  (** NDJSON line of each campaign job *)
  ctx : Exec.ctx;
  nets : (Model.component * Sim.indexed) list;
  prefilled : string option;  (** cache directory filled at set-up *)
}

(* Everything a fresh process does before its first job: generate the
   stream, compile every model the workload simulates and, for daemon
   jobs, create and fill the serve cache directory. *)
let set_up a ~dir =
  let stream = Stream.generate a.workload ~seed:a.seed in
  let ids = Array.mapi (fun i _ -> Printf.sprintf "j%03d" i) stream.jobs in
  let lines =
    Array.mapi
      (fun i -> function
        | Stream.Catalog c | Served c -> Stream.line ~id:ids.(i) c
        | Late_sweep _ | Late_litmus _ -> "")
      stream.jobs
  in
  let nets = List.map (fun c -> (c, Sim.index c)) (models a.workload) in
  List.iter R.Scenario.prepare builtin_scenarios;
  List.iter Automode_proptest.Builder.prepare
    [ Cs.Propcase.unguarded; Cs.Propcase.guarded ];
  let ctx = Exec.create ~late:(a.workload = Stream.Wide_late) in
  let prefilled =
    match stream.prefill with
    | [] -> None
    | campaigns ->
      let cache_dir = dir // "cache" in
      let cache = Sv.Cache.create ~dir:cache_dir () in
      List.iter (Exec.prefill cache) campaigns;
      Some cache_dir
  in
  { stream; ids; lines; ctx; nets; prefilled }

(* Set-ups are timed in blocks, each repeating set-up until it has run
   for [block_s] and timed by the kernel before and after it; a block
   reports its calibrated mean.  A set-up of a millisecond is too short
   to calibrate on its own.  setup_s is the median of the blocks. *)
let setup_blocks = 3
let block_s = 0.15

(* Calibrated seconds per set-up of each block, and the last set-up. *)
let set_up_repeatedly a =
  let reps = ref 0 in
  let block () =
    Gc.full_major ();
    let before = Calib.kernel_ms () in
    let t0 = now () in
    let rec go k =
      incr reps;
      let s = set_up a ~dir:(a.work // Printf.sprintf "setup-%d" !reps) in
      if now () -. t0 >= block_s then (k, s) else go (k + 1)
    in
    let k, s = go 1 in
    let wall_ms = (now () -. t0) *. 1e3 in
    let after = Calib.kernel_ms () in
    (Calib.calibrate ~wall_ms ~before_ms:before ~after_ms:after /. 1e3 /. float k, s)
  in
  let blocks = List.init setup_blocks (fun _ -> block ()) in
  (List.map fst blocks, snd (List.nth blocks (setup_blocks - 1)))

(* Every pass over the stream starts from the same serve state: the
   prefilled disk cache, an empty memory tier, empty spool and results
   directories.  Timed rounds share the set-up's cache directory and
   [restore] it afterwards by deleting what the round added, which keeps
   file-system churn low; the rebuilt round needs three caches at once
   and gets private hard-linked copies. *)
let serve_state ~cache_dir ~dir =
  List.iter Sv.Cache.mkdir_p [ dir // "spool"; dir // "results" ];
  { Exec.spool = dir // "spool"; results = dir // "results";
    cache = Sv.Cache.create ~dir:cache_dir (); metrics = M.create () }

let fresh_serve a s ~tag =
  Option.map
    (fun prefilled ->
      let dir = a.work // tag in
      link_tree prefilled (dir // "cache");
      serve_state ~cache_dir:(dir // "cache") ~dir)
    s.prefilled

let rec files path =
  if Sys.is_directory path then
    List.concat_map (fun e -> files (path // e)) (Array.to_list (Sys.readdir path))
  else [ path ]

let restore ~keep path =
  List.iter (fun f -> if not (Hashtbl.mem keep f) then Unix.unlink f) (files path)

(* ------------------------------------------------------------------ *)
(* Timed rounds                                                       *)
(* ------------------------------------------------------------------ *)

type sample = {
  wall_ms : float;
  before_ms : float;  (** kernel time just before the job *)
  after_ms : float;   (** ... and just after it *)
  result : (Exec.output, string) result;
}

let calibrated x =
  Calib.calibrate ~wall_ms:x.wall_ms ~before_ms:x.before_ms
    ~after_ms:x.after_ms

(* Time [f ()] between the kernel timing [k] taken before it and a new
   one, which becomes the next job's "before". *)
let timed k f =
  let t0 = now () in
  let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  let wall_ms = (now () -. t0) *. 1e3 in
  let after = Calib.kernel_ms () in
  let x = { wall_ms; before_ms = !k; after_ms = after; result } in
  k := after;
  x

(* Run [f i] for every job, each timed between two kernel timings. *)
let round n f =
  let k = ref (Calib.kernel_ms ()) in
  Array.init n (fun i -> timed k (fun () -> f i))

let alloc_words (g : Gc.stat) =
  g.minor_words +. g.major_words -. g.promoted_words

type measured = {
  rounds : sample array list;  (** oldest first *)
  alloc_words : float;         (** allocated during the last round *)
  major_collections : int;     (** ... and major collections in it *)
  top_heap_words : int;        (** largest major heap so far *)
}

(* Rounds until --seconds have passed, at least two.  The first round,
   like each set-up block, starts from a collected heap, so set-up
   garbage shifts neither its collections nor the memory peak; later
   rounds run on as a long-lived process would. *)
let timed_rounds a s =
  let n = Array.length s.stream.jobs in
  let dir = a.work // "rounds" in
  let keep = Hashtbl.create 8192 in
  Option.iter
    (fun prefilled -> List.iter (fun f -> Hashtbl.replace keep f ()) (files prefilled))
    s.prefilled;
  let start = now () in
  let rec go r rounds (alloc, majors) =
    if r >= 2 && now () -. start >= a.seconds then
      { rounds = List.rev rounds; alloc_words = alloc;
        major_collections = majors;
        top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words }
    else begin
      s.ctx.serve <-
        Option.map (fun cache_dir -> serve_state ~cache_dir ~dir) s.prefilled;
      if r = 0 then Gc.full_major ();
      let g0 = Gc.quick_stat () in
      let samples =
        round n (fun i ->
            Exec.run s.ctx ~id:s.ids.(i) ~line:s.lines.(i) s.stream.jobs.(i))
      in
      let g1 = Gc.quick_stat () in
      Option.iter (restore ~keep) s.prefilled;
      if s.prefilled <> None then restore ~keep:(Hashtbl.create 1) dir;
      go (r + 1) (samples :: rounds)
        ( alloc_words g1 -. alloc_words g0,
          g1.Gc.major_collections - g0.Gc.major_collections )
    end
  in
  go 0 [] (0., 0)

(* ------------------------------------------------------------------ *)
(* Traced round                                                       *)
(* ------------------------------------------------------------------ *)

(* One more round in which every job runs rebuilt from the layer
   functions twice, untraced and then traced, back to back so that both
   see the same host; their difference is the tracing overhead.  A
   daemon round trip also runs once more just before them: the untraced
   rebuild does the daemon's work from outside, so the round trip minus
   the rebuild is what the daemon itself adds (spool scans, claims,
   status files, the probe sink).  Each path has its own copy of the
   serve cache, so each sees the hits and misses of a timed round. *)
let rebuilt_round a s =
  let index c =
    match List.assq_opt c s.nets with Some ix -> ix | None -> Sim.index c
  in
  let plain = Rebuild.create ~record:false ~index in
  let traced = Rebuild.create ~record:true ~index in
  let serve tag = fresh_serve a s ~tag in
  let daemon_serve = serve "daemon" and plain_serve = serve "plain" in
  let traced_serve = serve "traced" in
  let sink = Automode_obs.Probe.standard traced.Rebuild.metrics in
  let k = ref (Calib.kernel_ms ()) in
  let timed = timed k in
  let samples =
    Array.mapi
      (fun i job ->
        let id = s.ids.(i) and line = s.lines.(i) in
        let daemon =
          match job with
          | Stream.Served _ ->
            s.ctx.serve <- daemon_serve;
            Some (timed (fun () -> Exec.run s.ctx ~id ~line job))
          | Catalog _ | Late_sweep _ | Late_litmus _ -> None
        in
        s.ctx.serve <- plain_serve;
        let p = timed (fun () -> Rebuild.run plain s.ctx ~id ~line job) in
        s.ctx.serve <- traced_serve;
        let t =
          timed (fun () ->
              Automode_obs.Probe.with_sink sink (fun () ->
                  Spans.job traced.Rebuild.spans i (fun () ->
                      Rebuild.run traced s.ctx ~id ~line job)))
        in
        (daemon, p, t))
      s.stream.jobs
  in
  ( traced,
    traced_serve,
    Array.map (fun (d, _, _) -> d) samples,
    Array.map (fun (_, p, _) -> p) samples,
    Array.map (fun (_, _, t) -> t) samples )

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { key : string; value : float; unit_ : string; integral : bool }

let ms key value = { key; value; unit_ = "ms"; integral = false }
let count key value = { key; value = float value; unit_ = "count"; integral = true }
let ratio key num den =
  { key; value = (if den = 0. then 0. else num /. den); unit_ = "ratio";
    integral = false }

let json_number m =
  if m.integral then Printf.sprintf "%d" (int_of_float m.value)
  else Printf.sprintf "%.17g" m.value

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.key
              (json_number m) m.unit_)
          metrics))

let audit_tsv s rounds ~latency ~cases =
  let b = Buffer.create 65536 in
  Buffer.add_string b
    "job\tid\tdescription\tcases\tround\twall_ms\tkernel_before_ms\t\
     kernel_after_ms\tfactor\tcalibrated_ms\tlatency_ms\tok\n";
  List.iteri
    (fun r samples ->
      Array.iteri
        (fun i x ->
          Printf.bprintf b
            "%d\t%s\t%s\t%d\t%d\t%.3f\t%.4f\t%.4f\t%.4f\t%.3f\t%.3f\t%b\n" i
            s.ids.(i)
            (Stream.describe s.stream.jobs.(i))
            cases.(i) r x.wall_ms x.before_ms x.after_ms
            (Calib.factor ~before_ms:x.before_ms ~after_ms:x.after_ms)
            (calibrated x) latency.(i) (Result.is_ok x.result))
        samples)
    rounds;
  Buffer.contents b

let layer_table ~title rows metrics =
  let b = Buffer.create 4096 in
  let total = List.fold_left (fun acc (_, _, _, self) -> acc +. self) 0. rows in
  Printf.bprintf b "%s\n%-20s %8s %12s %12s %7s\n" title "layer" "calls"
    "total_ms" "self_ms" "self%";
  List.iter
    (fun (layer, calls, tot, self) ->
      Printf.bprintf b "%-20s %8d %12.2f %12.2f %6.1f%%\n" layer calls
        (tot *. 1e3) (self *. 1e3)
        (if total > 0. then 100. *. self /. total else 0.))
    rows;
  List.iter
    (fun m -> Printf.bprintf b "%-28s %s %s\n" m.key (json_number m) m.unit_)
    metrics;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Checks                                                             *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

(* One execution of job [i]: it fails when it raised or when its report
   or gate differ from the straight-path reference. *)
let check tally s ~what i x (expected : Exec.output) =
  tally.attempted <- tally.attempted + 1;
  let ok = match x.result with Ok o -> o = expected | Error _ -> false in
  if not ok then begin
    tally.failed <- tally.failed + 1;
    Printf.eprintf "perfbench: %s of job %s (%s) %s\n%!" what s.ids.(i)
      (Stream.describe s.stream.jobs.(i))
      (match x.result with
       | Ok _ -> "differs from the straight-path reference"
       | Error e -> "raised " ^ e)
  end

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (--trace 1)                                      *)
(* ------------------------------------------------------------------ *)

let per_layer a s ~measured ~refs tally =
  let t, serve, daemon, plain, traced = rebuilt_round a s in
  Array.iteri
    (fun i d ->
      Option.iter
        (fun d -> check tally s ~what:"daemon run" i d refs.(i).Rebuild.out)
        d)
    daemon;
  Array.iteri
    (fun i x -> check tally s ~what:"untraced rebuild" i x refs.(i).Rebuild.out)
    plain;
  Array.iteri
    (fun i x -> check tally s ~what:"traced rebuild" i x refs.(i).Rebuild.out)
    traced;
  let factor =
    Array.map
      (fun x -> Calib.factor ~before_ms:x.before_ms ~after_ms:x.after_ms)
      traced
  in
  let rows = Spans.layers ~scale:(fun j -> factor.(j)) t.Rebuild.spans in
  let self layer =
    match List.find_opt (fun (l, _, _, _) -> l = layer) rows with
    | Some (_, _, _, self) -> self *. 1e3
    | None -> 0.
  in
  let value k = Option.value ~default:0 (M.value t.Rebuild.metrics k) in
  let sum xs = Array.fold_left (fun acc x -> acc +. calibrated x) 0. xs in
  let daemon_other =
    Array.fold_left ( +. ) 0.
      (Array.mapi
         (fun i d ->
           match d with
           | Some d -> calibrated d -. calibrated plain.(i)
           | None -> 0.)
         daemon)
  in
  let hits, misses, evictions =
    match serve with
    | Some sv -> Sv.Cache.stats sv.Exec.cache
    | None -> (0, 0, 0)
  in
  let disk_mb =
    match serve with
    | Some sv ->
      float (tree_bytes (Filename.dirname sv.Exec.spool // "cache")) /. 1e6
    | None -> 0.
  in
  let shared = value "campaign.prefix.shared_ticks" in
  let replayed = value "campaign.prefix.replayed_ticks" in
  let sim_ticks = t.Rebuild.sim_ticks in
  let mb words = words *. float (Sys.word_size / 8) /. 1e6 in
  let metrics =
    [ ms "sim.replay_ms" (self "sim.replay");
      ms "sim.sweep_ms" (self "sim.sweep");
      count "sim.ticks" (value "sim.ticks");
      { key = "sim.ns_per_tick";
        value =
          (if sim_ticks = 0 then 0.
           else
             (self "sim.sweep" +. self "sim.replay") *. 1e6 /. float sim_ticks);
        unit_ = "ns"; integral = false };
      count "sim.snapshot_restores" (value "sim.snapshot.restore");
      count "prefix.shared_ticks" shared;
      count "prefix.replayed_ticks" replayed;
      ratio "prefix.shared_ratio" (float shared) (float (shared + replayed));
      ms "fault.catalog_ms" (self "fault.catalog");
      ms "monitor.ms" (self "monitor");
      ms "shrink.self_ms" (self "shrink");
      count "shrink.replays" t.Rebuild.replays;
      ratio "shrink.kept_ratio" (float t.Rebuild.kept) (float t.Rebuild.replays);
      ms "report.render_ms" (self "report.render");
      ms "osek.simulate_ms" (self "osek.simulate");
      ms "litmus.synth_ms" (self "litmus.synth");
      ratio "litmus.unique_ratio" (float t.Rebuild.unique)
        (float t.Rebuild.evaluated);
      ms "serve.parse_ms" (self "serve.parse");
      ms "serve.catalog_ms" (self "serve.catalog");
      ms "serve.write_ms" (self "serve.write");
      ms "serve.daemon_other_ms" daemon_other;
      ratio "serve.cache_hit_ratio" (float hits) (float (hits + misses));
      count "serve.cache_misses" misses;
      count "serve.cache_evictions" evictions;
      { key = "serve.cache_disk_mb"; value = disk_mb; unit_ = "MB";
        integral = false };
      { key = "gc.alloc_mb"; value = mb measured.alloc_words; unit_ = "MB";
        integral = false };
      { key = "gc.top_heap_mb"; value = mb (float measured.top_heap_words);
        unit_ = "MB"; integral = false };
      count "gc.major_collections" measured.major_collections;
      ms "unattributed_ms" (self "job");
      { key = "trace_overhead_pct";
        value = 100. *. ((sum traced /. sum plain) -. 1.);
        unit_ = "%"; integral = false } ]
  in
  write_file (a.out // "trace.json") (Spans.chrome_json t.Rebuild.spans);
  let table =
    layer_table
      ~title:
        (Printf.sprintf
           "layer table: %s seed %d, traced round, calibrated ms (self = span \
            minus its child spans; \"job\" self = unattributed)"
           a.name a.seed)
      rows metrics
  in
  write_file (a.out // "layers.txt") table;
  print_string table;
  metrics

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let a = parse_args () in
  Sv.Cache.mkdir_p a.out;
  rm_rf a.work;
  let kernel_words = Calib.minor_words_per_call () in
  let setup_times, s = set_up_repeatedly a in
  let measured = timed_rounds a s in
  let rss = peak_rss_mb () in
  let n = Array.length s.stream.jobs in
  (* the reference, outside every timed region *)
  let memo = Rebuild.memo () in
  let refs =
    Array.mapi
      (fun i job -> Rebuild.reference memo s.ctx ~line:s.lines.(i) job)
      s.stream.jobs
  in
  let tally = { attempted = 0; failed = 0 } in
  List.iter
    (Array.iteri (fun i x ->
         check tally s ~what:"timed run" i x refs.(i).Rebuild.out))
    measured.rounds;
  let rounds = List.length measured.rounds in
  let latency =
    Array.init n (fun i ->
        List.fold_left
          (fun m r -> Float.min m (calibrated r.(i)))
          infinity measured.rounds)
  in
  let cases =
    Array.mapi
      (fun i job -> Stream.cases ~scenarios:refs.(i).Rebuild.scenarios job)
      s.stream.jobs
  in
  let total_cases = Array.fold_left ( + ) 0 cases in
  let p50 = Stats.percentile latency 50. and p90 = Stats.percentile latency 90. in
  let setup_s = Stats.median (Array.of_list setup_times) in
  write_file (a.out // "jobs.tsv") (audit_tsv s measured.rounds ~latency ~cases);
  Printf.printf
    "perfbench %s seed %d: %d jobs x %d rounds, %d cases; kernel allocates \
     %.0f words/call\n\
     job latency = best calibrated time of %d rounds (n=%d): p50 %.2f ms, \
     p90 %.2f ms (%d samples beyond it; highest percentile with >= 10 \
     beyond: %s)\n\
     set-up: median %.5f s of %d calibrated blocks\n"
    a.name a.seed n rounds total_cases kernel_words rounds n p50 p90
    (Stats.beyond ~n 90.)
    (match Stats.tail_percentile ~n with
     | Some p -> Printf.sprintf "p%g" p
     | None -> "none")
    setup_s (List.length setup_times);
  let metrics =
    if a.trace then per_layer a s ~measured ~refs tally
    else
      [ { key = "cases_per_s";
          value =
            float total_cases /. (Array.fold_left ( +. ) 0. latency /. 1e3);
          unit_ = "1/s"; integral = false };
        ms "job_p50_ms" p50;
        ms "job_p90_ms" p90;
        { key = "setup_s"; value = setup_s; unit_ = "s"; integral = false };
        { key = "peak_rss_mb"; value = rss; unit_ = "MB"; integral = false } ]
  in
  if kernel_words <> 0. then
    prerr_endline "perfbench: the calibration kernel allocates";
  rm_rf a.work;
  print_endline
    (result_json
       ~correct:(tally.failed = 0 && kernel_words = 0.)
       ~attempted:tally.attempted ~failed:tally.failed metrics)
