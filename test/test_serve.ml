(* Tests for the campaign service: digest stability (order-insensitive
   where order carries no meaning, sensitive where it does), the JSON
   codec, the two-tier content-addressed cache, byte-identical warm
   reports with range splicing, job parsing, and the spool daemon end
   to end. *)

open Automode_core
open Automode_robust
open Automode_casestudy
module Serve = Automode_serve

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

(* ------------------------------------------------------------------ *)
(* JSON codec                                                         *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let j =
    Serve.Json.Obj
      [ ("id", Serve.Json.String "a-b_c.1");
        ("n", Serve.Json.Int (-42));
        ("ok", Serve.Json.Bool true);
        ("null", Serve.Json.Null);
        ("xs", Serve.Json.List [ Serve.Json.Int 1; Serve.Json.Int 2 ]);
        ("esc", Serve.Json.String "a\"b\\c\nd\te") ]
  in
  let s = Serve.Json.to_string j in
  (match Serve.Json.parse s with
   | Ok j' -> checks "roundtrip" s (Serve.Json.to_string j')
   | Error e -> Alcotest.failf "reparse failed: %s" e);
  (match Serve.Json.parse "{\"u\":\"\\u00e9\\ud83d\\ude00\"}" with
   | Ok j -> (
     match Option.bind (Serve.Json.member "u" j) Serve.Json.to_str with
     | Some s -> checks "unicode escapes" "\xc3\xa9\xf0\x9f\x98\x80" s
     | None -> Alcotest.fail "missing member")
   | Error e -> Alcotest.failf "unicode parse failed: %s" e);
  checkb "trailing garbage rejected"
    true
    (Result.is_error (Serve.Json.parse "{} x"));
  checkb "unterminated rejected" true
    (Result.is_error (Serve.Json.parse "[1, 2"))

(* ------------------------------------------------------------------ *)
(* Digests                                                            *)
(* ------------------------------------------------------------------ *)

(* The same two-port component built with differently ordered port
   lists: structurally equal, so the digests must agree. *)
let two_port ~flip ~name =
  let pa = Model.in_port "a" ~ty:Dtype.Tint in
  let pb = Model.out_port "b" ~ty:Dtype.Tint in
  Model.component name
    ~ports:(if flip then [ pb; pa ] else [ pa; pb ])
    ~behavior:(Model.B_exprs [ ("b", Expr.var "a") ])

let test_digest_stability () =
  checks "port order is presentation"
    (Serve.Digest.component (two_port ~flip:false ~name:"X"))
    (Serve.Digest.component (two_port ~flip:true ~name:"X"));
  checkb "renaming changes the digest" false
    (String.equal
       (Serve.Digest.component (two_port ~flip:false ~name:"X"))
       (Serve.Digest.component (two_port ~flip:false ~name:"Y")));
  (* bundled case studies: distinct models, distinct digests; stable
     across calls *)
  let d1 = Serve.Digest.component Door_lock.component in
  checks "digest is stable" d1 (Serve.Digest.component Door_lock.component);
  checkb "distinct models differ" false
    (String.equal d1 (Serve.Digest.component Guarded.component))

let test_fault_digest_order_sensitive () =
  let f1 = Fault.dropout ~flow:"FZG_V" Fault.Always
  and f2 = Fault.spike ~flow:"CRSH" ~value:(Value.Bool true) Fault.Always in
  checkb "fault order is semantics" false
    (String.equal (Serve.Digest.faults [ f1; f2 ])
       (Serve.Digest.faults [ f2; f1 ]));
  checks "fault digest stable" (Serve.Digest.faults [ f1; f2 ])
    (Serve.Digest.faults [ f1; f2 ])

(* ------------------------------------------------------------------ *)
(* Cache                                                              *)
(* ------------------------------------------------------------------ *)

let test_cache_memory_tier () =
  let c = Serve.Cache.create ~capacity:2 () in
  Serve.Cache.store c [ ("k1", "v1"); ("k2", "v2") ];
  let get k = Serve.Cache.find c ~key:k ~decode:Option.some in
  checkb "k1 present" true (get "k1" = Some "v1");
  Serve.Cache.store c [ ("k3", "v3") ] (* evicts k1 (FIFO) *);
  checkb "k1 evicted" true (get "k1" = None);
  checkb "k3 present" true (get "k3" = Some "v3");
  let hits, misses, evictions = Serve.Cache.stats c in
  checki "hits" 2 hits;
  checki "misses" 1 misses;
  checki "evictions" 1 evictions;
  checkb "decode failure is a miss" true
    (Serve.Cache.find c ~key:"k2" ~decode:(fun _ -> None) = None)

let test_cache_disk_tier () =
  let dir = temp_dir "automode-cache" in
  let c = Serve.Cache.create ~dir () in
  Serve.Cache.store c [ ("sweep|abc|seed=1", "payload\nwith\nlines") ];
  (* a fresh cache over the same directory reads it back from disk *)
  let c2 = Serve.Cache.create ~dir () in
  checkb "disk roundtrip" true
    (Serve.Cache.find c2 ~key:"sweep|abc|seed=1" ~decode:Option.some
     = Some "payload\nwith\nlines");
  checkb "absent key misses" true
    (Serve.Cache.find c2 ~key:"sweep|abc|seed=2" ~decode:Option.some = None);
  checkb "capacity < 1 rejected" true
    (try ignore (Serve.Cache.create ~capacity:0 ()); false
     with Invalid_argument _ -> true)

let ( // ) = Filename.concat

let seeds_range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* The packs of a cache directory's disk tier, by name. *)
let packs dir =
  List.sort String.compare
    (List.filter
       (fun f -> Filename.check_suffix f ".pack")
       (Array.to_list (Sys.readdir (dir // "v2"))))

let only_pack dir =
  match packs dir with
  | [ p ] -> dir // "v2" // p
  | ps -> Alcotest.failf "expected one pack, found %d" (List.length ps)

(* Two domains write one path at once while this one reads it: every
   write succeeds, every read sees one writer's whole payload, and no
   temp file is left behind. *)
let test_write_atomic_domains () =
  let dir = temp_dir "automode-atomic" in
  let path = dir // "entry" in
  let payload c = String.make 4096 c in
  let running = Atomic.make 2 in
  let writer c =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.decr running)
          (fun () ->
            let failed = ref 0 in
            for _ = 1 to 1000 do
              try Serve.Cache.write_atomic ~path (payload c)
              with Sys_error _ -> incr failed
            done;
            !failed))
  in
  let a = writer 'a' and b = writer 'b' in
  let torn = ref 0 in
  while Atomic.get running > 0 do
    match read_file path with
    | s -> if s <> payload 'a' && s <> payload 'b' then incr torn
    | exception Sys_error _ -> ()
  done;
  let failed = Domain.join a + Domain.join b in
  checki "failed writes" 0 failed;
  checki "torn reads" 0 !torn;
  checkb "no temp file left" true (Sys.readdir dir = [| "entry" |])

(* A flipped payload byte that still decodes (a failing verdict's tick)
   makes only its own key miss: the re-run report is byte-identical to
   the uncached one, the pack's other keys hit, and the recomputed
   entry serves later lookups from disk. *)
let test_cache_corrupt_record () =
  let dir = temp_dir "automode-corrupt" in
  let scn = Robustness.door_lock_scenario in
  let seeds = seeds_range 1 6 in
  let sweep cache =
    Report.to_text (Serve.Cached.sweep ~cache ~shrink:false scn ~seeds)
  in
  let plain = Report.to_text (Scenario.sweep ~shrink:false scn ~seeds) in
  ignore (sweep (Serve.Cache.create ~dir ()));
  let pack = only_pack dir in
  let bytes = Bytes.of_string (read_file pack) in
  let tick =
    let marker = {|"f",|} in
    let rec find i =
      if Bytes.sub_string bytes i (String.length marker) = marker then
        i + String.length marker
      else find (i + 1)
    in
    find 0
  in
  let d = Bytes.get bytes tick in
  Bytes.set bytes tick (if d = '9' then '8' else Char.chr (Char.code d + 1));
  write_file pack (Bytes.to_string bytes);
  (* capacity 1: later lookups read the disk tier, not memory *)
  let cache = Serve.Cache.create ~capacity:1 ~dir () in
  let m = Automode_obs.Metrics.create () in
  let rerun () =
    Automode_obs.Probe.with_sink (Automode_obs.Probe.standard m) (fun () ->
        sweep cache)
  in
  checks "re-run report == uncached report" plain (rerun ());
  let hits, misses, _ = Serve.Cache.stats cache in
  checki "the pack's other keys hit" 5 hits;
  checki "only the damaged key misses" 1 misses;
  checkb "corrupt record counted" true
    (Automode_obs.Metrics.value m "serve.cache.corrupt" = Some 1);
  checks "warm report == uncached report" plain (rerun ());
  let hits', misses', _ = Serve.Cache.stats cache in
  checki "recomputed entry serves later lookups" 6 (hits' - hits);
  checki "no further misses" 0 (misses' - misses)

(* A pack truncated mid-record serves the records before the damage and
   misses the rest, without raising: a fresh cache indexes only the
   records before the cut, and the cache that indexed the whole pack
   reads the rest short.  A deleted pack misses as well. *)
let test_cache_truncated_pack () =
  let dir = temp_dir "automode-trunc" in
  (* capacity 1: the writer's lookups of k1 and k2 read the disk *)
  let writer = Serve.Cache.create ~capacity:1 ~dir () in
  Serve.Cache.store writer
    [ ("k1", "first"); ("k2", "second payload"); ("k3", "third") ];
  let pack = only_pack dir in
  let s = read_file pack in
  let rec find i = if String.sub s i 6 = "second" then i else find (i + 1) in
  write_file pack (String.sub s 0 (find 0 + 3));
  let c = Serve.Cache.create ~dir () in
  let get c key = Serve.Cache.find c ~key ~decode:Option.some in
  checkb "record before the damage" true (get c "k1" = Some "first");
  checkb "damaged record misses" true (get c "k2" = None);
  checkb "record after the damage misses" true (get c "k3" = None);
  checkb "whole-pack index: record before the damage" true
    (get writer "k1" = Some "first");
  checkb "whole-pack index: short read misses" true (get writer "k2" = None);
  Sys.remove pack;
  checkb "deleted pack misses" true (get writer "k3" = None)

(* An entry of the one-file-per-key v1/ layout is neither read nor
   touched. *)
let test_cache_ignores_v1 () =
  let dir = temp_dir "automode-v1" in
  let key = "sweep|abc|seed=1" in
  let name = Stdlib.Digest.to_hex (Stdlib.Digest.string key) in
  Serve.Cache.mkdir_p (dir // "v1");
  write_file (dir // "v1" // name) (key ^ "\npayload");
  let c = Serve.Cache.create ~dir () in
  checkb "v1 entry misses" true
    (Serve.Cache.find c ~key ~decode:Option.some = None);
  Serve.Cache.store c [ (key, "fresh") ];
  checkb "v1 tree untouched" true (Sys.readdir (dir // "v1") = [| name |]);
  checks "v1 entry untouched" (key ^ "\npayload")
    (read_file (dir // "v1" // name))

(* Exact disk-write counts: every store batch is one pack, and a warm
   run stores nothing. *)
let test_cache_pack_counts () =
  let dir = temp_dir "automode-packs" in
  let scn = Robustness.door_lock_scenario in
  let sweep seeds =
    let cache = Serve.Cache.create ~dir () in
    ignore (Serve.Cached.sweep ~cache ~shrink:false scn ~seeds);
    Serve.Cache.stats cache
  in
  ignore (sweep (seeds_range 1 40));
  checki "cold 40-seed sweep: one pack" 1 (List.length (packs dir));
  let hits, misses, _ = sweep (seeds_range 1 40) in
  checki "warm re-run: all hits" 40 hits;
  checki "warm re-run: no misses" 0 misses;
  checki "warm re-run: no new pack" 1 (List.length (packs dir));
  Serve.Cache.store (Serve.Cache.create ~dir ()) [];
  checki "empty batch: no pack" 1 (List.length (packs dir));
  ignore (sweep (seeds_range 31 50));
  checki "overlapping range: one more pack" 2 (List.length (packs dir));
  let dir = temp_dir "automode-packs-guard" in
  ignore
    (Serve.Catalog.run ~cache:(Serve.Cache.create ~dir ()) ~shrink:false
       ~kind:Serve.Job.Guard ~engine:false ~seeds:(seeds_range 1 4) ());
  checki "cold guard: one pack per leg" 3 (List.length (packs dir))

(* Caches sharing a directory see each other's packs: a batch stored
   through a second cache, created after the first, is a hit in the
   first.  The re-scan is gated on the directory's mtime, which the test
   sets to a fixed past time to hold it still. *)
let test_cache_shared_dir () =
  let dir = temp_dir "automode-shared" in
  let root = dir // "v2" in
  Serve.Cache.mkdir_p root;
  let settle () = Unix.utimes root 1e9 1e9 in
  settle ();
  let first = Serve.Cache.create ~dir () in
  let second = Serve.Cache.create ~dir () in
  let get key = Serve.Cache.find first ~key ~decode:Option.some in
  Serve.Cache.store second [ ("k1", "v1") ];
  checkb "the second cache's batch is a hit in the first" true
    (get "k1" = Some "v1");
  settle ();
  checkb "absent key misses" true (get "k0" = None);
  Serve.Cache.store second [ ("k2", "v2") ];
  settle ();
  checkb "unmoved mtime: no re-scan" true (get "k2" = None);
  Unix.utimes root 0. 0.;
  checkb "moved mtime: re-scanned" true (get "k2" = Some "v2")

(* Directory listings ([serve.cache.scan]): a cache that alone writes
   its directory lists it once, at create, however many (miss, store)
   rounds follow, because each store records the mtime its own rename
   left.  Another cache's store still moves the mtime past what the
   first one recorded, so the first lists again and hits.  The mtime is
   first set to a fixed past time, so the second cache's rename moves it
   whatever the timestamp granularity. *)
let test_cache_own_store_no_rescan () =
  let dir = temp_dir "automode-scan" in
  let root = dir // "v2" in
  let m = Automode_obs.Metrics.create () in
  let scans () =
    Option.value ~default:0 (Automode_obs.Metrics.value m "serve.cache.scan")
  in
  Automode_obs.Probe.with_sink (Automode_obs.Probe.standard m) (fun () ->
      let first = Serve.Cache.create ~dir () in
      checki "create lists once" 1 (scans ());
      for i = 1 to 10 do
        let key = Printf.sprintf "k%d" i in
        checkb (key ^ " misses") true
          (Serve.Cache.find first ~key ~decode:Option.some = None);
        Serve.Cache.store first [ (key, "v") ]
      done;
      checki "10 x (miss, store): no further listing" 1 (scans ());
      checki "one pack per store" 10 (List.length (packs dir));
      Unix.utimes root 1e9 1e9;
      checkb "absent key misses" true
        (Serve.Cache.find first ~key:"k0" ~decode:Option.some = None);
      checki "a moved mtime lists again" 2 (scans ());
      let second = Serve.Cache.create ~dir () in
      checki "the second cache lists at create" 3 (scans ());
      Serve.Cache.store second [ ("shared", "v2") ];
      checkb "the second cache's store is a hit in the first" true
        (Serve.Cache.find first ~key:"shared" ~decode:Option.some
         = Some "v2");
      checki "found by listing again" 4 (scans ()))

(* ------------------------------------------------------------------ *)
(* Cached sweeps: byte-identical warm reports, range splicing         *)
(* ------------------------------------------------------------------ *)

let test_warm_report_byte_identical () =
  let cache = Serve.Cache.create () in
  let seeds = seeds_range 1 6 in
  let scn = Robustness.door_lock_scenario in
  let cold = Serve.Cached.sweep ~cache scn ~seeds in
  let plain = Scenario.sweep scn ~seeds in
  checks "cold cached run == plain sweep (report bytes)"
    (Report.to_text plain) (Report.to_text cold);
  let h0, m0, _ = Serve.Cache.stats cache in
  let warm = Serve.Cached.sweep ~cache scn ~seeds in
  let h1, m1, _ = Serve.Cache.stats cache in
  checks "warm report byte-identical" (Report.to_text cold)
    (Report.to_text warm);
  checki "warm run: all hits" (List.length seeds) (h1 - h0);
  checki "warm run: no misses" 0 (m1 - m0)

let test_overlap_splicing () =
  let cache = Serve.Cache.create () in
  let scn = Robustness.door_lock_scenario in
  ignore (Serve.Cached.sweep ~cache ~shrink:false scn ~seeds:(seeds_range 1 4));
  let h0, m0, _ = Serve.Cache.stats cache in
  let spliced =
    Serve.Cached.sweep ~cache ~shrink:false scn ~seeds:(seeds_range 3 6)
  in
  let h1, m1, _ = Serve.Cache.stats cache in
  checki "overlap: two seeds from cache" 2 (h1 - h0);
  checki "overlap: two seeds computed" 2 (m1 - m0);
  checks "spliced report byte-identical to a fresh sweep"
    (Report.to_text (Scenario.sweep ~shrink:false scn ~seeds:(seeds_range 3 6)))
    (Report.to_text spliced)

(* Misses are spliced back by position, checking the seed at each step:
   a seed list with duplicates, out of order, renders the uncached
   report byte for byte, cold (every seed missing, duplicates included)
   and then warm (every seed a hit). *)
let test_splice_duplicate_unsorted_seeds () =
  let cache = Serve.Cache.create () in
  let scn = Robustness.door_lock_scenario in
  let seeds = [ 5; 2; 5; 9; 1; 2; 7 ] in
  let plain = Report.to_text (Scenario.sweep scn ~seeds) in
  checks "cold, duplicate and unsorted seeds" plain
    (Report.to_text (Serve.Cached.sweep ~cache scn ~seeds));
  let _, m0, _ = Serve.Cache.stats cache in
  checks "warm, duplicate and unsorted seeds" plain
    (Report.to_text (Serve.Cached.sweep ~cache scn ~seeds));
  let _, m1, _ = Serve.Cache.stats cache in
  checki "warm run: no misses" 0 (m1 - m0);
  (* the net legs splice the same way: seed 4 cached, the rest fresh *)
  let run ~seeds =
    List.map
      (fun seed ->
        ( seed,
          [ ( "m",
              if seed mod 2 = 0 then Monitor.Pass
              else Monitor.Fail { at_tick = seed; reason = "odd" } ) ] ))
      seeds
  in
  let net seeds = Serve.Cached.net_campaign ~cache ~leg:"splice" ~run ~seeds () in
  ignore (net [ 4 ]);
  let seeds = [ 3; 4; 8; 3; 1; 4 ] in
  checkb "net legs: partly cached" true (net seeds = run ~seeds);
  checkb "net legs: warm" true (net seeds = run ~seeds)

let test_shrink_flag_partitions_cache () =
  let cache = Serve.Cache.create () in
  let scn = Robustness.door_lock_scenario in
  ignore (Serve.Cached.sweep ~cache ~shrink:false scn ~seeds:[ 1 ]);
  let _, m0, _ = Serve.Cache.stats cache in
  ignore (Serve.Cached.sweep ~cache ~shrink:true scn ~seeds:[ 1 ]);
  let _, m1, _ = Serve.Cache.stats cache in
  checki "a no-shrink entry cannot serve a shrink run" 1 (m1 - m0)

let test_net_campaign_cached () =
  let cache = Serve.Cache.create () in
  let seeds = [ 1; 2 ] in
  let cold =
    Serve.Catalog.robustness_engine ~cache ~horizon:50_000 ~seeds ()
  in
  let h0, _, _ = Serve.Cache.stats cache in
  let warm =
    Serve.Catalog.robustness_engine ~cache ~horizon:50_000 ~seeds ()
  in
  let h1, _, _ = Serve.Cache.stats cache in
  checki "net legs served from cache" 2 (h1 - h0);
  checks "net campaign byte-identical"
    (Format.asprintf "%a" Robustness.pp_engine_campaign cold)
    (Format.asprintf "%a" Robustness.pp_engine_campaign warm);
  checks "matches the uncached campaign"
    (Format.asprintf "%a" Robustness.pp_engine_campaign
       (Robustness.engine_campaign ~horizon:50_000 ~seeds ()))
    (Format.asprintf "%a" Robustness.pp_engine_campaign cold)

(* ------------------------------------------------------------------ *)
(* Jobs                                                               *)
(* ------------------------------------------------------------------ *)

let test_job_parsing () =
  (match
     Serve.Job.parse_line
       "{\"id\":\"j1\",\"kind\":\"guard\",\"seeds\":{\"from\":2,\"to\":5}}"
   with
   | Ok j ->
     checks "id" "j1" j.Serve.Job.id;
     checkb "kind" true (j.Serve.Job.kind = Serve.Job.Guard);
     Alcotest.(check (list int)) "range expands" [ 2; 3; 4; 5 ]
       j.Serve.Job.seeds;
     checkb "defaults" true
       (j.Serve.Job.shrink && (not j.Serve.Job.engine)
        && j.Serve.Job.horizon = 200_000)
   | Error e -> Alcotest.failf "parse failed: %s" e);
  (match
     Serve.Job.parse_line
       "{\"id\":\"j2\",\"kind\":\"redund\",\"seeds\":[7,9],\"shrink\":false,\
        \"horizon\":50000}"
   with
   | Ok j ->
     Alcotest.(check (list int)) "explicit seeds" [ 7; 9 ] j.Serve.Job.seeds;
     checkb "shrink off" false j.Serve.Job.shrink;
     checki "horizon" 50_000 j.Serve.Job.horizon
   | Error e -> Alcotest.failf "parse failed: %s" e);
  let rejected line =
    match Serve.Job.parse_line line with Ok _ -> false | Error _ -> true
  in
  checkb "missing id" true (rejected "{\"kind\":\"guard\",\"seeds\":[1]}");
  checkb "bad id" true
    (rejected "{\"id\":\"a b\",\"kind\":\"guard\",\"seeds\":[1]}");
  checkb "dot-led id" true
    (rejected "{\"id\":\".a\",\"kind\":\"guard\",\"seeds\":[1]}");
  checkb "bad kind" true
    (rejected "{\"id\":\"j\",\"kind\":\"nope\",\"seeds\":[1]}");
  checkb "zero seed" true
    (rejected "{\"id\":\"j\",\"kind\":\"guard\",\"seeds\":[0]}");
  checkb "inverted range" true
    (rejected
       "{\"id\":\"j\",\"kind\":\"guard\",\"seeds\":{\"from\":5,\"to\":2}}");
  checkb "not json" true (rejected "nope");
  (* to_json . parse_line is stable *)
  match Serve.Job.parse_line "{\"id\":\"j3\",\"kind\":\"robustness\",\"seeds\":[1,2]}" with
  | Ok j ->
    let s = Serve.Json.to_string (Serve.Job.to_json j) in
    (match Serve.Job.parse_line s with
     | Ok j' -> checkb "reparse equal" true (j = j')
     | Error e -> Alcotest.failf "reparse failed: %s" e)
  | Error e -> Alcotest.failf "parse failed: %s" e

(* ------------------------------------------------------------------ *)
(* Daemon                                                             *)
(* ------------------------------------------------------------------ *)

let write_job dir name lines =
  let oc = open_out (Filename.concat dir name) in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let daemon_config ~spool ~results ?cache ?(workers = 1) ?reclaim_s () =
  { Serve.Daemon.spool; results; cache; workers; domains = 1;
    poll_s = 0.05; once = true; max_jobs = None; socket = None; reclaim_s }

let test_daemon_spool () =
  let spool = temp_dir "automode-spool" in
  let results = temp_dir "automode-results" in
  let cache = Serve.Cache.create () in
  write_job spool "10-a.json"
    [ "{\"id\":\"a\",\"kind\":\"robustness\",\"seeds\":{\"from\":1,\
       \"to\":3},\"shrink\":false}" ];
  write_job spool "20-b.json"
    [ "{\"id\":\"b\",\"kind\":\"robustness\",\"seeds\":{\"from\":1,\
       \"to\":3},\"shrink\":false}";
      "this is not a job" ];
  let summary =
    Serve.Daemon.run (daemon_config ~spool ~results ~cache ())
  in
  checki "accepted" 2 summary.Serve.Daemon.accepted;
  checki "completed" 2 summary.Serve.Daemon.completed;
  checki "failed (the unparsable line)" 1 summary.Serve.Daemon.failed;
  let slurp p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let expected =
    (Serve.Catalog.run ~shrink:false ~kind:Serve.Job.Robustness ~engine:false
       ~seeds:[ 1; 2; 3 ] ())
      .Serve.Catalog.report
  in
  checks "job a report == one-shot catalog run" expected
    (slurp (Filename.concat results "a.report.txt"));
  checks "job b (warm, from cache) byte-identical" expected
    (slurp (Filename.concat results "b.report.txt"));
  checkb "a done" true
    (Sys.file_exists (Filename.concat spool "done/10-a.json"));
  checkb "b failed (bad second line)" true
    (Sys.file_exists (Filename.concat spool "failed/20-b.json"));
  (* status of b records the cache splice *)
  match Serve.Json.parse (slurp (Filename.concat results "b.json")) with
  | Error e -> Alcotest.failf "status json: %s" e
  | Ok j ->
    let member path =
      List.fold_left
        (fun acc k -> Option.bind acc (Serve.Json.member k))
        (Some j) path
    in
    checkb "status done" true
      (Option.bind (member [ "status" ]) Serve.Json.to_str = Some "done");
    checkb "all seeds from cache" true
      (Option.bind (member [ "cache"; "hits" ]) Serve.Json.to_int = Some 3);
    checkb "no recompute" true
      (Option.bind (member [ "cache"; "misses" ]) Serve.Json.to_int = Some 0)

(* A poison file — no parseable line at all — is quarantined with a JSON
   error status, and the valid files around it both complete. *)
let test_daemon_poison_quarantine () =
  let spool = temp_dir "automode-spoolq" in
  let results = temp_dir "automode-resultsq" in
  write_job spool "10-ok.json"
    [ "{\"id\":\"q-a\",\"kind\":\"robustness\",\"seeds\":[1],\
       \"shrink\":false}" ];
  write_job spool "20-poison.json"
    [ "this is not json"; "{\"also\": \"not a job\"}" ];
  write_job spool "30-ok.json"
    [ "{\"id\":\"q-b\",\"kind\":\"robustness\",\"seeds\":[2],\
       \"shrink\":false}" ];
  let summary = Serve.Daemon.run (daemon_config ~spool ~results ()) in
  checki "both valid jobs completed" 2 summary.Serve.Daemon.completed;
  checki "both poison lines counted failed" 2 summary.Serve.Daemon.failed;
  checkb "valid files done" true
    (Sys.file_exists (Filename.concat spool "done/10-ok.json")
     && Sys.file_exists (Filename.concat spool "done/30-ok.json"));
  checkb "poison file quarantined, not failed" true
    (Sys.file_exists (Filename.concat spool "quarantine/20-poison.json")
     && not (Sys.file_exists (Filename.concat spool "failed/20-poison.json")));
  checkb "valid reports written" true
    (Sys.file_exists (Filename.concat results "q-a.report.txt")
     && Sys.file_exists (Filename.concat results "q-b.report.txt"));
  let slurp p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let status_path =
    Filename.concat results "20-poison.json.quarantine.json"
  in
  checkb "quarantine status written" true (Sys.file_exists status_path);
  match Serve.Json.parse (slurp status_path) with
  | Error e -> Alcotest.failf "quarantine status json: %s" e
  | Ok j ->
    checkb "status says quarantined" true
      (Option.bind (Serve.Json.member "status" j) Serve.Json.to_str
       = Some "quarantined");
    checkb "one error per poison line" true
      (match Serve.Json.member "errors" j with
       | Some (Serve.Json.List es) -> List.length es = 2
       | _ -> false)

(* Proptest jobs: the catalog arm is the same code path the CLI's pair
   target uses, and the whole-report cache entry replays byte for
   byte. *)
let test_proptest_job () =
  let cache = Serve.Cache.create () in
  let cold =
    Serve.Catalog.run ~cache ~kind:Serve.Job.Proptest ~engine:false
      ~iterations:2 ~seeds:[ 1; 2 ] ()
  in
  checkb "contrast gate holds" true cold.Serve.Catalog.gate_ok;
  let direct = Serve.Catalog.proptest ~iterations:2 ~seeds:[ 1; 2 ] () in
  checks "catalog arm == direct proptest" direct.Serve.Catalog.report
    cold.Serve.Catalog.report;
  let h0, m0, _ = Serve.Cache.stats cache in
  let warm =
    Serve.Catalog.run ~cache ~kind:Serve.Job.Proptest ~engine:false
      ~iterations:2 ~seeds:[ 1; 2 ] ()
  in
  let h1, _, _ = Serve.Cache.stats cache in
  checks "warm report byte-identical" cold.Serve.Catalog.report
    warm.Serve.Catalog.report;
  checkb "warm run is one whole-report hit" true (h1 = h0 + 1 && m0 = 1);
  (* different iterations key differently *)
  let other =
    Serve.Catalog.run ~cache ~kind:Serve.Job.Proptest ~engine:false
      ~iterations:1 ~seeds:[ 1; 2 ] ()
  in
  checkb "iterations partition the cache" true
    (not (String.equal other.Serve.Catalog.report cold.Serve.Catalog.report))

(* Litmus jobs: seeds are optional, bound validates, and the catalog
   arm serves warm runs entirely from the per-scenario cache with a
   byte-identical report. *)
let test_litmus_job () =
  (match Serve.Job.parse_line "{\"id\":\"l1\",\"kind\":\"litmus\"}" with
   | Ok j ->
     checkb "kind" true (j.Serve.Job.kind = Serve.Job.Litmus);
     checki "default bound" 2 j.Serve.Job.bound;
     Alcotest.(check (list int)) "seeds optional for litmus" []
       j.Serve.Job.seeds
   | Error e -> Alcotest.failf "parse failed: %s" e);
  (match
     Serve.Job.parse_line "{\"id\":\"l2\",\"kind\":\"litmus\",\"bound\":3}"
   with
   | Ok j ->
     checki "explicit bound" 3 j.Serve.Job.bound;
     (* to_json round-trips the bound *)
     (match
        Serve.Job.parse_line (Serve.Json.to_string (Serve.Job.to_json j))
      with
      | Ok j' -> checkb "reparse equal" true (j = j')
      | Error e -> Alcotest.failf "reparse failed: %s" e)
   | Error e -> Alcotest.failf "parse failed: %s" e);
  let rejected line =
    match Serve.Job.parse_line line with Ok _ -> false | Error _ -> true
  in
  checkb "non-positive bound rejected" true
    (rejected "{\"id\":\"l\",\"kind\":\"litmus\",\"bound\":0}");
  checkb "seeds still required for campaign kinds" true
    (rejected "{\"id\":\"l\",\"kind\":\"guard\"}");
  let cache = Serve.Cache.create () in
  let cold =
    Serve.Catalog.run ~cache ~kind:Serve.Job.Litmus ~engine:false ~bound:2
      ~seeds:[] ()
  in
  checkb "litmus gate holds" true cold.Serve.Catalog.gate_ok;
  let direct = Serve.Catalog.litmus ~bound:2 () in
  checks "catalog arm == direct litmus" direct.Serve.Catalog.report
    cold.Serve.Catalog.report;
  let h0, _, _ = Serve.Cache.stats cache in
  let warm =
    Serve.Catalog.run ~cache ~kind:Serve.Job.Litmus ~engine:false ~bound:2
      ~seeds:[] ()
  in
  let h1, _, _ = Serve.Cache.stats cache in
  checks "warm report byte-identical" cold.Serve.Catalog.report
    warm.Serve.Catalog.report;
  checki "every scenario served from cache" 120 (h1 - h0)

(* Stale-claim recovery: a worker claims a spool file and is killed
   before running the job; the file sits orphaned in running/ until a
   daemon with a reclaim timeout sweeps it back and completes it. *)
let test_daemon_reclaims_stale_claim () =
  let spool = temp_dir "automode-spoolr" in
  let results = temp_dir "automode-resultsr" in
  let running = Filename.concat spool "running" in
  Unix.mkdir running 0o755;
  write_job spool "50-orphan.json"
    [ "{\"id\":\"r1\",\"kind\":\"robustness\",\"seeds\":[1],\
       \"shrink\":false}" ];
  (* the doomed worker: claim the file like the daemon would, then die
     without touching it again *)
  (match Unix.fork () with
   | 0 ->
     (try
        Unix.rename
          (Filename.concat spool "50-orphan.json")
          (Filename.concat running "50-orphan.json")
      with _ -> ());
     Unix._exit 0
   | pid -> ignore (Unix.waitpid [] pid));
  checkb "claim orphaned in running/" true
    (Sys.file_exists (Filename.concat running "50-orphan.json"));
  (* a fresh-looking claim must NOT be reclaimed before the timeout *)
  let summary =
    Serve.Daemon.run (daemon_config ~spool ~results ~reclaim_s:3600. ())
  in
  checki "young claim left alone" 0 summary.Serve.Daemon.completed;
  checkb "still orphaned" true
    (Sys.file_exists (Filename.concat running "50-orphan.json"));
  (* age the claim past the timeout (deterministic stand-in for
     waiting out the wall clock) *)
  Unix.utimes (Filename.concat running "50-orphan.json") 1. 1.;
  let summary =
    Serve.Daemon.run (daemon_config ~spool ~results ~reclaim_s:1. ())
  in
  checki "reclaimed job completed" 1 summary.Serve.Daemon.completed;
  checki "nothing failed" 0 summary.Serve.Daemon.failed;
  checkb "report written" true
    (Sys.file_exists (Filename.concat results "r1.report.txt"));
  checkb "spool file ends in done/" true
    (Sys.file_exists (Filename.concat spool "done/50-orphan.json"));
  checkb "running/ drained" true
    (not (Sys.file_exists (Filename.concat running "50-orphan.json")))

(* A litmus job through the spool: the daemon's report file is
   byte-identical to the one-shot catalog rendering. *)
let test_daemon_litmus_job () =
  let spool = temp_dir "automode-spooll" in
  let results = temp_dir "automode-resultsl" in
  write_job spool "lit.json"
    [ "{\"id\":\"lit-1\",\"kind\":\"litmus\",\"bound\":2}" ];
  let summary = Serve.Daemon.run (daemon_config ~spool ~results ()) in
  checki "litmus job completed" 1 summary.Serve.Daemon.completed;
  let slurp p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  checks "daemon litmus report == one-shot catalog run"
    (Serve.Catalog.litmus ~bound:2 ()).Serve.Catalog.report
    (slurp (Filename.concat results "lit-1.report.txt"))

let test_daemon_concurrent_workers () =
  let spool = temp_dir "automode-spool2" in
  let results = temp_dir "automode-results2" in
  write_job spool "c.json"
    [ "{\"id\":\"c\",\"kind\":\"robustness\",\"seeds\":[1,2],\
       \"shrink\":false}" ];
  write_job spool "d.json"
    [ "{\"id\":\"d\",\"kind\":\"guard\",\"seeds\":[1,2],\"shrink\":false}" ];
  let summary =
    Serve.Daemon.run (daemon_config ~spool ~results ~workers:2 ())
  in
  checki "both completed" 2 summary.Serve.Daemon.completed;
  let slurp p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  checks "concurrent robustness report == serial"
    (Serve.Catalog.run ~shrink:false ~kind:Serve.Job.Robustness ~engine:false
       ~seeds:[ 1; 2 ] ())
      .Serve.Catalog.report
    (slurp (Filename.concat results "c.report.txt"));
  checks "concurrent guard report == serial"
    (Serve.Catalog.run ~shrink:false ~kind:Serve.Job.Guard ~engine:false
       ~seeds:[ 1; 2 ] ())
      .Serve.Catalog.report
    (slurp (Filename.concat results "d.report.txt"))

let test_catalog_batched_identical () =
  List.iter
    (fun (name, kind) ->
      let go ?domains ?instances () =
        Serve.Catalog.run ?domains ?instances ~shrink:false ~horizon:50_000
          ~kind ~engine:false ~seeds:[ 1; 2 ] ()
      in
      let looped = go () in
      let same label (batched : Serve.Catalog.outcome) =
        checks (name ^ " " ^ label) looped.Serve.Catalog.report
          batched.Serve.Catalog.report;
        checkb (name ^ " " ^ label ^ " gate") looped.Serve.Catalog.gate_ok
          batched.Serve.Catalog.gate_ok
      in
      same "8 instances byte-identical" (go ~instances:8 ());
      same "4 domains x 4 instances byte-identical"
        (go ~domains:4 ~instances:4 ()))
    [ ("robustness", Serve.Job.Robustness);
      ("guard", Serve.Job.Guard);
      ("redund", Serve.Job.Redund) ]

(* Prefix sharing (on by default) changes no byte of any catalog
   report, for all five job kinds, including under the
   domains x instances cross product. *)
let test_catalog_prefix_identical () =
  List.iter
    (fun (name, kind) ->
      let go ?domains ?instances ?prefix_share () =
        Serve.Catalog.run ?domains ?instances ?prefix_share ~shrink:false
          ~horizon:50_000 ~iterations:1 ~kind ~engine:false ~seeds:[ 1; 2 ]
          ()
      in
      let looped = go ~prefix_share:false () in
      let same label (shared : Serve.Catalog.outcome) =
        checks (name ^ " " ^ label) looped.Serve.Catalog.report
          shared.Serve.Catalog.report;
        checkb (name ^ " " ^ label ^ " gate") looped.Serve.Catalog.gate_ok
          shared.Serve.Catalog.gate_ok
      in
      same "shared == looped" (go ());
      same "shared, 4 domains x 4 instances == looped"
        (go ~domains:4 ~instances:4 ()))
    [ ("robustness", Serve.Job.Robustness);
      ("guard", Serve.Job.Guard);
      ("redund", Serve.Job.Redund);
      ("proptest", Serve.Job.Proptest);
      ("litmus", Serve.Job.Litmus) ]

(* The job schema's [prefix_share] field: absent means [true], an
   explicit [false] survives the to_json round-trip. *)
let test_job_prefix_share_field () =
  (match
     Serve.Job.parse_line "{\"id\":\"p1\",\"kind\":\"robustness\",\"seeds\":[1]}"
   with
   | Ok j -> checkb "default on" true j.Serve.Job.prefix_share
   | Error e -> Alcotest.failf "parse failed: %s" e);
  match
    Serve.Job.parse_line
      "{\"id\":\"p2\",\"kind\":\"robustness\",\"seeds\":[1],\
       \"prefix_share\":false}"
  with
  | Ok j ->
    checkb "explicit off" false j.Serve.Job.prefix_share;
    (match
       Serve.Job.parse_line (Serve.Json.to_string (Serve.Job.to_json j))
     with
     | Ok j' -> checkb "round-trips" true (j = j')
     | Error e -> Alcotest.failf "reparse failed: %s" e)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_daemon_socket () =
  let spool = temp_dir "automode-spool3" in
  let sock_path = Filename.concat spool "sock" in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX sock_path);
  Unix.listen listener 4;
  Unix.set_nonblock listener;
  let client = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect client (Unix.ADDR_UNIX sock_path);
  let payload =
    "{\"id\":\"s1\",\"kind\":\"robustness\",\"seeds\":[1]}\n\
     {\"id\":\"bad id\",\"kind\":\"robustness\",\"seeds\":[1]}\n"
  in
  ignore (Unix.write_substring client payload 0 (String.length payload));
  Unix.shutdown client Unix.SHUTDOWN_SEND;
  checki "one job spooled" 1 (Serve.Daemon.drain_socket listener ~spool);
  let buf = Bytes.create 4096 in
  let n = Unix.read client buf 0 4096 in
  let reply = Bytes.sub_string buf 0 n in
  checkb "valid job acknowledged" true
    (String.length reply >= 9 && String.sub reply 0 9 = "queued s1");
  checkb "invalid job rejected" true
    (let lines = String.split_on_char '\n' reply in
     List.exists
       (fun l -> String.length l >= 6 && String.sub l 0 6 = "error:")
       lines);
  Unix.close client;
  Unix.close listener;
  checkb "spool file written" true
    (Array.exists
       (fun f -> Filename.check_suffix f ".json")
       (Sys.readdir spool))

(* ------------------------------------------------------------------ *)

let suite =
  [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "digest stability" `Quick test_digest_stability;
    Alcotest.test_case "fault digest order-sensitive" `Quick
      test_fault_digest_order_sensitive;
    Alcotest.test_case "cache memory tier" `Quick test_cache_memory_tier;
    Alcotest.test_case "cache disk tier" `Quick test_cache_disk_tier;
    Alcotest.test_case "cache corrupt record" `Quick test_cache_corrupt_record;
    Alcotest.test_case "cache truncated pack" `Quick test_cache_truncated_pack;
    Alcotest.test_case "cache ignores v1 entries" `Quick test_cache_ignores_v1;
    Alcotest.test_case "cache pack counts" `Quick test_cache_pack_counts;
    Alcotest.test_case "cache shared directory" `Quick test_cache_shared_dir;
    Alcotest.test_case "cache own stores need no listing" `Quick
      test_cache_own_store_no_rescan;
    Alcotest.test_case "warm report byte-identical" `Quick
      test_warm_report_byte_identical;
    Alcotest.test_case "overlapping range splicing" `Quick
      test_overlap_splicing;
    Alcotest.test_case "splice duplicate, unsorted seeds" `Quick
      test_splice_duplicate_unsorted_seeds;
    Alcotest.test_case "shrink flag partitions cache" `Quick
      test_shrink_flag_partitions_cache;
    Alcotest.test_case "net campaign cached" `Quick test_net_campaign_cached;
    Alcotest.test_case "job parsing" `Quick test_job_parsing;
    Alcotest.test_case "daemon spool end-to-end" `Quick test_daemon_spool;
    Alcotest.test_case "daemon poison-job quarantine" `Quick
      test_daemon_poison_quarantine;
    Alcotest.test_case "proptest job kind" `Quick test_proptest_job;
    Alcotest.test_case "litmus job kind" `Quick test_litmus_job;
    Alcotest.test_case "daemon reclaims stale claims" `Quick
      test_daemon_reclaims_stale_claim;
    Alcotest.test_case "daemon litmus job" `Quick test_daemon_litmus_job;
    Alcotest.test_case "daemon concurrent workers" `Quick
      test_daemon_concurrent_workers;
    Alcotest.test_case "catalog batched byte-identical" `Quick
      test_catalog_batched_identical;
    Alcotest.test_case "catalog prefix-shared byte-identical" `Quick
      test_catalog_prefix_identical;
    Alcotest.test_case "job prefix_share field" `Quick
      test_job_prefix_share_field;
    Alcotest.test_case "daemon socket intake" `Quick test_daemon_socket;
    (* spawns domains, so it runs after the test that forks *)
    Alcotest.test_case "write_atomic from two domains" `Quick
      test_write_atomic_domains ]

let () = Alcotest.run "serve" [ ("serve", suite) ]
