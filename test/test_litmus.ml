(* Tests for bounded-exhaustive litmus synthesis: alphabet naming,
   scenario-space enumeration, twin classification (QCheck-fuzzed
   hash/classification coupling), dedup + minimality, the cache hooks,
   and suite round-trip/replay regression detection. *)

open Automode_core
open Automode_litmus
open Automode_casestudy

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let raises f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Alphabet                                                           *)
(* ------------------------------------------------------------------ *)

let test_alphabet_names () =
  let a =
    Alphabet.spikes ~flow:"V" ~values:[ Value.Float 2. ] ~at:[ 1 ] ~hold:3
  in
  checks "spike name" "spike:V=2@t1h3" (List.hd (Alphabet.names a));
  let s = Alphabet.silences ~flow:"V" ~at:[ 0 ] ~holds:[ 6 ] in
  checks "silence name" "silence:V@t0h6" (List.hd (Alphabet.names s));
  checkb "find resolves" true
    (Alphabet.find Litmus_lock.alphabet "silence:FZG_V@t0h6" <> None);
  checkb "find misses cleanly" true
    (Alphabet.find Litmus_lock.alphabet "no-such-atom" = None)

let test_alphabet_union_rejects_duplicates () =
  let a = Alphabet.silences ~flow:"V" ~at:[ 0 ] ~holds:[ 6 ] in
  checkb "duplicate name rejected" true
    (raises (fun () -> Alphabet.union [ a; a ]));
  checkb "whitespace inject name rejected" true
    (raises (fun () ->
         Alphabet.inject ~name:"bad name"
           (Automode_robust.Fault.dropout ~flow:"V"
              (Automode_robust.Fault.Window { from_tick = 0; until_tick = 1 }))))

(* ------------------------------------------------------------------ *)
(* Scenario space                                                     *)
(* ------------------------------------------------------------------ *)

let test_space_counts () =
  let alphabet = Litmus_lock.alphabet in
  let n = Alphabet.size alphabet in
  checki "alphabet size" 15 n;
  List.iter
    (fun bound ->
      let scns = Space.enumerate ~alphabet ~bound in
      checki
        (Printf.sprintf "enumerate matches total at k=%d" bound)
        (Space.total ~alphabet:n ~bound)
        (List.length scns))
    [ 1; 2; 3 ];
  checki "k=1 is the alphabet" n
    (List.length (Space.enumerate ~alphabet ~bound:1))

let test_space_order_deterministic () =
  let alphabet = Litmus_lock.alphabet in
  let canon bound =
    List.map Space.canonical (Space.enumerate ~alphabet ~bound)
  in
  checkb "same order across runs" true (canon 2 = canon 2);
  (* size-ascending: every size-1 canonical precedes every size-2 one *)
  let sizes =
    List.map Space.size (Space.enumerate ~alphabet ~bound:2)
  in
  checkb "size-ascending" true (List.sort compare sizes = sizes)

let test_space_cap () =
  let alphabet = Litmus_lock.alphabet in
  let scns = Space.enumerate ~alphabet ~bound:2 in
  let kept, dropped = Space.cap 10 scns in
  checki "cap keeps n" 10 (List.length kept);
  checkb "cap reports drop" true dropped;
  let all, dropped = Space.cap 1_000 scns in
  checki "no-op cap keeps all" (List.length scns) (List.length all);
  checkb "no-op cap reports nothing dropped" false dropped;
  checkb "empty scenario rejected" true (raises (fun () -> Space.of_atoms []))

(* ------------------------------------------------------------------ *)
(* Classification                                                     *)
(* ------------------------------------------------------------------ *)

let twin = Litmus_lock.twin ()
let nominal = Eval.nominal twin

let classify_atom name =
  match Alphabet.find Litmus_lock.alphabet name with
  | None -> Alcotest.failf "atom %s not in alphabet" name
  | Some op -> Eval.evaluate twin ~nominal (Space.of_atoms [ (name, op) ])

let test_classify_spike_distinguishing () =
  let c = classify_atom "spike:FZG_V=2@t1h3" in
  checkb "unguarded fails" true (c.Eval.unguarded_failures <> []);
  checkb "guarded clean" true (c.Eval.guarded_failures = []);
  checkb "distinguishing" true (Eval.distinguishing c);
  checkb "tagged" true (List.mem "distinguishing" c.Eval.tags);
  checkb "no violations" true (c.Eval.violations = [])

let test_classify_command_both_fail () =
  (* the deliberate both-fail atom: an extra successful lock makes the
     base t22 request unanswerable on both twins — a tag, not a
     stated-bound violation *)
  let c = classify_atom "cmd:T4S=Locked@t14" in
  checkb "unguarded fails" true (c.Eval.unguarded_failures <> []);
  checkb "guarded fails too" true (c.Eval.guarded_failures <> []);
  checkb "not distinguishing" false (Eval.distinguishing c);
  checkb "tagged both-fail" true (List.mem "both-fail" c.Eval.tags);
  checkb "not a guard regression" true (c.Eval.violations = [])

let test_encode_decode_roundtrip () =
  let c = classify_atom "silence:FZG_V@t0h10" in
  (match Eval.decode ~canon:c.Eval.canon (Eval.encode c) with
   | None -> Alcotest.fail "decode of encode failed"
   | Some c' -> checkb "round-trips" true (c = c'));
  checkb "garbage decodes to None" true
    (Eval.decode ~canon:"x" "not a payload" = None)

(* QCheck fuzz: the dedup invariant — scenarios with equal divergence
   hashes must have byte-equal classifications (canon aside). *)
let qcheck_hash_determines_classification =
  let atoms = Alphabet.to_list Litmus_lock.alphabet in
  let n = List.length atoms in
  let gen =
    (* a random non-empty subset of <= 3 atoms, by index *)
    QCheck.(list_of_size (Gen.int_range 1 3) (int_range 0 (n - 1)))
  in
  QCheck.Test.make ~name:"equal hash => byte-equal classification"
    ~count:120 gen (fun idxs ->
      let idxs = List.sort_uniq compare idxs in
      let chosen = List.filteri (fun i _ -> List.mem i idxs) atoms in
      let c = Eval.evaluate twin ~nominal (Space.of_atoms chosen) in
      (* compare against the synthesis-k=1 classifications with the
         same hash: every collision must encode identically *)
      List.for_all
        (fun (name, op) ->
          let c1 = Eval.evaluate twin ~nominal (Space.of_atoms [ (name, op) ]) in
          (not (String.equal c1.Eval.hash c.Eval.hash))
          || String.equal (Eval.encode c1) (Eval.encode c))
        atoms)

(* ------------------------------------------------------------------ *)
(* Synthesis                                                          *)
(* ------------------------------------------------------------------ *)

let synth ?cache ?(bound = 2) ?domains ?instances ?prefix_share ?engine () =
  Litmus_lock.synthesize ?cache
    ~config:{ Synth.default_config with Synth.bound }
    ?domains ?instances ?prefix_share ?engine ()

let test_synth_counts_coherent () =
  let r = synth () in
  checki "full space enumerated" 120 r.Synth.res_enumerated;
  checkb "not capped" false r.Synth.res_capped;
  checki "unique + duplicates = evaluated" r.Synth.res_evaluated
    (r.Synth.res_unique + r.Synth.res_duplicates);
  checkb "found duplicates at k=2" true (r.Synth.res_duplicates > 0);
  checkb "found distinguishing scenarios" true
    (r.Synth.res_distinguishing > 0);
  checkb "found a minimal pin" true (r.Synth.res_minimal <> []);
  checkb "no stated-bound violations" true (r.Synth.res_violations = []);
  checkb "gate passes" true (Synth.gate r);
  let rows_enumerated =
    List.fold_left
      (fun acc row -> acc + row.Synth.row_enumerated)
      0 r.Synth.res_rows
  in
  checki "size rows cover the space" r.Synth.res_evaluated rows_enumerated

let test_synth_minimality () =
  (* every pinned scenario is minimal: each proper atom subset must be a
     non-survivor when evaluated directly *)
  let r = synth () in
  List.iter
    (fun p ->
      let atoms =
        List.map
          (fun name ->
            match Alphabet.find Litmus_lock.alphabet name with
            | Some op -> (name, op)
            | None -> Alcotest.failf "pinned atom %s vanished" name)
          p.Synth.pin_atoms
      in
      let k = List.length atoms in
      checkb (p.Synth.pin_id ^ " survives") true
        (Eval.survivor p.Synth.pin_class);
      for drop = 0 to k - 1 do
        if k > 1 then begin
          let subset = List.filteri (fun i _ -> i <> drop) atoms in
          let c = Eval.evaluate twin ~nominal (Space.of_atoms subset) in
          checkb
            (p.Synth.pin_id ^ " proper subset does not survive")
            false (Eval.survivor c)
        end
      done)
    r.Synth.res_minimal

let test_synth_min_ticks () =
  let r = synth ~bound:1 () in
  let horizon = r.Synth.res_horizon in
  List.iter
    (fun p ->
      checkb (p.Synth.pin_id ^ " min-ticks within horizon") true
        (p.Synth.pin_min_ticks >= 1 && p.Synth.pin_min_ticks <= horizon))
    r.Synth.res_minimal;
  (* the t0 silence fails lock-answered at t2 but needs the 6-tick hold
     plus recovery to settle: shrink pins a strictly shorter horizon *)
  match
    List.find_opt
      (fun p -> p.Synth.pin_atoms = [ "silence:FZG_V@t0h6" ])
      r.Synth.res_minimal
  with
  | None -> Alcotest.fail "silence:FZG_V@t0h6 not pinned"
  | Some p ->
    checkb "silence pin shrinks below the horizon" true
      (p.Synth.pin_min_ticks < horizon)

let test_synth_deterministic_report () =
  let a = Synth.to_text (synth ()) in
  let b = Synth.to_text (synth ()) in
  checks "report byte-stable" a b;
  let d = Synth.to_text (synth ~domains:4 ()) in
  checks "report identical under domains" a d;
  let e =
    Synth.to_text (synth ~engine:Automode_proptest.Builder.Interpreted ())
  in
  checks "report identical across engines" a e

let test_synth_batched_identical () =
  let looped = Synth.to_text (synth ()) in
  checks "16 instances byte-identical" looped (Synth.to_text (synth ~instances:16 ()));
  checks "domains x instances byte-identical" looped
    (Synth.to_text (synth ~domains:4 ~instances:4 ()));
  (* The per-scenario cache must also be oblivious to batching: a cache
     warmed by a batched run serves a looped run entirely from hits, and
     the stored payloads are identical either way. *)
  let store : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let hooks =
    { Synth.cache_prefix = "batch|";
      cache_find = Hashtbl.find_opt store;
      cache_store = List.iter (fun (k, v) -> Hashtbl.replace store k v) }
  in
  let cold = synth ~cache:hooks ~instances:16 () in
  let batched_payloads = Hashtbl.copy store in
  let warm = synth ~cache:hooks () in
  checki "looped run after batched warm-up hits everything"
    warm.Synth.res_evaluated warm.Synth.res_cache_hits;
  checks "batched and looped cached reports byte-identical"
    (Synth.to_text cold) (Synth.to_text warm);
  Hashtbl.reset store;
  let _ = synth ~cache:hooks () in
  Hashtbl.iter
    (fun k v ->
      match Hashtbl.find_opt batched_payloads k with
      | None -> Alcotest.failf "looped run stored an unknown key %s" k
      | Some v' -> checks "cache payload identical" v' v)
    store

(* Prefix sharing is on by default; the synthesis report must equal
   the looped (~prefix_share:false) run, including across the
   domains x instances cross product and a cache warmed either way
   (prefix_share is deliberately absent from the cache key). *)
let test_synth_prefix_identical () =
  let looped = Synth.to_text (synth ~prefix_share:false ()) in
  checks "shared == looped" looped (Synth.to_text (synth ()));
  checks "shared, 16 instances == looped" looped
    (Synth.to_text (synth ~instances:16 ()));
  checks "shared, 4 domains x 4 instances == looped" looped
    (Synth.to_text (synth ~domains:4 ~instances:4 ()));
  let store : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let hooks =
    { Synth.cache_prefix = "prefix|";
      cache_find = Hashtbl.find_opt store;
      cache_store = List.iter (fun (k, v) -> Hashtbl.replace store k v) }
  in
  let cold = synth ~cache:hooks () in
  let warm = synth ~cache:hooks ~prefix_share:false () in
  checki "looped run after shared warm-up hits everything"
    warm.Synth.res_evaluated warm.Synth.res_cache_hits;
  checks "shared-warmed and looped cached reports byte-identical"
    (Synth.to_text cold) (Synth.to_text warm)

(* Streaming classification: a cold synthesis classifies every scenario
   inside the executor's consumers, and the cache hooks capture the
   payload each classification stores.  Every payload must equal the
   looped path's [Eval.evaluate] of its scenario, in enumeration order,
   under every plan and on both engines. *)
let test_synth_streaming_payloads () =
  let scenarios = Space.enumerate ~alphabet:Litmus_lock.alphabet ~bound:2 in
  let expected =
    List.map
      (fun s ->
        "canon " ^ Space.canonical s ^ "\n"
        ^ Eval.encode (Eval.evaluate twin ~nominal s))
      scenarios
  in
  let check label ?domains ?instances ?engine () =
    let stored = ref [] in
    let hooks =
      { Synth.cache_prefix = "stream|";
        cache_find = (fun _ -> None);
        cache_store = (fun batch -> stored := !stored @ batch) }
    in
    let r = synth ~cache:hooks ?domains ?instances ?engine () in
    checki (label ^ ": all misses") (List.length scenarios)
      r.Synth.res_cache_misses;
    checki (label ^ ": one payload per scenario") (List.length scenarios)
      (List.length !stored);
    List.iter2
      (fun want (_, got) -> checks label want got)
      expected !stored
  in
  List.iter
    (fun (domains, instances) ->
      check
        (Printf.sprintf "domains %d, instances %d" domains instances)
        ~domains ~instances ())
    [ (1, 1); (1, 16); (2, 1); (2, 16) ];
  List.iter
    (fun domains ->
      check
        (Printf.sprintf "interpreted, domains %d" domains)
        ~domains ~engine:Automode_proptest.Builder.Interpreted ())
    [ 1; 2 ]

let test_synth_cache_roundtrip () =
  let store : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let hooks =
    { Synth.cache_prefix = "test|";
      cache_find = Hashtbl.find_opt store;
      cache_store = List.iter (fun (k, v) -> Hashtbl.replace store k v) }
  in
  let cold = synth ~cache:hooks () in
  checki "cold run misses everything" cold.Synth.res_evaluated
    cold.Synth.res_cache_misses;
  let warm = synth ~cache:hooks () in
  checki "warm run hits everything" warm.Synth.res_evaluated
    warm.Synth.res_cache_hits;
  checki "warm run misses nothing" 0 warm.Synth.res_cache_misses;
  checks "cold and warm reports byte-identical" (Synth.to_text cold)
    (Synth.to_text warm)

(* ------------------------------------------------------------------ *)
(* Suite round-trip and replay                                        *)
(* ------------------------------------------------------------------ *)

let test_suite_roundtrip () =
  let suite = Suite.of_result ~model:"m123" (synth ()) in
  let text = Suite.to_text suite in
  (match Suite.parse text with
   | Error e -> Alcotest.failf "parse failed: %s" e
   | Ok suite' ->
     checkb "parse inverts to_text" true (suite = suite');
     checks "re-render byte-identical" text (Suite.to_text suite'));
  checkb "garbage rejected" true
    (match Suite.parse "not a suite\n" with Error _ -> true | Ok _ -> false)

let test_replay_green_and_deterministic () =
  let suite = Suite.of_result (synth ()) in
  let r1 = Litmus_lock.replay suite in
  checkb "freshly pinned suite replays green" true (Suite.ok r1);
  let r2 = Litmus_lock.replay suite in
  checks "replay report byte-stable" r1.Suite.rep_report r2.Suite.rep_report;
  let r4 = Litmus_lock.replay ~domains:4 suite in
  checks "replay identical under domains" r1.Suite.rep_report
    r4.Suite.rep_report;
  let ri =
    Litmus_lock.replay ~engine:Automode_proptest.Builder.Interpreted suite
  in
  checks "replay identical across engines" r1.Suite.rep_report
    ri.Suite.rep_report

let test_replay_detects_regressions () =
  let suite = Suite.of_result ~model:"m1" (synth ()) in
  (* a tampered hash must regress *)
  let tampered =
    { suite with
      Suite.suite_entries =
        List.mapi
          (fun i e ->
            if i = 0 then { e with Suite.entry_hash = "deadbeef" } else e)
          suite.Suite.suite_entries }
  in
  checkb "tampered hash regresses" false
    (Suite.ok (Litmus_lock.replay tampered));
  (* an atom the alphabet no longer defines must regress *)
  let unknown =
    { suite with
      Suite.suite_entries =
        List.mapi
          (fun i e ->
            if i = 0 then { e with Suite.entry_atoms = [ "gone:atom" ] }
            else e)
          suite.Suite.suite_entries }
  in
  checkb "unknown atom regresses" false
    (Suite.ok (Litmus_lock.replay unknown));
  (* a model digest mismatch regresses only when both sides carry one *)
  checkb "model mismatch regresses" false
    (Suite.ok (Litmus_lock.replay ~model:"m2" suite));
  checkb "unbound model side is ignored" true
    (Suite.ok (Litmus_lock.replay suite))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "automode-litmus"
    [ ( "alphabet",
        [ Alcotest.test_case "deterministic names" `Quick test_alphabet_names;
          Alcotest.test_case "union rejects duplicates" `Quick
            test_alphabet_union_rejects_duplicates ] );
      ( "space",
        [ Alcotest.test_case "counts match the binomial total" `Quick
            test_space_counts;
          Alcotest.test_case "enumeration order deterministic" `Quick
            test_space_order_deterministic;
          Alcotest.test_case "cap" `Quick test_space_cap ] );
      ( "eval",
        [ Alcotest.test_case "spike distinguishes the twins" `Quick
            test_classify_spike_distinguishing;
          Alcotest.test_case "both-fail command is a tag, not a violation"
            `Quick test_classify_command_both_fail;
          Alcotest.test_case "encode/decode round-trip" `Quick
            test_encode_decode_roundtrip ]
        @ qsuite [ qcheck_hash_determines_classification ] );
      ( "synth",
        [ Alcotest.test_case "counts coherent, gate passes" `Quick
            test_synth_counts_coherent;
          Alcotest.test_case "pinned scenarios are minimal" `Quick
            test_synth_minimality;
          Alcotest.test_case "min-ticks pins shrink" `Quick
            test_synth_min_ticks;
          Alcotest.test_case "report byte-stable across domains/engines"
            `Quick test_synth_deterministic_report;
          Alcotest.test_case "cache round-trip" `Quick
            test_synth_cache_roundtrip;
          Alcotest.test_case "streamed payloads = looped classification"
            `Quick test_synth_streaming_payloads;
          Alcotest.test_case "batched synthesis byte-identical" `Quick
            test_synth_batched_identical;
          Alcotest.test_case "prefix-shared synthesis byte-identical" `Quick
            test_synth_prefix_identical ] );
      ( "suite",
        [ Alcotest.test_case "round-trip" `Quick test_suite_roundtrip;
          Alcotest.test_case "replay green and deterministic" `Quick
            test_replay_green_and_deterministic;
          Alcotest.test_case "replay detects regressions" `Quick
            test_replay_detects_regressions ] ) ]
