(* Per-seed cache entries and range splicing.

   Entry payloads are JSON (see the encoders below).  Two invariants
   make the warm path byte-identical to the cold one:

   - the injected fault list of a seed is re-derived from the scenario
     (it is a pure function of the seed), so shrunk counterexamples can
     be stored as indices into it and decode back to the very same
     Fault.t values Report renders;
   - failures are rebuilt per seed in verdict order and concatenated in
     seed order — the exact order Scenario.sweep produces. *)

open Automode_robust

(* ------------------------------------------------------------------ *)
(* Entry codec: scenario seeds                                        *)
(* ------------------------------------------------------------------ *)

let encode_verdict (mon, v) =
  match v with
  | Monitor.Pass -> Json.List [ Json.String mon; Json.String "p" ]
  | Monitor.Fail { at_tick; reason } ->
    Json.List
      [ Json.String mon; Json.String "f"; Json.Int at_tick;
        Json.String reason ]

let decode_verdict = function
  | Json.List [ Json.String mon; Json.String "p" ] -> Some (mon, Monitor.Pass)
  | Json.List
      [ Json.String mon; Json.String "f"; Json.Int at_tick;
        Json.String reason ] ->
    Some (mon, Monitor.Fail { at_tick; reason })
  | _ -> None

(* A shrunk fault's position in the injected list: physical equality
   first (the shrinker only removes elements), description equality
   as the fallback. *)
let fault_index injected f =
  let rec go i = function
    | [] -> None
    | g :: rest ->
      if g == f || String.equal (Fault.describe g) (Fault.describe f) then
        Some i
      else go (i + 1) rest
  in
  go 0 injected

let encode_failure injected (fl : Scenario.failure) =
  let shrunk =
    match fl.Scenario.shrunk with
    | None -> Some Json.Null
    | Some o ->
      let idxs =
        List.map (fun f -> fault_index injected f) o.Shrink.faults
      in
      if List.exists Option.is_none idxs then None
      else
        Some
          (Json.List
             [ Json.List
                 (List.map (fun i -> Json.Int (Option.get i)) idxs);
               Json.Int o.Shrink.ticks; Json.String o.Shrink.reason ])
  in
  Option.map
    (fun shrunk ->
      Json.List [ Json.String fl.Scenario.fail_monitor; shrunk ])
    shrunk

let decode_shrunk injected = function
  | Json.Null -> Some None
  | Json.List [ Json.List idxs; Json.Int ticks; Json.String reason ] ->
    let n = List.length injected in
    let faults =
      List.map
        (function
          | Json.Int i when i >= 0 && i < n -> Some (List.nth injected i)
          | _ -> None)
        idxs
    in
    if List.exists Option.is_none faults then None
    else
      Some
        (Some
           { Shrink.faults = List.map Option.get faults; ticks; reason })
  | _ -> None

let entry_version = 1

(* None when a shrunk fault cannot be indexed (never happens for
   Shrink outcomes, but a custom shrinker could) — the seed is
   then simply not cached. *)
let encode_entry (r : Scenario.seed_result) (failures : Scenario.failure list)
    =
  let shrunks = List.map (encode_failure r.Scenario.injected) failures in
  if List.exists Option.is_none shrunks then None
  else
    Some
      (Json.to_string
         (Json.Obj
            [ ("v", Json.Int entry_version);
              ("verdicts",
               Json.List (List.map encode_verdict r.Scenario.verdicts));
              ("shrunk", Json.List (List.map Option.get shrunks)) ]))

(* Decode one seed's entry back into (seed_result, failure list);
   None on any mismatch — the caller recomputes. *)
let decode_entry scn ~seed ~shrink payload =
  match Json.parse payload with
  | Error _ -> None
  | Ok json ->
    let ( let* ) = Option.bind in
    let* v = Option.bind (Json.member "v" json) Json.to_int in
    if v <> entry_version then None
    else
      let* verdict_js = Option.bind (Json.member "verdicts" json) Json.to_list in
      let verdicts = List.map decode_verdict verdict_js in
      if List.exists Option.is_none verdicts then None
      else
        let verdicts = List.map Option.get verdicts in
        let monitor_names = Scenario.monitors scn in
        if
          List.length verdicts <> List.length monitor_names
          || not
               (List.for_all2 String.equal (List.map fst verdicts)
                  monitor_names)
        then None
        else
          let injected = Scenario.faults scn ~seed in
          let* shrunk_js = Option.bind (Json.member "shrunk" json) Json.to_list in
          let shrunk_of mon =
            List.find_map
              (function
                | Json.List [ Json.String m; s ] when String.equal m mon ->
                  Some s
                | _ -> None)
              shrunk_js
          in
          let failures =
            List.filter_map
              (fun (mon, v) ->
                if not (Monitor.is_fail v) then None
                else
                  Some
                    (let* s = shrunk_of mon in
                     let* shrunk = decode_shrunk injected s in
                     (* a shrink run must find shrunk outcomes cached;
                        a no-shrink run stores (and expects) Null *)
                     if shrink && shrunk = None then None
                     else
                       Some
                         { Scenario.fail_seed = seed; fail_monitor = mon;
                           verdict = v; shrunk }))
              verdicts
          in
          if List.exists Option.is_none failures then None
          else
            Some
              ( { Scenario.seed; injected; verdicts },
                List.map Option.get failures )

(* ------------------------------------------------------------------ *)
(* Cached sweep with range splicing                                   *)
(* ------------------------------------------------------------------ *)

(* The cached [(seed, hit)] list with each miss filled, in order, from
   [fresh] — the missing seeds' [(seed, value)] results in the order they
   were asked for.  One walk, checking the seed at each step. *)
let splice cached fresh =
  let fresh = ref fresh in
  List.map
    (fun (seed, hit) ->
      match hit, !fresh with
      | Some v, _ -> v
      | None, (s, v) :: rest when Int.equal s seed ->
        fresh := rest;
        v
      | None, _ -> invalid_arg "Cached.splice: fresh results out of step")
    cached

(* Look every seed up under its key: the [(seed, hit)] list {!splice}
   walks, and the missing seeds with the key each was looked up with,
   which is the key their fresh verdicts are stored under. *)
let probe cache ~key ~decode seeds =
  let missing = ref [] in
  let cached =
    List.map
      (fun seed ->
        let key = key seed in
        let hit = Cache.find cache ~key ~decode:(decode seed) in
        if Option.is_none hit then missing := (seed, key) :: !missing;
        (seed, hit))
      seeds
  in
  (cached, List.rev !missing)

let seed_key ~scenario_digest scn ~shrink seed =
  Printf.sprintf "sweep|%s|seed=%d|faults=%s|shrink=%b|%s" scenario_digest
    seed
    (Digest.faults (Scenario.faults scn ~seed))
    shrink Digest.engine_rev

(* [prefix_share] is deliberately absent from the cache key: the
   prefix-shared execution is byte-identical to the looped one, so
   entries computed either way are interchangeable. *)
let sweep ?cache ?(shrink = true) ?(domains = 1) ?(instances = 1)
    ?(prefix_share = true) scn ~seeds =
  match cache with
  | None -> Scenario.sweep ~shrink ~domains ~instances ~prefix_share scn ~seeds
  | Some cache ->
    let scenario_digest = Digest.scenario scn in
    let cached, missing =
      probe cache
        ~key:(seed_key ~scenario_digest scn ~shrink)
        ~decode:(fun seed -> decode_entry scn ~seed ~shrink)
        seeds
    in
    let fresh =
      if missing = [] then []
      else begin
        (* only the uncached seeds are simulated — batched over the
           instance axis when [instances > 1] and prefix-shared by
           default, as Scenario.sweep *)
        let results =
          Scenario.run_seeds ~domains ~instances ~prefix_share scn
            ~seeds:(List.map fst missing)
        in
        (* shrinking runs serially after the sweep, as in Scenario.sweep *)
        let fresh =
          List.map2
            (fun (seed, key) r ->
              (seed, key, (r, Scenario.seed_failures ~shrink scn r)))
            missing results
        in
        Cache.store cache
          (List.filter_map
             (fun (_, key, (r, failures)) ->
               Option.map (fun payload -> (key, payload))
                 (encode_entry r failures))
             fresh);
        List.map (fun (seed, _, v) -> (seed, v)) fresh
      end
    in
    let per_seed = splice cached fresh in
    { Scenario.scenario = Scenario.name scn;
      horizon = Scenario.ticks scn;
      seeds;
      results = List.map fst per_seed;
      failures = List.concat_map snd per_seed }

(* ------------------------------------------------------------------ *)
(* Net-level legs: bare (seed, verdicts) lists                        *)
(* ------------------------------------------------------------------ *)

let encode_net_entry verdicts =
  Json.to_string
    (Json.Obj
       [ ("v", Json.Int entry_version);
         ("verdicts", Json.List (List.map encode_verdict verdicts)) ])

let decode_net_entry payload =
  match Json.parse payload with
  | Error _ -> None
  | Ok json ->
    (match Option.bind (Json.member "v" json) Json.to_int with
     | Some v when v = entry_version ->
       Option.bind (Json.member "verdicts" json) Json.to_list
       |> Option.map (List.map decode_verdict)
       |> Option.map (fun vs ->
              if List.exists Option.is_none vs then None
              else Some (List.map Option.get vs))
       |> Option.join
     | Some _ | None -> None)

let net_campaign ?cache ~leg ~run ~seeds () =
  match cache with
  | None -> run ~seeds
  | Some cache ->
    let key seed =
      Printf.sprintf "net|%s|seed=%d|%s" leg seed Digest.engine_rev
    in
    let cached, missing =
      probe cache ~key ~decode:(fun _ -> decode_net_entry) seeds
    in
    let fresh = if missing = [] then [] else run ~seeds:(List.map fst missing) in
    (* splicing first checks that [run] answered the missing seeds in order *)
    let verdicts = splice cached fresh in
    Cache.store cache
      (List.map2
         (fun (_, key) (_, verdicts) -> (key, encode_net_entry verdicts))
         missing fresh);
    List.map2 (fun (seed, _) v -> (seed, v)) cached verdicts
