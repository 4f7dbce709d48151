open Automode_robust
open Automode_proptest
module Probe = Automode_obs.Probe

type cache = {
  cache_prefix : string;
  cache_find : string -> string option;
  cache_store : (string * string) list -> unit;
}

type config = {
  bound : int;
  max_scenarios : int;
  shrink : bool;
}

let default_config = { bound = 2; max_scenarios = 100_000; shrink = true }

type pinned = {
  pin_id : string;
  pin_atoms : string list;
  pin_class : Eval.classification;
  pin_min_ticks : int;
}

type size_row = {
  row_size : int;
  row_enumerated : int;
  row_unique : int;
  row_distinguishing : int;
  row_minimal : int;
}

type result = {
  res_twin : string;
  res_bound : int;
  res_alphabet : int;
  res_horizon : int;
  res_enumerated : int;
  res_evaluated : int;
  res_capped : bool;
  res_unique : int;
  res_duplicates : int;
  res_distinguishing : int;
  res_violations : (string * string * string) list;
  res_minimal : pinned list;
  res_rows : size_row list;
  res_cache_hits : int;
  res_cache_misses : int;
}

(* Non-empty proper subsets of the atom list, as canonical forms. *)
let proper_subset_canons atoms =
  let arr = Array.of_list atoms in
  let n = Array.length arr in
  let rec subsets start k =
    if k = 0 then [ [] ]
    else if n - start < k then []
    else
      List.map (fun rest -> start :: rest) (subsets (start + 1) (k - 1))
      @ subsets (start + 1) k
  in
  List.concat_map
    (fun k ->
      List.map
        (fun ids -> String.concat "+" (List.map (fun i -> fst arr.(i)) ids))
        (subsets 0 k))
    (List.init (max 0 (n - 1)) (fun i -> i + 1))

let run ?cache ?(config = default_config) ?(domains = 1) ?(instances = 1)
    ?(prefix_share = true) ~twin ~alphabet () =
  if config.bound < 1 then invalid_arg "Synth.run: bound must be >= 1";
  if config.max_scenarios < 1 then
    invalid_arg "Synth.run: max_scenarios must be >= 1";
  if domains < 1 then invalid_arg "Synth.run: domains must be >= 1";
  if instances < 1 then invalid_arg "Synth.run: instances must be >= 1";
  Builder.prepare twin.Eval.unguarded;
  Builder.prepare twin.Eval.guarded;
  let nominal = Eval.nominal twin in
  let horizon = Builder.ticks twin.Eval.unguarded in
  let space = Space.enumerate ~alphabet ~bound:config.bound in
  let enumerated = List.length space in
  let scenarios, capped = Space.cap config.max_scenarios space in
  let key_of c canon =
    c.cache_prefix ^ Stdlib.Digest.to_hex (Stdlib.Digest.string canon)
  in
  let lookup scenario =
    let canon = Space.canonical scenario in
    match cache with
    | None -> (scenario, canon, None)
    | Some c ->
      let decode payload =
        match String.index_opt payload '\n' with
        | Some i when String.sub payload 0 i = "canon " ^ canon ->
          Eval.decode ~canon
            (String.sub payload (i + 1) (String.length payload - i - 1))
        | _ -> None
      in
      (scenario, canon, Option.bind (c.cache_find (key_of c canon)) decode)
  in
  (* probe the cache serially, then sweep the misses through the
     campaign executor, one case per scenario and twin side, classifying
     each trace as it completes: the unguarded sweep keeps a summary per
     scenario, the guarded sweep turns each summary into the scenario's
     classification, and no trace outlives its chunk *)
  let probed = List.map lookup scenarios in
  let misses =
    Array.of_list
      (List.filter_map
         (fun (s, canon, hit) -> if hit = None then Some (s, canon) else None)
         probed)
  in
  let opss = Array.map (fun (s, _) -> Space.ops s) misses in
  let sweep builder ~f =
    Builder.map_cases ~domains ~instances ~share:prefix_share builder ~seed:0
      ~ticks:(Builder.ticks builder) opss ~f
  in
  let summaries =
    sweep twin.Eval.unguarded ~f:(fun _ tr -> Eval.summarize twin ~nominal tr)
  in
  let classified =
    sweep twin.Eval.guarded ~f:(fun i tr ->
        Eval.classify twin ~nominal ~canon:(snd misses.(i)) summaries.(i) tr)
  in
  let next_miss = ref 0 in
  let evaluated =
    List.map
      (fun (s, _, hit) ->
        match hit with
        | Some cls -> (s, cls, true)
        | None ->
          let cls = classified.(!next_miss) in
          incr next_miss;
          (s, cls, false))
      probed
  in
  (* one store for the run's misses *)
  Option.iter
    (fun c ->
      c.cache_store
        (List.filter_map
           (fun (_, cls, hit) ->
             if hit then None
             else
               let canon = cls.Eval.canon in
               Some (key_of c canon, "canon " ^ canon ^ "\n" ^ Eval.encode cls))
           evaluated))
    cache;
  let cache_hits =
    List.length (List.filter (fun (_, _, hit) -> hit) evaluated)
  in
  let cache_misses = List.length evaluated - cache_hits in
  (* Deduplicate by divergence hash, first occurrence (enumeration
     order) wins — TransForm's new-hash/total bookkeeping. *)
  let seen = Hashtbl.create 97 in
  let tagged =
    List.map
      (fun (s, cls, _) ->
        let fresh = not (Hashtbl.mem seen cls.Eval.hash) in
        if fresh then Hashtbl.add seen cls.Eval.hash ();
        (s, cls, fresh))
      evaluated
  in
  let by_canon = Hashtbl.create 97 in
  List.iter
    (fun (_, cls, _) -> Hashtbl.replace by_canon cls.Eval.canon cls)
    tagged;
  let unique =
    List.filter_map
      (fun (s, cls, fresh) -> if fresh then Some (s, cls) else None)
      tagged
  in
  let distinguishing =
    List.filter (fun (_, c) -> Eval.distinguishing c) unique
  in
  let violations =
    List.concat_map
      (fun (_, c) ->
        List.map (fun (check, d) -> (c.Eval.canon, check, d)) c.Eval.violations)
      unique
  in
  (* Minimal survivors: no proper atom subset survives.  The space is
     enumerated by size and the cap keeps a prefix of it, so every
     proper subset of an evaluated scenario was evaluated too: the
     check below is exact, and a pin is 1-minimal without re-running
     it. *)
  let minimal_candidates =
    List.filter
      (fun (s, c) ->
        Eval.survivor c
        && List.for_all
             (fun sub ->
               match Hashtbl.find_opt by_canon sub with
               | Some sub_cls -> not (Eval.survivor sub_cls)
               | None -> true)
             (proper_subset_canons (Space.atoms s)))
      unique
  in
  (* the classification holds the unguarded twin's failure reason, so
     the pin's horizon shrinks without replaying the full scenario *)
  let min_ticks_of s cls =
    if not config.shrink then horizon
    else
      match cls.Eval.unguarded_failures with
      | [] -> horizon
      | (monitor, _, reason) :: _ ->
        let faults =
          Builder.faults_of twin.Eval.unguarded ~seed:0 ~ops:(Space.ops s)
        in
        (Shrink.minimize_faults
           ~run:(fun ~faults ~ticks ->
             Builder.run_faults twin.Eval.unguarded ~faults ~ticks)
           ~monitor ~faults ~ticks:horizon ~reason)
          .Shrink.ticks
  in
  let minimal =
    minimal_candidates
    |> List.mapi (fun i (s, cls) ->
           { pin_id = Printf.sprintf "L%03d" (i + 1);
             pin_atoms = List.map fst (Space.atoms s);
             pin_class = cls;
             pin_min_ticks = min_ticks_of s cls })
  in
  let rows =
    List.init config.bound (fun i ->
        let size = i + 1 in
        let of_size f l = List.length (List.filter f l) in
        { row_size = size;
          row_enumerated =
            of_size (fun (s, _, _) -> Space.size s = size) tagged;
          row_unique =
            of_size (fun (s, _, fresh) -> fresh && Space.size s = size) tagged;
          row_distinguishing =
            of_size
              (fun (s, c) -> Space.size s = size && Eval.distinguishing c)
              unique;
          row_minimal =
            of_size
              (fun p -> List.length p.pin_atoms = size)
              minimal })
  in
  Probe.count ~by:enumerated "litmus.scenarios.enumerated";
  Probe.count ~by:(List.length evaluated) "litmus.scenarios.evaluated";
  Probe.count ~by:(List.length unique) "litmus.scenarios.unique";
  Probe.count
    ~by:(List.length evaluated - List.length unique)
    "litmus.scenarios.duplicate";
  Probe.count
    ~by:(List.length distinguishing)
    "litmus.scenarios.distinguishing";
  Probe.count ~by:(List.length minimal) "litmus.scenarios.minimal";
  Probe.count ~by:cache_hits "litmus.cache.hit";
  Probe.count ~by:cache_misses "litmus.cache.miss";
  { res_twin = twin.Eval.twin_name;
    res_bound = config.bound;
    res_alphabet = Alphabet.size alphabet;
    res_horizon = horizon;
    res_enumerated = enumerated;
    res_evaluated = List.length evaluated;
    res_capped = capped;
    res_unique = List.length unique;
    res_duplicates = List.length evaluated - List.length unique;
    res_distinguishing = List.length distinguishing;
    res_violations = violations;
    res_minimal = minimal;
    res_rows = rows;
    res_cache_hits = cache_hits;
    res_cache_misses = cache_misses }

let gate r =
  r.res_violations = []
  && List.exists (fun p -> Eval.distinguishing p.pin_class) r.res_minimal

let to_text r =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "litmus synthesis: %s" r.res_twin;
  line "  alphabet        %d atoms, bound %d, horizon %d ticks"
    r.res_alphabet r.res_bound r.res_horizon;
  line "  enumerated      %d scenarios, %d evaluated%s" r.res_enumerated
    r.res_evaluated
    (if r.res_capped then " (capped by --max-scenarios)" else "");
  line "  unique          %d divergence hashes (%d duplicates)" r.res_unique
    r.res_duplicates;
  line "  distinguishing  %d unique scenarios" r.res_distinguishing;
  line "  violations      %d" (List.length r.res_violations);
  line "  minimal         %d pinned scenarios" (List.length r.res_minimal);
  line "";
  line "  size | enumerated | new-hash | distinguishing | minimal";
  List.iter
    (fun row ->
      line "  %4d | %10d | %8d | %14d | %7d" row.row_size row.row_enumerated
        row.row_unique row.row_distinguishing row.row_minimal)
    r.res_rows;
  if r.res_violations <> [] then begin
    line "";
    line "violations:";
    List.iter
      (fun (canon, check, detail) -> line "  %s: %s: %s" canon check detail)
      r.res_violations
  end;
  line "";
  if r.res_minimal = [] then line "minimal scenarios: none"
  else begin
    line "minimal scenarios:";
    List.iter
      (fun p ->
        line "  %s  %s" p.pin_id (String.concat "+" p.pin_atoms);
        line "        hash=%s min-ticks=%d tags=%s" p.pin_class.Eval.hash
          p.pin_min_ticks
          (String.concat "," p.pin_class.Eval.tags);
        (match p.pin_class.Eval.unguarded_failures with
         | [] -> ()
         | fails ->
           line "        unguarded fails %s"
             (String.concat ";"
                (List.map
                   (fun (m, t, _) -> Printf.sprintf "%s@t%d" m t)
                   fails)));
        (match p.pin_class.Eval.violations with
         | [] -> ()
         | vs ->
           line "        violates %s"
             (String.concat ";" (List.map (fun (c, d) -> c ^ ": " ^ d) vs))))
      r.res_minimal
  end;
  Buffer.contents buf
