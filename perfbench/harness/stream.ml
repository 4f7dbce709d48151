(* Seeded job streams, one per workload.

   A stream is a fixed list of jobs replayed round after round by one
   closed-loop client.  Its seed decides the seed ranges, sizes and
   order of the jobs; the program only ever sees the generated jobs.
   Sizes come from continuous ranges but are stratified — one draw in
   each of n equal slices of the range — so every stream of a workload
   has the same size distribution and its totals and percentiles do not
   swing with the seed, while the individual jobs still differ. *)

type kind = Robustness | Guard | Redund | Proptest | Litmus

type campaign = {
  kind : kind;
  seeds : int list;  (** [] for litmus, which enumerates instead *)
  engine : bool;
  shrink : bool;
  instances : int;
  iterations : int;
  bound : int;
}

type target = Lock | Guarded_lock
type late_fault = Dropout | Spike

type job =
  | Catalog of campaign  (** [Job.parse_line] then [Catalog.run], in process *)
  | Served of campaign   (** one spool file through [Daemon.run] *)
  | Late_sweep of {
      target : target;
      fault : late_fault;
      seeds : int list;
      instances : int;
    }  (** a late-window catalog swept with [Scenario.sweep] *)
  | Late_litmus of { instances : int }
      (** the late-atom door-lock litmus twin at k = 2 *)

type workload = Cli_shrink | Wide_early | Wide_late | Serve_resubmit

let workloads =
  [ ("cli-shrink", Cli_shrink);
    ("wide-early", Wide_early);
    ("wide-late", Wide_late);
    ("serve-resubmit", Serve_resubmit) ]

type t = {
  jobs : job array;
  prefill : campaign list;
      (** run through the serve cache during set-up, untimed *)
}

let kind_name = function
  | Robustness -> "robustness"
  | Guard -> "guard"
  | Redund -> "redund"
  | Proptest -> "proptest"
  | Litmus -> "litmus"

(* ------------------------------------------------------------------ *)
(* Sampling                                                           *)
(* ------------------------------------------------------------------ *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let stratified rng n ~lo ~hi =
  let span = float (hi - lo + 1) in
  shuffle rng
    (Array.init n (fun i ->
         min hi
           (lo
           + int_of_float
               (span *. (float i +. Random.State.float rng 1.) /. float n))))

let range first n = List.init n (fun i -> first + i)

(* [n] jobs, one per stratified size, built by [mk]. *)
let group rng n ~lo ~hi mk =
  Array.to_list (Array.map mk (stratified rng n ~lo ~hi))

let campaign ?(engine = false) ?(shrink = true) ?(instances = 1)
    ?(bound = 2) kind seeds =
  { kind; seeds; engine; shrink; instances; iterations = 2; bound }

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

(* The one-shot engineer's campaign: every kind at desk sizes, shrink
   on, default knobs, no cache.  The size ranges give every kind about
   the same largest job, so the jobs around p90 are many and of several
   kinds; the litmus jobs above them (k = 2 and the k = 3 tail) cost the
   same for every seed. *)
let cli_shrink rng =
  let at n = range (1 + Random.State.int rng 50_000) n in
  let job ?engine ?bound kind n = Catalog (campaign ?engine ?bound kind (at n)) in
  List.concat
    [ group rng 22 ~lo:8 ~hi:28 (job Robustness);
      group rng 20 ~lo:8 ~hi:40 (job Guard);
      group rng 12 ~lo:2 ~hi:8 (job Redund);
      group rng 20 ~lo:4 ~hi:16 (job Proptest);
      group rng 12 ~lo:2 ~hi:10 (job ~engine:true Robustness);
      group rng 12 ~lo:2 ~hi:10 (job ~engine:true Guard);
      List.map (fun bound -> job ~bound Litmus 0) [ 1; 1; 1; 1; 2; 2; 2; 3 ] ]

(* Fleet sizes through the batched engine, shrink off.  The built-in
   catalogs fire from tick 0, so prefix sharing saves little here. *)
let wide_early rng =
  let at n = range (1 + Random.State.int rng 50_000) n in
  let job ?bound kind n =
    Catalog (campaign ~shrink:false ~instances:64 ?bound kind (at n))
  in
  List.concat
    [ group rng 30 ~lo:48 ~hi:256 (job Robustness);
      group rng 28 ~lo:24 ~hi:96 (job Guard);
      group rng 28 ~lo:8 ~hi:40 (job Proptest);
      group rng 12 ~lo:4 ~hi:12 (job Redund);
      List.init 2 (fun _ -> job ~bound:3 Litmus 0) ]

(* Late-window catalogs: every fault opens in the last 40 % of the
   horizon, so most ticks are a shared fault-free prefix.  Seeds come
   from one pool per catalog so the straight-path reference can be
   computed once per seed.  Half of each catalog's jobs run with
   instances 1 and half with 64, paired by size rank so both halves
   have the same size distribution. *)
let late_pool = 640

let wide_late rng =
  let sweeps =
    List.concat_map
      (fun (target, fault) ->
        let pool = 1 + Random.State.int rng 50_000 in
        let sizes = stratified rng 26 ~lo:16 ~hi:128 in
        Array.sort compare sizes;
        List.mapi
          (fun rank n ->
            let first = pool + Random.State.int rng (late_pool - n + 1) in
            Late_sweep
              { target; fault; seeds = range first n;
                instances = (if rank land 1 = 1 then 64 else 1) })
          (Array.to_list sizes))
      [ (Lock, Dropout); (Lock, Spike); (Guarded_lock, Dropout);
        (Guarded_lock, Spike) ]
  in
  sweeps
  @ List.init 8 (fun i ->
        Late_litmus { instances = (if i land 1 = 0 then 1 else 64) })

(* Seed pools whose entries outnumber the cache's 4096-entry memory
   tier, prefilled at set-up.  Timed jobs resubmit large windows of the
   pools plus a few new seeds, and repeat earlier proptest and litmus
   jobs verbatim.  A round touches about 5000 distinct entries, so the
   memory tier evicts and later jobs read evicted entries back from
   disk.  Windows are large so that cache lookups, decoding and splicing
   outweigh the few file-system operations of each round trip. *)
let serve_resubmit rng =
  let start () = 1 + Random.State.int rng 1_000_000 in
  let cfg ?engine ?bound kind seeds =
    campaign ?engine ~shrink:false ?bound kind seeds
  in
  let r0 = start () and g0 = start () and d0 = start () in
  let e0 = start () and f0 = start () in
  let proptests =
    Array.to_list
      (Array.map
         (fun n -> cfg Proptest (range (start ()) n))
         (stratified rng 4 ~lo:8 ~hi:24))
  in
  let litmus = List.map (fun bound -> cfg ~bound Litmus []) [ 1; 2 ] in
  let prefill =
    List.init 4 (fun i -> cfg Robustness (range (r0 + (600 * i)) 600))
    @ [ cfg Guard (range g0 600); cfg Redund (range d0 20);
        cfg ~engine:true Robustness (range e0 100);
        cfg ~engine:true Guard (range f0 100) ]
    @ proptests @ litmus
  in
  (* A window of [n] pooled seeds plus [fresh] seeds nobody asked for
     before; [fresh] cycles so every stream has the same miss count. *)
  let resubmit ?engine kind ~pool ~size ~max_fresh n i =
    let first = pool + Random.State.int rng (size - n + 1) in
    let fresh =
      List.init (i mod (max_fresh + 1)) (fun _ ->
          pool + size + Random.State.int rng 1_000_000)
    in
    Served (cfg ?engine kind (range first n @ List.sort_uniq compare fresh))
  in
  let groupi n ~lo ~hi mk =
    List.mapi mk (Array.to_list (stratified rng n ~lo ~hi))
  in
  let jobs =
    List.concat
      [ groupi 30 ~lo:800 ~hi:2400 (fun i n ->
            resubmit Robustness ~pool:r0 ~size:2400 ~max_fresh:3 n i);
        groupi 24 ~lo:240 ~hi:600 (fun i n ->
            resubmit Guard ~pool:g0 ~size:600 ~max_fresh:2 n i);
        groupi 12 ~lo:12 ~hi:20 (fun i n ->
            resubmit Redund ~pool:d0 ~size:20 ~max_fresh:1 n i);
        groupi 12 ~lo:60 ~hi:100 (fun i n ->
            resubmit ~engine:true Robustness ~pool:e0 ~size:100 ~max_fresh:2
              n i);
        groupi 12 ~lo:60 ~hi:100 (fun i n ->
            resubmit ~engine:true Guard ~pool:f0 ~size:100 ~max_fresh:2 n i);
        List.init 18 (fun i -> Served (List.nth proptests (i mod 4)));
        List.init 12 (fun i -> Served (List.nth litmus (i mod 2))) ]
  in
  (jobs, prefill)

let generate workload ~seed =
  let tag =
    match workload with
    | Cli_shrink -> 1
    | Wide_early -> 2
    | Wide_late -> 3
    | Serve_resubmit -> 4
  in
  let rng = Random.State.make [| seed; tag |] in
  let jobs, prefill =
    match workload with
    | Cli_shrink -> (cli_shrink rng, [])
    | Wide_early -> (wide_early rng, [])
    | Wide_late -> (wide_late rng, [])
    | Serve_resubmit -> serve_resubmit rng
  in
  { jobs = shuffle rng (Array.of_list jobs); prefill }

(* ------------------------------------------------------------------ *)
(* Rendering and accounting                                           *)
(* ------------------------------------------------------------------ *)

let seeds_json = function
  | [] -> ""
  | first :: _ as seeds ->
    let n = List.length seeds in
    if seeds = range first n then
      Printf.sprintf {|"seeds":{"from":%d,"to":%d},|} first (first + n - 1)
    else
      Printf.sprintf {|"seeds":[%s],|}
        (String.concat "," (List.map string_of_int seeds))

(* The NDJSON job line a client would submit. *)
let line ~id c =
  Printf.sprintf
    {|{"id":"%s","kind":"%s",%s"shrink":%b,"engine":%b,"instances":%d,"iterations":%d,"bound":%d}|}
    id (kind_name c.kind) (seeds_json c.seeds) c.shrink c.engine c.instances
    c.iterations c.bound

(* Cases in a job: one simulated scenario of one campaign leg.  Litmus
   jobs count the [scenarios] they evaluate, which only the synthesis
   knows, so the caller supplies it. *)
let cases ~scenarios job =
  match job with
  | Catalog c | Served c ->
    let n = List.length c.seeds in
    (match (c.kind, c.engine) with
     | Robustness, _ -> n
     | Guard, false -> 3 * n
     | Guard, true -> 2 * n
     | Redund, _ -> 7 * n
     | Proptest, _ -> n * c.iterations * 2
     | Litmus, _ -> scenarios)
  | Late_sweep s -> List.length s.seeds
  | Late_litmus _ -> scenarios

let describe = function
  | Catalog c | Served c ->
    Printf.sprintf "%s%s n=%d%s" (kind_name c.kind)
      (if c.engine then "/engine" else "")
      (List.length c.seeds)
      (if c.kind = Litmus then Printf.sprintf " k=%d" c.bound else "")
  | Late_sweep s ->
    Printf.sprintf "late-%s-%s n=%d i=%d"
      (match s.target with Lock -> "lock" | Guarded_lock -> "guarded")
      (match s.fault with Dropout -> "dropout" | Spike -> "spike")
      (List.length s.seeds) s.instances
  | Late_litmus l -> Printf.sprintf "late-litmus k=2 i=%d" l.instances
