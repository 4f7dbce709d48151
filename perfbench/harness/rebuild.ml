(* Reports rebuilt outside-in from the program's public layer functions:
   fault catalogs, prefix-shared simulation, monitor evaluation,
   shrinking and its replays, deployment simulation, litmus synthesis,
   job parsing, cached catalog runs, rendering and result writes.

   Two modes share the assembly of campaign records and the renderers:

   - [Traced] runs each job the way it was measured (prefix sharing on,
     the job's instances, the serve cache) and puts a span around every
     layer call — the traced round.  Its reports must be byte-identical
     to the measured ones.
   - [Straight] is the reference every measured output is checked
     against: prefix sharing off, instances 1, no cache.  Each
     (scenario, seed) and (deployment leg, seed) is computed once per
     run and spliced into every job that asks for it, so overlapping
     jobs cost their distinct seeds only.

   Where the program does not export a leg's stimulus or monitors (the
   guard recovery leg, the five model legs of redund) a traced leg runs
   through [Scenario.run_seeds] / [Scenario.run], so its "sim.sweep" and
   "sim.replay" spans include fault-catalog and monitor time.  So do the
   proptest shrinker's replays ([Builder.run_ops], [Builder.run_faults]). *)

open Automode_core
module R = Automode_robust
module Cs = Automode_casestudy
module L = Automode_litmus
module B = Automode_proptest.Builder
module Sv = Automode_serve
module M = Automode_obs.Metrics

type t = {
  record : bool;  (** spans on; otherwise the same calls, untraced *)
  spans : Spans.t;
  metrics : M.t;  (** fed by the [Probe.standard] sink *)
  index : Model.component -> Sim.indexed;
  mutable sim_ticks : int;  (** ticks simulated inside sim.* spans *)
  mutable replays : int;    (** shrink replays *)
  mutable kept : int;       (** replays that still failed *)
  mutable evaluated : int;  (** litmus scenarios evaluated *)
  mutable unique : int;     (** ... with a new divergence hash *)
}

let create ~record ~index =
  { record; spans = Spans.create (); metrics = M.create (); index;
    sim_ticks = 0; replays = 0; kept = 0; evaluated = 0; unique = 0 }

type memo = {
  seeds :
    (string * int * bool, R.Scenario.seed_result * R.Scenario.failure list)
    Hashtbl.t;  (** (scenario, seed, shrink) *)
  legs : (string * int * int, (string * R.Monitor.verdict) list) Hashtbl.t;
      (** (deployment leg, horizon, seed) *)
  proptests : (string, Cs.Propcase.comparison) Hashtbl.t;
  litmus : (string, L.Synth.result) Hashtbl.t;
}

let memo () =
  { seeds = Hashtbl.create 4096; legs = Hashtbl.create 1024;
    proptests = Hashtbl.create 16; litmus = Hashtbl.create 4 }

let memoize tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = f () in
    Hashtbl.add tbl key v;
    v

type mode = Traced of t | Straight of memo

let span mode layer f =
  match mode with
  | Traced t when t.record -> Spans.within t.spans layer f
  | Traced _ | Straight _ -> f ()

let ticks t = Option.value ~default:0 (M.value t.metrics "sim.ticks")

let sim t layer f =
  let before = ticks t in
  let r = span (Traced t) layer f in
  t.sim_ticks <- t.sim_ticks + (ticks t - before);
  r

let render mode f = span mode "report.render" f

let verdicts monitors tr =
  List.map (fun m -> (R.Monitor.name m, R.Monitor.eval m tr)) monitors

(* ------------------------------------------------------------------ *)
(* Scenario sweeps                                                    *)
(* ------------------------------------------------------------------ *)

(* What a traced sweep needs to split simulation from monitoring. *)
type pieces = {
  inputs : Sim.input_fn;
  schedule : R.Fault.t list -> Clock.schedule;
  monitors : R.Monitor.t list;
  component : Model.component;
}

let lock_pieces component monitors =
  { inputs = Cs.Robustness.lock_stimulus;
    schedule = Cs.Robustness.lock_schedule; monitors; component }

let replay t ~monitor run ~faults ~ticks =
  let v = run ~faults ~ticks in
  t.replays <- t.replays + 1;
  (match List.assoc_opt monitor v with
   | Some (R.Monitor.Fail _) -> t.kept <- t.kept + 1
   | Some R.Monitor.Pass | None -> ());
  v

let traced_sweep t ?pieces scn ~shrink ~instances ~seeds =
  let ticks = R.Scenario.ticks scn in
  let results =
    match pieces with
    | None ->
      sim t "sim.sweep" (fun () -> R.Scenario.run_seeds ~instances scn ~seeds)
    | Some p ->
      let seeds = Array.of_list seeds in
      let injected, cases =
        span (Traced t) "fault.catalog" (fun () ->
            let injected =
              Array.map (fun seed -> R.Scenario.faults scn ~seed) seeds
            in
            ( injected,
              Array.map
                (fun f -> (f, R.Fault.apply f p.inputs, p.schedule f))
                injected ))
      in
      let traces =
        sim t "sim.sweep" (fun () ->
            R.Prefix.traces ~instances ~ix:(t.index p.component) ~ticks
              ~base_inputs:p.inputs ~base_schedule:(p.schedule []) cases)
      in
      span (Traced t) "monitor" (fun () ->
          Array.to_list
            (Array.mapi
               (fun i tr ->
                 { R.Scenario.seed = seeds.(i); injected = injected.(i);
                   verdicts = verdicts p.monitors tr })
               traces))
  in
  let run =
    match pieces with
    | None ->
      fun ~faults ~ticks ->
        sim t "sim.replay" (fun () -> R.Scenario.run scn ~faults ~ticks)
    | Some p ->
      fun ~faults ~ticks ->
        let tr =
          sim t "sim.replay" (fun () -> R.Scenario.trace scn ~faults ~ticks)
        in
        span (Traced t) "monitor" (fun () -> verdicts p.monitors tr)
  in
  let shrunk ~monitor (r : R.Scenario.seed_result) =
    if not shrink then None
    else
      span (Traced t) "shrink" (fun () ->
          R.Shrink.minimize ~run:(replay t ~monitor run) ~monitor
            ~faults:r.injected ~ticks)
  in
  let failures =
    List.concat_map
      (fun (r : R.Scenario.seed_result) ->
        List.filter_map
          (fun (monitor, v) ->
            if not (R.Monitor.is_fail v) then None
            else
              Some
                { R.Scenario.fail_seed = r.seed; fail_monitor = monitor;
                  verdict = v; shrunk = shrunk ~monitor r })
          r.verdicts)
      results
  in
  (results, failures)

let sweep mode ?pieces scn ~shrink ~instances ~seeds =
  let results, failures =
    match mode with
    | Traced t -> traced_sweep t ?pieces scn ~shrink ~instances ~seeds
    | Straight m ->
      let per_seed =
        List.map
          (fun seed ->
            memoize m.seeds (R.Scenario.name scn, seed, shrink) (fun () ->
                let r = R.Scenario.run_seed scn ~seed in
                (r, R.Scenario.seed_failures ~shrink scn r)))
          seeds
      in
      (List.map fst per_seed, List.concat_map snd per_seed)
  in
  { R.Scenario.scenario = R.Scenario.name scn; horizon = R.Scenario.ticks scn;
    seeds; results; failures }

(* ------------------------------------------------------------------ *)
(* Deployment legs                                                    *)
(* ------------------------------------------------------------------ *)

let deployment mode ~leg ~horizon ~inject ~verdicts seeds =
  let one seed () =
    let inj = inject seed in
    verdicts
      (span mode "osek.simulate" (fun () -> R.Inject_net.simulate inj ~horizon))
  in
  List.map
    (fun seed ->
      ( seed,
        match mode with
        | Traced _ -> one seed ()
        | Straight m -> memoize m.legs (leg, horizon, seed) (one seed) ))
    seeds

let engine_leg mode ~horizon seeds =
  deployment mode ~leg:"engine" ~horizon
    ~inject:(fun seed -> Cs.Robustness.engine_injection ~seed ())
    ~verdicts:R.Inject_net.verdicts seeds

let guarded_engine_leg mode ~horizon seeds =
  deployment mode ~leg:"guarded-engine" ~horizon
    ~inject:(fun seed -> Cs.Guarded.guarded_engine_injection ~seed ())
    ~verdicts:Cs.Guarded.guarded_engine_verdicts seeds

let channel_leg mode ~horizon ~dual seeds =
  let schedule = Cs.Replicated.tt_schedule ~dual in
  deployment mode
    ~leg:(if dual then "dual-channel" else "single-channel")
    ~horizon
    ~inject:(fun seed ->
      R.Inject_net.nominal Cs.Replicated.replicated_deployment
      |> R.Inject_net.with_tt ~faults:(Cs.Replicated.channel_faults seed)
           ~schedule)
    ~verdicts:R.Inject_net.verdicts seeds

(* ------------------------------------------------------------------ *)
(* Property tests                                                     *)
(* ------------------------------------------------------------------ *)

let still_fails ~run ~monitor ~faults ~ticks =
  match List.assoc_opt monitor (run ~faults ~ticks) with
  | Some (R.Monitor.Fail { reason; _ }) -> Some reason
  | Some R.Monitor.Pass | None -> None

(* Sequence-level shrinking: ddmin over the op list, the one-removal
   pass over the ops, then over the minimal sequence's faults. *)
let shrink_case t spec ~seed ~monitor ~ops =
  let ticks = B.ticks spec in
  let on_ops ~faults ~ticks =
    sim t "sim.replay" (fun () -> B.run_ops spec ~seed ~ops:faults ~ticks)
  in
  let on_faults ~faults ~ticks =
    sim t "sim.replay" (fun () -> B.run_faults spec ~faults ~ticks)
  in
  span (Traced t) "shrink" (fun () ->
      let on_ops = replay t ~monitor on_ops in
      match
        B.ddmin_ops
          ~fails:(fun candidate ->
            still_fails ~run:on_ops ~monitor ~faults:candidate ~ticks)
          ops
      with
      | None -> None
      | Some (ops1, _) -> (
        match R.Shrink.minimize ~run:on_ops ~monitor ~faults:ops1 ~ticks with
        | None -> None
        | Some o ->
          let faults0 = B.faults_of spec ~seed ~ops:o.R.Shrink.faults in
          let shrunk_faults, shrunk_ticks, shrunk_reason =
            match
              R.Shrink.minimize ~run:(replay t ~monitor on_faults) ~monitor
                ~faults:faults0 ~ticks:o.R.Shrink.ticks
            with
            | Some o2 ->
              (o2.R.Shrink.faults, o2.R.Shrink.ticks, o2.R.Shrink.reason)
            | None -> (faults0, o.R.Shrink.ticks, o.R.Shrink.reason)
          in
          Some
            { B.shrunk_ops = o.R.Shrink.faults; shrunk_faults; shrunk_ticks;
              shrunk_reason }))

let traced_proptest t spec ~shrink ~instances ~seeds =
  let its = B.iterations spec and ticks = B.ticks spec in
  let cases =
    List.concat_map
      (fun seed ->
        let opss =
          span (Traced t) "fault.catalog" (fun () ->
              Array.init its (fun i -> B.expand spec ~seed ~iteration:(i + 1)))
        in
        let traces =
          sim t "sim.sweep" (fun () ->
              B.trace_cases ~instances ~share:true spec ~seed ~ticks opss)
        in
        span (Traced t) "monitor" (fun () ->
            Array.to_list
              (Array.mapi
                 (fun i tr ->
                   { B.seed; iteration = i + 1; ops = opss.(i);
                     verdicts = B.eval_monitors spec tr })
                 traces)))
      seeds
  in
  let failures =
    List.concat_map
      (fun (c : B.case) ->
        List.filter_map
          (fun (monitor, v) ->
            if not (R.Monitor.is_fail v) then None
            else
              Some
                { B.fail_seed = c.seed; fail_iteration = c.iteration;
                  fail_monitor = monitor; verdict = v;
                  shrunk =
                    (if shrink then
                       shrink_case t spec ~seed:c.seed ~monitor ~ops:c.ops
                     else None) })
          c.verdicts)
      cases
  in
  { B.spec_name = B.name spec; horizon = ticks; seeds; case_iterations = its;
    gens = B.generators spec; cases; failures }

let proptest mode ~shrink ~instances ~iterations ~seeds =
  match mode with
  | Traced t ->
    let run spec =
      traced_proptest t (B.with_iterations iterations spec) ~shrink ~instances
        ~seeds
    in
    { Cs.Propcase.unguarded = run Cs.Propcase.unguarded;
      guarded = run Cs.Propcase.guarded }
  | Straight m ->
    memoize m.proptests
      (Printf.sprintf "%b|%d|%s" shrink iterations
         (String.concat "," (List.map string_of_int seeds)))
      (fun () ->
        Cs.Propcase.run ~shrink ~instances:1 ~prefix_share:false ~iterations
          ~seeds ())

(* ------------------------------------------------------------------ *)
(* Litmus synthesis                                                   *)
(* ------------------------------------------------------------------ *)

(* [synth ~straight] runs one synthesis, on the straight path when
   [straight]; [key] names it in the reference memo. *)
let synthesize mode ~key synth =
  match mode with
  | Traced t ->
    let r = span mode "litmus.synth" (fun () -> synth ~straight:false) in
    t.evaluated <- t.evaluated + r.L.Synth.res_evaluated;
    t.unique <- t.unique + r.L.Synth.res_unique;
    r
  | Straight m -> memoize m.litmus key (fun () -> synth ~straight:true)

let litmus_report mode r =
  render mode (fun () -> (L.Synth.to_text r, L.Synth.gate r))

(* ------------------------------------------------------------------ *)
(* Renderers: the exact formats of Serve.Catalog.run                  *)
(* ------------------------------------------------------------------ *)

let fails vs = List.exists (fun (_, v) -> R.Monitor.is_fail v) vs

let robustness_report c =
  (R.Report.to_text c, c.R.Scenario.failures = [])

let guard_report ~seeds (cmp : Cs.Guarded.comparison) recovery =
  ( Format.asprintf "%a%-20s %d/%d seeds failing@." Cs.Guarded.pp_comparison
      cmp "door-lock-recovery"
      (List.length recovery.R.Scenario.failures)
      (List.length seeds),
    cmp.Cs.Guarded.guarded.R.Scenario.failures = []
    && recovery.R.Scenario.failures = [] )

let engine_report results =
  ( Format.asprintf "%a" Cs.Robustness.pp_engine_campaign results,
    not (List.exists (fun (_, vs) -> fails vs) results) )

let guard_engine_report results guarded =
  ( Format.asprintf "unguarded engine deployment:@.%a%s%a"
      Cs.Robustness.pp_engine_campaign results
      "guarded engine deployment (E2E frames + watchdog):\n"
      Cs.Robustness.pp_engine_campaign guarded,
    not (List.exists (fun (_, vs) -> fails vs) guarded) )

let redund_report r =
  (Format.asprintf "%a" Cs.Replicated.pp_report r, Cs.Replicated.gate r)

(* ------------------------------------------------------------------ *)
(* Jobs                                                               *)
(* ------------------------------------------------------------------ *)

(* A campaign job without a cache, split down to the layers. *)
let campaign mode (j : Sv.Job.t) =
  let seeds = j.seeds and shrink = j.shrink and instances = j.instances in
  let horizon = j.horizon in
  let sweep ?pieces scn = sweep mode ?pieces scn ~shrink ~instances ~seeds in
  match (j.kind, j.engine) with
  | Sv.Job.Litmus, _ ->
    litmus_report mode
      (synthesize mode ~key:(string_of_int j.bound) (fun ~straight ->
           if straight then
             Sv.Catalog.litmus_result ~instances:1 ~prefix_share:false
               ~bound:j.bound ()
           else Sv.Catalog.litmus_result ~instances ~bound:j.bound ()))
  | Proptest, _ ->
    let c = proptest mode ~shrink ~instances ~iterations:j.iterations ~seeds in
    render mode (fun () ->
        (Cs.Propcase.to_text c, Cs.Propcase.contrast_holds c))
  | Robustness, true ->
    let results = engine_leg mode ~horizon seeds in
    render mode (fun () -> engine_report results)
  | Robustness, false ->
    let c =
      sweep
        ~pieces:
          (lock_pieces Cs.Door_lock.component Cs.Robustness.lock_monitors)
        Cs.Robustness.door_lock_scenario
    in
    render mode (fun () -> robustness_report c)
  | Guard, true ->
    let results = engine_leg mode ~horizon seeds in
    let guarded = guarded_engine_leg mode ~horizon seeds in
    render mode (fun () -> guard_engine_report results guarded)
  | Guard, false ->
    let cmp =
      { Cs.Guarded.unguarded =
          sweep
            ~pieces:
              (lock_pieces Cs.Door_lock.component
                 Cs.Guarded.functional_monitors)
            Cs.Guarded.unguarded_scenario;
        guarded =
          sweep
            ~pieces:
              (lock_pieces Cs.Guarded.component Cs.Guarded.guarded_monitors)
            Cs.Guarded.guarded_scenario }
    in
    let recovery = sweep Cs.Guarded.recovery_scenario in
    render mode (fun () -> guard_report ~seeds cmp recovery)
  | Redund, _ ->
    let module Rp = Cs.Replicated in
    let r =
      { Rp.replicated = sweep Rp.replicated_scenario;
        simplex = sweep Rp.simplex_scenario;
        reset = sweep Rp.reset_scenario;
        tmr = sweep Rp.tmr_scenario;
        tmr_simplex = sweep Rp.tmr_simplex_scenario;
        dual = channel_leg mode ~horizon ~dual:true seeds;
        single = channel_leg mode ~horizon ~dual:false seeds }
    in
    render mode (fun () -> redund_report r)

(* A campaign job through the serve cache: the catalog's cached
   campaign functions, then the renderer. *)
let cached_campaign t cache (j : Sv.Job.t) =
  let mode = Traced t in
  let seeds = j.seeds and shrink = j.shrink and instances = j.instances in
  let horizon = j.horizon and prefix_share = j.prefix_share in
  match (j.kind, j.engine) with
  | Sv.Job.Litmus, _ ->
    litmus_report mode
      (synthesize mode ~key:"" (fun ~straight:_ ->
           Sv.Catalog.litmus_result ~cache ~instances ~prefix_share
             ~bound:j.bound ()))
  | Proptest, _ ->
    let o =
      Sv.Catalog.proptest ~cache ~shrink ~instances ~prefix_share
        ~iterations:j.iterations ~seeds ()
    in
    (o.Sv.Catalog.report, o.Sv.Catalog.gate_ok)
  | Robustness, true ->
    let results = Sv.Catalog.robustness_engine ~cache ~horizon ~seeds () in
    render mode (fun () -> engine_report results)
  | Robustness, false ->
    let c =
      Sv.Catalog.robustness ~cache ~shrink ~instances ~prefix_share ~seeds ()
    in
    render mode (fun () -> robustness_report c)
  | Guard, true ->
    let results, guarded =
      Sv.Catalog.guard_engine ~cache ~horizon ~seeds ()
    in
    render mode (fun () -> guard_engine_report results guarded)
  | Guard, false ->
    let cmp, recovery =
      Sv.Catalog.guard ~cache ~shrink ~instances ~prefix_share ~seeds ()
    in
    render mode (fun () -> guard_report ~seeds cmp recovery)
  | Redund, _ ->
    let r =
      Sv.Catalog.redund ~cache ~shrink ~instances ~prefix_share ~horizon
        ~seeds ()
    in
    render mode (fun () -> redund_report r)

(* The daemon's work for one job, done from outside: parse, run through
   the cache, write the report and a status file.  Spool scanning,
   claiming and the daemon's own status bookkeeping are what remains of
   the untraced round trip ("serve.daemon_other"). *)
let served t (s : Exec.serve) ~id ~line =
  let mode = Traced t in
  let j = span mode "serve.parse" (fun () -> Exec.parse line) in
  let report, gate =
    span mode "serve.catalog" (fun () -> cached_campaign t s.cache j)
  in
  span mode "serve.write" (fun () ->
      Sv.Cache.write_atomic
        ~path:(Filename.concat s.results (id ^ ".report.txt"))
        report;
      Sv.Cache.write_atomic
        ~path:(Filename.concat s.results (id ^ ".json"))
        (Sv.Json.to_string
           (Sv.Json.Obj
              [ ("id", Sv.Json.String id); ("gate", Sv.Json.Bool gate);
                ("job", Sv.Job.to_json j) ])
        ^ "\n"));
  (report, gate)

(* A late-window sweep or late litmus job. *)
let late mode (ctx : Exec.ctx) = function
  | Stream.Late_sweep l ->
    let c =
      sweep mode
        ~pieces:
          { inputs = Cs.Robustness.lock_stimulus;
            schedule = (fun _ -> Clock.no_events);
            monitors = Exec.late_monitors l.target;
            component = Exec.late_component l.target }
        (Exec.late ctx l.target l.fault)
        ~shrink:false ~instances:l.instances ~seeds:l.seeds
    in
    render mode (fun () -> robustness_report c)
  | Late_litmus l ->
    litmus_report mode
      (synthesize mode ~key:"late" (fun ~straight ->
           L.Synth.run ~config:Exec.late_config
             ~instances:(if straight then 1 else l.instances)
             ~prefix_share:(not straight) ~twin:ctx.twin
             ~alphabet:ctx.alphabet ()))
  | Catalog _ | Served _ -> invalid_arg "Rebuild.late"

(* One job of the traced (or untraced rebuilt) round. *)
let run t ctx ~id ~line job =
  let report, gate =
    match job with
    | Stream.Catalog _ ->
      campaign (Traced t)
        (span (Traced t) "serve.parse" (fun () -> Exec.parse line))
    | Served _ -> served t (Exec.serve_of ctx) ~id ~line
    | Late_sweep _ | Late_litmus _ -> late (Traced t) ctx job
  in
  Exec.output report gate

type reference = {
  out : Exec.output;
  scenarios : int;  (** scenarios a litmus job evaluates, else 0 *)
}

(* The straight-path reference of one job. *)
let reference m ctx ~line job =
  let mode = Straight m in
  let report, gate =
    match job with
    | Stream.Catalog _ | Served _ -> campaign mode (Exec.parse line)
    | Late_sweep _ | Late_litmus _ -> late mode ctx job
  in
  let evaluated key = (Hashtbl.find m.litmus key).L.Synth.res_evaluated in
  let scenarios =
    match job with
    | Stream.Catalog { kind = Litmus; bound; _ }
    | Served { kind = Litmus; bound; _ } ->
      evaluated (string_of_int bound)
    | Late_litmus _ -> evaluated "late"
    | Catalog _ | Served _ | Late_sweep _ -> 0
  in
  { out = Exec.output report gate; scenarios }
