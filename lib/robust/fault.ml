open Automode_core

type activation =
  | Always
  | Window of { from_tick : int; until_tick : int }
  | From of { from_tick : int }
  | Random_ticks of { probability : float; seed : int }

type kind =
  | Stuck_at_last
  | Dropout
  | Noise of { amplitude : float; noise_seed : int }
  | Spike of { value : Value.t }
  | Delayed of { by : int }

type t = { flow : string; kind : kind; activation : activation }

let check_activation = function
  | Always -> ()
  | Window { from_tick; until_tick } ->
    if from_tick < 0 || until_tick < from_tick then
      invalid_arg "Fault: bad activation window"
  | From { from_tick } ->
    if from_tick < 0 then invalid_arg "Fault: negative activation start"
  | Random_ticks { probability; _ } ->
    if probability < 0. || probability > 1. then
      invalid_arg "Fault: activation probability outside [0, 1]"

let make kind ~flow activation =
  check_activation activation;
  { flow; kind; activation }

let stuck_at_last ~flow activation = make Stuck_at_last ~flow activation
let dropout ~flow activation = make Dropout ~flow activation

let noise ?(seed = 0) ~flow ~amplitude activation =
  if amplitude < 0. then invalid_arg "Fault.noise: negative amplitude";
  make (Noise { amplitude; noise_seed = seed }) ~flow activation

let spike ~flow ~value activation = make (Spike { value }) ~flow activation

let delayed ~flow ~by activation =
  if by < 0 then invalid_arg "Fault.delayed: negative delay";
  make (Delayed { by }) ~flow activation

let flow t = t.flow
let activation t = t.activation

(* An ECU failure silences every boundary flow the ECU sources at once:
   a crash permanently (fail-silent), a reset for [down_ticks] ticks.
   Modeled as coordinated dropouts so the existing stimulus-transform
   machinery applies unchanged. *)
let ecu_crash ~flows ~at_tick =
  if flows = [] then invalid_arg "Fault.ecu_crash: no flows";
  List.map (fun f -> dropout ~flow:f (From { from_tick = at_tick })) flows

let ecu_reset ~flows ~at_tick ~down_ticks =
  if flows = [] then invalid_arg "Fault.ecu_reset: no flows";
  if down_ticks <= 0 then
    invalid_arg "Fault.ecu_reset: outage must last at least one tick";
  List.map
    (fun f ->
      dropout ~flow:f
        (Window { from_tick = at_tick; until_tick = at_tick + down_ticks }))
    flows

let active t ~tick =
  match t.activation with
  | Always -> true
  | Window { from_tick; until_tick } -> tick >= from_tick && tick < until_tick
  | From { from_tick } -> tick >= from_tick
  | Random_ticks { probability; seed } ->
    probability >= 1.0
    || (probability > 0.
       &&
       let st = Random.State.make [| seed; tick; Hashtbl.hash t.flow |] in
       Random.State.float st 1.0 < probability)

(* Bounded for Always/Random_ticks activations by the horizon the
   caller simulates: the latest tick any listed fault fires at. *)
let last_active_tick faults ~horizon =
  let rec go t =
    if t < 0 then None
    else if List.exists (fun f -> active f ~tick:t) faults then Some t
    else go (t - 1)
  in
  go (horizon - 1)

(* The first tick a fault can alter its flow (or fire an event through
   {!schedule_of_faults}).  Exact: the deterministic activations read
   their bounds, [Random_ticks] scans [active] (a pure function of the
   tick).  Every fault kind passes the original stimulus through
   unchanged while inactive, so below the minimum first-active tick of
   a catalog the transformed stimulus — and any schedule derived via
   {!schedule_of_faults} — is identical to the fault-free one; that is
   the divergence analysis prefix-sharing execution builds on. *)
let first_active_tick t ~horizon =
  if horizon <= 0 then horizon
  else
    match t.activation with
    | Always -> 0
    | From { from_tick } -> min from_tick horizon
    | Window { from_tick; until_tick } ->
      if until_tick <= from_tick || from_tick >= horizon then horizon
      else from_tick
    | Random_ticks { probability; _ } ->
      if probability >= 1.0 then 0
      else if probability <= 0. then horizon
      else
        let rec go tick =
          if tick >= horizon then horizon
          else if active t ~tick then tick
          else go (tick + 1)
        in
        go 0

(* Each fault is scanned only up to the running minimum: exact, since
   [first_active_tick] never returns more than its horizon, and it spares
   the [Random_ticks] scans (one PRNG seeding per tick) past it. *)
let first_effect_tick faults ~horizon =
  List.fold_left (fun acc f -> first_active_tick f ~horizon:acc) horizon faults

let describe_activation = function
  | Always -> "always"
  | Window { from_tick; until_tick } ->
    Printf.sprintf "t%d..%d" from_tick until_tick
  | From { from_tick } -> Printf.sprintf "t%d.." from_tick
  | Random_ticks { probability; seed } ->
    Printf.sprintf "p=%.3g seed=%d" probability seed

let describe t =
  let kind =
    match t.kind with
    | Stuck_at_last -> "stuck-at-last"
    | Dropout -> "dropout"
    | Noise { amplitude; noise_seed } ->
      Printf.sprintf "noise(+-%g seed=%d)" amplitude noise_seed
    | Spike { value } -> Printf.sprintf "spike(%s)" (Value.to_string value)
    | Delayed { by } -> Printf.sprintf "delay(%d)" by
  in
  Printf.sprintf "%s@%s[%s]" kind t.flow (describe_activation t.activation)

let pp ppf t = Format.pp_print_string ppf (describe t)

(* ------------------------------------------------------------------ *)
(* Stimulus transformation                                            *)
(* ------------------------------------------------------------------ *)

let flow_message msgs flow =
  match List.assoc_opt flow msgs with Some m -> m | None -> Value.Absent

let set_flow msgs flow msg =
  (flow, msg) :: List.filter (fun (f, _) -> not (String.equal f flow)) msgs

let noisy ~amplitude ~seed ~flow ~tick = function
  | Value.Present (Value.Float f) ->
    let st = Random.State.make [| seed; tick; Hashtbl.hash flow |] in
    Value.Present
      (Value.Float (f +. Random.State.float st (2. *. amplitude) -. amplitude))
  | Value.Present (Value.Int i) ->
    let a = int_of_float (Float.round amplitude) in
    if a <= 0 then Value.Present (Value.Int i)
    else
      let st = Random.State.make [| seed; tick; Hashtbl.hash flow |] in
      Value.Present (Value.Int (i + Random.State.int st ((2 * a) + 1) - a))
  | other -> other

(* A memo of a stimulus over the ticks asked for: for a layer that reads
   a tick other than the one it was asked for, so each tick of the layer
   below is computed once however often it is read. *)
let memo inputs =
  let cache : (int, (string * Value.message) list) Hashtbl.t =
    Hashtbl.create 64
  in
  fun tick ->
    match Hashtbl.find_opt cache tick with
    | Some msgs -> msgs
    | None ->
      let msgs = inputs tick in
      Hashtbl.replace cache tick msgs;
      msgs

(* One fault over one stimulus.  The returned stimulus is a pure
   function of the tick, however the simulator (or two simulators,
   compiled and interpreted) query it.  Dropout, noise (which re-seeds
   its RNG from the tick) and spike read only the queried tick, so they
   compute each query directly and keep nothing; a resumed run costs
   O(horizon - resume tick).  Only a layer that reads other ticks keeps
   a memo of what it reads:
   - stuck-at-last depends on every tick before the query, so queries
     force the ticks before them in order, memoizing its own output;
   - delayed reads [tick] and [tick - by] of the stimulus below it, so
     it memoizes that stimulus — otherwise [d] stacked delayed layers
     would re-evaluate their inner chain 2^d times per tick. *)
let apply_one fault inputs =
  match fault.kind with
  | Stuck_at_last ->
    let cache : (int, (string * Value.message) list) Hashtbl.t =
      Hashtbl.create 64
    in
    let held = ref None in
    let computed = ref 0 in
    let compute tick =
      let base = inputs tick in
      let orig = flow_message base fault.flow in
      let act = active fault ~tick in
      let r =
        if act then
          match !held with Some v -> Value.Present v | None -> Value.Absent
        else orig
      in
      (* the frozen sensor does not refresh its held sample *)
      (match orig with
       | Value.Present v when not act -> held := Some v
       | _ -> ());
      set_flow base fault.flow r
    in
    fun tick ->
      if tick < 0 then []
      else begin
        while !computed <= tick do
          Hashtbl.replace cache !computed (compute !computed);
          incr computed
        done;
        match Hashtbl.find_opt cache tick with
        | Some msgs -> msgs
        | None -> compute tick
      end
  | Delayed { by } ->
    let inputs = memo inputs in
    fun tick ->
      if tick < 0 then []
      else if not (active fault ~tick) then inputs tick
      else
        set_flow (inputs tick) fault.flow
          (if tick >= by then flow_message (inputs (tick - by)) fault.flow
           else Value.Absent)
  | Dropout | Noise _ | Spike _ ->
    let faulty ~tick orig =
      match fault.kind with
      | Dropout -> Value.Absent
      | Noise { amplitude; noise_seed } ->
        noisy ~amplitude ~seed:noise_seed ~flow:fault.flow ~tick orig
      | Spike { value } -> Value.Present value
      | Stuck_at_last | Delayed _ -> assert false
    in
    fun tick ->
      if tick < 0 then []
      else if not (active fault ~tick) then inputs tick
      else
        let base = inputs tick in
        set_flow base fault.flow (faulty ~tick (flow_message base fault.flow))

let apply faults inputs = List.fold_left (fun fn f -> apply_one f fn) inputs faults

(* Any event-clocked port whose stimulus gains injected messages (spike
   storms) needs the event to actually fire: this schedule fires [event]
   exactly at the ticks where any listed fault is active. *)
let schedule_of_faults ?(base = Clock.no_events) faults ~event =
  fun name tick ->
    base name tick
    || (String.equal name event
       && List.exists (fun f -> active f ~tick) faults)
