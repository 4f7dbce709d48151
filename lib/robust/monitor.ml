open Automode_core

type verdict = Pass | Fail of { at_tick : int; reason : string }

type t = { mon_name : string; check : Trace.t -> verdict }

let name m = m.mon_name
let eval m trace = m.check trace

let distinct_names ~caller mons =
  let rec go seen = function
    | [] -> mons
    | m :: rest ->
      if List.mem m.mon_name seen then
        invalid_arg
          (Printf.sprintf "%s: duplicate monitor name %s" caller m.mon_name)
      else go (m.mon_name :: seen) rest
  in
  go [] mons

let is_fail = function Fail _ -> true | Pass -> false

let verdict_to_string = function
  | Pass -> "pass"
  | Fail { at_tick; reason } -> Printf.sprintf "FAIL@t%d %s" at_tick reason

let column trace flow =
  try Some (Trace.column trace flow) with Not_found -> None

let missing_flow flow =
  Fail { at_tick = 0; reason = Printf.sprintf "flow %s not in trace" flow }

(* First tick (from [tick0]) where [f tick msg] yields a reason. *)
let scan_column msgs f =
  let rec go tick = function
    | [] -> Pass
    | msg :: rest ->
      (match f tick msg with
       | Some reason -> Fail { at_tick = tick; reason }
       | None -> go (tick + 1) rest)
  in
  go 0 msgs

let range ~name ~flow ~lo ~hi =
  { mon_name = name;
    check =
      (fun trace ->
        match column trace flow with
        | None -> missing_flow flow
        | Some msgs ->
          scan_column msgs (fun _ msg ->
              match msg with
              | Value.Absent -> None
              | Value.Present (Value.Int i) ->
                let v = float_of_int i in
                if v < lo || v > hi then
                  Some (Printf.sprintf "%s=%d outside [%g, %g]" flow i lo hi)
                else None
              | Value.Present (Value.Float v) ->
                if v < lo || v > hi then
                  Some (Printf.sprintf "%s=%g outside [%g, %g]" flow v lo hi)
                else None
              | Value.Present v ->
                Some
                  (Printf.sprintf "%s carries non-numeric %s" flow
                     (Value.to_string v)))) }

let default_pred = function Value.Absent -> false | Value.Present _ -> true

let msg_pred p = function Value.Absent -> false | Value.Present v -> p v

let bounded_response ?stim_pred ?resp_pred ~name ~stimulus ~response ~within ()
    =
  let sp =
    match stim_pred with Some p -> msg_pred p | None -> default_pred
  in
  let rp =
    match resp_pred with Some p -> msg_pred p | None -> default_pred
  in
  { mon_name = name;
    check =
      (fun trace ->
        match column trace stimulus, column trace response with
        | None, _ -> missing_flow stimulus
        | _, None -> missing_flow response
        | Some stim, Some resp ->
          let resp = Array.of_list resp in
          let n = Array.length resp in
          let answered t =
            let rec go u =
              if u > t + within || u >= n then false
              else rp resp.(u) || go (u + 1)
            in
            go t
          in
          scan_column stim (fun t msg ->
              if not (sp msg) then None
                (* an obligation whose window runs past the trace end is
                   inconclusive on this finite trace: not a failure *)
              else if t + within >= n then None
              else if answered t then None
              else
                Some
                  (Printf.sprintf "%s not answered on %s within %d ticks"
                     stimulus response within))) }

let recovers ?pred ~name ~flow ~after ~within () =
  if within < 1 then invalid_arg "Monitor.recovers: within must be positive";
  if after < 0 then invalid_arg "Monitor.recovers: negative reference tick";
  let p = match pred with Some p -> msg_pred p | None -> default_pred in
  { mon_name = name;
    check =
      (fun trace ->
        match column trace flow with
        | None -> missing_flow flow
        | Some msgs ->
          let col = Array.of_list msgs in
          let n = Array.length col in
          (* a recovery window running past the trace end is inconclusive
             on this finite trace, like bounded_response obligations *)
          if after + within >= n then Pass
          else
            (* first tick of the stable suffix on which [pred] holds *)
            let rec last_bad t =
              if t < 0 then -1 else if p col.(t) then last_bad (t - 1) else t
            in
            let stable_from = last_bad (n - 1) + 1 in
            if stable_from <= after + within then Pass
            else
              Fail
                { at_tick = after + within;
                  reason =
                    Printf.sprintf
                      "%s not stably recovered within %d ticks after t%d \
                       (last violation at t%d)"
                      flow within after (stable_from - 1) }) }

let flag_set = function
  | Value.Absent -> false
  | Value.Present (Value.Bool b) -> b
  | Value.Present _ -> true

let mode_safety ~name ~mode_flow ~mode ~flag_flow =
  { mon_name = name;
    check =
      (fun trace ->
        match column trace mode_flow, column trace flag_flow with
        | None, _ -> missing_flow mode_flow
        | _, None -> missing_flow flag_flow
        | Some modes, Some flags ->
          let flags = Array.of_list flags in
          scan_column modes (fun t msg ->
              let in_mode =
                match msg with
                | Value.Present (Value.Enum (_, lit)) -> String.equal lit mode
                | Value.Present v ->
                  String.equal (Value.to_string v) mode
                | Value.Absent -> false
              in
              if in_mode && t < Array.length flags && flag_set flags.(t) then
                Some
                  (Printf.sprintf "in mode %s while %s is set" mode flag_flow)
              else None)) }

let never ~name ~flows ~pred =
  { mon_name = name;
    check =
      (fun trace ->
        match
          List.find_opt
            (fun f -> not (List.mem f (Trace.flows trace)))
            flows
        with
        | Some f -> missing_flow f
        | None ->
          let cols =
            List.map (fun f -> (f, Array.of_list (Trace.column trace f))) flows
          in
          let n = Trace.length trace in
          let rec go t =
            if t >= n then Pass
            else
              let row =
                List.map
                  (fun (f, col) ->
                    (f, if t < Array.length col then col.(t) else Value.Absent))
                  cols
              in
              if pred row then
                Fail
                  { at_tick = t;
                    reason =
                      Printf.sprintf "forbidden state over {%s}"
                        (String.concat ", " flows) }
              else go (t + 1)
          in
          go 0) }

let predicate ~name f =
  { mon_name = name;
    check =
      (fun trace ->
        match f trace with
        | Some (at_tick, reason) -> Fail { at_tick; reason }
        | None -> Pass) }
