open Automode_core
open Automode_robust

type input = {
  horizon : int;
  nominal_guarded : Trace.t;
  faulty_guarded : Trace.t;
  unguarded_failures : (string * int * string) list;
  guarded_failures : (string * int * string) list;
}

type finding = Info of string | Violation of string

type t = {
  check_name : string;
  check_eval : input -> finding option;
}

let name c = c.check_name
let eval c i = c.check_eval i
let make ~name check_eval = { check_name = name; check_eval }

let guard_regression =
  make ~name:"guard-regression" (fun i ->
      let unguarded = List.map (fun (m, _, _) -> m) i.unguarded_failures in
      match
        List.filter
          (fun (m, _, _) -> not (List.mem m unguarded))
          i.guarded_failures
      with
      | [] -> None
      | regressions ->
        Some
          (Violation
             (String.concat ";"
                (List.map
                   (fun (m, t, _) -> Printf.sprintf "%s@t%d" m t)
                   regressions))))

let is_absent = function Value.Absent -> true | Value.Present _ -> false

let detectable_gap ~flow ~ok_flow ~gap =
  make
    ~name:(Printf.sprintf "detectable-gap:%s" flow)
    (fun i ->
      let col = Array.of_list (Trace.column i.faulty_guarded flow) in
      let flagged tick =
        match Trace.get i.faulty_guarded ~flow:ok_flow ~tick with
        | Value.Present (Value.Bool false) -> true
        | _ -> false
      in
      let n = Array.length col in
      let detected = ref [] in
      let undetected = ref None in
      let t = ref 0 in
      while !t < n do
        if is_absent col.(!t) then begin
          let start = !t in
          while !t < n && is_absent col.(!t) do
            incr t
          done;
          let len = !t - start in
          (* a window running past the trace end is inconclusive *)
          if len > gap && start + gap < n then begin
            let hit = ref false in
            for u = start to start + gap do
              if flagged u then hit := true
            done;
            if !hit then detected := len :: !detected
            else if !undetected = None then undetected := Some start
          end
        end
        else incr t
      done;
      match !undetected with
      | Some start ->
        Some
          (Violation
             (Printf.sprintf "gap from t%d exceeds %d ticks with no %s flag"
                start gap ok_flow))
      | None ->
        (match List.rev !detected with
         | [] -> None
         | lens ->
           Some
             (Info
                (Printf.sprintf "gap-detected:%s"
                   (String.concat "," (List.map string_of_int lens))))))

let recovers ~flow ~ok_flow ~within =
  make
    ~name:(Printf.sprintf "recovers:%s" ok_flow)
    (fun i ->
      let nominal = Array.of_list (Trace.column i.nominal_guarded flow) in
      let faulty = Array.of_list (Trace.column i.faulty_guarded flow) in
      let n = min (Array.length nominal) (Array.length faulty) in
      let last = ref (-1) in
      for t = 0 to n - 1 do
        if not (Value.equal_message nominal.(t) faulty.(t)) then last := t
      done;
      if !last < 0 then None
      else
        let monitor =
          Monitor.recovers
            ~pred:(fun v -> Value.equal v (Value.Bool true))
            ~name:"recovers" ~flow:ok_flow ~after:!last ~within ()
        in
        match Monitor.eval monitor i.faulty_guarded with
        | Monitor.Pass -> None
        | Monitor.Fail { at_tick; reason } ->
          Some (Violation (Printf.sprintf "t%d: %s" at_tick reason)))

let well_defined ~flows =
  make ~name:"well-defined" (fun i ->
      let first_hole = ref None in
      List.iter
        (fun flow ->
          if !first_hole = None then
            match Trace.column i.faulty_guarded flow with
            | col ->
              List.iteri
                (fun t m ->
                  if is_absent m && !first_hole = None then
                    first_hole := Some (flow, t))
                col
            | exception Not_found -> first_hole := Some (flow, -1))
        flows;
      match !first_hole with
      | None -> None
      | Some (flow, -1) ->
        Some (Violation (Printf.sprintf "%s missing from the trace" flow))
      | Some (flow, t) ->
        Some (Violation (Printf.sprintf "%s absent at t%d" flow t)))
