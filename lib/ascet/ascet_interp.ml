open Automode_core

exception Run_error of string

let run_error fmt = Format.kasprintf (fun s -> raise (Run_error s)) fmt

type state = (string * Value.t) list

let init (m : Ascet_ast.t) =
  List.map (fun (g : Ascet_ast.global) -> (g.g_name, g.g_init)) m.globals

let eval_expr env e =
  let msg, _ = Expr.step ~tick:0 ~env e (Expr.init_state e) in
  match msg with
  | Value.Present v -> v
  | Value.Absent -> run_error "expression %s evaluated to absent" (Expr.to_string e)

let run_process (p : Ascet_ast.process) globals =
  let locals =
    ref (List.map (fun (name, _, init) -> (name, init)) p.proc_locals)
  in
  let globals = ref globals in
  let env name : Value.message =
    match List.assoc_opt name !locals with
    | Some v -> Value.Present v
    | None ->
      (match List.assoc_opt name !globals with
       | Some v -> Value.Present v
       | None -> run_error "process %s: unknown name %s" p.proc_name name)
  in
  let rec exec (s : Ascet_ast.stmt) =
    match s with
    | Ascet_ast.Assign (target, e) ->
      let v = try eval_expr env e with Expr.Eval_error m -> run_error "%s" m in
      if not (List.mem_assoc target !locals) then
        run_error "process %s: assignment to unknown local %s" p.proc_name
          target;
      locals := (target, v) :: List.remove_assoc target !locals
    | Ascet_ast.Send (target, e) ->
      let v = try eval_expr env e with Expr.Eval_error m -> run_error "%s" m in
      if not (List.mem_assoc target !globals) then
        run_error "process %s: send to unknown global %s" p.proc_name target;
      globals := (target, v) :: List.remove_assoc target !globals
    | Ascet_ast.If (cond, then_s, else_s) ->
      let v =
        try eval_expr env cond with Expr.Eval_error m -> run_error "%s" m
      in
      let branch =
        try if Value.truth v then then_s else else_s
        with Value.Type_error m -> run_error "%s" m
      in
      List.iter exec branch
  in
  List.iter exec p.proc_body;
  !globals

let step (m : Ascet_ast.t) ~inputs ~t_ms state =
  let state =
    List.fold_left
      (fun state (name, v) ->
        match Ascet_ast.find_global m name with
        | Some { Ascet_ast.g_kind = Ascet_ast.Input; _ } ->
          (name, v) :: List.remove_assoc name state
        | Some _ -> run_error "cannot drive non-input global %s" name
        | None -> run_error "unknown input global %s" name)
      state inputs
  in
  List.fold_left
    (fun state (task : Ascet_ast.task_decl) ->
      if t_ms mod task.period_ms = 0 then
        List.fold_left
          (fun state p -> run_process p state)
          state
          (Ascet_ast.processes_of_task m task.task_name)
      else state)
    state m.tasks

type input_fn = int -> (string * Value.t) list

let run m ~ticks ~inputs ~observe =
  let trace = Trace.make ~flows:observe in
  let rec go t state trace =
    if t >= ticks then trace
    else
      let state = step m ~inputs:(inputs t) ~t_ms:t state in
      let row =
        List.map
          (fun name ->
            match List.assoc_opt name state with
            | Some v -> (name, Value.Present v)
            | None -> (name, Value.Absent))
          observe
      in
      go (t + 1) state (Trace.record trace row)
  in
  go 0 (init m) trace
