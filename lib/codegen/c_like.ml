open Automode_core

exception Codegen_error of string

let codegen_error fmt = Format.kasprintf (fun s -> raise (Codegen_error s)) fmt

let c_type = function
  | Some Dtype.Tbool -> "bool8"
  | Some Dtype.Tint -> "int32"
  | Some Dtype.Tfloat -> "float64"
  | Some (Dtype.Tenum e) -> e.enum_name
  | Some (Dtype.Ttuple _) -> "struct_t"
  | None -> "float64"

let c_value (v : Value.t) =
  match v with
  | Value.Bool b -> if b then "1" else "0"
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%g" f
  | Value.Enum (ty, lit) -> Printf.sprintf "%s_%s" ty lit
  | Value.Tuple _ -> codegen_error "tuple literals not supported in C output"

let binop_c = function
  | Expr.Add -> "+" | Expr.Sub -> "-" | Expr.Mul -> "*" | Expr.Div -> "/"
  | Expr.Mod -> "%"
  | Expr.And -> "&&" | Expr.Or -> "||"
  | Expr.Eq -> "==" | Expr.Ne -> "!=" | Expr.Lt -> "<" | Expr.Le -> "<="
  | Expr.Gt -> ">" | Expr.Ge -> ">="
  | Expr.Min -> "" | Expr.Max -> ""

let expr_to_c ~state_prefix expr =
  let counter = ref 0 in
  let decls = ref [] and posts = ref [] in
  let fresh_state init =
    incr counter;
    let name = Printf.sprintf "%s_reg%d" state_prefix !counter in
    decls :=
      Printf.sprintf "static float64 %s = %s;" name (c_value init) :: !decls;
    name
  in
  let rec go (e : Expr.t) =
    match e with
    | Expr.Const v -> c_value v
    | Expr.Var name -> name
    | Expr.Unop (Expr.Neg, a) -> Printf.sprintf "(-%s)" (go a)
    | Expr.Unop (Expr.Not, a) -> Printf.sprintf "(!%s)" (go a)
    | Expr.Unop (Expr.Abs, a) -> Printf.sprintf "fabs(%s)" (go a)
    | Expr.Binop (Expr.Min, a, b) ->
      Printf.sprintf "fmin(%s, %s)" (go a) (go b)
    | Expr.Binop (Expr.Max, a, b) ->
      Printf.sprintf "fmax(%s, %s)" (go a) (go b)
    | Expr.Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (go a) (binop_c op) (go b)
    | Expr.If (c, a, b) ->
      Printf.sprintf "(%s ? %s : %s)" (go c) (go a) (go b)
    | Expr.Pre (init, a) ->
      (* read the register now, refresh it after the step *)
      let reg = fresh_state init in
      let value = go a in
      posts := Printf.sprintf "%s = %s;" reg value :: !posts;
      reg
    | Expr.Current (init, a) ->
      (* the held value lives in a register refreshed after each step; at
         the OA the producer's task rate makes the value fresh at every
         activation, so the expression reads the freshly computed value *)
      let reg = fresh_state init in
      let value = go a in
      posts := Printf.sprintf "%s = %s;" reg value :: !posts;
      value
    | Expr.When (a, _) ->
      (* the clock is realized by the owning task's period *)
      go a
    | Expr.Call (name, args) ->
      let cargs = List.map go args in
      (match name, cargs with
       | "limit", [ x; lo; hi ] ->
         Printf.sprintf "fmin(fmax(%s, %s), %s)" x lo hi
       | "select", [ c; a; b ] -> Printf.sprintf "(%s ? %s : %s)" c a b
       | "add", [ a; b ] -> Printf.sprintf "(%s + %s)" a b
       | "sub", [ a; b ] -> Printf.sprintf "(%s - %s)" a b
       | "mul", [ a; b ] -> Printf.sprintf "(%s * %s)" a b
       | "div", [ a; b ] -> Printf.sprintf "(%s / %s)" a b
       | _ -> Printf.sprintf "%s(%s)" name (String.concat ", " cargs))
    | Expr.Is_present _ ->
      codegen_error
        "present() has no OA representation (activation realizes presence)"
  in
  let text = go expr in
  (text, List.rev !decls, List.rev !posts)

let fn_header buf name (ports : Model.port list) ret =
  let ins =
    List.filter_map
      (fun (p : Model.port) ->
        if p.port_dir = Model.In then
          Some (Printf.sprintf "%s %s" (c_type p.port_type) p.port_name)
        else None)
      ports
  in
  Buffer.add_string buf
    (Printf.sprintf "%s %s(%s)\n" ret name
       (if ins = [] then "void" else String.concat ", " ins))

let exprs_to_c buf comp_name (ports : Model.port list) outs =
  List.iter
    (fun (port, expr) ->
      let fn = Printf.sprintf "%s_%s_step" comp_name port in
      let text, decls, posts =
        expr_to_c ~state_prefix:(comp_name ^ "_" ^ port) expr
      in
      let ret =
        c_type
          (Option.bind
             (List.find_opt
                (fun (p : Model.port) -> String.equal p.port_name port)
                ports)
             (fun p -> p.port_type))
      in
      List.iter (fun d -> Buffer.add_string buf (d ^ "\n")) decls;
      fn_header buf fn ports ret;
      Buffer.add_string buf "{\n";
      Buffer.add_string buf (Printf.sprintf "  %s result = %s;\n" ret text);
      List.iter (fun p -> Buffer.add_string buf ("  " ^ p ^ "\n")) posts;
      Buffer.add_string buf "  return result;\n}\n\n")
    outs

let guard_to_c comp_name guard =
  (* guards are memoryless, so no registers appear *)
  let text, _, _ = expr_to_c ~state_prefix:(comp_name ^ "_guard") guard in
  text

let std_to_c buf comp_name (ports : Model.port list) (std : Model.std) =
  Buffer.add_string buf
    (Printf.sprintf "typedef enum { %s } %s_state_t;\n"
       (String.concat ", "
          (List.map (fun s -> comp_name ^ "_S_" ^ s) std.std_states))
       comp_name);
  Buffer.add_string buf
    (Printf.sprintf "static %s_state_t %s_state = %s_S_%s;\n" comp_name
       comp_name comp_name std.std_initial);
  List.iter
    (fun (v, init) ->
      Buffer.add_string buf
        (Printf.sprintf "static float64 %s_var_%s = %s;\n" comp_name v
           (c_value init)))
    std.std_vars;
  fn_header buf (comp_name ^ "_step") ports "void";
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  switch (%s_state) {\n" comp_name);
  List.iter
    (fun state ->
      Buffer.add_string buf
        (Printf.sprintf "  case %s_S_%s:\n" comp_name state);
      let ts =
        List.sort
          (fun (a : Model.std_transition) b ->
            Int.compare a.st_priority b.st_priority)
          (List.filter
             (fun (t : Model.std_transition) -> String.equal t.st_src state)
             std.std_transitions)
      in
      List.iteri
        (fun i (t : Model.std_transition) ->
          let kw = if i = 0 then "if" else "else if" in
          Buffer.add_string buf
            (Printf.sprintf "    %s (%s) {\n" kw
               (guard_to_c comp_name t.st_guard));
          List.iter
            (fun (port, e) ->
              let text, _, _ =
                expr_to_c ~state_prefix:(comp_name ^ "_out") e
              in
              Buffer.add_string buf
                (Printf.sprintf "      emit_%s(%s);\n" port text))
            t.st_outputs;
          List.iter
            (fun (v, e) ->
              let text, _, _ =
                expr_to_c ~state_prefix:(comp_name ^ "_upd") e
              in
              Buffer.add_string buf
                (Printf.sprintf "      %s_var_%s = %s;\n" comp_name v text))
            t.st_updates;
          Buffer.add_string buf
            (Printf.sprintf "      %s_state = %s_S_%s;\n" comp_name comp_name
               t.st_dst);
          Buffer.add_string buf "    }\n")
        ts;
      Buffer.add_string buf "    break;\n")
    std.std_states;
  Buffer.add_string buf "  }\n}\n\n"

let rec mtd_to_c buf comp_name (ports : Model.port list) (mtd : Model.mtd) =
  Buffer.add_string buf
    (Printf.sprintf "typedef enum { %s } %s_mode_t;\n"
       (String.concat ", "
          (List.map
             (fun (m : Model.mode) -> comp_name ^ "_M_" ^ m.mode_name)
             mtd.mtd_modes))
       comp_name);
  Buffer.add_string buf
    (Printf.sprintf "static %s_mode_t %s_mode = %s_M_%s;\n" comp_name
       comp_name comp_name mtd.mtd_initial);
  (* mode bodies *)
  List.iter
    (fun (m : Model.mode) ->
      behavior_to_c buf
        (comp_name ^ "_" ^ m.mode_name)
        ports m.mode_behavior)
    mtd.mtd_modes;
  fn_header buf (comp_name ^ "_step") ports "void";
  Buffer.add_string buf "{\n  /* mode transitions (strong preemption) */\n";
  Buffer.add_string buf (Printf.sprintf "  switch (%s_mode) {\n" comp_name);
  List.iter
    (fun (m : Model.mode) ->
      Buffer.add_string buf
        (Printf.sprintf "  case %s_M_%s:\n" comp_name m.mode_name);
      let ts =
        List.sort
          (fun (a : Model.mtd_transition) b ->
            Int.compare a.mt_priority b.mt_priority)
          (List.filter
             (fun (t : Model.mtd_transition) ->
               String.equal t.mt_src m.mode_name)
             mtd.mtd_transitions)
      in
      List.iteri
        (fun i (t : Model.mtd_transition) ->
          let kw = if i = 0 then "if" else "else if" in
          Buffer.add_string buf
            (Printf.sprintf "    %s (%s) %s_mode = %s_M_%s;\n" kw
               (guard_to_c comp_name t.mt_guard)
               comp_name comp_name t.mt_dst))
        ts;
      Buffer.add_string buf "    break;\n")
    mtd.mtd_modes;
  Buffer.add_string buf "  }\n  /* mode behavior dispatch */\n";
  Buffer.add_string buf (Printf.sprintf "  switch (%s_mode) {\n" comp_name);
  List.iter
    (fun (m : Model.mode) ->
      Buffer.add_string buf
        (Printf.sprintf "  case %s_M_%s: %s_%s_dispatch(); break;\n" comp_name
           m.mode_name comp_name m.mode_name))
    mtd.mtd_modes;
  Buffer.add_string buf "  }\n}\n\n"

and behavior_to_c buf comp_name ports (behavior : Model.behavior) =
  match behavior with
  | Model.B_exprs outs ->
    exprs_to_c buf comp_name ports outs;
    (* dispatch helper for MTD modes *)
    Buffer.add_string buf
      (Printf.sprintf "void %s_dispatch(void)\n{\n" comp_name);
    List.iter
      (fun (port, _) ->
        Buffer.add_string buf
          (Printf.sprintf "  /* emit %s via %s_%s_step */\n" port comp_name
             port))
      outs;
    Buffer.add_string buf "}\n\n"
  | Model.B_std std -> std_to_c buf comp_name ports std
  | Model.B_mtd mtd -> mtd_to_c buf comp_name ports mtd
  | Model.B_dfd net | Model.B_ssd net ->
    let order =
      match Causality.evaluation_order net with
      | Ok order -> order
      | Error _ -> List.map (fun (c : Model.component) -> c.comp_name) net.net_components
    in
    List.iter
      (fun sub_name ->
        match Model.find_component net sub_name with
        | Some sub -> behavior_to_c buf (comp_name ^ "_" ^ sub_name) sub.comp_ports sub.comp_behavior
        | None -> ())
      order;
    fn_header buf (comp_name ^ "_step") ports "void";
    Buffer.add_string buf "{\n";
    List.iter
      (fun sub_name ->
        Buffer.add_string buf
          (Printf.sprintf "  %s_%s_step_all();\n" comp_name sub_name))
      order;
    Buffer.add_string buf "}\n\n"
  | Model.B_unspecified ->
    codegen_error "cannot generate code for unspecified behavior %s" comp_name

let component_to_c (comp : Model.component) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "/* generated from AutoMoDe component %s */\n\n"
       comp.comp_name);
  behavior_to_c buf comp.comp_name comp.comp_ports comp.comp_behavior;
  Buffer.contents buf
