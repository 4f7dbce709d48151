open Automode_core
open Automode_ascet

type report = {
  processes : int;
  components : int;
  mtds_extracted : int;
  flags_found : string list;
  flag_conditionals : int;
  multi_flag_emitters : (string * int) list;
}

let pp_report ppf r =
  Format.fprintf ppf
    "reengineered %d processes into %d components; %d MTDs extracted@\n"
    r.processes r.components r.mtds_extracted;
  Format.fprintf ppf "mode flags: %s@\n"
    (if r.flags_found = [] then "(none)" else String.concat ", " r.flags_found);
  Format.fprintf ppf "flag conditionals in input: %d@\n" r.flag_conditionals;
  List.iter
    (fun (p, n) ->
      Format.fprintf ppf "central flag emitter: %s (%d flags)@\n" p n)
    r.multi_flag_emitters

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(* ------------------------------------------------------------------ *)
(* Symbolic execution of statement bodies                             *)
(* ------------------------------------------------------------------ *)

(* Bindings from names (locals and written globals) to expressions over the
   component's input ports.  Unbound variables remain port reads. *)
type senv = (string * Expr.t) list

let rec subst (env : senv) (e : Expr.t) : Expr.t =
  match e with
  | Expr.Var name ->
    (match List.assoc_opt name env with Some bound -> bound | None -> e)
  | Expr.Const _ | Expr.Is_present _ -> e
  | Expr.Unop (op, a) -> Expr.Unop (op, subst env a)
  | Expr.Binop (op, a, b) -> Expr.Binop (op, subst env a, subst env b)
  | Expr.If (c, a, b) -> Expr.If (subst env c, subst env a, subst env b)
  | Expr.Pre (i, a) -> Expr.Pre (i, subst env a)
  | Expr.When (a, c) -> Expr.When (subst env a, c)
  | Expr.Current (i, a) -> Expr.Current (i, subst env a)
  | Expr.Call (f, args) -> Expr.Call (f, List.map (subst env) args)

let lookup_or_port env name =
  match List.assoc_opt name env with
  | Some e -> e
  | None -> Expr.var name

let rec exec_stmt (env : senv) (s : Ascet_ast.stmt) : senv =
  match s with
  | Ascet_ast.Assign (target, e) | Ascet_ast.Send (target, e) ->
    (target, subst env e) :: List.remove_assoc target env
  | Ascet_ast.If (cond, then_s, else_s) ->
    let cond' = subst env cond in
    let env_t = exec_stmts env then_s in
    let env_f = exec_stmts env else_s in
    let keys =
      List.sort_uniq String.compare (List.map fst env_t @ List.map fst env_f)
    in
    List.map
      (fun k ->
        let vt = lookup_or_port env_t k and vf = lookup_or_port env_f k in
        if vt == vf || vt = vf then (k, vt) else (k, Expr.If (cond', vt, vf)))
      keys

and exec_stmts env stmts = List.fold_left exec_stmt env stmts

(* ------------------------------------------------------------------ *)
(* White-box reengineering                                            *)
(* ------------------------------------------------------------------ *)

(* Execution order of a process at coincident activation ticks:
   (task declaration index, process declaration index). *)
let order_of (m : Ascet_ast.t) (p : Ascet_ast.process) =
  let task_idx =
    let rec idx i = function
      | [] -> max_int
      | (t : Ascet_ast.task_decl) :: rest ->
        if String.equal t.task_name p.proc_task then i else idx (i + 1) rest
    in
    idx 0 m.tasks
  in
  let proc_idx =
    let rec idx i = function
      | [] -> max_int
      | (q : Ascet_ast.process) :: rest ->
        if String.equal q.proc_name p.proc_name then i else idx (i + 1) rest
    in
    idx 0 m.processes
  in
  (task_idx, proc_idx)

let task_clock (m : Ascet_ast.t) task_name =
  match Ascet_ast.find_task m task_name with
  | Some t -> Clock.every t.period_ms Clock.Base
  | None -> unsupported "process bound to unknown task %s" task_name

let global_of (m : Ascet_ast.t) name =
  match Ascet_ast.find_global m name with
  | Some g -> g
  | None -> unsupported "undeclared global %s" name

let writer_of (m : Ascet_ast.t) gname =
  match Ascet_analysis.flag_writers m gname with
  | [] -> None
  | [ w ] -> Some w
  | ws ->
    unsupported "global %s has several writers (%s)" gname
      (String.concat ", " ws)

(* Evaluate a memoryless closed expression over the initial global values. *)
let eval_initial (m : Ascet_ast.t) e =
  let env name : Value.message =
    match Ascet_ast.find_global m name with
    | Some g -> Value.Present g.Ascet_ast.g_init
    | None -> Value.Absent
  in
  match Expr.step ~tick:0 ~env e (Expr.init_state e) with
  | Value.Present v, _ -> Some v
  | Value.Absent, _ -> None

let default_mode_naming proc = (proc ^ "_on", proc ^ "_off")

let translate_process ~mode_naming (m : Ascet_ast.t) flags
    (p : Ascet_ast.process) : Model.component * bool =
  let clock = task_clock m p.proc_task in
  let written = Ascet_ast.globals_written p in
  let init_env =
    List.map (fun (name, _, init) -> (name, Expr.Const init)) p.proc_locals
  in
  let outputs_of env =
    List.map (fun g -> (g, Expr.When (lookup_or_port env g, clock))) written
  in
  let split = Ascet_analysis.implicit_modes ~flags p in
  let behavior, is_mtd, out_exprs =
    match split with
    | Some { Ascet_analysis.split_condition; then_branch; else_branch; prefix }
      ->
      let env0 = exec_stmts init_env prefix in
      let cond = subst env0 split_condition in
      let env_t = exec_stmts env0 then_branch in
      let env_f = exec_stmts env0 else_branch in
      let outs_t = outputs_of env_t and outs_f = outputs_of env_f in
      let then_name, else_name =
        match mode_naming p.proc_name with
        | Some names -> names
        | None -> default_mode_naming p.proc_name
      in
      let initial =
        match eval_initial m cond with
        | Some (Value.Bool true) -> then_name
        | Some (Value.Bool false) | Some _ | None -> else_name
      in
      let mtd : Model.mtd =
        { mtd_name = p.proc_name;
          mtd_modes =
            [ { mode_name = then_name; mode_behavior = Model.B_exprs outs_t };
              { mode_name = else_name; mode_behavior = Model.B_exprs outs_f } ];
          mtd_initial = initial;
          mtd_transitions =
            [ { mt_src = else_name; mt_dst = then_name; mt_guard = cond;
                mt_priority = 0 };
              { mt_src = then_name; mt_dst = else_name;
                mt_guard = Expr.not_ cond; mt_priority = 0 } ] }
      in
      (Model.B_mtd mtd, true, outs_t @ outs_f @ [ ("", cond) ])
    | None ->
      let env = exec_stmts init_env p.proc_body in
      let outs = outputs_of env in
      (Model.B_exprs outs, false, outs)
  in
  (* Ports: an input per referenced global, an output per written global.
     A global that is both read and written (accumulators, conditional
     writes) would collide with its own output port, so such inputs are
     renamed to <name>__in and the expressions substituted accordingly. *)
  let referenced =
    List.concat_map (fun (_, e) -> Expr.free_vars e) out_exprs
    |> List.sort_uniq String.compare
  in
  let collisions = List.filter (fun r -> List.mem r written) referenced in
  let rename_env = List.map (fun g -> (g, Expr.var (g ^ "__in"))) collisions in
  let rename e = if rename_env = [] then e else subst rename_env e in
  let behavior =
    if rename_env = [] then behavior
    else
      match behavior with
      | Model.B_exprs outs ->
        Model.B_exprs (List.map (fun (o, e) -> (o, rename e)) outs)
      | Model.B_mtd mtd ->
        Model.B_mtd
          { mtd with
            Model.mtd_modes =
              List.map
                (fun (mode : Model.mode) ->
                  match mode.mode_behavior with
                  | Model.B_exprs outs ->
                    { mode with
                      Model.mode_behavior =
                        Model.B_exprs
                          (List.map (fun (o, e) -> (o, rename e)) outs) }
                  | Model.B_std _ | Model.B_mtd _ | Model.B_dfd _
                  | Model.B_ssd _ | Model.B_unspecified -> mode)
                mtd.Model.mtd_modes;
            Model.mtd_transitions =
              List.map
                (fun (t : Model.mtd_transition) ->
                  { t with Model.mt_guard = rename t.mt_guard })
                mtd.Model.mtd_transitions }
      | (Model.B_std _ | Model.B_dfd _ | Model.B_ssd _ | Model.B_unspecified)
        as b -> b
  in
  let in_port_name name =
    if List.mem name collisions then name ^ "__in" else name
  in
  let in_ports =
    List.map
      (fun name ->
        let g = global_of m name in
        Model.in_port ~ty:g.Ascet_ast.g_type (in_port_name name))
      referenced
  in
  let out_ports =
    List.map
      (fun name ->
        let g = global_of m name in
        Model.out_port ~ty:g.Ascet_ast.g_type ~clock name)
      written
  in
  (Model.component p.proc_name ~ports:(in_ports @ out_ports) ~behavior,
   is_mtd)

let whitebox ?(mode_naming = fun _ -> None) ?(simplify = true)
    (m : Ascet_ast.t) =
  (match Ascet_ast.check m with
   | [] -> ()
   | problems -> unsupported "ill-formed ASCET module: %s" (List.hd problems));
  let flags = Ascet_analysis.inferred_flags m in
  let translations =
    List.map (translate_process ~mode_naming m flags) m.processes
  in
  let components = List.map fst translations in
  let mtds_extracted =
    List.length (List.filter (fun (_, is_mtd) -> is_mtd) translations)
  in
  (* Which components read a global, and through which input port (the
     port may have been renamed to <g>__in to avoid output collisions)? *)
  let readers_of gname =
    List.filter_map
      (fun (c : Model.component) ->
        let port =
          List.find_opt
            (fun (p : Model.port) ->
              p.port_dir = Model.In
              && (String.equal p.port_name gname
                  || String.equal p.port_name (gname ^ "__in")))
            c.comp_ports
        in
        Option.map (fun (p : Model.port) -> (c.comp_name, p.port_name)) port)
      components
  in
  let all_globals = m.globals in
  (* Generated hold components and channels. *)
  let gen = ref [] and channels = ref [] and boundary_in = ref [] in
  let boundary_out = ref [] in
  let add_channel ?delayed ?init name src dst =
    channels := Model.channel ?delayed ?init ~name src dst :: !channels
  in
  let hold_component ~name ~ty ~init =
    Model.component name
      ~ports:[ Model.in_port ~ty "in"; Model.out_port ~ty "out" ]
      ~behavior:(Model.B_exprs [ ("out", Expr.current init (Expr.var "in")) ])
  in
  let const_component ~name ~ty ~init =
    Model.component name
      ~ports:[ Model.out_port ~ty "out" ]
      ~behavior:(Model.B_exprs [ ("out", Expr.Const init) ])
  in
  let process_order name =
    match Ascet_ast.find_process m name with
    | Some p -> order_of m p
    | None -> (max_int, max_int)
  in
  List.iter
    (fun (g : Ascet_ast.global) ->
      let gname = g.Ascet_ast.g_name in
      let ty = g.Ascet_ast.g_type and init = g.Ascet_ast.g_init in
      let readers = readers_of gname in
      let is_output = g.Ascet_ast.g_kind = Ascet_ast.Output in
      match g.Ascet_ast.g_kind with
      | Ascet_ast.Input ->
        boundary_in := Model.in_port ~ty gname :: !boundary_in;
        List.iteri
          (fun i (r, port) ->
            add_channel
              (Printf.sprintf "in_%s_%d" gname i)
              (Model.boundary gname) (Model.at r port))
          readers
      | Ascet_ast.Message | Ascet_ast.Flag | Ascet_ast.Output ->
        (match writer_of m gname with
         | None ->
           (* constant global: only materialize if someone observes it *)
           if readers <> [] || is_output then begin
             let cname = "const_" ^ gname in
             gen := const_component ~name:cname ~ty ~init :: !gen;
             List.iteri
               (fun i (r, port) ->
                 add_channel
                   (Printf.sprintf "c_%s_%d" gname i)
                   (Model.at cname "out") (Model.at r port))
               readers;
             if is_output then begin
               boundary_out := Model.out_port ~ty gname :: !boundary_out;
               add_channel ("out_" ^ gname) (Model.at cname "out")
                 (Model.boundary gname)
             end
           end
         | Some writer ->
           let w_order = process_order writer in
           let fresh_readers, prev_readers =
             List.partition
               (fun (r, _port) -> process_order r > w_order)
               readers
           in
           let need_fresh = fresh_readers <> [] || is_output in
           if need_fresh then begin
             let hname = "hold_" ^ gname in
             gen := hold_component ~name:hname ~ty ~init :: !gen;
             add_channel ("w_" ^ gname) (Model.at writer gname)
               (Model.at hname "in");
             List.iteri
               (fun i (r, port) ->
                 add_channel
                   (Printf.sprintf "f_%s_%d" gname i)
                   (Model.at hname "out") (Model.at r port))
               fresh_readers;
             if is_output then begin
               boundary_out := Model.out_port ~ty gname :: !boundary_out;
               add_channel ("out_" ^ gname) (Model.at hname "out")
                 (Model.boundary gname)
             end
           end;
           if prev_readers <> [] then begin
             let hname = "prev_" ^ gname in
             gen := hold_component ~name:hname ~ty ~init :: !gen;
             add_channel ~delayed:true ?init:(Some init) ("wp_" ^ gname)
               (Model.at writer gname) (Model.at hname "in");
             List.iteri
               (fun i (r, port) ->
                 add_channel
                   (Printf.sprintf "p_%s_%d" gname i)
                   (Model.at hname "out") (Model.at r port))
               prev_readers
           end))
    all_globals;
  let net : Model.network =
    { net_name = m.mod_name;
      net_components = components @ List.rev !gen;
      net_channels = List.rev !channels }
  in
  let root =
    Model.component m.mod_name
      ~ports:(List.rev !boundary_in @ List.rev !boundary_out)
      ~behavior:(Model.B_dfd net)
  in
  let root = if simplify then Simplify.component root else root in
  let model : Model.model =
    { model_name = m.mod_name;
      model_level = Model.Fda;
      model_root = root;
      model_enums = m.enums }
  in
  let report =
    { processes = List.length m.processes;
      components = List.length net.net_components;
      mtds_extracted;
      flags_found = flags;
      flag_conditionals = Ascet_analysis.count_flag_conditionals ~flags m;
      multi_flag_emitters = Ascet_analysis.central_flag_emitters m }
  in
  (model, report)

(* ------------------------------------------------------------------ *)
(* Black-box reengineering                                            *)
(* ------------------------------------------------------------------ *)

let blackbox ~name (cm : Automode_osek.Comm_matrix.t) =
  let module CM = Automode_osek.Comm_matrix in
  let nodes = CM.nodes cm in
  let component node =
    let outs =
      List.filter_map
        (fun (e : CM.entry) ->
          if String.equal e.sender node then
            Some (Model.out_port ~ty:Dtype.Tfloat ~resource:e.signal e.signal)
          else None)
        cm.CM.entries
    in
    let ins =
      List.filter_map
        (fun (e : CM.entry) ->
          if List.mem node e.receivers then
            Some (Model.in_port ~ty:Dtype.Tfloat ~resource:e.signal e.signal)
          else None)
        cm.CM.entries
    in
    Model.component node ~ports:(ins @ outs)
  in
  let channels =
    List.concat_map
      (fun (e : CM.entry) ->
        List.mapi
          (fun i r ->
            Model.channel
              ~name:(Printf.sprintf "%s_%d" e.signal i)
              (Model.at e.sender e.signal) (Model.at r e.signal))
          e.receivers)
      cm.CM.entries
  in
  let net : Model.network =
    { net_name = name;
      net_components = List.map component nodes;
      net_channels = channels }
  in
  { Model.model_name = name;
    model_level = Model.Faa;
    model_root =
      Model.component name ~ports:[] ~behavior:(Model.B_ssd net);
    model_enums = [] }
