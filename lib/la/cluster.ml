open Automode_core

type t = {
  cluster_name : string;
  ports : Model.port list;
  body : Model.network;
  impl_types : (string * Impl_type.t) list;
}

let make ?(impl_types = []) ~name ~ports ~body () =
  { cluster_name = name; ports; body; impl_types }

let to_component c =
  Model.component c.cluster_name ~ports:c.ports ~behavior:(Model.B_dfd c.body)

let rec expr_cost : Expr.t -> int = function
  | Expr.Const _ | Expr.Var _ | Expr.Is_present _ -> 1
  | Expr.Unop (_, e) | Expr.When (e, _) | Expr.Pre (_, e) | Expr.Current (_, e)
    -> 1 + expr_cost e
  | Expr.Binop (_, a, b) -> 1 + expr_cost a + expr_cost b
  | Expr.If (c, a, b) -> 1 + expr_cost c + expr_cost a + expr_cost b
  | Expr.Call (_, args) ->
    2 + List.fold_left (fun acc a -> acc + expr_cost a) 0 args

let rec behavior_cost : Model.behavior -> int = function
  | Model.B_exprs outs ->
    List.fold_left (fun acc (_, e) -> acc + expr_cost e) 0 outs
  | Model.B_std std ->
    List.fold_left
      (fun acc (t : Model.std_transition) ->
        acc + expr_cost t.st_guard
        + List.fold_left (fun a (_, e) -> a + expr_cost e) 0 t.st_outputs
        + List.fold_left (fun a (_, e) -> a + expr_cost e) 0 t.st_updates)
      1 std.std_transitions
  | Model.B_mtd mtd ->
    List.fold_left
      (fun acc (t : Model.mtd_transition) -> acc + expr_cost t.mt_guard)
      1 mtd.mtd_transitions
    + List.fold_left
        (fun acc (m : Model.mode) -> acc + behavior_cost m.mode_behavior)
        0 mtd.mtd_modes
  | Model.B_dfd net | Model.B_ssd net -> network_cost net
  | Model.B_unspecified -> 1

and network_cost (net : Model.network) =
  List.length net.net_channels
  + List.fold_left
      (fun acc (c : Model.component) -> acc + behavior_cost c.comp_behavior)
      0 net.net_components

let wcet_estimate c = Stdlib.max 1 (network_cost c.body)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let period c =
  let rec go acc = function
    | [] -> Some acc
    | (p : Model.port) :: rest ->
      (match Clock.canon p.port_clock with
       | Clock.Periodic { period; _ } -> go (gcd acc period) rest
       | Clock.Aperiodic _ -> None)
  in
  match c.ports with
  | [] -> Some 1
  | (p : Model.port) :: rest ->
    (match Clock.canon p.port_clock with
     | Clock.Periodic { period; _ } -> go period rest
     | Clock.Aperiodic _ -> None)

let check c =
  let problems = ref [] in
  let add fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (p : Model.port) ->
      (match p.port_type with
       | None -> add "port %s is not statically typed" p.port_name
       | Some abstract ->
         (match List.assoc_opt p.port_name c.impl_types with
          | Some impl when not (Impl_type.refines impl abstract) ->
            add "implementation type %s of port %s does not refine %s"
              (Impl_type.to_string impl) p.port_name
              (Dtype.to_string abstract)
          | Some _ | None -> ()));
      match Clock.canon p.port_clock with
      | Clock.Periodic _ -> ()
      | Clock.Aperiodic _ ->
        add "port %s has no explicit periodic frequency" p.port_name
      | exception Clock.Invalid_clock msg ->
        add "port %s: %s" p.port_name msg)
    c.ports;
  let comp = to_component c in
  List.iter
    (fun i -> add "%s" i.Network.issue_msg)
    (List.filter
       (fun (i : Network.issue) -> i.issue_severity = `Error)
       (Dfd.check ~enclosing:comp c.body));
  (* no recursive cluster definitions: a component named like a cluster
     inside the body would indicate nesting *)
  Model.iter_components
    (fun path (sub : Model.component) ->
      if path <> [] && String.equal sub.comp_name c.cluster_name then
        add "cluster %s nested inside itself" c.cluster_name)
    comp;
  List.rev !problems
