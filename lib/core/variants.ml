type feature = string

type condition =
  | Ftrue
  | Fvar of feature
  | Fnot of condition
  | Fand of condition * condition
  | For of condition * condition

let rec eval assignment = function
  | Ftrue -> true
  | Fvar f -> (match List.assoc_opt f assignment with Some b -> b | None -> false)
  | Fnot c -> not (eval assignment c)
  | Fand (a, b) -> eval assignment a && eval assignment b
  | For (a, b) -> eval assignment a || eval assignment b

let features_of condition =
  let rec go acc = function
    | Ftrue -> acc
    | Fvar f -> if List.mem f acc then acc else f :: acc
    | Fnot c -> go acc c
    | Fand (a, b) | For (a, b) -> go (go acc a) b
  in
  List.rev (go [] condition)

type t = {
  base : Model.model;
  presence : (string * condition) list;
}

let make ?(presence = []) base = { base; presence }

let features vm =
  List.concat_map (fun (_, c) -> features_of c) vm.presence
  |> List.sort_uniq String.compare

exception Not_variant_model of string

let root_network vm =
  match vm.base.Model.model_root.comp_behavior with
  | Model.B_ssd net | Model.B_dfd net -> net
  | Model.B_exprs _ | Model.B_std _ | Model.B_mtd _ | Model.B_unspecified ->
    raise (Not_variant_model "root component has no network behavior")

let check vm =
  let problems = ref [] in
  let add fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let net =
    try Some (root_network vm) with Not_variant_model msg -> add "%s" msg; None
  in
  (match net with
   | None -> ()
   | Some net ->
     List.iter
       (fun (name, _) ->
         if Model.find_component net name = None then
           add "presence condition on unknown component %s" name)
       vm.presence;
     (* a conditional provider feeding an unconditional consumer *)
     let conditional name =
       match List.assoc_opt name vm.presence with
       | Some Ftrue | None -> false
       | Some _ -> true
     in
     List.iter
       (fun (ch : Model.channel) ->
         match ch.ch_src.ep_comp, ch.ch_dst.ep_comp with
         | Some src, Some dst when conditional src && not (conditional dst) ->
           add
             "unconditional component %s depends on optional %s (channel %s)"
             dst src ch.ch_name
         | _, _ -> ())
       net.net_channels);
  List.rev !problems

let configure vm ~assignment =
  let net = root_network vm in
  let enabled name =
    match List.assoc_opt name vm.presence with
    | Some c -> eval assignment c
    | None -> true
  in
  let components =
    List.filter
      (fun (c : Model.component) -> enabled c.comp_name)
      net.net_components
  in
  let endpoint_ok (ep : Model.endpoint) =
    match ep.ep_comp with None -> true | Some c -> enabled c
  in
  let channels =
    List.filter
      (fun (ch : Model.channel) -> endpoint_ok ch.ch_src && endpoint_ok ch.ch_dst)
      net.net_channels
  in
  let net' = { net with Model.net_components = components; net_channels = channels } in
  let behavior =
    match vm.base.Model.model_root.comp_behavior with
    | Model.B_ssd _ -> Model.B_ssd net'
    | Model.B_dfd _ -> Model.B_dfd net'
    | Model.B_exprs _ | Model.B_std _ | Model.B_mtd _ | Model.B_unspecified ->
      assert false
  in
  { vm.base with
    Model.model_root = { vm.base.Model.model_root with comp_behavior = behavior } }

let all_assignments features =
  let rec go = function
    | [] -> [ [] ]
    | f :: rest ->
      let tails = go rest in
      List.map (fun t -> (f, true) :: t) tails
      @ List.map (fun t -> (f, false) :: t) tails
  in
  go features

let configurations vm =
  let fs = features vm in
  List.map
    (fun assignment ->
      let label =
        String.concat ""
          (List.map
             (fun (f, b) -> (if b then "+" else "-") ^ f)
             assignment)
      in
      let label = if String.equal label "" then "base" else label in
      (label, configure vm ~assignment))
    (all_assignments fs)
