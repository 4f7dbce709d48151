type finding = {
  rule : string;
  severity : [ `Conflict | `Warning | `Info ];
  subject : string list;
  message : string;
  countermeasure : string option;
}

let pp_finding ppf f =
  let sev =
    match f.severity with
    | `Conflict -> "CONFLICT"
    | `Warning -> "warning"
    | `Info -> "info"
  in
  Format.fprintf ppf "[%s] %s: %s" sev f.rule f.message;
  match f.countermeasure with
  | Some c -> Format.fprintf ppf " (suggestion: %s)" c
  | None -> ()

type rule = Model.model -> finding list

(* Top-level vehicle functions: the direct sub-components of the root. *)
let top_functions (model : Model.model) =
  match model.model_root.comp_behavior with
  | Model.B_ssd net | Model.B_dfd net -> net.net_components
  | Model.B_exprs _ | Model.B_std _ | Model.B_mtd _ | Model.B_unspecified ->
    []

let resource_accesses dir (model : Model.model) =
  List.concat_map
    (fun (c : Model.component) ->
      List.filter_map
        (fun (p : Model.port) ->
          match p.port_resource with
          | Some r when p.port_dir = dir -> Some (r, c.comp_name)
          | Some _ | None -> None)
        c.comp_ports)
    (top_functions model)

let group_by_resource accesses =
  let resources = List.sort_uniq String.compare (List.map fst accesses) in
  List.map
    (fun r ->
      ( r,
        List.sort_uniq String.compare
          (List.filter_map
             (fun (r', c) -> if String.equal r r' then Some c else None)
             accesses) ))
    resources

let actuator_conflict model =
  group_by_resource (resource_accesses Model.Out model)
  |> List.filter_map (fun (resource, writers) ->
         match writers with
         | [] | [ _ ] -> None
         | _ :: _ :: _ ->
           Some
             { rule = "actuator-conflict";
               severity = `Conflict;
               subject = writers;
               message =
                 Printf.sprintf "functions %s all drive actuator %s"
                   (String.concat ", " writers) resource;
               countermeasure =
                 Some
                   (Printf.sprintf
                      "introduce a coordinating functionality arbitrating %s"
                      resource) })

let shared_sensor model =
  group_by_resource (resource_accesses Model.In model)
  |> List.filter_map (fun (resource, readers) ->
         match readers with
         | [] | [ _ ] -> None
         | _ :: _ :: _ ->
           Some
             { rule = "shared-sensor";
               severity = `Info;
               subject = readers;
               message =
                 Printf.sprintf "functions %s share sensor %s"
                   (String.concat ", " readers) resource;
               countermeasure = None })

let unspecified_behavior (model : Model.model) =
  let findings = ref [] in
  Model.iter_components
    (fun path (c : Model.component) ->
      match c.comp_behavior with
      | Model.B_unspecified ->
        let name = String.concat "." (path @ [ c.comp_name ]) in
        let severity, counter =
          match model.model_level with
          | Model.Faa -> (`Warning, "add a prototypical behavioral description")
          | Model.Fda | Model.La | Model.Ta | Model.Oa ->
            (`Conflict, "FDA components must be behaviorally complete")
        in
        findings :=
          { rule = "unspecified-behavior";
            severity;
            subject = [ name ];
            message = Printf.sprintf "component %s has no behavior" name;
            countermeasure = Some counter }
          :: !findings
      | Model.B_exprs _ | Model.B_std _ | Model.B_mtd _ | Model.B_dfd _
      | Model.B_ssd _ -> ())
    model.model_root;
  List.rev !findings

let dangling_channels (model : Model.model) =
  let findings = ref [] in
  Model.iter_components
    (fun path (c : Model.component) ->
      let check_net (net : Model.network) =
        List.iter
          (fun (ch : Model.channel) ->
            let bad ep =
              Network.resolve_port ~enclosing:c net ep = None
            in
            if bad ch.ch_src || bad ch.ch_dst then
              let name = String.concat "." (path @ [ c.comp_name ]) in
              findings :=
                { rule = "dangling-channel";
                  severity = `Conflict;
                  subject = [ name ];
                  message =
                    Printf.sprintf "channel %s in %s has unresolved endpoints"
                      ch.ch_name name;
                  countermeasure = None }
                :: !findings)
          net.net_channels
      in
      match c.comp_behavior with
      | Model.B_ssd net | Model.B_dfd net -> check_net net
      | Model.B_exprs _ | Model.B_std _ | Model.B_mtd _ | Model.B_unspecified
        -> ())
    model.model_root;
  List.rev !findings

let unconnected_functions (model : Model.model) =
  match model.model_root.comp_behavior with
  | Model.B_ssd net | Model.B_dfd net ->
    List.filter_map
      (fun (c : Model.component) ->
        let touched =
          List.exists
            (fun (ch : Model.channel) ->
              ch.ch_src.ep_comp = Some c.comp_name
              || ch.ch_dst.ep_comp = Some c.comp_name)
            net.net_channels
        in
        if touched || c.comp_ports = [] then None
        else
          Some
            { rule = "unconnected-function";
              severity = `Warning;
              subject = [ c.comp_name ];
              message =
                Printf.sprintf "function %s has ports but no channels"
                  c.comp_name;
              countermeasure = Some "connect it or remove it from the FAA" })
      net.net_components
  | Model.B_exprs _ | Model.B_std _ | Model.B_mtd _ | Model.B_unspecified ->
    []

let undelayed_faa_feedback (model : Model.model) =
  match model.model_root.comp_behavior with
  | Model.B_dfd net ->
    (match Causality.check net with
     | Ok () -> []
     | Error loops ->
       List.map
         (fun loop ->
           { rule = "faa-feedback";
             severity = `Warning;
             subject = loop;
             message =
               Printf.sprintf "undelayed feedback among %s"
                 (String.concat ", " loop);
             countermeasure =
               Some "compose vehicle functions with an SSD (implicit delays)" })
         loops)
  | Model.B_ssd _ | Model.B_exprs _ | Model.B_std _ | Model.B_mtd _
  | Model.B_unspecified -> []

let prototype_actuator (model : Model.model) =
  List.filter_map
    (fun (c : Model.component) ->
      let drives_actuator =
        List.exists
          (fun (p : Model.port) ->
            p.port_dir = Model.Out && p.port_resource <> None)
          c.comp_ports
      in
      match c.comp_behavior with
      | Model.B_unspecified when drives_actuator ->
        Some
          { rule = "prototype-actuator";
            severity = `Warning;
            subject = [ c.comp_name ];
            message =
              Printf.sprintf
                "actuator driven by %s, whose behavior is unspecified"
                c.comp_name;
            countermeasure =
              Some "give the function a prototypical behavioral description" }
      | Model.B_unspecified | Model.B_exprs _ | Model.B_std _ | Model.B_mtd _
      | Model.B_dfd _ | Model.B_ssd _ -> None)
    (top_functions model)

let non_harmonic_channel (model : Model.model) =
  match model.model_root.comp_behavior with
  | Model.B_ssd net | Model.B_dfd net ->
    List.filter_map
      (fun (ch : Model.channel) ->
        let clock_of (ep : Model.endpoint) =
          Option.map
            (fun (p : Model.port) -> p.Model.port_clock)
            (Network.resolve_port ~enclosing:model.model_root net ep)
        in
        match clock_of ch.ch_src, clock_of ch.ch_dst with
        | Some c1, Some c2 when not (Clock.harmonic c1 c2) ->
          Some
            { rule = "non-harmonic-channel";
              severity = `Warning;
              subject = [ ch.ch_name ];
              message =
                Printf.sprintf "channel %s connects clocks %s and %s"
                  ch.ch_name (Clock.to_string c1) (Clock.to_string c2);
              countermeasure =
                Some "insert an explicit rate adapter (when/current) before refinement" }
        | Some _, Some _ | None, _ | _, None -> None)
      net.net_channels
  | Model.B_exprs _ | Model.B_std _ | Model.B_mtd _ | Model.B_unspecified ->
    []

let rules =
  [ actuator_conflict;
    shared_sensor;
    unspecified_behavior;
    dangling_channels;
    unconnected_functions;
    prototype_actuator;
    non_harmonic_channel;
    undelayed_faa_feedback ]

let severity_rank = function `Conflict -> 0 | `Warning -> 1 | `Info -> 2

let run model =
  List.concat_map (fun rule -> rule model) rules
  |> List.stable_sort (fun a b ->
         Int.compare (severity_rank a.severity) (severity_rank b.severity))

let summary findings =
  let count s = List.length (List.filter (fun f -> f.severity = s) findings) in
  Printf.sprintf "%d conflicts, %d warnings, %d infos" (count `Conflict)
    (count `Warning) (count `Info)
