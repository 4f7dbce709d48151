type level = Faa | Fda | La | Ta | Oa

let level_name = function
  | Faa -> "FAA"
  | Fda -> "FDA"
  | La -> "LA"
  | Ta -> "TA"
  | Oa -> "OA"

type port_dir = In | Out

type port = {
  port_name : string;
  port_dir : port_dir;
  port_type : Dtype.t option;
  port_clock : Clock.t;
  port_resource : string option;
}

let port ?ty ?(clock = Clock.Base) ?resource dir name =
  { port_name = name;
    port_dir = dir;
    port_type = ty;
    port_clock = clock;
    port_resource = resource }

let in_port ?ty ?clock ?resource name = port ?ty ?clock ?resource In name
let out_port ?ty ?clock ?resource name = port ?ty ?clock ?resource Out name

type endpoint = { ep_comp : string option; ep_port : string }

let boundary port = { ep_comp = None; ep_port = port }
let at comp port = { ep_comp = Some comp; ep_port = port }

type channel = {
  ch_name : string;
  ch_src : endpoint;
  ch_dst : endpoint;
  ch_delayed : bool;
  ch_init : Value.t option;
}

let channel ?(delayed = false) ?init ~name src dst =
  { ch_name = name; ch_src = src; ch_dst = dst; ch_delayed = delayed;
    ch_init = init }

type behavior =
  | B_exprs of (string * Expr.t) list
  | B_std of std
  | B_mtd of mtd
  | B_dfd of network
  | B_ssd of network
  | B_unspecified

and component = {
  comp_name : string;
  comp_ports : port list;
  comp_behavior : behavior;
}

and network = {
  net_name : string;
  net_components : component list;
  net_channels : channel list;
}

and mtd = {
  mtd_name : string;
  mtd_modes : mode list;
  mtd_initial : string;
  mtd_transitions : mtd_transition list;
}

and mode = { mode_name : string; mode_behavior : behavior }

and mtd_transition = {
  mt_src : string;
  mt_dst : string;
  mt_guard : Expr.t;
  mt_priority : int;
}

and std = {
  std_name : string;
  std_states : string list;
  std_initial : string;
  std_vars : (string * Value.t) list;
  std_transitions : std_transition list;
}

and std_transition = {
  st_src : string;
  st_dst : string;
  st_guard : Expr.t;
  st_outputs : (string * Expr.t) list;
  st_updates : (string * Expr.t) list;
  st_priority : int;
}

type model = {
  model_name : string;
  model_level : level;
  model_root : component;
  model_enums : Dtype.enum_decl list;
}

let component ?(ports = []) ?(behavior = B_unspecified) name =
  { comp_name = name; comp_ports = ports; comp_behavior = behavior }

let find_port comp name =
  List.find_opt (fun p -> String.equal p.port_name name) comp.comp_ports

let input_ports comp =
  List.filter (fun p -> p.port_dir = In) comp.comp_ports

let output_ports comp =
  List.filter (fun p -> p.port_dir = Out) comp.comp_ports

let find_component net name =
  List.find_opt (fun c -> String.equal c.comp_name name) net.net_components

let behavior_kind = function
  | B_exprs _ -> "exprs"
  | B_std _ -> "std"
  | B_mtd _ -> "mtd"
  | B_dfd _ -> "dfd"
  | B_ssd _ -> "ssd"
  | B_unspecified -> "unspecified"

let iter_components f comp =
  let rec go path comp =
    f path comp;
    let sub_path = path @ [ comp.comp_name ] in
    let visit_net net = List.iter (go sub_path) net.net_components in
    match comp.comp_behavior with
    | B_dfd net | B_ssd net -> visit_net net
    | B_mtd mtd ->
      let visit_mode mode =
        match mode.mode_behavior with
        | B_dfd net | B_ssd net -> visit_net net
        | B_exprs _ | B_std _ | B_mtd _ | B_unspecified -> ()
      in
      List.iter visit_mode mtd.mtd_modes
    | B_exprs _ | B_std _ | B_unspecified -> ()
  in
  go [] comp

let count_components comp =
  let n = ref 0 in
  iter_components (fun _ _ -> incr n) comp;
  !n

let validate_unique_names net =
  let dup kind names =
    let sorted = List.sort String.compare names in
    let rec first_dup = function
      | a :: (b :: _ as rest) ->
        if String.equal a b then Some a else first_dup rest
      | [ _ ] | [] -> None
    in
    match first_dup sorted with
    | Some name ->
      Some (Printf.sprintf "duplicate %s name %s in network %s" kind name
              net.net_name)
    | None -> None
  in
  let comp_names = List.map (fun c -> c.comp_name) net.net_components in
  let ch_names = List.map (fun c -> c.ch_name) net.net_channels in
  match dup "component" comp_names with
  | Some msg -> Error msg
  | None ->
    (match dup "channel" ch_names with
     | Some msg -> Error msg
     | None -> Ok ())
