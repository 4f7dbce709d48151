open Automode_core

type target = {
  target_name : string;
  needs_delay : src_period:int -> dst_period:int -> bool;
}

let osek_fixed_priority =
  { target_name = "OSEK fixed-priority preemptive";
    needs_delay = (fun ~src_period ~dst_period -> src_period > dst_period) }

let time_triggered =
  { target_name = "time-triggered (TDMA)";
    needs_delay = (fun ~src_period ~dst_period -> src_period <> dst_period) }

type violation = {
  v_channel : Model.channel;
  v_src_period : int;
  v_dst_period : int;
  v_reason : string;
}

let check ~target ccd =
  List.filter_map
    (fun (ch, src_p, dst_p) ->
      match src_p, dst_p with
      | Some src_period, Some dst_period ->
        if
          target.needs_delay ~src_period ~dst_period
          && not ch.Model.ch_delayed
        then
          Some
            { v_channel = ch;
              v_src_period = src_period;
              v_dst_period = dst_period;
              v_reason =
                Printf.sprintf "missing delay operator required by %s"
                  target.target_name }
        else None
      | None, _ | _, None -> None)
    (Ccd.channel_rates ccd)

let dst_default_init ccd (ch : Model.channel) =
  match ch.Model.ch_dst.ep_comp with
  | None -> None
  | Some cname ->
    Option.bind (Ccd.find_cluster ccd cname) (fun c ->
        Option.bind
          (List.find_opt
             (fun (p : Model.port) ->
               String.equal p.port_name ch.Model.ch_dst.ep_port)
             c.Cluster.ports)
          (fun p -> Option.map Dtype.default_value p.port_type))

let repair ~target ccd =
  let violating =
    List.map (fun v -> v.v_channel.Model.ch_name) (check ~target ccd)
  in
  let count = List.length violating in
  let channels =
    List.map
      (fun (ch : Model.channel) ->
        if List.mem ch.ch_name violating then
          { ch with
            ch_delayed = true;
            ch_init =
              (match ch.ch_init with
               | Some _ as i -> i
               | None -> dst_default_init ccd ch) }
        else ch)
      ccd.Ccd.channels
  in
  ({ ccd with Ccd.channels }, count)
