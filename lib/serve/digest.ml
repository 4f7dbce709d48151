(* Canonical structural rendering + MD5.  The rendering is not meant to
   be read back (lib/syntax owns persistence); it only has to be (a)
   total on every model the repo can build, (b) stable across sessions,
   and (c) invariant under reorderings that carry no meaning.  Sorting
   keys are names, which are unique within a network
   (Model.validate_unique_names) — and even where uniqueness is not
   enforced, sorting keeps the digest deterministic. *)

open Automode_core

let string s = Stdlib.Digest.to_hex (Stdlib.Digest.string s)

let add = Buffer.add_string

let sorted_by key l = List.sort (fun a b -> String.compare (key a) (key b)) l

let opt f = function None -> "-" | Some x -> f x

let render_port buf (p : Model.port) =
  add buf
    (Printf.sprintf "port(%s,%s,%s,%s,%s)" p.Model.port_name
       (match p.Model.port_dir with Model.In -> "in" | Model.Out -> "out")
       (opt Dtype.to_string p.Model.port_type)
       (Clock.to_string p.Model.port_clock)
       (opt Fun.id p.Model.port_resource))

let render_endpoint (e : Model.endpoint) =
  Printf.sprintf "%s.%s" (opt Fun.id e.Model.ep_comp) e.Model.ep_port

let render_channel buf (c : Model.channel) =
  add buf
    (Printf.sprintf "chan(%s,%s,%s,%b,%s)" c.Model.ch_name
       (render_endpoint c.Model.ch_src)
       (render_endpoint c.Model.ch_dst)
       c.Model.ch_delayed
       (opt Value.to_string c.Model.ch_init))

(* Assignment lists (B_exprs outputs, STD outputs/updates, STD vars)
   bind distinct names, so their order is presentation only. *)
let render_assigns buf render l =
  List.iter
    (fun (name, x) -> add buf (Printf.sprintf "%s=%s;" name (render x)))
    (sorted_by fst l)

let rec render_behavior buf (b : Model.behavior) =
  match b with
  | Model.B_exprs outs ->
    add buf "exprs{";
    render_assigns buf Expr.to_string outs;
    add buf "}"
  | Model.B_std std -> render_std buf std
  | Model.B_mtd mtd -> render_mtd buf mtd
  | Model.B_dfd net -> add buf "dfd"; render_network buf net
  | Model.B_ssd net -> add buf "ssd"; render_network buf net
  | Model.B_unspecified -> add buf "unspec"

and render_std buf (std : Model.std) =
  add buf (Printf.sprintf "std{%s;init=%s;states=" std.Model.std_name
             std.Model.std_initial);
  List.iter (fun s -> add buf (s ^ ";"))
    (List.sort String.compare std.Model.std_states);
  add buf "vars=";
  render_assigns buf Value.to_string std.Model.std_vars;
  add buf "trans=";
  List.iter
    (fun (t : Model.std_transition) ->
      add buf
        (Printf.sprintf "(%d:%s->%s[%s]" t.Model.st_priority t.Model.st_src
           t.Model.st_dst
           (Expr.to_string t.Model.st_guard));
      add buf "out:";
      render_assigns buf Expr.to_string t.Model.st_outputs;
      add buf "upd:";
      render_assigns buf Expr.to_string t.Model.st_updates;
      add buf ")")
    (sorted_by
       (fun (t : Model.std_transition) ->
         Printf.sprintf "%09d|%s|%s|%s" t.Model.st_priority t.Model.st_src
           t.Model.st_dst
           (Expr.to_string t.Model.st_guard))
       std.Model.std_transitions);
  add buf "}"

and render_mtd buf (mtd : Model.mtd) =
  add buf (Printf.sprintf "mtd{%s;init=%s;modes=" mtd.Model.mtd_name
             mtd.Model.mtd_initial);
  List.iter
    (fun (m : Model.mode) ->
      add buf (Printf.sprintf "(%s:" m.Model.mode_name);
      render_behavior buf m.Model.mode_behavior;
      add buf ")")
    (sorted_by (fun (m : Model.mode) -> m.Model.mode_name) mtd.Model.mtd_modes);
  add buf "trans=";
  List.iter
    (fun (t : Model.mtd_transition) ->
      add buf
        (Printf.sprintf "(%d:%s->%s[%s])" t.Model.mt_priority t.Model.mt_src
           t.Model.mt_dst
           (Expr.to_string t.Model.mt_guard)))
    (sorted_by
       (fun (t : Model.mtd_transition) ->
         Printf.sprintf "%09d|%s|%s|%s" t.Model.mt_priority t.Model.mt_src
           t.Model.mt_dst
           (Expr.to_string t.Model.mt_guard))
       mtd.Model.mtd_transitions);
  add buf "}"

and render_network buf (net : Model.network) =
  add buf (Printf.sprintf "net{%s;comps=" net.Model.net_name);
  List.iter (render_component buf)
    (sorted_by (fun (c : Model.component) -> c.Model.comp_name)
       net.Model.net_components);
  add buf "chans=";
  List.iter (render_channel buf)
    (sorted_by (fun (c : Model.channel) -> c.Model.ch_name)
       net.Model.net_channels);
  add buf "}"

and render_component buf (c : Model.component) =
  add buf (Printf.sprintf "comp{%s;ports=" c.Model.comp_name);
  List.iter (render_port buf)
    (sorted_by (fun (p : Model.port) -> p.Model.port_name)
       c.Model.comp_ports);
  add buf "beh=";
  render_behavior buf c.Model.comp_behavior;
  add buf "}"

let component c =
  let buf = Buffer.create 1024 in
  render_component buf c;
  string (Buffer.contents buf)

let faults fs =
  string
    (String.concat ";" (List.map Automode_robust.Fault.describe fs))

let deployment d =
  string (Format.asprintf "%a" Automode_la.Deploy.pp d)

(* Bump when the engines, the monitors' semantics or the report
   renderers change in a way that invalidates cached verdicts/bytes. *)
let engine_rev = "serve-1"

let scenario s =
  let module Sc = Automode_robust.Scenario in
  string
    (Printf.sprintf "scenario|%s|%s|t=%d|mon=%s|%s"
       (component (Sc.component s))
       (Sc.name s) (Sc.ticks s)
       (String.concat "," (Sc.monitors s))
       engine_rev)
