(* Tests for the transformation library: trace-equivalence oracle,
   white-box and black-box reengineering, refactorings, refinements,
   MTD -> partitionable dataflow. *)

open Automode_core
open Automode_ascet
open Automode_la
open Automode_transform

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Equiv oracle                                                       *)
(* ------------------------------------------------------------------ *)

let test_equiv_identical () =
  let blk k =
    Dfd.block_of_expr ~name:"B" ~inputs:[ ("x", Some Dtype.Tint) ]
      Expr.(var "x" * int k)
  in
  let wrap c =
    let net : Model.network =
      { net_name = "N";
        net_components = [ c ];
        net_channels =
          [ Dfd.wire "i" ("", "x") ("B", "x");
            Dfd.wire "o" ("B", "out") ("", "y") ] }
    in
    Dfd.of_network ~ports:[ Model.in_port ~ty:Dtype.Tint "x"; Model.out_port "y" ] net
  in
  (match Equiv.trace_equivalent (wrap (blk 2)) (wrap (blk 2)) with
   | Ok () -> ()
   | Error d ->
     Alcotest.failf "unexpected divergence: %s"
       (Format.asprintf "%a" Equiv.pp_divergence d));
  match Equiv.trace_equivalent (wrap (blk 2)) (wrap (blk 3)) with
  | Ok () -> Alcotest.fail "different gains must diverge"
  | Error d -> checkb "diverges early" true (d.Equiv.d_tick = 0)

let test_equiv_deterministic_inputs () =
  let ports = [ Model.in_port ~ty:Dtype.Tfloat "a"; Model.in_port ~ty:Dtype.Tbool "b" ] in
  let f1 = Equiv.random_inputs ~seed:7 ports in
  let f2 = Equiv.random_inputs ~seed:7 ports in
  checkb "same seed, same stimuli" true
    (List.for_all (fun t -> f1 t = f2 t) [ 0; 1; 5; 13 ]);
  let f3 = Equiv.random_inputs ~seed:8 ports in
  checkb "different seed differs somewhere" true
    (List.exists (fun t -> f1 t <> f3 t) [ 0; 1; 2; 3; 4; 5 ])

let test_equiv_presence () =
  let ports = [ Model.in_port ~ty:Dtype.Tint "a" ] in
  let f = Equiv.random_inputs ~seed:1 ~presence:0.0 ports in
  checkb "presence 0 yields silence" true
    (List.for_all (fun t -> f t = []) [ 0; 1; 2 ])

(* ------------------------------------------------------------------ *)
(* White-box reengineering: equivalence against the interpreter       *)
(* ------------------------------------------------------------------ *)

let throttle_src =
  {|module ThrottleDemo

input n : float = 0.0
input desired : float = 0.0
input current : float = 0.0
flag b_cranking : bool = false
message rate : float = 0.0
output throttle : float = 0.0

task t10 period 10
task t100 period 100

process detect_cranking on t10 {
  if n < 400.0 {
    send b_cranking true;
  } else {
    send b_cranking false;
  }
}

process rate_of_change on t10 {
  local tmp : float = 0.0;
  tmp := desired - current;
  if b_cranking {
    send rate 0.5;
  } else {
    send rate tmp;
  }
}

process actuate on t100 {
  send throttle rate * 2.0;
}
|}

let observed_outputs (m : Ascet_ast.t) =
  List.filter_map
    (fun (g : Ascet_ast.global) ->
      match g.g_kind with
      | Ascet_ast.Output -> Some g.g_name
      | Ascet_ast.Message | Ascet_ast.Flag | Ascet_ast.Input -> None)
    m.globals

(* Compare interpreter and reengineered-model traces on the outputs for a
   deterministic pseudo-random stimulus. *)
let check_whitebox_equiv ?(ticks = 250) ~seed (m : Ascet_ast.t) =
  let model, _report = Reengineer.whitebox m in
  let comp = model.Model.model_root in
  let inputs_v tick =
    let state = Random.State.make [| seed; tick |] in
    List.filter_map
      (fun (g : Ascet_ast.global) ->
        match g.g_kind with
        | Ascet_ast.Input ->
          let v =
            match g.g_type with
            | Dtype.Tbool -> Value.Bool (Random.State.bool state)
            | Dtype.Tint -> Value.Int (Random.State.int state 100)
            | Dtype.Tfloat ->
              Value.Float (Random.State.float state 1000. -. 500.)
            | Dtype.Tenum _ | Dtype.Ttuple _ -> g.g_init
          in
          Some (g.g_name, v)
        | Ascet_ast.Message | Ascet_ast.Flag | Ascet_ast.Output -> None)
      m.globals
  in
  let outs = observed_outputs m in
  let t_ascet = Ascet_interp.run m ~ticks ~inputs:inputs_v ~observe:outs in
  let sim_inputs tick =
    List.map (fun (n, v) -> (n, Value.Present v)) (inputs_v tick)
  in
  let t_model = Sim.run ~ticks ~inputs:sim_inputs comp in
  let t_model = Trace.restrict t_model outs in
  match Trace.first_divergence t_ascet t_model with
  | None -> ()
  | Some (tick, flow, l, r) ->
    Alcotest.failf "divergence at tick %d on %s: ascet=%s model=%s" tick flow
      (Value.message_to_string l) (Value.message_to_string r)

let test_whitebox_throttle_equiv () =
  let m = Ascet_parser.parse throttle_src in
  check_whitebox_equiv ~seed:11 m;
  check_whitebox_equiv ~seed:12 m

let test_whitebox_report () =
  let m = Ascet_parser.parse throttle_src in
  let _, report = Reengineer.whitebox m in
  checki "processes" 3 report.Reengineer.processes;
  (* only rate_of_change splits on a flag; detect_cranking branches on a
     raw input, which is not an implicit mode *)
  checki "mtds" 1 report.Reengineer.mtds_extracted;
  checkb "flag found" true (List.mem "b_cranking" report.Reengineer.flags_found);
  checkb "components include holds" true (report.Reengineer.components > 3)

let test_whitebox_mtd_structure () =
  let m = Ascet_parser.parse throttle_src in
  let mode_naming = function
    | "rate_of_change" -> Some ("CrankingOverrun", "FuelEnabled")
    | _ -> None
  in
  let model, _ = Reengineer.whitebox ~mode_naming m in
  let root = model.Model.model_root in
  let net =
    match root.comp_behavior with
    | Model.B_dfd net -> net
    | _ -> Alcotest.fail "root must be a DFD"
  in
  match Model.find_component net "rate_of_change" with
  | Some { comp_behavior = Model.B_mtd mtd; _ } ->
    Alcotest.(check (list string)) "modes"
      [ "CrankingOverrun"; "FuelEnabled" ]
      (List.map (fun (m : Model.mode) -> m.mode_name) mtd.mtd_modes);
    Alcotest.(check string) "initial" "FuelEnabled" mtd.mtd_initial;
    (match Mtd.check mtd with
     | Ok () -> ()
     | Error es -> Alcotest.fail (String.concat "; " es))
  | Some _ -> Alcotest.fail "rate_of_change should be an MTD"
  | None -> Alcotest.fail "component missing"

(* Sequential-order semantics: reader before/after writer. *)
let test_whitebox_order_semantics () =
  let m =
    Ascet_parser.parse
      {|module Seq
input x : float = 0.0
message mid : float = 0.0
output before : float = 0.0
output after : float = 0.0
task t period 1
process reader_before on t { send before mid; }
process writer on t { send mid x; }
process reader_after on t { send after mid; }
|}
  in
  check_whitebox_equiv ~ticks:50 ~seed:3 m

(* Accumulator: a process reading the global it writes (self-feedback). *)
let test_whitebox_accumulator () =
  let m =
    Ascet_parser.parse
      {|module Accu
input x : float = 0.0
message acc : float = 0.0
output total : float = 0.0
task t period 5
process integrate on t {
  send acc acc + x;
  send total acc;
}
|}
  in
  check_whitebox_equiv ~ticks:60 ~seed:5 m

(* Cross-rate communication both directions. *)
let test_whitebox_cross_rate () =
  let m =
    Ascet_parser.parse
      {|module Cross
input x : float = 0.0
message fast_sig : float = 0.0
message slow_sig : float = 0.0
output o_fast : float = 0.0
output o_slow : float = 0.0
task fast period 2
task slow period 10
process producer_fast on fast { send fast_sig x + 1.0; }
process consumer_slow on slow {
  send o_slow fast_sig * 10.0;
  send slow_sig x - 1.0;
}
process consumer_fast on fast { send o_fast slow_sig + fast_sig; }
|}
  in
  check_whitebox_equiv ~ticks:100 ~seed:9 m

(* Conditional write: a global updated in only one branch must hold its
   previous value in the other. *)
let test_whitebox_conditional_write () =
  let m =
    Ascet_parser.parse
      {|module CondWrite
input x : float = 0.0
flag enable : bool = false
message latch : float = 0.0
output o : float = 0.0
task ctl period 4
task t period 4
process control on ctl {
  if x > 0.0 { send enable true; } else { send enable false; }
}
process latcher on t {
  if enable {
    send latch x;
  }
  send o latch;
}
|}
  in
  check_whitebox_equiv ~ticks:80 ~seed:21 m

let test_whitebox_rejects_double_writer () =
  let m =
    Ascet_parser.parse
      {|module Dup
message g : float = 0.0
output o : float = 0.0
task t period 1
process a on t { send g 1.0; }
process b on t { send g 2.0; }
process c on t { send o g; }
|}
  in
  checkb "double writer rejected" true
    (try ignore (Reengineer.whitebox m); false
     with Reengineer.Unsupported _ -> true)

(* Random well-typed ASCET programs: the strongest reengineering test.
   The generator owns the single-writer discipline (each global has one
   pre-assigned writer process) and produces float expressions, boolean
   flag logic and arbitrarily nested conditionals across two task rates;
   the property requires interpreter/model trace equality on all output
   globals. *)

module Random_ascet = struct
  open Automode_ascet

  type spec = { seed : int; n_procs : int }

  let inputs = [ "i0"; "i1"; "i2"; "i3" ]
  let flags = [ "f0"; "f1" ]
  let messages = [ "m0"; "m1"; "m2"; "m3" ]
  let outputs = [ "o0"; "o1"; "o2" ]

  let gen_float_expr st ~locals ~depth =
    let rec go depth =
      if depth = 0 || Random.State.int st 3 = 0 then
        match Random.State.int st 3 with
        | 0 -> Expr.float (float_of_int (Random.State.int st 9 - 4))
        | 1 ->
          let pool = inputs @ messages @ locals in
          Expr.var (List.nth pool (Random.State.int st (List.length pool)))
        | _ -> Expr.float 1.5
      else
        let a = go (depth - 1) in
        let b = go (depth - 1) in
        match Random.State.int st 5 with
        | 0 -> Expr.Binop (Expr.Add, a, b)
        | 1 -> Expr.Binop (Expr.Sub, a, b)
        | 2 -> Expr.Binop (Expr.Mul, a, Expr.float 0.5)
        | 3 -> Expr.Call ("limit", [ a; Expr.float (-50.); Expr.float 50. ])
        | _ -> Expr.Binop (Expr.Max, a, b)
    in
    go depth

  let gen_cond st ~locals =
    if Random.State.int st 2 = 0 then
      Expr.var (List.nth flags (Random.State.int st (List.length flags)))
    else
      Expr.Binop
        ( Expr.Lt,
          gen_float_expr st ~locals ~depth:1,
          gen_float_expr st ~locals ~depth:1 )

  let rec gen_stmts st ~owned ~locals ~depth ~budget =
    if budget <= 0 then []
    else
      let roll = Random.State.int st 4 in
      let stmt =
        (* the If case must be depth-guarded unconditionally, otherwise a
           process that owns no globals would recurse forever *)
        if roll = 3 && depth > 0 then
          Ascet_ast.If
            ( gen_cond st ~locals,
              gen_stmts st ~owned ~locals ~depth:(depth - 1) ~budget:2,
              gen_stmts st ~owned ~locals ~depth:(depth - 1) ~budget:2 )
        else if roll >= 1 && owned <> [] then
          Ascet_ast.Send
            ( List.nth owned (Random.State.int st (List.length owned)),
              gen_float_expr st ~locals ~depth:2 )
        else
          Ascet_ast.Assign
            ( List.nth locals (Random.State.int st (List.length locals)),
              gen_float_expr st ~locals ~depth:2 )
      in
      stmt :: gen_stmts st ~owned ~locals ~depth ~budget:(budget - 1)

  let generate { seed; n_procs } : Ascet_ast.t =
    let st = Random.State.make [| seed |] in
    (* partition writable globals among the data processes *)
    let writable = messages @ outputs in
    let owners = Array.make (List.length writable) 0 in
    Array.iteri (fun i _ -> owners.(i) <- Random.State.int st n_procs) owners;
    let owned_by p =
      List.filteri (fun i _ -> owners.(i) = p) writable
    in
    let task_of _p = if Random.State.int st 2 = 0 then "tA" else "tB" in
    let flag_proc : Ascet_ast.process =
      { proc_name = "state";
        proc_task = "tA";
        proc_locals = [];
        proc_body =
          List.map
            (fun f ->
              Ascet_ast.If
                ( Expr.Binop
                    ( Expr.Gt,
                      Expr.var (List.nth inputs (Random.State.int st 4)),
                      Expr.float (float_of_int (Random.State.int st 5 - 2)) ),
                  [ Ascet_ast.Send (f, Expr.bool true) ],
                  [ Ascet_ast.Send (f, Expr.bool false) ] ))
            flags }
    in
    let data_procs =
      List.init n_procs (fun p ->
          let locals = [ "tmp" ] in
          { Ascet_ast.proc_name = Printf.sprintf "p%d" p;
            proc_task = task_of p;
            proc_locals = [ ("tmp", Dtype.Tfloat, Value.Float 0.) ];
            proc_body =
              gen_stmts st ~owned:(owned_by p) ~locals ~depth:2 ~budget:4 })
    in
    { Ascet_ast.mod_name = "Rand";
      enums = [];
      globals =
        List.map
          (fun i ->
            { Ascet_ast.g_name = i; g_kind = Ascet_ast.Input;
              g_type = Dtype.Tfloat; g_init = Value.Float 0. })
          inputs
        @ List.map
            (fun f ->
              { Ascet_ast.g_name = f; g_kind = Ascet_ast.Flag;
                g_type = Dtype.Tbool; g_init = Value.Bool false })
            flags
        @ List.map
            (fun m ->
              { Ascet_ast.g_name = m; g_kind = Ascet_ast.Message;
                g_type = Dtype.Tfloat; g_init = Value.Float 0. })
            messages
        @ List.map
            (fun o ->
              { Ascet_ast.g_name = o; g_kind = Ascet_ast.Output;
                g_type = Dtype.Tfloat; g_init = Value.Float 0. })
            outputs;
      tasks =
        [ { Ascet_ast.task_name = "tA"; period_ms = 2 };
          { Ascet_ast.task_name = "tB"; period_ms = 6 } ];
      processes = flag_proc :: data_procs }

  let input_stream seed tick =
    let st = Random.State.make [| seed; tick |] in
    List.map
      (fun i -> (i, Value.Float (Random.State.float st 10. -. 5.)))
      inputs
end

let prop_whitebox_random_programs =
  QCheck.Test.make ~name:"whitebox equivalence on random ASCET programs"
    ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 2 5))
    (fun (seed, n_procs) ->
      let m = Random_ascet.generate { Random_ascet.seed; n_procs } in
      match Ascet_ast.check m with
      | _ :: _ -> QCheck.assume_fail () (* generator bug guard *)
      | [] ->
        let ticks = 60 in
        let model, _ = Reengineer.whitebox m in
        let t_impl =
          Ascet_interp.run m ~ticks
            ~inputs:(Random_ascet.input_stream seed)
            ~observe:Random_ascet.outputs
        in
        let sim_inputs tick =
          List.map
            (fun (n, v) -> (n, Value.Present v))
            (Random_ascet.input_stream seed tick)
        in
        let t_model =
          Trace.restrict
            (Sim.run ~ticks ~inputs:sim_inputs model.Model.model_root)
            Random_ascet.outputs
        in
        Trace.first_divergence t_impl t_model = None)

(* ------------------------------------------------------------------ *)
(* Black-box reengineering                                            *)
(* ------------------------------------------------------------------ *)

let test_blackbox_structure () =
  let module CM = Automode_osek.Comm_matrix in
  let cm =
    { CM.entries =
        [ CM.entry ~signal:"door_fl" ~sender:"DoorFL" ~receivers:[ "BodyController" ] ();
          CM.entry ~signal:"lock_cmd" ~sender:"BodyController"
            ~receivers:[ "DoorFL"; "DoorFR" ] () ] }
  in
  let model = Reengineer.blackbox ~name:"Body" cm in
  checkb "FAA level" true (model.Model.model_level = Model.Faa);
  let net =
    match model.Model.model_root.comp_behavior with
    | Model.B_ssd net -> net
    | _ -> Alcotest.fail "root must be an SSD"
  in
  checki "3 nodes" 3 (List.length net.net_components);
  checki "3 channels" 3 (List.length net.net_channels);
  checkb "all unspecified" true
    (List.for_all
       (fun (c : Model.component) -> c.comp_behavior = Model.B_unspecified)
       net.net_components);
  (* the partial FAA must pass the structural rules *)
  let findings = Faa_rules.run model in
  checkb "no conflicts" true
    (List.for_all (fun (f : Faa_rules.finding) -> f.severity <> `Conflict) findings)

let test_blackbox_generated_matrix () =
  let cm =
    Automode_osek.Comm_matrix.generate_body_electronics ~seed:3 ~nodes:8
      ~signals:40
  in
  checkb "matrix well-formed" true (Automode_osek.Comm_matrix.check cm = []);
  let model = Reengineer.blackbox ~name:"BodyGen" cm in
  let issues = Ssd.check_component model.Model.model_root in
  Alcotest.(check (list string)) "ssd clean" [] (Network.errors issues)

(* ------------------------------------------------------------------ *)
(* Refactoring: MTD -> mode-port DFD                                  *)
(* ------------------------------------------------------------------ *)

let throttle_mtd_comp =
  let mtd : Model.mtd =
    { mtd_name = "Throttle";
      mtd_modes =
        [ { mode_name = "FuelEnabled";
            mode_behavior =
              Model.B_exprs [ ("rate", Expr.(var "desired" - var "current")) ] };
          { mode_name = "CrankingOverrun";
            mode_behavior = Model.B_exprs [ ("rate", Expr.float 0.5) ] } ];
      mtd_initial = "FuelEnabled";
      mtd_transitions =
        [ { mt_src = "FuelEnabled"; mt_dst = "CrankingOverrun";
            mt_guard = Expr.var "cranking"; mt_priority = 0 };
          { mt_src = "CrankingOverrun"; mt_dst = "FuelEnabled";
            mt_guard = Expr.not_ (Expr.var "cranking"); mt_priority = 0 } ] }
  in
  Model.component "Throttle"
    ~ports:
      [ Model.in_port ~ty:Dtype.Tbool "cranking";
        Model.in_port ~ty:Dtype.Tfloat "desired";
        Model.in_port ~ty:Dtype.Tfloat "current";
        Model.out_port ~ty:Dtype.Tfloat "rate" ]
    ~behavior:(Model.B_mtd mtd)

let test_refactor_mode_port_equiv () =
  let dfd = Refactor.mtd_to_mode_port_dfd throttle_mtd_comp in
  (* same behavior on the original ports *)
  (match
     Equiv.equivalent_on_runs ~runs:5 ~ticks:60 ~flows:[ "rate" ]
       throttle_mtd_comp dfd
   with
   | Ok () -> ()
   | Error (seed, d) ->
     Alcotest.failf "seed %d: tick %d flow %s" seed d.Equiv.d_tick d.Equiv.d_flow);
  (* and an explicit mode port appears *)
  checkb "mode port added" true
    (List.exists
       (fun (p : Model.port) ->
         p.port_dir = Model.Out && String.equal p.port_name "mode")
       dfd.comp_ports)

let test_refactor_mode_port_structure () =
  let dfd = Refactor.mtd_to_mode_port_dfd throttle_mtd_comp in
  match dfd.comp_behavior with
  | Model.B_dfd net ->
    (* selector + 2 modes + mux *)
    checki "four blocks" 4 (List.length net.net_components);
    Alcotest.(check (list string)) "no structural errors" []
      (Network.errors (Dfd.check ~enclosing:dfd net));
    checkb "mode blocks carry mode ports" true
      (List.for_all
         (fun (c : Model.component) ->
           (not (String.length c.comp_name > 9
                 && String.sub c.comp_name 0 9 = "Throttle_"))
           || c.comp_name = "Throttle_mux"
           || c.comp_name = "Throttle_selector"
           || List.exists
                (fun (p : Model.port) -> p.port_name = "mode")
                c.comp_ports)
         net.net_components)
  | _ -> Alcotest.fail "expected DFD behavior"

let test_refactor_rejects_stateful_modes () =
  let stateful =
    { throttle_mtd_comp with
      comp_behavior =
        (match throttle_mtd_comp.comp_behavior with
         | Model.B_mtd mtd ->
           Model.B_mtd
             { mtd with
               mtd_modes =
                 [ { mode_name = "FuelEnabled";
                     mode_behavior =
                       Model.B_exprs
                         [ ("rate", Expr.pre (Value.Float 0.) (Expr.var "desired")) ] };
                   List.nth mtd.mtd_modes 1 ] }
         | b -> b) }
  in
  checkb "stateful mode rejected" true
    (try ignore (Refactor.mtd_to_mode_port_dfd stateful); false
     with Refactor.Not_applicable _ -> true)

(* ------------------------------------------------------------------ *)
(* Refactoring: coordinator insertion                                 *)
(* ------------------------------------------------------------------ *)

let conflicted_model : Model.model =
  let f name =
    Model.component name
      ~ports:
        [ Model.in_port ~ty:Dtype.Tfloat "v";
          Model.out_port ~ty:Dtype.Tfloat ~resource:"throttle" "u" ]
  in
  let net : Model.network =
    { net_name = "Veh";
      net_components = [ f "Cruise"; f "Traction" ];
      net_channels = [] }
  in
  { model_name = "Veh"; model_level = Model.Faa;
    model_root = Ssd.of_network net; model_enums = [] }

let test_coordinator_resolves_conflict () =
  let before = Faa_rules.run conflicted_model in
  checkb "conflict before" true
    (List.exists (fun (f : Faa_rules.finding) -> f.rule = "actuator-conflict") before);
  let fixed = Refactor.insert_coordinator ~resource:"throttle" conflicted_model in
  let after = Faa_rules.run fixed in
  checkb "conflict resolved" false
    (List.exists (fun (f : Faa_rules.finding) -> f.rule = "actuator-conflict") after);
  (* coordinator present and wired *)
  match fixed.Model.model_root.comp_behavior with
  | Model.B_ssd net ->
    checkb "coordinator added" true
      (Model.find_component net "coordinate_throttle" <> None);
    checki "wiring channels" 2 (List.length net.net_channels)
  | _ -> Alcotest.fail "root"

let test_coordinator_needs_conflict () =
  let single =
    { conflicted_model with
      model_root =
        (match conflicted_model.model_root.comp_behavior with
         | Model.B_ssd net ->
           Ssd.of_network
             { net with net_components = [ List.hd net.net_components ] }
         | _ -> assert false) }
  in
  checkb "not applicable" true
    (try ignore (Refactor.insert_coordinator ~resource:"throttle" single); false
     with Refactor.Not_applicable _ -> true)

(* ------------------------------------------------------------------ *)
(* Refactoring: grouping and renaming                                 *)
(* ------------------------------------------------------------------ *)

let chain_net : Model.network =
  let blk name = Dfd.block_of_expr ~name ~inputs:[ ("x", Some Dtype.Tint) ]
      ~out_type:Dtype.Tint Expr.(var "x" + int 1)
  in
  { net_name = "Chain";
    net_components = [ blk "A"; blk "B"; blk "C" ];
    net_channels =
      [ Dfd.wire "i" ("", "src") ("A", "x");
        Dfd.wire "ab" ("A", "out") ("B", "x");
        Dfd.wire "bc" ("B", "out") ("C", "x");
        Dfd.wire "o" ("C", "out") ("", "dst") ] }

let chain_ports =
  [ Model.in_port ~ty:Dtype.Tint "src"; Model.out_port ~ty:Dtype.Tint "dst" ]

let test_group_components_preserves_traces () =
  let grouped =
    Refactor.group_components ~kind:`Dfd ~names:[ "A"; "B" ] ~group_name:"AB"
      chain_net
  in
  let original = Dfd.of_network ~ports:chain_ports chain_net in
  let restructured = Dfd.of_network ~ports:chain_ports grouped in
  (match Equiv.trace_equivalent ~ticks:20 original restructured with
   | Ok () -> ()
   | Error d -> Alcotest.failf "diverged at %d on %s" d.Equiv.d_tick d.Equiv.d_flow);
  checkb "group exists" true (Model.find_component grouped "AB" <> None);
  checki "two top components" 2 (List.length grouped.net_components)

let test_rename_component () =
  let renamed = Refactor.rename_component ~old_name:"B" ~new_name:"Middle" chain_net in
  checkb "renamed" true (Model.find_component renamed "Middle" <> None);
  let original = Dfd.of_network ~ports:chain_ports chain_net in
  let after = Dfd.of_network ~ports:chain_ports renamed in
  (match Equiv.trace_equivalent ~ticks:10 original after with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "rename must be semantics-preserving");
  checkb "collision rejected" true
    (try ignore (Refactor.rename_component ~old_name:"A" ~new_name:"C" chain_net); false
     with Refactor.Not_applicable _ -> true)

(* ------------------------------------------------------------------ *)
(* Refinement: quantization                                           *)
(* ------------------------------------------------------------------ *)

let test_quantize_expr_fixed () =
  let impl = Impl_type.fixed_for_range ~container:Impl_type.Int16 ~lo:(-100.) ~hi:100. () in
  let q = Refine.quantize_expr impl (Expr.var "x") in
  let eval v =
    let env name = if String.equal name "x" then Value.Present (Value.Float v) else Value.Absent in
    match Expr.step ~tick:0 ~env q (Expr.init_state q) with
    | Value.Present (Value.Float f), _ -> f
    | _ -> Alcotest.fail "expected float"
  in
  let bound =
    match Impl_type.quantization_error_bound impl with
    | Some b -> b
    | None -> Alcotest.fail "bound expected"
  in
  List.iter
    (fun v ->
      let err = Float.abs (eval v -. v) in
      if err > bound +. 1e-9 then
        Alcotest.failf "quantization error %g exceeds bound %g at %g" err bound v)
    [ 0.; 1.; -1.; 33.33; 99.99; -99.99 ];
  (* saturation *)
  checkb "saturates high" true (eval 1000. <= 100.1);
  checkb "saturates low" true (eval (-1000.) >= -100.1)

let test_quantize_expr_int () =
  let q = Refine.quantize_expr (Impl_type.Iint Impl_type.Int8) (Expr.var "x") in
  let eval v =
    let env name = if String.equal name "x" then Value.Present (Value.Float v) else Value.Absent in
    match Expr.step ~tick:0 ~env q (Expr.init_state q) with
    | Value.Present (Value.Float f), _ -> f
    | _ -> Alcotest.fail "expected float"
  in
  checkb "rounds" true (Float.equal (eval 3.4) 3.);
  checkb "saturates" true (Float.equal (eval 300.) 127.)

let test_refine_signal_inserts_quantizer () =
  let impl = Impl_type.Ifixed { container = Impl_type.Int16; scale = 0.01; offset = 0. } in
  let refined = Refine.refine_signal ~channel:"ab" ~impl chain_net in
  checki "one more component" 4 (List.length refined.net_components);
  checki "one more channel" 5 (List.length refined.net_channels);
  let comp = Dfd.of_network ~ports:chain_ports refined in
  Alcotest.(check (list string)) "still well-formed" []
    (Network.errors
       (Dfd.check ~enclosing:comp
          (match comp.comp_behavior with Model.B_dfd n -> n | _ -> assert false)))

let test_quantization_error_bound_property =
  QCheck.Test.make ~name:"fixed-point roundtrip within half step" ~count:300
    QCheck.(pair (float_bound_exclusive 100.) (int_range 1 3))
    (fun (v, container_idx) ->
      let container =
        match container_idx with
        | 1 -> Impl_type.Int8
        | 2 -> Impl_type.Int16
        | _ -> Impl_type.Int32
      in
      let impl = Impl_type.fixed_for_range ~container ~lo:(-100.) ~hi:100. () in
      let enc = Impl_type.encode impl (Value.Float v) in
      let dec = Impl_type.decode impl enc in
      match dec, Impl_type.quantization_error_bound impl with
      | Value.Float f, Some bound -> Float.abs (f -. v) <= bound +. 1e-9
      | _ -> false)

let test_smallest_container () =
  (match Impl_type.smallest_container ~lo:0. ~hi:10. ~resolution:0.1 with
   | Some (Impl_type.Ifixed { container = Impl_type.Int8; _ }) -> ()
   | Some t -> Alcotest.failf "expected int8, got %s" (Impl_type.to_string t)
   | None -> Alcotest.fail "container expected");
  checkb "impossible resolution" true
    (Impl_type.smallest_container ~lo:0. ~hi:1e12 ~resolution:1e-12 = None)

(* ------------------------------------------------------------------ *)
(* Refinement: clustering by clock                                    *)
(* ------------------------------------------------------------------ *)

let multirate_component =
  let c10 = Clock.every 10 Clock.Base and c20 = Clock.every 20 Clock.Base in
  let blk name clock expr ins =
    Model.component name
      ~ports:
        (List.map (fun i -> Model.in_port ~ty:Dtype.Tfloat ~clock i) ins
        @ [ Model.out_port ~ty:Dtype.Tfloat ~clock "out" ])
      ~behavior:(Model.B_exprs [ ("out", expr) ])
  in
  let fast1 = blk "fast1" c10 Expr.(when_ (current (Value.Float 0.) (var "x")) c10) [ "x" ] in
  let fast2 = blk "fast2" c10 Expr.(when_ (current (Value.Float 0.) (var "x") * float 2.) c10) [ "x" ] in
  let slow = blk "slow" c20 Expr.(when_ (current (Value.Float 0.) (var "x")) c20) [ "x" ] in
  let net : Model.network =
    { net_name = "MR";
      net_components = [ fast1; fast2; slow ];
      net_channels =
        [ Dfd.wire "i" ("", "src") ("fast1", "x");
          Dfd.wire "ff" ("fast1", "out") ("fast2", "x");
          Dfd.wire "fs" ("fast2", "out") ("slow", "x");
          Dfd.wire "o" ("slow", "out") ("", "dst") ] }
  in
  Dfd.of_network
    ~ports:
      [ Model.in_port ~ty:Dtype.Tfloat "src";
        Model.out_port ~ty:Dtype.Tfloat ~clock:c20 "dst" ]
    net

let test_cluster_by_clock () =
  let ccd = Refine.cluster_by_clock ~name:"MR" multirate_component in
  checki "two clusters" 2 (List.length ccd.Ccd.clusters);
  let names = List.map (fun (c : Cluster.t) -> c.cluster_name) ccd.Ccd.clusters in
  checkb "rate-10 cluster" true (List.mem "MR_10ms" names);
  checkb "rate-20 cluster" true (List.mem "MR_20ms" names);
  (* the 10ms cluster holds both fast blocks (functional coherency ignored) *)
  (match Ccd.find_cluster ccd "MR_10ms" with
   | Some c -> checki "two members" 2 (List.length c.Cluster.body.net_components)
   | None -> Alcotest.fail "cluster missing");
  (* the cross-rate channel became a CCD channel *)
  checkb "cross channel at top" true
    (List.exists
       (fun (ch : Model.channel) ->
         ch.ch_src.ep_comp = Some "MR_10ms" && ch.ch_dst.ep_comp = Some "MR_20ms")
       ccd.Ccd.channels)

let test_cluster_by_clock_periods () =
  let ccd = Refine.cluster_by_clock ~name:"MR" multirate_component in
  (match Ccd.find_cluster ccd "MR_10ms" with
   | Some c -> Alcotest.(check (option int)) "period" (Some 10) (Cluster.period c)
   | None -> Alcotest.fail "missing");
  match Ccd.find_cluster ccd "MR_20ms" with
  | Some c -> Alcotest.(check (option int)) "period" (Some 20) (Cluster.period c)
  | None -> Alcotest.fail "missing"

(* ------------------------------------------------------------------ *)
(* Refinement: SSD -> CCD, cluster implementation types               *)
(* ------------------------------------------------------------------ *)

let cluster_names (ccd : Ccd.t) =
  List.map (fun (c : Cluster.t) -> c.cluster_name) ccd.Ccd.clusters

(* SSD semantics delay every channel between siblings; the flat CCD must
   say so explicitly. *)
let sibling_channels_delayed (ccd : Ccd.t) =
  List.for_all
    (fun (ch : Model.channel) ->
      match ch.ch_src.ep_comp, ch.ch_dst.ep_comp with
      | Some _, Some _ -> ch.ch_delayed
      | None, _ | _, None -> true)
    ccd.Ccd.channels

let test_ssd_to_ccd_door_lock () =
  let module Dl = Automode_casestudy.Door_lock in
  let module Rb = Automode_casestudy.Robustness in
  let ccd = Refine.ssd_to_ccd Dl.component in
  Alcotest.(check (list string)) "one cluster per sibling"
    [ "VoltageMonitor"; "LockLogic"; "Dispatch" ] (cluster_names ccd);
  checkb "sibling channels delayed" true (sibling_channels_delayed ccd);
  let run c =
    Sim.run ~schedule:(Rb.lock_schedule []) ~ticks:40 ~inputs:Rb.lock_stimulus
      c
  in
  checkb "CCD trace-equal to the SSD" true
    (Trace.equal (run Dl.component) (run (Ccd.to_component ccd)));
  checkb "DFD input rejected" true
    (try ignore (Refine.ssd_to_ccd multirate_component); false
     with Refine.Refine_error _ -> true)

let test_ssd_to_ccd_nested () =
  let blk name e = Dfd.block_of_expr ~name ~inputs:[ ("x", Some Dtype.Tint) ] e in
  let inner =
    Ssd.of_network
      ~ports:[ Model.in_port ~ty:Dtype.Tint "x"; Model.out_port ~ty:Dtype.Tint "y" ]
      { net_name = "Inner";
        net_components =
          [ blk "A" Expr.(var "x" + int 1); blk "B" Expr.(var "x" * int 2) ];
        net_channels =
          [ Dfd.wire "ia" ("", "x") ("A", "x");
            Dfd.wire "ab" ("A", "out") ("B", "x");
            Dfd.wire "by" ("B", "out") ("", "y") ] }
  in
  let outer =
    Ssd.of_network
      ~ports:[ Model.in_port ~ty:Dtype.Tint "u"; Model.out_port ~ty:Dtype.Tint "w" ]
      { net_name = "Outer";
        net_components = [ { inner with comp_name = "Inner" }; blk "C" Expr.(var "x" - int 1) ];
        net_channels =
          [ Dfd.wire "ui" ("", "u") ("Inner", "x");
            Dfd.wire "ic" ("Inner", "y") ("C", "x");
            Dfd.wire "cw" ("C", "out") ("", "w") ] }
  in
  let ccd = Refine.ssd_to_ccd outer in
  Alcotest.(check (list string)) "inner SSD inlined, one cluster per sibling"
    [ "C"; "Inner_A"; "Inner_B" ] (cluster_names ccd);
  checkb "sibling channels delayed" true (sibling_channels_delayed ccd);
  checkb "CCD trace-equal to the SSD" true
    (Equiv.trace_equivalent ~ticks:40 outer (Ccd.to_component ccd) = Ok ())

let test_refine_cluster_types () =
  let ports =
    [ Model.in_port ~ty:Dtype.Tfloat "x"; Model.out_port ~ty:Dtype.Tfloat "y" ]
  in
  let cluster =
    Cluster.make ~name:"K" ~ports
      ~body:
        { net_name = "K_body";
          net_components = [];
          net_channels = [ Dfd.wire "xy" ("", "x") ("", "y") ] }
      ()
  in
  let q16 = Impl_type.fixed_for_range ~container:Impl_type.Int16 ~lo:0. ~hi:100. () in
  let refined =
    Refine.refine_cluster_types cluster ~choose:(fun (p : Model.port) ->
        if String.equal p.port_name "x" then Some q16 else None)
  in
  checkb "refining type recorded" true
    (match List.assoc_opt "x" refined.Cluster.impl_types with
     | Some t -> Impl_type.equal t q16
     | None -> false);
  checkb "unchosen port untouched" true
    (List.assoc_opt "y" refined.Cluster.impl_types = None);
  checkb "non-refining type rejected" true
    (try
       ignore
         (Refine.refine_cluster_types cluster ~choose:(fun _ -> Some Impl_type.Ibool));
       false
     with Refine.Refine_error _ -> true)

(* ------------------------------------------------------------------ *)
(* MTD -> partitionable dataflow                                      *)
(* ------------------------------------------------------------------ *)

let test_mtd_to_dataflow_equiv () =
  let ccd = Mtd_to_dataflow.transform throttle_mtd_comp in
  checki "2 + #modes clusters" 4 (List.length ccd.Ccd.clusters);
  let as_comp = Mtd_to_dataflow.to_component ccd in
  match
    Equiv.equivalent_on_runs ~runs:4 ~ticks:50 ~flows:[ "rate" ]
      throttle_mtd_comp as_comp
  with
  | Ok () -> ()
  | Error (seed, d) ->
    Alcotest.failf "seed %d diverged at %d on %s" seed d.Equiv.d_tick d.Equiv.d_flow

let test_mtd_to_dataflow_is_deployable () =
  let ccd = Mtd_to_dataflow.transform ~period:10 throttle_mtd_comp in
  (* every cluster is a valid smallest deployable unit *)
  List.iter
    (fun (c : Cluster.t) ->
      match Cluster.check c with
      | [] -> ()
      | ps -> Alcotest.failf "cluster %s: %s" c.cluster_name (List.hd ps))
    ccd.Ccd.clusters

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "automode-transform"
    [ ( "equiv",
        [ Alcotest.test_case "identical vs different" `Quick test_equiv_identical;
          Alcotest.test_case "deterministic stimuli" `Quick test_equiv_deterministic_inputs;
          Alcotest.test_case "presence" `Quick test_equiv_presence ] );
      ( "whitebox",
        [ Alcotest.test_case "throttle equivalence" `Quick test_whitebox_throttle_equiv;
          Alcotest.test_case "report" `Quick test_whitebox_report;
          Alcotest.test_case "mtd structure" `Quick test_whitebox_mtd_structure;
          Alcotest.test_case "order semantics" `Quick test_whitebox_order_semantics;
          Alcotest.test_case "accumulator" `Quick test_whitebox_accumulator;
          Alcotest.test_case "cross rate" `Quick test_whitebox_cross_rate;
          Alcotest.test_case "conditional write" `Quick test_whitebox_conditional_write;
          Alcotest.test_case "double writer rejected" `Quick test_whitebox_rejects_double_writer ]
        @ qsuite [ prop_whitebox_random_programs ] );
      ( "blackbox",
        [ Alcotest.test_case "structure" `Quick test_blackbox_structure;
          Alcotest.test_case "generated matrix" `Quick test_blackbox_generated_matrix ] );
      ( "refactor-modeports",
        [ Alcotest.test_case "equivalence" `Quick test_refactor_mode_port_equiv;
          Alcotest.test_case "structure" `Quick test_refactor_mode_port_structure;
          Alcotest.test_case "stateful rejected" `Quick test_refactor_rejects_stateful_modes ] );
      ( "refactor-coordinator",
        [ Alcotest.test_case "resolves conflict" `Quick test_coordinator_resolves_conflict;
          Alcotest.test_case "needs conflict" `Quick test_coordinator_needs_conflict ] );
      ( "refactor-hierarchy",
        [ Alcotest.test_case "grouping" `Quick test_group_components_preserves_traces;
          Alcotest.test_case "renaming" `Quick test_rename_component ] );
      ( "refine-types",
        [ Alcotest.test_case "fixed-point quantize" `Quick test_quantize_expr_fixed;
          Alcotest.test_case "int quantize" `Quick test_quantize_expr_int;
          Alcotest.test_case "quantizer insertion" `Quick test_refine_signal_inserts_quantizer;
          Alcotest.test_case "smallest container" `Quick test_smallest_container ]
        @ qsuite [ test_quantization_error_bound_property ] );
      ( "refine-clustering",
        [ Alcotest.test_case "by clock" `Quick test_cluster_by_clock;
          Alcotest.test_case "periods" `Quick test_cluster_by_clock_periods ] );
      ( "ssd-to-ccd",
        [ Alcotest.test_case "door lock" `Quick test_ssd_to_ccd_door_lock;
          Alcotest.test_case "nested ssd" `Quick test_ssd_to_ccd_nested ] );
      ( "cluster types",
        [ Alcotest.test_case "refining types" `Quick test_refine_cluster_types ] );
      ( "mtd-to-dataflow",
        [ Alcotest.test_case "equivalence" `Quick test_mtd_to_dataflow_equiv;
          Alcotest.test_case "deployable" `Quick test_mtd_to_dataflow_is_deployable ] ) ]
