(* Tests for the structural and operational core: Model, Network checks,
   Causality, STD/MTD semantics, the simulator and traces. *)

open Automode_core

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let present_i i = Value.Present (Value.Int i)
let present_f f = Value.Present (Value.Float f)
let present_b b = Value.Present (Value.Bool b)

(* ------------------------------------------------------------------ *)
(* Fixtures                                                           *)
(* ------------------------------------------------------------------ *)

(* adder DFD: out = a + b via an ADD block (paper Sec. 3.2). *)
let adder_net : Model.network =
  { net_name = "AdderNet";
    net_components =
      [ Dfd.block_of_expr ~name:"ADD"
          ~inputs:[ ("ch1", None); ("ch2", None) ]
          Expr.(var "ch1" + var "ch2") ];
    net_channels =
      [ Dfd.wire "w1" ("", "a") ("ADD", "ch1");
        Dfd.wire "w2" ("", "b") ("ADD", "ch2");
        Dfd.wire "w3" ("ADD", "out") ("", "sum") ] }

let adder =
  Dfd.of_network
    ~ports:
      [ Model.in_port "a"; Model.in_port "b"; Model.out_port "sum" ]
    adder_net

(* Two-block pipeline with feedback through a delayed channel. *)
let counter_net : Model.network =
  { net_name = "CounterNet";
    net_components =
      [ Dfd.block_of_expr ~name:"INC"
          ~inputs:[ ("prev", None); ("step", None) ]
          Expr.(var "prev" + var "step") ];
    net_channels =
      [ Dfd.wire "in" ("", "step") ("INC", "step");
        Dfd.wire ~delayed:true ~init:(Value.Int 0) "loop" ("INC", "out")
          ("INC", "prev");
        Dfd.wire "out" ("INC", "out") ("", "count") ] }

let counter =
  Dfd.of_network
    ~ports:[ Model.in_port "step"; Model.out_port "count" ]
    counter_net

(* ------------------------------------------------------------------ *)
(* Network checks                                                     *)
(* ------------------------------------------------------------------ *)

let test_network_ok () =
  let issues = Network.check ~enclosing:adder adder_net in
  Alcotest.(check (list string)) "no errors" [] (Network.errors issues)

let test_network_bad_endpoint () =
  let net =
    { adder_net with
      net_channels =
        Dfd.wire "bad" ("", "a") ("NOPE", "x") :: adder_net.net_channels }
  in
  checkb "unresolved endpoint reported" true
    (Network.errors (Network.check ~enclosing:adder net) <> [])

let test_network_double_driver () =
  let net =
    { adder_net with
      net_channels =
        Dfd.wire "dup" ("", "b") ("ADD", "ch1") :: adder_net.net_channels }
  in
  checkb "double driver reported" true
    (List.exists
       (fun m ->
         (* the duplicate-destination rule fires *)
         String.length m > 0
         && String.sub m 0 11 = "destination")
       (Network.errors (Network.check ~enclosing:adder net)))

let test_network_direction_violation () =
  let net =
    { adder_net with
      net_channels =
        (* reading an In port of a sibling as a source *)
        Dfd.wire "rev" ("ADD", "ch1") ("", "sum") :: adder_net.net_channels }
  in
  checkb "direction violation" true
    (Network.errors (Network.check ~enclosing:adder net) <> [])

let test_network_type_mismatch () =
  let src = Dfd.block_of_expr ~name:"SRC" ~inputs:[] ~out_type:Dtype.Tbool (Expr.bool true) in
  let dst =
    Dfd.block_of_expr ~name:"DST"
      ~inputs:[ ("x", Some Dtype.Tint) ]
      Expr.(var "x" + int 1)
  in
  let net : Model.network =
    { net_name = "Bad";
      net_components = [ src; dst ];
      net_channels = [ Dfd.wire "w" ("SRC", "out") ("DST", "x") ] }
  in
  let enclosing = Dfd.of_network net in
  checkb "bool->int rejected" true
    (Network.errors (Network.check ~enclosing net) <> [])

let test_ssd_requires_types () =
  let untyped = Model.component "F" ~ports:[ Model.in_port "x" ] in
  let net : Model.network =
    { net_name = "S"; net_components = [ untyped ]; net_channels = [] }
  in
  let enclosing = Ssd.of_network net in
  checkb "untyped port rejected on SSD" true
    (Network.errors (Ssd.check ~enclosing net) <> [])

(* ------------------------------------------------------------------ *)
(* Causality                                                          *)
(* ------------------------------------------------------------------ *)

let loop_net ~delayed : Model.network =
  let f name = Dfd.block_of_expr ~name ~inputs:[ ("x", None) ] Expr.(var "x" + int 1) in
  { net_name = "Loop";
    net_components = [ f "A"; f "B" ];
    net_channels =
      [ Dfd.wire "ab" ("A", "out") ("B", "x");
        Dfd.wire ~delayed ~init:(Value.Int 0) "ba" ("B", "out") ("A", "x") ] }

let test_causality_detects_loop () =
  match Causality.check (loop_net ~delayed:false) with
  | Ok () -> Alcotest.fail "loop not detected"
  | Error [ loop ] ->
    Alcotest.(check (list string)) "members" [ "A"; "B" ]
      (List.sort String.compare loop)
  | Error _ -> Alcotest.fail "expected exactly one loop"

let test_causality_delay_breaks_loop () =
  (match Causality.check (loop_net ~delayed:true) with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "delayed loop must be legal");
  match Causality.evaluation_order (loop_net ~delayed:true) with
  | Ok order -> Alcotest.(check (list string)) "order" [ "A"; "B" ] order
  | Error _ -> Alcotest.fail "order must exist"

let test_causality_self_loop () =
  let f = Dfd.block_of_expr ~name:"F" ~inputs:[ ("x", None) ] (Expr.var "x") in
  let net : Model.network =
    { net_name = "Self";
      net_components = [ f ];
      net_channels = [ Dfd.wire "self" ("F", "out") ("F", "x") ] }
  in
  checkb "self loop detected" true (Causality.check net <> Ok ())

let test_causality_order_respects_deps () =
  (* C depends on B depends on A; declaration order scrambled. *)
  let blk name = Dfd.block_of_expr ~name ~inputs:[ ("x", None) ] (Expr.var "x") in
  let net : Model.network =
    { net_name = "Chain";
      net_components = [ blk "C"; blk "A"; blk "B" ];
      net_channels =
        [ Dfd.wire "ab" ("A", "out") ("B", "x");
          Dfd.wire "bc" ("B", "out") ("C", "x") ] }
  in
  match Causality.evaluation_order net with
  | Ok order ->
    let pos n =
      let rec idx i = function
        | [] -> -1
        | x :: rest -> if String.equal x n then i else idx (i + 1) rest
      in
      idx 0 order
    in
    checkb "A before B" true (pos "A" < pos "B");
    checkb "B before C" true (pos "B" < pos "C")
  | Error _ -> Alcotest.fail "chain is acyclic"

let test_causality_recursive () =
  let inner = Dfd.of_network ~ports:[ Model.in_port "i"; Model.out_port "o" ]
      (loop_net ~delayed:false)
  in
  let outer : Model.network =
    { net_name = "Outer"; net_components = [ inner ]; net_channels = [] }
  in
  let comp = Dfd.of_network outer in
  checki "one nested loop found" 1 (List.length (Causality.check_recursive comp))

(* Random DAG property: evaluation order exists iff no cyclic SCC. *)
let test_causality_random =
  QCheck.Test.make ~name:"evaluation order consistent with check" ~count:100
    QCheck.(pair (int_range 2 8) (list_of_size (Gen.int_range 0 20) (pair (int_range 0 7) (int_range 0 7))))
    (fun (n, edges) ->
      let name i = "N" ^ string_of_int i in
      let blocks =
        List.init n (fun i ->
            Dfd.block_of_expr ~name:(name i) ~inputs:[ ("x", None) ]
              (Expr.var "x"))
      in
      let channels =
        List.filteri (fun _ (a, b) -> a < n && b < n) edges
        |> List.mapi (fun i (a, b) ->
               Dfd.wire (Printf.sprintf "e%d" i) (name a, "out") (name b, "x"))
      in
      (* de-duplicate destinations is not needed for causality purposes *)
      let net : Model.network =
        { net_name = "Rand"; net_components = blocks; net_channels = channels }
      in
      match Causality.check net, Causality.evaluation_order net with
      | Ok (), Ok order -> List.length order = n
      | Error _, Error _ -> true
      | Ok (), Error _ | Error _, Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Simulator: DFD                                                     *)
(* ------------------------------------------------------------------ *)

let test_sim_adder () =
  let inputs tick =
    [ ("a", present_i tick); ("b", present_i (10 * tick)) ]
  in
  let trace = Sim.run ~ticks:4 ~inputs adder in
  let sums = Trace.column trace "sum" in
  checkb "sums" true
    (List.for_all2 Value.equal_message sums
       [ present_i 0; present_i 11; present_i 22; present_i 33 ])

let test_sim_counter_feedback () =
  let inputs _ = [ ("step", present_i 1) ] in
  let trace = Sim.run ~ticks:5 ~inputs counter in
  let counts = Trace.column trace "count" in
  checkb "integrates" true
    (List.for_all2 Value.equal_message counts
       [ present_i 1; present_i 2; present_i 3; present_i 4; present_i 5 ])

let test_sim_rejects_instantaneous_loop () =
  let comp = Dfd.of_network (loop_net ~delayed:false) in
  checkb "init raises" true
    (try ignore (Sim.init comp); false with Sim.Sim_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Simulator: SSD delay semantics                                     *)
(* ------------------------------------------------------------------ *)

let identity_block name =
  Dfd.block_of_expr ~name ~inputs:[ ("x", Some Dtype.Tint) ]
    ~out_type:Dtype.Tint (Expr.var "x")

let ssd_pipeline =
  let net : Model.network =
    { net_name = "Pipe";
      net_components = [ identity_block "F"; identity_block "G" ];
      net_channels =
        [ Dfd.wire "i" ("", "src") ("F", "x");
          Dfd.wire "m" ("F", "out") ("G", "x");
          Dfd.wire "o" ("G", "out") ("", "dst") ] }
  in
  Ssd.of_network
    ~ports:
      [ Model.in_port ~ty:Dtype.Tint "src";
        Model.out_port ~ty:Dtype.Tint "dst" ]
    net

let test_sim_ssd_channel_delay () =
  (* One sibling channel F->G: the pipeline output is the input delayed by
     exactly one tick (boundary forwardings are direct). *)
  let inputs tick = [ ("src", present_i tick) ] in
  let trace = Sim.run ~ticks:4 ~inputs ssd_pipeline in
  let outs = Trace.column trace "dst" in
  checkb "one tick delay" true
    (List.for_all2 Value.equal_message outs
       [ Value.Absent; present_i 0; present_i 1; present_i 2 ])

let test_sim_dfd_same_net_is_instantaneous () =
  (* The same network as a DFD has no delay. *)
  let comp =
    match ssd_pipeline.comp_behavior with
    | Model.B_ssd net ->
      Dfd.of_network ~ports:ssd_pipeline.comp_ports net
    | _ -> assert false
  in
  let inputs tick = [ ("src", present_i tick) ] in
  let trace = Sim.run ~ticks:3 ~inputs comp in
  let outs = Trace.column trace "dst" in
  checkb "instantaneous" true
    (List.for_all2 Value.equal_message outs
       [ present_i 0; present_i 1; present_i 2 ])

let test_sim_ssd_init_value () =
  let net : Model.network =
    { net_name = "Pipe1";
      net_components = [ identity_block "F"; identity_block "G" ];
      net_channels =
        [ Dfd.wire "i" ("", "src") ("F", "x");
          Dfd.wire ~init:(Value.Int 99) "m" ("F", "out") ("G", "x");
          Dfd.wire "o" ("G", "out") ("", "dst") ] }
  in
  let comp =
    Ssd.of_network
      ~ports:
        [ Model.in_port ~ty:Dtype.Tint "src";
          Model.out_port ~ty:Dtype.Tint "dst" ]
      net
  in
  let inputs tick = [ ("src", present_i tick) ] in
  let trace = Sim.run ~ticks:2 ~inputs comp in
  checkb "initial register value" true
    (Value.equal_message (Trace.get trace ~flow:"dst" ~tick:0) (present_i 99))

(* ------------------------------------------------------------------ *)
(* STD semantics                                                      *)
(* ------------------------------------------------------------------ *)

let toggle_std : Model.std =
  { std_name = "Toggle";
    std_states = [ "Off"; "On" ];
    std_initial = "Off";
    std_vars = [ ("count", Value.Int 0) ];
    std_transitions =
      [ { st_src = "Off"; st_dst = "On";
          st_guard = Expr.var "button";
          st_outputs = [ ("lamp", Expr.bool true) ];
          st_updates = [ ("count", Expr.(var "count" + int 1)) ];
          st_priority = 0 };
        { st_src = "On"; st_dst = "Off";
          st_guard = Expr.var "button";
          st_outputs = [ ("lamp", Expr.bool false) ];
          st_updates = []; st_priority = 0 } ] }

let test_std_step_and_vars () =
  let env_press name =
    if String.equal name "button" then present_b true else Value.Absent
  in
  let st0 = Std_machine.init toggle_std in
  let outs1, st1 = Std_machine.step ~tick:0 ~env:env_press toggle_std st0 in
  checkb "lamp on" true
    (Value.equal_message (List.assoc "lamp" outs1) (present_b true));
  Alcotest.(check string) "state" "On" st1.current;
  checkb "var incremented" true
    (Value.equal (List.assoc "count" st1.var_values) (Value.Int 1));
  (* absent input: stutter *)
  let outs2, st2 =
    Std_machine.step ~tick:1 ~env:(fun _ -> Value.Absent) toggle_std st1
  in
  checkb "no output" true (outs2 = []);
  Alcotest.(check string) "still On" "On" st2.current

let test_std_priority () =
  let std : Model.std =
    { std_name = "Prio";
      std_states = [ "S"; "A"; "B" ];
      std_initial = "S";
      std_vars = [];
      std_transitions =
        [ { st_src = "S"; st_dst = "A"; st_guard = Expr.bool true;
            st_outputs = []; st_updates = []; st_priority = 5 };
          { st_src = "S"; st_dst = "B"; st_guard = Expr.bool true;
            st_outputs = []; st_updates = []; st_priority = 1 } ] }
  in
  let _, st = Std_machine.step ~tick:0 ~env:(fun _ -> Value.Absent) std
      (Std_machine.init std)
  in
  Alcotest.(check string) "lower number wins" "B" st.current

let test_std_check () =
  (match Std_machine.check toggle_std with
   | Ok () -> ()
   | Error es -> Alcotest.fail (String.concat "; " es));
  let bad =
    { toggle_std with
      std_transitions =
        { st_src = "Off"; st_dst = "Nowhere"; st_guard = Expr.bool true;
          st_outputs = []; st_updates = []; st_priority = 3 }
        :: toggle_std.std_transitions }
  in
  checkb "bad target detected" true (Std_machine.check bad <> Ok ());
  let nondet =
    { toggle_std with
      std_transitions =
        { st_src = "Off"; st_dst = "On"; st_guard = Expr.bool true;
          st_outputs = []; st_updates = []; st_priority = 0 }
        :: toggle_std.std_transitions }
  in
  checkb "non-determinism detected" true (Std_machine.check nondet <> Ok ());
  checkb "deterministic predicate" false (Std_machine.deterministic nondet)

let test_std_reachability () =
  let std =
    { toggle_std with
      std_states = toggle_std.std_states @ [ "Orphan" ] }
  in
  Alcotest.(check (list string)) "reachable" [ "Off"; "On" ]
    (Std_machine.reachable_states std)

(* ------------------------------------------------------------------ *)
(* MTD semantics                                                      *)
(* ------------------------------------------------------------------ *)

(* Fig. 8-like: FuelEnabled / CrankingOverrun with distinct laws. *)
let throttle_mtd : Model.mtd =
  { mtd_name = "ThrottleRateOfChange";
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

let throttle_comp =
  Model.component "Throttle"
    ~ports:
      [ Model.in_port ~ty:Dtype.Tbool "cranking";
        Model.in_port ~ty:Dtype.Tfloat "desired";
        Model.in_port ~ty:Dtype.Tfloat "current";
        Model.out_port ~ty:Dtype.Tfloat "rate" ]
    ~behavior:(Model.B_mtd throttle_mtd)

let test_mtd_check_ok () =
  match Mtd.check throttle_mtd with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_mtd_strong_preemption () =
  (* At the very tick cranking arrives, the CrankingOverrun law applies. *)
  let inputs tick =
    [ ("cranking", present_b (tick >= 2));
      ("desired", present_f 10.);
      ("current", present_f 4.) ]
  in
  let trace = Sim.run ~ticks:4 ~inputs throttle_comp in
  let rates = Trace.column trace "rate" in
  checkb "mode law switches on the same tick" true
    (List.for_all2 Value.equal_message rates
       [ present_f 6.; present_f 6.; present_f 0.5; present_f 0.5 ])

let test_mtd_mode_port () =
  let comp =
    { throttle_comp with
      comp_ports =
        throttle_comp.comp_ports
        @ [ Model.out_port ~ty:(Mtd.mode_enum throttle_mtd) "mode" ] }
  in
  let inputs _ =
    [ ("cranking", present_b true); ("desired", present_f 1.);
      ("current", present_f 1.) ]
  in
  let trace = Sim.run ~ticks:1 ~inputs comp in
  checkb "mode emitted" true
    (Value.equal_message
       (Trace.get trace ~flow:"mode" ~tick:0)
       (Value.Present
          (Value.Enum ("ThrottleRateOfChange_mode", "CrankingOverrun"))))

let test_mtd_history () =
  (* Mode-local state survives leaving and re-entering a mode. *)
  let counting : Model.mtd =
    { mtd_name = "Hist";
      mtd_modes =
        [ { mode_name = "Count";
            mode_behavior =
              Model.B_std
                { std_name = "cnt";
                  std_states = [ "s" ];
                  std_initial = "s";
                  std_vars = [ ("n", Value.Int 0) ];
                  std_transitions =
                    [ { st_src = "s"; st_dst = "s";
                        st_guard = Expr.Is_present "tickin";
                        st_outputs = [ ("n_out", Expr.(var "n" + int 1)) ];
                        st_updates = [ ("n", Expr.(var "n" + int 1)) ];
                        st_priority = 0 } ] } };
          { mode_name = "Idle"; mode_behavior = Model.B_unspecified } ];
      mtd_initial = "Count";
      mtd_transitions =
        [ { mt_src = "Count"; mt_dst = "Idle"; mt_guard = Expr.var "pause";
            mt_priority = 0 };
          { mt_src = "Idle"; mt_dst = "Count";
            mt_guard = Expr.not_ (Expr.var "pause"); mt_priority = 0 } ] }
  in
  let comp =
    Model.component "H"
      ~ports:
        [ Model.in_port ~ty:Dtype.Tbool "pause";
          Model.in_port ~ty:Dtype.Tint "tickin";
          Model.out_port ~ty:Dtype.Tint "n_out" ]
      ~behavior:(Model.B_mtd counting)
  in
  let inputs tick =
    [ ("pause", present_b (tick = 2)); ("tickin", present_i tick) ]
  in
  let trace = Sim.run ~ticks:5 ~inputs comp in
  let ns = Trace.column trace "n_out" in
  checkb "history preserved" true
    (List.for_all2 Value.equal_message ns
       [ present_i 1; present_i 2; Value.Absent; present_i 3; present_i 4 ])

let test_mtd_reachability_and_determinism () =
  Alcotest.(check (list string)) "reachable"
    [ "FuelEnabled"; "CrankingOverrun" ]
    (Mtd.reachable_modes throttle_mtd);
  checkb "deterministic" true (Mtd.deterministic throttle_mtd)

let test_mtd_product () =
  let mk name a b guard_ab guard_ba : Model.mtd =
    { mtd_name = name;
      mtd_modes =
        [ { mode_name = a; mode_behavior = Model.B_unspecified };
          { mode_name = b; mode_behavior = Model.B_unspecified } ];
      mtd_initial = a;
      mtd_transitions =
        [ { mt_src = a; mt_dst = b; mt_guard = guard_ab; mt_priority = 0 };
          { mt_src = b; mt_dst = a; mt_guard = guard_ba; mt_priority = 0 } ] }
  in
  let m1 = mk "M1" "P" "Q" (Expr.var "x") (Expr.not_ (Expr.var "x")) in
  let m2 = mk "M2" "U" "V" (Expr.var "y") (Expr.not_ (Expr.var "y")) in
  let prod = Mtd.product m1 m2 in
  checki "4 product modes" 4 (List.length prod.mtd_modes);
  Alcotest.(check string) "initial" "P_U" prod.mtd_initial;
  (match Mtd.check prod with
   | Ok () -> ()
   | Error es -> Alcotest.fail (String.concat "; " es));
  (* joint step: x and y simultaneously true moves P_U -> Q_V *)
  let env name =
    match name with
    | "x" | "y" -> present_b true
    | _ -> Value.Absent
  in
  match Mtd.enabled_transition ~tick:0 ~env prod ~current:"P_U" with
  | Some t -> Alcotest.(check string) "joint move" "Q_V" t.mt_dst
  | None -> Alcotest.fail "joint transition expected"

let test_mtd_product_single_side () =
  let mk name a b g : Model.mtd =
    { mtd_name = name;
      mtd_modes =
        [ { mode_name = a; mode_behavior = Model.B_unspecified };
          { mode_name = b; mode_behavior = Model.B_unspecified } ];
      mtd_initial = a;
      mtd_transitions =
        [ { mt_src = a; mt_dst = b; mt_guard = g; mt_priority = 0 } ] }
  in
  let m1 = mk "M1" "P" "Q" (Expr.var "x") in
  let m2 = mk "M2" "U" "V" (Expr.var "y") in
  let prod = Mtd.product m1 m2 in
  let env name =
    match name with
    | "x" -> present_b true
    | "y" -> present_b false
    | _ -> Value.Absent
  in
  match Mtd.enabled_transition ~tick:0 ~env prod ~current:"P_U" with
  | Some t -> Alcotest.(check string) "left move only" "Q_U" t.mt_dst
  | None -> Alcotest.fail "single-side transition expected"

let test_std_product_structure () =
  let mk name out : Model.std =
    { std_name = name;
      std_states = [ "Off"; "On" ];
      std_initial = "Off";
      std_vars = [];
      std_transitions =
        [ { st_src = "Off"; st_dst = "On"; st_guard = Expr.var ("go_" ^ name);
            st_outputs = [ (out, Expr.bool true) ]; st_updates = [];
            st_priority = 0 };
          { st_src = "On"; st_dst = "Off"; st_guard = Expr.var ("stop_" ^ name);
            st_outputs = [ (out, Expr.bool false) ]; st_updates = [];
            st_priority = 0 } ] }
  in
  let p = Std_machine.product (mk "A" "outA") (mk "B" "outB") in
  checki "four product states" 4 (List.length p.std_states);
  Alcotest.(check string) "initial" "Off_Off" p.std_initial;
  (match Std_machine.check p with
   | Ok () -> ()
   | Error es -> Alcotest.fail (String.concat "; " es));
  checkb "deterministic" true (Std_machine.deterministic p);
  (* shared outputs rejected *)
  checkb "shared ports rejected" true
    (try ignore (Std_machine.product (mk "A" "x") (mk "B" "x")); false
     with Invalid_argument _ -> true)

let test_std_product_equivalence () =
  let mk name out : Model.std =
    { std_name = name;
      std_states = [ "Off"; "On" ];
      std_initial = "Off";
      std_vars = [ ("n_" ^ name, Value.Int 0) ];
      std_transitions =
        [ { st_src = "Off"; st_dst = "On"; st_guard = Expr.var ("go_" ^ name);
            st_outputs = [ (out, Expr.(var ("n_" ^ name) + int 1)) ];
            st_updates = [ ("n_" ^ name, Expr.(var ("n_" ^ name) + int 1)) ];
            st_priority = 0 };
          { st_src = "On"; st_dst = "Off"; st_guard = Expr.var ("stop_" ^ name);
            st_outputs = []; st_updates = []; st_priority = 0 } ] }
  in
  let env_at tick name =
    let st = Random.State.make [| 5; tick; Hashtbl.hash name |] in
    if Random.State.int st 3 = 0 then Value.Present (Value.Bool (Random.State.bool st))
    else Value.Absent
  in
  checkb "product equals parallel run" true
    (Std_machine.behavior_equivalent_to_parallel ~ticks:60 ~env_at
       (mk "A" "outA") (mk "B" "outB"))

let test_totalize_guard_always_present =
  QCheck.Test.make ~name:"totalized guards are always present" ~count:200
    QCheck.(pair small_int (int_range 0 3))
    (fun (seed, arity) ->
      (* random small boolean guard over v0..v3 *)
      let st = Random.State.make [| seed |] in
      let rec gen depth =
        if depth = 0 then
          match Random.State.int st 3 with
          | 0 -> Expr.var (Printf.sprintf "v%d" (Random.State.int st (arity + 1)))
          | 1 -> Expr.bool (Random.State.bool st)
          | _ -> Expr.Is_present (Printf.sprintf "v%d" (Random.State.int st (arity + 1)))
        else
          match Random.State.int st 3 with
          | 0 -> Expr.Binop (Expr.And, gen (depth - 1), gen (depth - 1))
          | 1 -> Expr.Binop (Expr.Or, gen (depth - 1), gen (depth - 1))
          | _ -> Expr.not_ (gen (depth - 1))
      in
      let g = gen 3 in
      let tg = Expr.totalize_guard g in
      (* random presence pattern *)
      let env name =
        let h = Random.State.make [| seed; Hashtbl.hash name |] in
        if Random.State.bool h then Value.Present (Value.Bool (Random.State.bool h))
        else Value.Absent
      in
      match fst (Expr.step ~tick:0 ~env tg (Expr.init_state tg)) with
      | Value.Present (Value.Bool _) -> true
      | Value.Present _ | Value.Absent -> false)

(* MTD product vs stepping the factors independently (mode trajectories). *)
let test_mtd_product_parallel_oracle =
  QCheck.Test.make ~name:"MTD product tracks factors" ~count:100
    QCheck.small_int
    (fun seed ->
      let mk name v : Model.mtd =
        { mtd_name = name;
          mtd_modes =
            [ { mode_name = "P"; mode_behavior = Model.B_unspecified };
              { mode_name = "Q"; mode_behavior = Model.B_unspecified } ];
          mtd_initial = "P";
          mtd_transitions =
            [ { mt_src = "P"; mt_dst = "Q"; mt_guard = Expr.var v;
                mt_priority = 0 };
              { mt_src = "Q"; mt_dst = "P"; mt_guard = Expr.not_ (Expr.var v);
                mt_priority = 0 } ] }
      in
      let a = mk "A" "x" and b = mk "B" "y" in
      let p = Mtd.product a b in
      let env_at tick name =
        let st = Random.State.make [| seed; tick; Hashtbl.hash name |] in
        if Random.State.int st 3 = 0 then Value.Absent
        else Value.Present (Value.Bool (Random.State.bool st))
      in
      let step_mode mtd current tick =
        match
          Mtd.enabled_transition ~tick ~env:(env_at tick) mtd ~current
        with
        | Some t -> t.Model.mt_dst
        | None -> current
      in
      let rec go tick ma mb mp =
        if tick >= 40 then true
        else
          let ma' = step_mode a ma tick in
          let mb' = step_mode b mb tick in
          let mp' = step_mode p mp tick in
          String.equal mp' (ma' ^ "_" ^ mb') && go (tick + 1) ma' mb' mp'
      in
      go 0 "P" "P" "P_P")

(* ------------------------------------------------------------------ *)
(* Stdblocks                                                          *)
(* ------------------------------------------------------------------ *)

let run_block comp ~ticks ~inputs = Sim.run ~ticks ~inputs comp

let test_stdblocks_integrator () =
  let comp = Stdblocks.integrator ~name:"I" () in
  let inputs _ = [ ("in", present_f 2.) ] in
  let trace = run_block comp ~ticks:3 ~inputs in
  checkb "accumulates" true
    (List.for_all2 Value.equal_message
       (Trace.column trace "out")
       [ present_f 2.; present_f 4.; present_f 6. ])

let test_stdblocks_rate_limiter () =
  let comp = Stdblocks.rate_limiter ~name:"RL" ~max_step:1. in
  let inputs _ = [ ("in", present_f 10.) ] in
  let trace = run_block comp ~ticks:3 ~inputs in
  checkb "ramps by 1" true
    (List.for_all2 Value.equal_message
       (Trace.column trace "out")
       [ present_f 1.; present_f 2.; present_f 3. ])

let test_stdblocks_hysteresis () =
  let comp = Stdblocks.hysteresis ~name:"H" ~low:2. ~high:8. in
  let signal = [ 0.; 5.; 9.; 5.; 1.; 5. ] in
  let inputs tick = [ ("in", present_f (List.nth signal tick)) ] in
  let trace = run_block comp ~ticks:6 ~inputs in
  checkb "two-point behavior" true
    (List.for_all2 Value.equal_message
       (Trace.column trace "out")
       [ present_b false; present_b false; present_b true; present_b true;
         present_b false; present_b false ])

let test_stdblocks_derivative () =
  let comp = Stdblocks.derivative ~name:"D" in
  let inputs tick = [ ("in", present_f (float_of_int (tick * tick))) ] in
  let trace = run_block comp ~ticks:4 ~inputs in
  checkb "first difference" true
    (List.for_all2 Value.equal_message
       (Trace.column trace "out")
       [ present_f 0.; present_f 1.; present_f 3.; present_f 5. ])

let test_stdblocks_sample_hold () =
  let comp =
    Stdblocks.sample_hold ~name:"SH" ~clock:(Clock.every 2 Clock.Base)
      ~init:(Value.Int 0)
  in
  let inputs tick = [ ("in", present_i tick) ] in
  let trace = run_block comp ~ticks:5 ~inputs in
  checkb "fig2 hold" true
    (List.for_all2 Value.equal_message
       (Trace.column trace "out")
       [ present_i 0; present_i 0; present_i 2; present_i 2; present_i 4 ])

let test_stdblocks_debounce () =
  let comp = Stdblocks.debounce ~name:"DB" ~ticks:2 in
  let signal = [ false; true; false; true; true; true; false ] in
  let inputs tick = [ ("in", present_b (List.nth signal tick)) ] in
  let trace = run_block comp ~ticks:7 ~inputs in
  checkb "debounced" true
    (List.for_all2 Value.equal_message
       (Trace.column trace "out")
       [ present_b false; present_b false; present_b false; present_b false;
         present_b true; present_b true; present_b true ])

(* ------------------------------------------------------------------ *)
(* Compiled simulation                                                *)
(* ------------------------------------------------------------------ *)

(* The two entry points of the compiled engine — [run_indexed] and an
   explicit one-instance batch — against the interpreted oracle. *)
let compiled_traces ?schedule comp ~ticks ~inputs =
  let ix = Sim.index comp in
  let b = Sim.batch ~instances:1 ix in
  Sim.run_batch ?schedules:(Option.map (fun s _ -> s) schedule) ~ticks
    ~inputs:(fun _ -> inputs) b;
  [ ("indexed", Sim.run_indexed ?schedule ~ticks ~inputs ix);
    ("batched", Sim.batch_trace b ~instance:0) ]

(* Full-trace identity (same flows, same messages everywhere). *)
let assert_compiled_matches ?schedule name comp ~ticks ~inputs =
  let t1 = Sim.run ?schedule ~ticks ~inputs comp in
  List.iter
    (fun (engine, t2) ->
      checkb
        (Printf.sprintf "%s: %s trace equals interpreted" name engine)
        true (Trace.equal t1 t2))
    (compiled_traces ?schedule comp ~ticks ~inputs)

let test_compiled_adder () =
  assert_compiled_matches "adder" adder ~ticks:16
    ~inputs:(fun t -> [ ("a", present_i t); ("b", present_i (2 * t)) ])

let test_compiled_counter_feedback () =
  assert_compiled_matches "counter" counter ~ticks:16
    ~inputs:(fun _ -> [ ("step", present_i 1) ])

let test_compiled_ssd_delays () =
  assert_compiled_matches "ssd pipeline" ssd_pipeline ~ticks:12
    ~inputs:(fun t -> [ ("src", present_i t) ])

let test_compiled_mtd () =
  assert_compiled_matches "throttle mtd" throttle_comp ~ticks:12
    ~inputs:(fun t ->
      [ ("cranking", present_b (t >= 4)); ("desired", present_f 10.);
        ("current", present_f 2.) ])

let test_compiled_faulted_inputs () =
  (* trace identity must survive a faulted stimulus: history-dependent
     fault transforms (memoized per tick) are queried by different
     engines and still have to produce the same trace *)
  let open Automode_robust in
  let comp = Automode_casestudy.Door_lock.component in
  let faults =
    [ Fault.dropout ~flow:"FZG_V"
        (Fault.Random_ticks { probability = 0.3; seed = 5 });
      Fault.spike ~flow:"CRSH"
        ~value:(Value.Enum ("CrashStatus", "Crash"))
        (Fault.Random_ticks { probability = 0.1; seed = 6 });
      Fault.stuck_at_last ~flow:"FZG_V"
        (Fault.Window { from_tick = 12; until_tick = 20 }) ]
  in
  let schedule =
    Fault.schedule_of_faults
      ~base:(fun name tick -> String.equal name "crash" && tick = 6)
      (List.filter (fun f -> String.equal (Fault.flow f) "CRSH") faults)
      ~event:"crash"
  in
  let ticks = 32 in
  let inputs =
    Fault.apply faults Automode_casestudy.Door_lock.crash_scenario
  in
  assert_compiled_matches ~schedule "faulted door lock" comp ~ticks ~inputs;
  (* and a fresh fault application replays the identical trace *)
  let inputs' =
    Fault.apply faults Automode_casestudy.Door_lock.crash_scenario
  in
  checkb "fault replay is identical" true
    (Trace.equal
       (Sim.run ~schedule ~ticks ~inputs comp)
       (Sim.run ~schedule ~ticks ~inputs:inputs' comp))

let test_compiled_rejects_loops () =
  (* a loop one level down the hierarchy is rejected as well *)
  let outer =
    Ssd.of_network
      { net_name = "Outer";
        net_components = [ Dfd.of_network (loop_net ~delayed:false) ];
        net_channels = [] }
  in
  checkb "index raises on a nested instantaneous loop" true
    (try ignore (Sim.index outer); false with Sim.Sim_error _ -> true)

let test_compiled_late_inputs () =
  (* regression: inputs first offered at tick >= 4 once vanished from a
     compiled engine's flow set, because the flows were sampled from the
     first four stimulus ticks; they come from the declared ports *)
  let inputs tick =
    if tick < 6 then []
    else [ ("a", present_i 1); ("b", present_i (tick - 6)) ]
  in
  List.iter
    (fun (engine, t2) ->
      checkb (engine ^ ": late input flows recorded") true
        (List.mem "a" (Trace.flows t2) && List.mem "b" (Trace.flows t2)))
    (compiled_traces adder ~ticks:12 ~inputs);
  assert_compiled_matches "late inputs" adder ~ticks:12 ~inputs

(* ------------------------------------------------------------------ *)
(* Indexed simulation                                                 *)
(* ------------------------------------------------------------------ *)

let test_indexed_random_dfds () =
  List.iter
    (fun (seed, n) ->
      let comp = Automode_workloads.Workloads.random_dfd_component ~seed ~n in
      assert_compiled_matches
        (Printf.sprintf "random dfd seed=%d n=%d" seed n)
        comp ~ticks:24
        ~inputs:(fun t -> [ ("src", present_f (float_of_int t)) ]))
    [ (7, 10); (42, 50); (3, 80) ]

let test_indexed_door_lock () =
  assert_compiled_matches "door lock (E1)"
    Automode_casestudy.Door_lock.component ~ticks:64
    ~inputs:Automode_casestudy.Door_lock.crash_scenario

let test_indexed_engine_fda () =
  let fda, _ = Automode_casestudy.Engine_ascet.reengineer () in
  let inputs tick =
    List.map
      (fun (n, v) -> (n, Value.Present v))
      (Automode_casestudy.Engine_ascet.drive_inputs tick)
  in
  assert_compiled_matches "engine fda (E8)" fda.Model.model_root ~ticks:96 ~inputs

let test_indexed_guarded () =
  assert_compiled_matches "guarded door lock (E14)"
    Automode_casestudy.Guarded.component ~ticks:64
    ~inputs:Automode_casestudy.Robustness.lock_stimulus

(* An SSD network whose sub-component is an MTD with a "mode" output
   port: exercises delayed sibling channels feeding/reading a
   mode-switching component in every engine. *)
let mtd_under_ssd =
  let mode_ty = Mtd.mode_enum throttle_mtd in
  let mtd_comp =
    Model.component "Ctl"
      ~ports:
        [ Model.in_port ~ty:Dtype.Tbool "cranking";
          Model.in_port ~ty:Dtype.Tfloat "desired";
          Model.in_port ~ty:Dtype.Tfloat "current";
          Model.out_port ~ty:Dtype.Tfloat "rate";
          Model.out_port ~ty:mode_ty "mode" ]
      ~behavior:(Model.B_mtd throttle_mtd)
  in
  let scale =
    Dfd.block_of_expr ~name:"Scale" ~inputs:[ ("x", Some Dtype.Tfloat) ]
      ~out_type:Dtype.Tfloat
      Expr.(current (Value.Float 0.) (var "x") * float 2.)
  in
  let net : Model.network =
    { net_name = "CtlNet";
      net_components = [ mtd_comp; scale ];
      net_channels =
        [ Dfd.wire "c" ("", "cranking") ("Ctl", "cranking");
          Dfd.wire "d" ("", "desired") ("Ctl", "desired");
          Dfd.wire "u" ("", "current") ("Ctl", "current");
          (* sibling channel: one-tick delay under SSD semantics *)
          Dfd.wire "r" ("Ctl", "rate") ("Scale", "x");
          Dfd.wire "o" ("Scale", "out") ("", "scaled");
          Dfd.wire "m" ("Ctl", "mode") ("", "mode") ] }
  in
  Ssd.of_network
    ~ports:
      [ Model.in_port ~ty:Dtype.Tbool "cranking";
        Model.in_port ~ty:Dtype.Tfloat "desired";
        Model.in_port ~ty:Dtype.Tfloat "current";
        Model.out_port ~ty:Dtype.Tfloat "scaled";
        Model.out_port ~ty:mode_ty "mode" ]
    net

let test_indexed_mtd_under_ssd () =
  assert_compiled_matches "mtd under ssd" mtd_under_ssd ~ticks:16
    ~inputs:(fun t ->
      [ ("cranking", present_b (4 <= t && t < 9));
        ("desired", present_f 10.);
        ("current", present_f (float_of_int t)) ])

let test_indexed_rejects_loops () =
  let comp = Dfd.of_network (loop_net ~delayed:false) in
  checkb "index raises on instantaneous loop" true
    (try ignore (Sim.index comp); false with Sim.Sim_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Batched simulation                                                 *)
(* ------------------------------------------------------------------ *)

(* The batch determinism contract: every instance of a batch must
   reproduce the interpreted trace of its own stimulus and schedule,
   byte for byte. *)
let assert_batch_matches ?schedules name comp ~instances ~ticks ~inputs =
  let ix = Sim.index comp in
  let b = Sim.batch ~instances ix in
  Sim.run_batch ?schedules ~ticks ~inputs b;
  for i = 0 to instances - 1 do
    let reference =
      Sim.run
        ?schedule:(Option.map (fun s -> s i) schedules)
        ~ticks ~inputs:(inputs i) comp
    in
    checkb
      (Printf.sprintf "%s: instance %d equals interpreted" name i)
      true
      (Trace.equal (Sim.batch_trace b ~instance:i) reference)
  done

let test_batch_fixtures () =
  assert_batch_matches "adder" adder ~instances:8 ~ticks:16
    ~inputs:(fun i t ->
      [ ("a", present_i (t + i)); ("b", present_i (2 * t)) ]);
  assert_batch_matches "counter" counter ~instances:5 ~ticks:16
    ~inputs:(fun i _ -> [ ("step", present_i (1 + i)) ]);
  assert_batch_matches "ssd pipeline" ssd_pipeline ~instances:4 ~ticks:12
    ~inputs:(fun i t -> [ ("src", present_i (t * (i + 1))) ]);
  assert_batch_matches "throttle mtd" throttle_comp ~instances:4 ~ticks:12
    ~inputs:(fun i t ->
      [ ("cranking", present_b (t >= 3 + (i mod 3)));
        ("desired", present_f 10.);
        ("current", present_f (2. +. float_of_int i)) ]);
  assert_batch_matches "mtd under ssd" mtd_under_ssd ~instances:3 ~ticks:16
    ~inputs:(fun i t ->
      [ ("cranking", present_b (4 <= t && t < 9 - i));
        ("desired", present_f 10.);
        ("current", present_f (float_of_int (t + i))) ])

let test_batch_random_dfds () =
  List.iter
    (fun (seed, n) ->
      let comp = Automode_workloads.Workloads.random_dfd_component ~seed ~n in
      assert_batch_matches
        (Printf.sprintf "random dfd seed=%d n=%d" seed n)
        comp ~instances:7 ~ticks:24
        ~inputs:(fun i t ->
          [ ("src", present_f (float_of_int t +. (0.5 *. float_of_int i))) ]))
    [ (7, 10); (42, 50) ]

(* Identity must survive per-instance fault columns: each instance gets
   its own injected stimulus (dropouts, spikes, ECU crash/reset) and its
   own event schedule. *)
let test_batch_faulted_door_lock () =
  let open Automode_robust in
  let comp = Automode_casestudy.Door_lock.component in
  let instances = 6 in
  let faults_of i =
    [ Fault.dropout ~flow:"FZG_V"
        (Fault.Random_ticks { probability = 0.3; seed = i }) ]
    @ (if i mod 2 = 0 then
         Fault.ecu_crash ~flows:[ "FZG_V" ] ~at_tick:(10 + i)
       else
         Fault.ecu_reset ~flows:[ "FZG_V" ] ~at_tick:(8 + i) ~down_ticks:4)
    @
    if i mod 3 = 0 then
      [ Fault.spike ~flow:"CRSH"
          ~value:(Value.Enum ("CrashStatus", "Crash"))
          (Fault.Random_ticks { probability = 0.1; seed = 6 + i }) ]
    else []
  in
  let schedule_of i =
    Fault.schedule_of_faults
      ~base:(fun name tick -> String.equal name "crash" && tick = 6)
      (List.filter
         (fun f -> String.equal (Fault.flow f) "CRSH")
         (faults_of i))
      ~event:"crash"
  in
  let inputs i =
    Fault.apply (faults_of i) Automode_casestudy.Door_lock.crash_scenario
  in
  assert_batch_matches "faulted door lock" comp ~instances ~ticks:32 ~inputs
    ~schedules:schedule_of

(* A batch is reusable: a second run with different stimuli and a
   partial count fully resets state; sharded execution changes
   nothing. *)
let test_batch_reuse_and_shards () =
  let ix = Sim.index counter in
  let b = Sim.batch ~instances:6 ix in
  let inputs1 i _ = [ ("step", present_i (i + 1)) ] in
  Sim.run_batch ~ticks:10 ~inputs:inputs1 b;
  checki "full run count" 6 (Sim.batch_count b);
  let inputs2 i _ = [ ("step", present_i (10 * (i + 1))) ] in
  Sim.run_batch ~count:3 ~ticks:7 ~inputs:inputs2 ~shards:3 b;
  checki "partial run count" 3 (Sim.batch_count b);
  for i = 0 to 2 do
    checkb
      (Printf.sprintf "reused batch instance %d equals interpreted" i)
      true
      (Trace.equal
         (Sim.batch_trace b ~instance:i)
         (Sim.run ~ticks:7 ~inputs:(inputs2 i) counter))
  done

let test_batch_rejects () =
  let ix = Sim.index counter in
  checkb "batch raises on zero instances" true
    (try ignore (Sim.batch ~instances:0 ix); false
     with Sim.Sim_error _ -> true);
  let b = Sim.batch ~instances:2 ix in
  checkb "run_batch raises when count exceeds capacity" true
    (try
       Sim.run_batch ~count:3 ~ticks:1
         ~inputs:(fun _ _ -> [ ("step", present_i 1) ])
         b;
       false
     with Sim.Sim_error _ -> true);
  Sim.run_batch ~ticks:1 ~inputs:(fun _ _ -> [ ("step", present_i 1) ]) b;
  checkb "batch_trace raises outside the last run" true
    (try ignore (Sim.batch_trace b ~instance:2); false
     with Sim.Sim_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                          *)
(* ------------------------------------------------------------------ *)

(* The snapshot determinism contract, asserted at cmp level: a
   one-column batch runs the stimulus span by span and captures at
   every tick of [at]; each snapshot is restored into every column of a
   second batch of the same index, at widths 1 and 3, which runs the
   rest of the horizon and must render byte-identically (to_csv) to the
   interpreted straight run.  Each second batch is reused across the
   capture points, so a restore must also overwrite the state of the
   previous resume. *)
let assert_snapshot_identity ?schedule name comp ~ticks ~inputs ~at =
  let ix = Sim.index comp in
  let schedules = Option.map (fun s _ -> s) schedule in
  let reference = Trace.to_csv (Sim.run ?schedule ~ticks ~inputs comp) in
  let capture = Sim.batch ~instances:1 ix in
  Sim.run_batch ~stop:0 ~ticks ~inputs:(fun _ -> inputs) capture;
  let start = ref 0 in
  let snaps =
    List.map
      (fun t ->
        Sim.run_batch ?schedules ~start:!start ~stop:t ~reset:false ~ticks
          ~inputs:(fun _ -> inputs) capture;
        start := t;
        Sim.batch_snapshot capture ~instance:0 ~tick:t)
      at
  in
  List.iter
    (fun width ->
      let b = Sim.batch ~instances:width ix in
      Sim.run_batch ~stop:0 ~ticks ~inputs:(fun _ -> inputs) b;
      List.iter2
        (fun t snap ->
          checki (Printf.sprintf "%s: capture tick %d" name t) t
            (Sim.batch_snapshot_tick snap);
          for j = 0 to width - 1 do
            Sim.batch_restore b snap ~instance:j
          done;
          Sim.run_batch ?schedules ~start:t ~reset:false ~ticks
            ~inputs:(fun _ -> inputs) b;
          for j = 0 to width - 1 do
            checkb
              (Printf.sprintf
                 "%s: width %d, column %d resumed from %d equals straight run"
                 name width j t)
              true
              (String.equal (Trace.to_csv (Sim.batch_trace b ~instance:j))
                 reference)
          done)
        at snaps)
    [ 1; 3 ]

(* Faulted net with capture points inside a dropout (silence) window
   (12, 14) and inside a stuck-at-last hold (20) — the two fault kinds
   whose effect depends on state accumulated before the capture. *)
let test_snapshot_faulted_door_lock () =
  let open Automode_robust in
  let faults =
    [ Fault.dropout ~flow:"FZG_V"
        (Fault.Window { from_tick = 10; until_tick = 18 });
      Fault.stuck_at_last ~flow:"CRSH"
        (Fault.Window { from_tick = 16; until_tick = 26 }) ]
  in
  let schedule =
    Fault.schedule_of_faults
      ~base:(fun name tick -> String.equal name "crash" && tick = 6)
      (List.filter (fun f -> String.equal (Fault.flow f) "CRSH") faults)
      ~event:"crash"
  in
  let inputs =
    Fault.apply faults Automode_casestudy.Door_lock.crash_scenario
  in
  assert_snapshot_identity "faulted door lock"
    Automode_casestudy.Door_lock.component ~schedule ~ticks:32 ~inputs
    ~at:[ 0; 3; 12; 14; 20; 31 ]

let test_snapshot_guarded () =
  let open Automode_robust in
  let inputs =
    Fault.apply
      (Automode_casestudy.Guarded.guard_faults 3)
      Automode_casestudy.Robustness.lock_stimulus
  in
  assert_snapshot_identity "guarded" Automode_casestudy.Guarded.component
    ~ticks:32 ~inputs ~at:[ 0; 7; 15; 24 ]

let test_snapshot_replicated () =
  let module Rep = Automode_casestudy.Replicated in
  assert_snapshot_identity "replicated" Rep.replicated ~ticks:Rep.repl_ticks
    ~inputs:Rep.repl_stimulus
    ~at:[ 1; Rep.repl_ticks / 2; Rep.repl_ticks - 1 ]

(* A snapshot is immutable: restoring it into a second batch with one
   suffix, then another, then the first again yields the first result
   byte-for-byte — the fork-from-divergence executor relies on
   replaying one snapshot under many suffixes in arbitrary order. *)
let test_snapshot_resume_independence () =
  let ix = Sim.index counter in
  let fork = 8 and ticks = 20 in
  let prefix _ = [ ("step", present_i 2) ] in
  let with_suffix v t =
    if t < fork then prefix t else [ ("step", present_i v) ]
  in
  let capture = Sim.batch ~instances:1 ix in
  Sim.run_batch ~stop:fork ~ticks ~inputs:(fun _ -> prefix) capture;
  let snap = Sim.batch_snapshot capture ~instance:0 ~tick:fork in
  let b = Sim.batch ~instances:1 ix in
  Sim.run_batch ~stop:0 ~ticks ~inputs:(fun _ -> prefix) b;
  let run v =
    Sim.batch_restore b snap ~instance:0;
    Sim.run_batch ~start:fork ~reset:false ~ticks
      ~inputs:(fun _ -> with_suffix v) b;
    Trace.to_csv (Sim.batch_trace b ~instance:0)
  in
  let a1 = run 5 in
  let b = run 9 in
  let a2 = run 5 in
  checkb "same suffix twice is byte-identical" true (String.equal a1 a2);
  checkb "different suffixes diverge" false (String.equal a1 b);
  checkb "resume equals straight run of the composite stimulus" true
    (String.equal a1
       (Trace.to_csv (Sim.run ~ticks ~inputs:(with_suffix 5) counter)))

(* The batched fork: simulate a shared prefix in one column, snapshot
   at the fork tick, restore into every column and run divergent
   suffixes — each column must equal a straight interpreted run of its
   composite stimulus (prefix + own suffix).  Uses the MTD throttle so
   the capture covers sub-component state, not just slot planes. *)
let test_batch_snapshot_fork () =
  let ix = Sim.index throttle_comp in
  let instances = 4 in
  let b = Sim.batch ~instances ix in
  let ticks = 20 and fork = 11 in
  let prefix t =
    [ ("cranking", present_b (t >= 3));
      ("desired", present_f 10.);
      ("current", present_f (float_of_int t)) ]
  in
  let suffix j t =
    [ ("cranking", present_b (t mod (j + 2) = 0));
      ("desired", present_f (12. +. float_of_int j));
      ("current", present_f (float_of_int (t - j))) ]
  in
  let composite j t = if t < fork then prefix t else suffix j t in
  Sim.run_batch ~count:1 ~stop:fork ~ticks ~inputs:(fun _ -> prefix) b;
  let snap = Sim.batch_snapshot b ~instance:0 ~tick:fork in
  checki "batch snapshot tick" fork (Sim.batch_snapshot_tick snap);
  for j = 0 to instances - 1 do
    Sim.batch_restore b snap ~instance:j
  done;
  Sim.run_batch ~start:fork ~reset:false ~ticks ~inputs:suffix b;
  for j = 0 to instances - 1 do
    checkb
      (Printf.sprintf "forked column %d equals straight interpreted run" j)
      true
      (String.equal
         (Trace.to_csv (Sim.batch_trace b ~instance:j))
         (Trace.to_csv (Sim.run ~ticks ~inputs:(composite j) throttle_comp)))
  done

(* A column that was itself restored and stepped on snapshots its
   whole trace: the prefix it was restored with plus the rows stepped
   since.  Column 0 runs [0, 5) and is captured; column 1 restores it,
   both run [5, 12) and column 1 is captured; columns 2 and 3 restore
   that, and all four run [12, 20).  Every column equals the straight
   run of its composite stimulus. *)
let test_batch_snapshot_of_restored () =
  let ix = Sim.index counter in
  let b = Sim.batch ~instances:4 ix in
  let ticks = 20 in
  let composite j t =
    let v =
      if t < 5 then 1
      else if t < 12 then if j = 0 then 2 else 3
      else (10 * (j + 1)) + t
    in
    [ ("step", present_i v) ]
  in
  Sim.run_batch ~count:1 ~stop:5 ~ticks ~inputs:composite b;
  let first = Sim.batch_snapshot b ~instance:0 ~tick:5 in
  Sim.batch_restore b first ~instance:1;
  Sim.run_batch ~count:2 ~start:5 ~stop:12 ~reset:false ~ticks
    ~inputs:composite b;
  let second = Sim.batch_snapshot b ~instance:1 ~tick:12 in
  Sim.batch_restore b second ~instance:2;
  Sim.batch_restore b second ~instance:3;
  Sim.run_batch ~start:12 ~reset:false ~ticks ~inputs:composite b;
  for j = 0 to 3 do
    checkb
      (Printf.sprintf "column %d equals straight interpreted run" j)
      true
      (String.equal
         (Trace.to_csv (Sim.batch_trace b ~instance:j))
         (Trace.to_csv (Sim.run ~ticks ~inputs:(composite j) counter)))
  done

(* A reset drops every restored prefix: after a fork, a reset run over
   the same horizon (which keeps the trace store) returns complete
   fresh traces, and a reset span starting late reads exactly as on a
   fresh batch (absent rows before it). *)
let test_batch_reset_after_restore () =
  let ix = Sim.index counter in
  let b = Sim.batch ~instances:3 ix in
  let ticks = 16 and fork = 9 in
  let trunk _ _ = [ ("step", present_i 7) ] in
  Sim.run_batch ~count:1 ~stop:fork ~ticks ~inputs:trunk b;
  let snap = Sim.batch_snapshot b ~instance:0 ~tick:fork in
  for j = 0 to 2 do
    Sim.batch_restore b snap ~instance:j
  done;
  Sim.run_batch ~start:fork ~reset:false ~ticks ~inputs:trunk b;
  let fresh j t = [ ("step", present_i (j - t)) ] in
  Sim.run_batch ~ticks ~inputs:fresh b;
  for j = 0 to 2 do
    checkb
      (Printf.sprintf "reset column %d equals fresh interpreted run" j)
      true
      (String.equal
         (Trace.to_csv (Sim.batch_trace b ~instance:j))
         (Trace.to_csv (Sim.run ~ticks ~inputs:(fresh j) counter)))
  done;
  let late = Sim.batch ~instances:3 ix in
  Sim.run_batch ~start:5 ~ticks ~inputs:fresh b;
  Sim.run_batch ~start:5 ~ticks ~inputs:fresh late;
  for j = 0 to 2 do
    checkb
      (Printf.sprintf "late reset span, column %d reads as a fresh batch" j)
      true
      (String.equal
         (Trace.to_csv (Sim.batch_trace b ~instance:j))
         (Trace.to_csv (Sim.batch_trace late ~instance:j)))
  done

(* One batch over a changing horizon: 20, then 12, then 20 ticks.  The
   trace store is rebuilt on each change, and every run's traces equal
   the interpreted run. *)
let test_batch_horizon_changes () =
  let ix = Sim.index throttle_comp in
  let b = Sim.batch ~instances:3 ix in
  List.iter
    (fun ticks ->
      let inputs j t =
        [ ("cranking", present_b ((t + j) mod 4 = 0));
          ("desired", present_f (float_of_int (ticks + j)));
          ("current", present_f (float_of_int t)) ]
      in
      Sim.run_batch ~ticks ~inputs b;
      for j = 0 to 2 do
        checkb
          (Printf.sprintf "horizon %d, column %d equals interpreted" ticks j)
          true
          (String.equal
             (Trace.to_csv (Sim.batch_trace b ~instance:j))
             (Trace.to_csv (Sim.run ~ticks ~inputs:(inputs j) throttle_comp)))
      done)
    [ 20; 12; 20 ]

let test_batch_snapshot_rejects () =
  let ix = Sim.index counter in
  let b = Sim.batch ~instances:2 ix in
  let inputs _ _ = [ ("step", present_i 1) ] in
  Sim.run_batch ~count:1 ~stop:4 ~ticks:10 ~inputs b;
  checkb "batch_snapshot rejects a tick past the horizon" true
    (try ignore (Sim.batch_snapshot b ~instance:0 ~tick:11); false
     with Sim.Sim_error _ -> true);
  checkb "batch_snapshot rejects an out-of-range instance" true
    (try ignore (Sim.batch_snapshot b ~instance:2 ~tick:4); false
     with Sim.Sim_error _ -> true);
  let snap = Sim.batch_snapshot b ~instance:0 ~tick:4 in
  checkb "run_batch rejects an out-of-range span" true
    (try Sim.run_batch ~start:8 ~stop:6 ~ticks:10 ~inputs b; false
     with Sim.Sim_error _ -> true);
  checkb "reset:false requires the allocating run's horizon" true
    (try Sim.run_batch ~reset:false ~ticks:12 ~inputs b; false
     with Sim.Sim_error _ -> true);
  (* another batch of the same index accepts the snapshot; a batch of
     another index of the same component does not *)
  let b2 = Sim.batch ~instances:2 ix in
  Sim.run_batch ~ticks:10 ~inputs b2;
  Sim.batch_restore b2 snap ~instance:1;
  let other = Sim.batch ~instances:2 (Sim.index counter) in
  Sim.run_batch ~ticks:10 ~inputs other;
  checkb "batch_restore rejects a snapshot taken from another index" true
    (try Sim.batch_restore other snap ~instance:0; false
     with Sim.Sim_error _ -> true);
  Sim.run_batch ~ticks:6 ~inputs b;
  checkb "batch_restore rejects a changed horizon" true
    (try Sim.batch_restore b snap ~instance:0; false
     with Sim.Sim_error _ -> true);
  (* a restored column's trace up to the capture tick is the
     snapshot's: neither a span nor a capture may reach back into it *)
  Sim.run_batch ~count:1 ~stop:4 ~ticks:10 ~inputs b;
  let snap = Sim.batch_snapshot b ~instance:0 ~tick:4 in
  Sim.batch_restore b snap ~instance:1;
  checkb "run_batch rejects a span inside a restored prefix" true
    (try Sim.run_batch ~start:2 ~reset:false ~ticks:10 ~inputs b; false
     with Sim.Sim_error _ -> true);
  checkb "batch_snapshot rejects a tick inside a restored prefix" true
    (try ignore (Sim.batch_snapshot b ~instance:1 ~tick:3); false
     with Sim.Sim_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Trace utilities                                                    *)
(* ------------------------------------------------------------------ *)

let test_trace_equal_and_divergence () =
  let t1 =
    Trace.record
      (Trace.record (Trace.make ~flows:[ "x" ]) [ ("x", present_i 1) ])
      [ ("x", present_i 2) ]
  in
  let t2 =
    Trace.record
      (Trace.record (Trace.make ~flows:[ "x" ]) [ ("x", present_i 1) ])
      [ ("x", present_i 3) ]
  in
  checkb "equal to itself" true (Trace.equal t1 t1);
  checkb "not equal" false (Trace.equal t1 t2);
  match Trace.first_divergence t1 t2 with
  | Some (tick, flow, l, r) ->
    checki "tick" 1 tick;
    Alcotest.(check string) "flow" "x" flow;
    checkb "values" true
      (Value.equal_message l (present_i 2) && Value.equal_message r (present_i 3))
  | None -> Alcotest.fail "divergence expected"

let test_trace_csv_escaping () =
  (* tuple values render with a comma: the CSV cell must be quoted, and
     so must header names containing separators (RFC 4180) *)
  let t =
    Trace.record
      (Trace.make ~flows:[ "pair"; "a,b" ])
      [ ("pair", Value.Present (Value.Tuple [ Value.Int 1; Value.Int 2 ]));
        ("a,b", present_i 7) ]
  in
  let csv = Trace.to_csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (match lines with
   | [ header; row ] ->
     Alcotest.(check string) "header quoted" "tick,pair,\"a,b\"" header;
     Alcotest.(check string) "tuple cell quoted" "0,\"(1, 2)\",7" row
   | _ -> Alcotest.fail "expected header + one row");
  (* embedded quotes double *)
  let t2 =
    Trace.record (Trace.make ~flows:[ "x\"y" ]) [ ("x\"y", present_i 1) ]
  in
  (match String.split_on_char '\n' (String.trim (Trace.to_csv t2)) with
   | header :: _ ->
     Alcotest.(check string) "quote doubled" "tick,\"x\"\"y\"" header
   | [] -> Alcotest.fail "empty csv")

let test_trace_long_linear () =
  (* regression: get and first_divergence used to reverse the tick list
     per call; on a long trace this has to stay effectively linear *)
  let n = 20_000 in
  let build diverge_at =
    let rec go t acc =
      if t = n then acc
      else
        go (t + 1)
          (Trace.record acc
             [ ("x", present_i (if t = diverge_at then -1 else t)) ])
    in
    go 0 (Trace.make ~flows:[ "x" ])
  in
  let a = build (-1) and b = build (n - 1) in
  checkb "get first" true (Value.equal_message (Trace.get a ~flow:"x" ~tick:0) (present_i 0));
  checkb "get last" true
    (Value.equal_message (Trace.get a ~flow:"x" ~tick:(n - 1)) (present_i (n - 1)));
  (match Trace.first_divergence a b with
   | Some (tick, "x", l, r) ->
     checki "diverges at the last tick" (n - 1) tick;
     checkb "sides" true
       (Value.equal_message l (present_i (n - 1)) && Value.equal_message r (present_i (-1)))
   | _ -> Alcotest.fail "divergence expected");
  checkb "equal prefix detected" true (Trace.first_divergence a a = None)

let test_trace_restrict_rename () =
  let t =
    Trace.record (Trace.make ~flows:[ "a"; "b" ])
      [ ("a", present_i 1); ("b", present_i 2) ]
  in
  let r = Trace.restrict t [ "b" ] in
  Alcotest.(check (list string)) "restricted flows" [ "b" ] (Trace.flows r);
  let rn = Trace.rename t [ ("a", "alpha") ] in
  checkb "renamed column" true
    (Value.equal_message (Trace.get rn ~flow:"alpha" ~tick:0) (present_i 1))

let test_network_flatten_semantics () =
  (* Flattening a hierarchical DFD preserves the simulated trace. *)
  let inner_net : Model.network =
    { net_name = "InnerNet";
      net_components =
        [ Dfd.block_of_expr ~name:"DOUBLE" ~inputs:[ ("x", None) ]
            Expr.(var "x" * int 2) ];
      net_channels =
        [ Dfd.wire "i" ("", "inp") ("DOUBLE", "x");
          Dfd.wire "o" ("DOUBLE", "out") ("", "outp") ] }
  in
  let inner =
    Dfd.of_network ~ports:[ Model.in_port "inp"; Model.out_port "outp" ]
      inner_net
  in
  let outer_net : Model.network =
    { net_name = "OuterNet";
      net_components =
        [ inner;
          Dfd.block_of_expr ~name:"INC" ~inputs:[ ("x", None) ]
            Expr.(var "x" + int 1) ];
      net_channels =
        [ Dfd.wire "a" ("", "src") ("InnerNet", "inp");
          Dfd.wire "b" ("InnerNet", "outp") ("INC", "x");
          Dfd.wire "c" ("INC", "out") ("", "dst") ] }
  in
  let ports = [ Model.in_port "src"; Model.out_port "dst" ] in
  let hier = Dfd.of_network ~ports outer_net in
  let flat = Dfd.of_network ~ports (Dfd.flatten outer_net) in
  let inputs tick = [ ("src", present_i tick) ] in
  let t1 = Sim.run ~ticks:6 ~inputs hier in
  let t2 = Sim.run ~ticks:6 ~inputs flat in
  checkb "flatten preserves trace" true (Trace.equal t1 t2);
  (* the flat network has no composite components left *)
  match flat.comp_behavior with
  | Model.B_dfd net ->
    checkb "all atomic" true
      (List.for_all
         (fun (c : Model.component) ->
           match c.comp_behavior with
           | Model.B_dfd _ | Model.B_ssd _ -> false
           | _ -> true)
         net.net_components)
  | _ -> assert false

let test_ssd_flatten_preserves_delay () =
  (* Dissolving the SSD pipeline keeps its one-tick delay via channel
     delay marks. *)
  let flat = Ssd.dissolve_top ssd_pipeline in
  let inputs tick = [ ("src", present_i tick) ] in
  let t1 = Sim.run ~ticks:5 ~inputs ssd_pipeline in
  let t2 = Sim.run ~ticks:5 ~inputs flat in
  checkb "delay preserved" true (Trace.equal t1 t2)

(* ------------------------------------------------------------------ *)
(* Faa_rules                                                          *)
(* ------------------------------------------------------------------ *)

let vehicle_model : Model.model =
  let f name ports = Model.component name ~ports in
  let net : Model.network =
    { net_name = "Vehicle";
      net_components =
        [ f "CruiseControl"
            [ Model.in_port ~ty:Dtype.Tfloat ~resource:"speed" "v";
              Model.out_port ~ty:Dtype.Tfloat ~resource:"throttle" "u" ];
          f "TractionControl"
            [ Model.in_port ~ty:Dtype.Tfloat ~resource:"speed" "v";
              Model.out_port ~ty:Dtype.Tfloat ~resource:"throttle" "u" ];
          f "Wipers" [ Model.in_port ~ty:Dtype.Tbool "rain" ] ];
      net_channels = [] }
  in
  { model_name = "Vehicle";
    model_level = Model.Faa;
    model_root = Ssd.of_network net;
    model_enums = [] }

let test_faa_actuator_conflict () =
  let findings = Faa_rules.run vehicle_model in
  checkb "conflict found" true
    (List.exists
       (fun (f : Faa_rules.finding) ->
         f.rule = "actuator-conflict" && f.severity = `Conflict)
       findings);
  checkb "countermeasure suggested" true
    (List.exists
       (fun (f : Faa_rules.finding) ->
         f.rule = "actuator-conflict" && f.countermeasure <> None)
       findings)

let test_faa_shared_sensor_info () =
  let findings = Faa_rules.run vehicle_model in
  checkb "shared sensor info" true
    (List.exists
       (fun (f : Faa_rules.finding) -> f.rule = "shared-sensor")
       findings)

let test_faa_unconnected () =
  let findings = Faa_rules.run vehicle_model in
  checkb "unconnected warning" true
    (List.exists
       (fun (f : Faa_rules.finding) -> f.rule = "unconnected-function")
       findings)

let test_faa_unspecified_severity () =
  let fda = { vehicle_model with model_level = Model.Fda } in
  let sev_of model =
    List.filter_map
      (fun (f : Faa_rules.finding) ->
        if f.rule = "unspecified-behavior" then Some f.severity else None)
      (Faa_rules.run model)
  in
  checkb "warning on FAA" true (List.for_all (( = ) `Warning) (sev_of vehicle_model));
  checkb "conflict on FDA" true (List.for_all (( = ) `Conflict) (sev_of fda));
  checkb "summary mentions conflicts" true
    (String.length (Faa_rules.summary (Faa_rules.run fda)) > 0)

let test_faa_prototype_actuator () =
  let model =
    { vehicle_model with
      Model.model_root =
        Ssd.of_network
          { net_name = "V";
            net_components =
              [ Model.component "Proto"
                  ~ports:
                    [ Model.out_port ~ty:Dtype.Tfloat ~resource:"horn" "h" ] ];
            net_channels = [] } }
  in
  checkb "prototype actuator flagged" true
    (List.exists
       (fun (f : Faa_rules.finding) -> f.rule = "prototype-actuator")
       (Faa_rules.run model))

let test_faa_non_harmonic_channel () =
  let c2 = Clock.every 2 Clock.Base and c3 = Clock.every 3 Clock.Base in
  let src =
    Dfd.block_of_expr ~name:"S" ~inputs:[] ~out_type:Dtype.Tfloat
      (Expr.float 0.)
  in
  let src = { src with Model.comp_ports =
      [ Model.out_port ~ty:Dtype.Tfloat ~clock:c2 "out" ] } in
  let dst =
    Model.component "D"
      ~ports:[ Model.in_port ~ty:Dtype.Tfloat ~clock:c3 "x" ]
  in
  let net : Model.network =
    { net_name = "NH";
      net_components = [ src; dst ];
      net_channels = [ Dfd.wire "w" ("S", "out") ("D", "x") ] }
  in
  let model =
    { Model.model_name = "NH"; model_level = Model.Faa;
      model_root = Ssd.of_network net; model_enums = [] }
  in
  checkb "non-harmonic flagged" true
    (List.exists
       (fun (f : Faa_rules.finding) -> f.rule = "non-harmonic-channel")
       (Faa_rules.run model));
  (* harmonic 2/4 clocks do not trigger it *)
  let harmonic_dst =
    { dst with Model.comp_ports =
        [ Model.in_port ~ty:Dtype.Tfloat ~clock:(Clock.every 4 Clock.Base) "x" ] }
  in
  let model2 =
    { model with
      Model.model_root =
        Ssd.of_network { net with Model.net_components = [ src; harmonic_dst ] } }
  in
  checkb "harmonic accepted" false
    (List.exists
       (fun (f : Faa_rules.finding) -> f.rule = "non-harmonic-channel")
       (Faa_rules.run model2))

(* ------------------------------------------------------------------ *)
(* Render smoke tests                                                 *)
(* ------------------------------------------------------------------ *)

let test_render_nonempty () =
  let s = Render.component_to_string throttle_comp in
  checkb "renders mtd" true (String.length s > 100);
  let s2 = Render.component_to_string adder in
  checkb "renders dfd" true (String.length s2 > 50)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "automode-sim"
    [ ( "network",
        [ Alcotest.test_case "well-formed" `Quick test_network_ok;
          Alcotest.test_case "bad endpoint" `Quick test_network_bad_endpoint;
          Alcotest.test_case "double driver" `Quick test_network_double_driver;
          Alcotest.test_case "direction" `Quick test_network_direction_violation;
          Alcotest.test_case "type mismatch" `Quick test_network_type_mismatch;
          Alcotest.test_case "ssd static typing" `Quick test_ssd_requires_types ] );
      ( "causality",
        [ Alcotest.test_case "detects loop" `Quick test_causality_detects_loop;
          Alcotest.test_case "delay breaks loop" `Quick test_causality_delay_breaks_loop;
          Alcotest.test_case "self loop" `Quick test_causality_self_loop;
          Alcotest.test_case "topological order" `Quick test_causality_order_respects_deps;
          Alcotest.test_case "recursive check" `Quick test_causality_recursive ]
        @ qsuite [ test_causality_random ] );
      ( "sim-dfd",
        [ Alcotest.test_case "adder" `Quick test_sim_adder;
          Alcotest.test_case "counter feedback" `Quick test_sim_counter_feedback;
          Alcotest.test_case "rejects loops" `Quick test_sim_rejects_instantaneous_loop ] );
      ( "sim-ssd",
        [ Alcotest.test_case "channel delay" `Quick test_sim_ssd_channel_delay;
          Alcotest.test_case "dfd instantaneous" `Quick test_sim_dfd_same_net_is_instantaneous;
          Alcotest.test_case "init value" `Quick test_sim_ssd_init_value ] );
      ( "std",
        [ Alcotest.test_case "step and vars" `Quick test_std_step_and_vars;
          Alcotest.test_case "priority" `Quick test_std_priority;
          Alcotest.test_case "check" `Quick test_std_check;
          Alcotest.test_case "reachability" `Quick test_std_reachability;
          Alcotest.test_case "product structure" `Quick test_std_product_structure;
          Alcotest.test_case "product equivalence" `Quick test_std_product_equivalence ] );
      ( "mtd",
        [ Alcotest.test_case "check" `Quick test_mtd_check_ok;
          Alcotest.test_case "strong preemption" `Quick test_mtd_strong_preemption;
          Alcotest.test_case "mode port" `Quick test_mtd_mode_port;
          Alcotest.test_case "history" `Quick test_mtd_history;
          Alcotest.test_case "reachability" `Quick test_mtd_reachability_and_determinism;
          Alcotest.test_case "product joint" `Quick test_mtd_product;
          Alcotest.test_case "product single-side" `Quick test_mtd_product_single_side ]
        @ qsuite
            [ test_totalize_guard_always_present;
              test_mtd_product_parallel_oracle ] );
      ( "stdblocks",
        [ Alcotest.test_case "integrator" `Quick test_stdblocks_integrator;
          Alcotest.test_case "rate limiter" `Quick test_stdblocks_rate_limiter;
          Alcotest.test_case "hysteresis" `Quick test_stdblocks_hysteresis;
          Alcotest.test_case "derivative" `Quick test_stdblocks_derivative;
          Alcotest.test_case "sample hold" `Quick test_stdblocks_sample_hold;
          Alcotest.test_case "debounce" `Quick test_stdblocks_debounce ] );
      ( "compiled-sim",
        [ Alcotest.test_case "adder" `Quick test_compiled_adder;
          Alcotest.test_case "counter feedback" `Quick test_compiled_counter_feedback;
          Alcotest.test_case "ssd delays" `Quick test_compiled_ssd_delays;
          Alcotest.test_case "mtd" `Quick test_compiled_mtd;
          Alcotest.test_case "faulted inputs" `Quick test_compiled_faulted_inputs;
          Alcotest.test_case "late inputs" `Quick test_compiled_late_inputs;
          Alcotest.test_case "rejects loops" `Quick test_compiled_rejects_loops ] );
      ( "indexed-sim",
        [ Alcotest.test_case "random dfds" `Quick test_indexed_random_dfds;
          Alcotest.test_case "door lock (E1)" `Quick test_indexed_door_lock;
          Alcotest.test_case "engine fda (E8)" `Quick test_indexed_engine_fda;
          Alcotest.test_case "guarded (E14)" `Quick test_indexed_guarded;
          Alcotest.test_case "mtd under ssd" `Quick test_indexed_mtd_under_ssd;
          Alcotest.test_case "rejects loops" `Quick test_indexed_rejects_loops ] );
      ( "batched",
        [ Alcotest.test_case "fixtures" `Quick test_batch_fixtures;
          Alcotest.test_case "random dfds" `Quick test_batch_random_dfds;
          Alcotest.test_case "faulted door lock" `Quick
            test_batch_faulted_door_lock;
          Alcotest.test_case "reuse and shards" `Quick
            test_batch_reuse_and_shards;
          Alcotest.test_case "rejects" `Quick test_batch_rejects ] );
      ( "snapshot",
        [ Alcotest.test_case "faulted door lock" `Quick
            test_snapshot_faulted_door_lock;
          Alcotest.test_case "guarded" `Quick test_snapshot_guarded;
          Alcotest.test_case "replicated" `Quick test_snapshot_replicated;
          Alcotest.test_case "resume independence" `Quick
            test_snapshot_resume_independence;
          Alcotest.test_case "batched fork" `Quick test_batch_snapshot_fork;
          Alcotest.test_case "batched snapshot of a restored column" `Quick
            test_batch_snapshot_of_restored;
          Alcotest.test_case "batched reset after restore" `Quick
            test_batch_reset_after_restore;
          Alcotest.test_case "batched horizon changes" `Quick
            test_batch_horizon_changes;
          Alcotest.test_case "batched rejects" `Quick
            test_batch_snapshot_rejects ] );
      ( "trace",
        [ Alcotest.test_case "equality/divergence" `Quick test_trace_equal_and_divergence;
          Alcotest.test_case "csv escaping" `Quick test_trace_csv_escaping;
          Alcotest.test_case "long trace linear" `Quick test_trace_long_linear;
          Alcotest.test_case "restrict/rename" `Quick test_trace_restrict_rename ] );
      ( "flatten",
        [ Alcotest.test_case "dfd flatten trace-equal" `Quick test_network_flatten_semantics;
          Alcotest.test_case "ssd dissolve keeps delay" `Quick test_ssd_flatten_preserves_delay ] );
      ( "faa-rules",
        [ Alcotest.test_case "actuator conflict" `Quick test_faa_actuator_conflict;
          Alcotest.test_case "shared sensor" `Quick test_faa_shared_sensor_info;
          Alcotest.test_case "unconnected" `Quick test_faa_unconnected;
          Alcotest.test_case "unspecified severity" `Quick test_faa_unspecified_severity;
          Alcotest.test_case "prototype actuator" `Quick test_faa_prototype_actuator;
          Alcotest.test_case "non-harmonic channel" `Quick test_faa_non_harmonic_channel ] );
      ( "render",
        [ Alcotest.test_case "smoke" `Quick test_render_nonempty ] ) ]
