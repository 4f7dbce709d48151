(* Unit and property tests for the foundational core modules:
   Ident, Value, Dtype, Clock, Expr, Block_lib. *)

open Automode_core

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Ident                                                              *)
(* ------------------------------------------------------------------ *)

let test_ident_roundtrip () =
  let id = Ident.of_string "Engine.Throttle.posIn" in
  checks "to_string" "Engine.Throttle.posIn" (Ident.to_string id);
  checki "depth" 3 (Ident.depth id);
  checks "basename" "posIn" (Ident.basename id)

let test_ident_child_parent () =
  let id = Ident.v "Engine" in
  let c = Ident.child id "Idle" in
  checks "child" "Engine.Idle" (Ident.to_string c);
  (match Ident.parent c with
   | Some p -> checkb "parent" true (Ident.equal p id)
   | None -> Alcotest.fail "expected parent");
  checkb "parent of root" true (Ident.parent id = None)

let test_ident_prefix () =
  let a = Ident.of_string "A.B" and b = Ident.of_string "A.B.C" in
  checkb "prefix" true (Ident.is_prefix a b);
  checkb "not prefix" false (Ident.is_prefix b a);
  checkb "self prefix" true (Ident.is_prefix a a)

let test_ident_invalid () =
  Alcotest.check_raises "empty" (Ident.Invalid "bad identifier segment: ")
    (fun () -> ignore (Ident.v ""));
  Alcotest.check_raises "dot in segment"
    (Ident.Invalid "bad identifier segment: a.b") (fun () ->
      ignore (Ident.child (Ident.v "x") "a.b"))

let test_ident_append () =
  let a = Ident.of_string "A.B" and b = Ident.of_string "C.D" in
  checks "append" "A.B.C.D" (Ident.to_string (Ident.append a b))

(* ------------------------------------------------------------------ *)
(* Value                                                              *)
(* ------------------------------------------------------------------ *)

let test_value_arith_promotion () =
  checkb "int add" true (Value.equal (Value.add (Int 2) (Int 3)) (Int 5));
  checkb "mixed add" true
    (Value.equal (Value.add (Int 2) (Float 0.5)) (Float 2.5));
  checkb "float mul" true
    (Value.equal (Value.mul (Float 2.) (Float 4.)) (Float 8.))

let test_value_division () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Value.div (Int 1) (Int 0)));
  checkb "int div" true (Value.equal (Value.div (Int 7) (Int 2)) (Int 3))

let test_value_type_errors () =
  checkb "bool add raises" true
    (try ignore (Value.add (Bool true) (Int 1)); false
     with Value.Type_error _ -> true);
  checkb "truth of int raises" true
    (try ignore (Value.truth (Int 1)); false
     with Value.Type_error _ -> true)

let test_value_message_pp () =
  checks "absent prints as dash" "-" (Value.message_to_string Value.Absent);
  checks "present int" "23" (Value.message_to_string (Present (Int 23)));
  checks "enum literal" "Cranking"
    (Value.message_to_string (Present (Enum ("EngineMode", "Cranking"))))

let test_value_compare_total =
  QCheck.Test.make ~name:"value compare antisymmetric" ~count:200
    QCheck.(pair (int_range (-5) 5) (int_range (-5) 5))
    (fun (a, b) ->
      let va = Value.Int a and vb = Value.Int b in
      Value.compare va vb = -Value.compare vb va)

(* The printers render directly; the Format printer they replaced is
   kept here as the reference they must match byte for byte. *)
let rec reference_pp ppf = function
  | Value.Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Enum (_, lit) -> Format.pp_print_string ppf lit
  | Tuple vs ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         reference_pp)
      vs

let reference_pp_message ppf = function
  | Value.Absent -> Format.pp_print_string ppf "-"
  | Present v -> reference_pp ppf v

let gen_value =
  let open QCheck.Gen in
  let special =
    [ nan; Float.neg nan; infinity; neg_infinity; 0.; -0.; 1e21; 1e-7;
      1e20; 1e-5; 123456.; 1234567.; 0.1; Float.min_float; Float.max_float;
      Float.epsilon; 5e-324; -5e-324 ]
  in
  (* the sign and mantissa bits of a random double, exponent zero *)
  let subnormal =
    map
      (fun bits -> Int64.float_of_bits (Int64.logand bits 0x800FFFFFFFFFFFFFL))
      ui64
  in
  let leaf =
    frequency
      [ (1, map (fun b -> Value.Bool b) bool);
        ( 2,
          map
            (fun i -> Value.Int i)
            (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]) );
        ( 4,
          map
            (fun f -> Value.Float f)
            (oneof [ float; oneofl special; subnormal ]) );
        ( 1,
          map
            (fun lit -> Value.Enum ("E", lit))
            (string_size ~gen:printable (int_range 0 8)) ) ]
  in
  let rec value depth =
    if depth = 0 then leaf
    else
      frequency
        [ (3, leaf);
          ( 1,
            map
              (fun vs -> Value.Tuple vs)
              (list_size (int_range 0 4) (value (depth - 1))) ) ]
  in
  value 3

let test_value_printers_match_format =
  QCheck.Test.make ~name:"printers = the Format rendering" ~count:2000
    (QCheck.make
       ~print:(fun (_, v) -> Format.asprintf "%a" reference_pp v)
       (QCheck.Gen.pair QCheck.Gen.bool gen_value))
    (fun (present, v) ->
      let m = if present then Value.Present v else Value.Absent in
      let reference = Format.asprintf "%a" reference_pp v in
      String.equal (Value.to_string v) reference
      && String.equal (Format.asprintf "%a" Value.pp v) reference
      && String.equal (Value.message_to_string m)
           (Format.asprintf "%a" reference_pp_message m)
      && String.equal (Format.asprintf "%a" Value.pp_message m)
           (Format.asprintf "%a" reference_pp_message m))

let test_value_tuple_equal () =
  let t1 = Value.Tuple [ Int 1; Bool true ] in
  let t2 = Value.Tuple [ Int 1; Bool true ] in
  let t3 = Value.Tuple [ Int 1; Bool false ] in
  checkb "tuple equal" true (Value.equal t1 t2);
  checkb "tuple unequal" false (Value.equal t1 t3)

(* ------------------------------------------------------------------ *)
(* Dtype                                                              *)
(* ------------------------------------------------------------------ *)

let engine_mode = Dtype.enum "EngineMode" [ "Cranking"; "Running"; "Overrun" ]

let test_dtype_enum () =
  let v = Dtype.enum_value engine_mode "Running" in
  checkb "has type" true (Dtype.value_has_type v engine_mode);
  checkb "wrong literal rejected" true
    (try ignore (Dtype.enum_value engine_mode "Flying"); false
     with Invalid_argument _ -> true);
  checkb "duplicate literals rejected" true
    (try ignore (Dtype.enum "E" [ "A"; "A" ]); false
     with Invalid_argument _ -> true)

let test_dtype_defaults () =
  checkb "bool default" true
    (Dtype.value_has_type (Dtype.default_value Dtype.Tbool) Dtype.Tbool);
  checkb "enum default is first literal" true
    (Value.equal (Dtype.default_value engine_mode)
       (Value.Enum ("EngineMode", "Cranking")));
  let tup = Dtype.Ttuple [ Dtype.Tint; Dtype.Tfloat ] in
  checkb "tuple default" true
    (Dtype.value_has_type (Dtype.default_value tup) tup)

let test_dtype_compat () =
  checkb "int widens to float" true
    (Dtype.compatible ~src:Dtype.Tint ~dst:Dtype.Tfloat);
  checkb "float does not narrow" false
    (Dtype.compatible ~src:Dtype.Tfloat ~dst:Dtype.Tint);
  checkb "same enum" true (Dtype.compatible ~src:engine_mode ~dst:engine_mode)

let test_dtype_type_of_value () =
  checkb "int" true (Dtype.equal (Dtype.type_of_value (Int 4)) Dtype.Tint);
  checkb "tuple" true
    (Dtype.equal
       (Dtype.type_of_value (Tuple [ Int 1; Float 2. ]))
       (Dtype.Ttuple [ Dtype.Tint; Dtype.Tfloat ]))

(* ------------------------------------------------------------------ *)
(* Clock                                                              *)
(* ------------------------------------------------------------------ *)

let test_clock_every_canon () =
  (match Clock.canon (Clock.every 2 Clock.Base) with
   | Clock.Periodic { period; start } ->
     checki "period" 2 period; checki "start" 0 start
   | Clock.Aperiodic _ -> Alcotest.fail "expected periodic");
  match Clock.canon (Clock.every 3 (Clock.every 2 Clock.Base)) with
  | Clock.Periodic { period; start } ->
    checki "nested period" 6 period; checki "nested start" 0 start
  | Clock.Aperiodic _ -> Alcotest.fail "expected periodic"

let test_clock_shift () =
  match Clock.canon (Clock.shift 2 (Clock.every 5 Clock.Base)) with
  | Clock.Periodic { period; start } ->
    checki "period" 5 period;
    checki "start" 10 start
  | Clock.Aperiodic _ -> Alcotest.fail "expected periodic"

let test_clock_active_fig2 () =
  (* Fig. 2: every(2, true) updates a' every second tick, starting at t. *)
  let c = Clock.every 2 Clock.Base in
  let pattern = List.init 6 (Clock.active c) in
  Alcotest.(check (list bool)) "activity"
    [ true; false; true; false; true; false ]
    pattern

let test_clock_subclock () =
  let fast = Clock.every 2 Clock.Base in
  let slow = Clock.every 4 Clock.Base in
  checkb "slow sub fast" true (Clock.is_subclock ~sub:slow ~sup:fast);
  checkb "fast not sub slow" false (Clock.is_subclock ~sub:fast ~sup:slow);
  checkb "all sub base" true (Clock.is_subclock ~sub:slow ~sup:Clock.Base)

let test_clock_meet () =
  let c1 = Clock.every 4 Clock.Base in
  let c2 = Clock.every 6 Clock.Base in
  (match Clock.meet c1 c2 with
   | Some m ->
     (match Clock.canon m with
      | Clock.Periodic { period; start } ->
        checki "lcm period" 12 period;
        checki "start" 0 start
      | Clock.Aperiodic _ -> Alcotest.fail "periodic expected")
   | None -> Alcotest.fail "meet should exist");
  (* Disjoint progressions: start 0 step 2 vs start 1 step 2. *)
  let odd = Clock.every 2 (Clock.shift 1 Clock.Base) in
  let even = Clock.every 2 Clock.Base in
  checkb "disjoint" true (Clock.meet odd even = None)

let test_clock_meet_is_intersection =
  QCheck.Test.make ~name:"meet = activation intersection" ~count:300
    QCheck.(quad (int_range 1 6) (int_range 0 4) (int_range 1 6) (int_range 0 4))
    (fun (p1, s1, p2, s2) ->
      let c1 = Clock.every p1 (Clock.shift s1 Clock.Base) in
      let c2 = Clock.every p2 (Clock.shift s2 Clock.Base) in
      let both t = Clock.active c1 t && Clock.active c2 t in
      match Clock.meet c1 c2 with
      | None -> List.for_all (fun t -> not (both t)) (List.init 200 Fun.id)
      | Some m ->
        List.for_all (fun t -> Clock.active m t = both t) (List.init 200 Fun.id))

let test_clock_subclock_semantic =
  QCheck.Test.make ~name:"subclock implies activation inclusion" ~count:200
    QCheck.(quad (int_range 1 6) (int_range 0 3) (int_range 1 6) (int_range 0 3))
    (fun (p1, s1, p2, s2) ->
      let c1 = Clock.every p1 (Clock.shift s1 Clock.Base) in
      let c2 = Clock.every p2 (Clock.shift s2 Clock.Base) in
      if Clock.is_subclock ~sub:c1 ~sup:c2 then
        List.for_all
          (fun t -> (not (Clock.active c1 t)) || Clock.active c2 t)
          (List.init 150 Fun.id)
      else true)

let test_clock_event () =
  let e = Clock.event "crash" in
  let schedule name tick = String.equal name "crash" && tick = 3 in
  checkb "inactive without schedule" false (Clock.active e 3);
  checkb "active per schedule" true (Clock.active ~schedule e 3);
  checkb "inactive elsewhere" false (Clock.active ~schedule e 4);
  checkb "every-over-event rejected" true
    (try ignore (Clock.canon (Clock.every 2 e)); false
     with Clock.Invalid_clock _ -> true)

let test_clock_activation_index () =
  let c = Clock.every 3 Clock.Base in
  Alcotest.(check (option int)) "index at 6" (Some 2)
    (Clock.activation_index c 6);
  Alcotest.(check (option int)) "inactive" None (Clock.activation_index c 5)

let test_clock_period_ratio () =
  let fast = Clock.every 2 Clock.Base and slow = Clock.every 10 Clock.Base in
  Alcotest.(check (option int)) "ratio" (Some 5)
    (Clock.period_ratio ~fast ~slow);
  Alcotest.(check (option int)) "non-harmonic" None
    (Clock.period_ratio ~fast:(Clock.every 3 Clock.Base) ~slow)

(* ------------------------------------------------------------------ *)
(* Expr                                                               *)
(* ------------------------------------------------------------------ *)

let env_of bindings name =
  match List.assoc_opt name bindings with
  | Some v -> Value.Present v
  | None -> Value.Absent

let eval ?(tick = 0) ?(env = fun _ -> Value.Absent) e =
  fst (Expr.step ~tick ~env e (Expr.init_state e))

let test_expr_add_block () =
  (* Paper Sec. 3.2: block ADD defined by ch1 + ch2 + ch3. *)
  let e = Expr.(var "ch1" + var "ch2" + var "ch3") in
  let env = env_of [ ("ch1", Value.Int 1); ("ch2", Value.Int 2); ("ch3", Value.Int 3) ] in
  checkb "sum" true (Value.equal_message (eval ~env e) (Present (Int 6)))

let test_expr_absent_strictness () =
  let e = Expr.(var "a" + var "b") in
  let env = env_of [ ("a", Value.Int 1) ] in
  checkb "absent operand -> absent" true
    (Value.equal_message (eval ~env e) Value.Absent)

let test_expr_is_present () =
  let e = Expr.Is_present "a" in
  checkb "absent observed" true
    (Value.equal_message (eval e) (Present (Bool false)));
  let env = env_of [ ("a", Value.Int 0) ] in
  checkb "present observed" true
    (Value.equal_message (eval ~env e) (Present (Bool true)))

let run_stream e inputs =
  (* inputs : Value.message list per tick for variable "a". *)
  let rec go tick st acc = function
    | [] -> List.rev acc
    | msg :: rest ->
      let env name = if String.equal name "a" then msg else Value.Absent in
      let out, st' = Expr.step ~tick ~env e st in
      go (tick + 1) st' (out :: acc) rest
  in
  go 0 (Expr.init_state e) [] inputs

let present i = Value.Present (Value.Int i)

let test_expr_pre () =
  let e = Expr.pre (Value.Int 0) (Expr.var "a") in
  let outs = run_stream e [ present 1; present 2; Value.Absent; present 3 ] in
  let expected = [ present 0; present 1; Value.Absent; present 2 ] in
  checkb "pre stream" true (List.for_all2 Value.equal_message outs expected)

let test_expr_when_downsampling () =
  (* Fig. 2: a' = a when every(2, true). *)
  let e = Expr.when_ (Expr.var "a") (Clock.every 2 Clock.Base) in
  let outs = run_stream e (List.init 6 present) in
  let expected =
    [ present 0; Value.Absent; present 2; Value.Absent; present 4;
      Value.Absent ]
  in
  checkb "downsampled" true (List.for_all2 Value.equal_message outs expected)

let test_expr_current_hold () =
  let e =
    Expr.current (Value.Int (-1))
      (Expr.when_ (Expr.var "a") (Clock.every 3 Clock.Base))
  in
  let outs = run_stream e (List.init 7 present) in
  let expected =
    [ present 0; present 0; present 0; present 3; present 3; present 3;
      present 6 ]
  in
  checkb "held" true (List.for_all2 Value.equal_message outs expected)

let test_expr_if_strict_condition () =
  let e = Expr.if_ (Expr.var "a" |> fun c -> Expr.(c > int 0)) (Expr.int 1) (Expr.int 2) in
  checkb "absent condition" true (Value.equal_message (eval e) Value.Absent);
  let env = env_of [ ("a", Value.Int 5) ] in
  checkb "true branch" true (Value.equal_message (eval ~env e) (present 1))

let test_expr_typecheck () =
  let tenv name =
    match name with
    | "x" -> Some Dtype.Tint
    | "f" -> Some Dtype.Tfloat
    | "b" -> Some Dtype.Tbool
    | _ -> None
  in
  (match Expr.typecheck ~tenv Expr.(var "x" + var "f") with
   | Ok ty -> checkb "promotes to float" true (Dtype.equal ty Dtype.Tfloat)
   | Error e -> Alcotest.fail e);
  (match Expr.typecheck ~tenv Expr.(var "b" + var "x") with
   | Ok _ -> Alcotest.fail "bool + int should fail"
   | Error _ -> ());
  (match Expr.typecheck ~tenv (Expr.if_ (Expr.var "b") (Expr.var "x") (Expr.var "f")) with
   | Ok ty -> checkb "if joins numerics" true (Dtype.equal ty Dtype.Tfloat)
   | Error e -> Alcotest.fail e);
  match Expr.typecheck ~tenv (Expr.var "unknown") with
  | Ok _ -> Alcotest.fail "unknown var should fail"
  | Error _ -> ()

let test_expr_clock_inference () =
  let c2 = Clock.every 2 Clock.Base in
  let cenv name =
    match name with
    | "x" -> Some Clock.Base
    | "y" -> Some c2
    | _ -> None
  in
  (match Expr.clock_of ~cenv Expr.(var "x" + var "x") with
   | Ok c -> checkb "base" true (Clock.equal c Clock.Base)
   | Error e -> Alcotest.fail e);
  (match Expr.clock_of ~cenv Expr.(var "x" + var "y") with
   | Ok _ -> Alcotest.fail "mixed clocks must fail"
   | Error _ -> ());
  (match Expr.clock_of ~cenv (Expr.when_ (Expr.var "x") c2) with
   | Ok c -> checkb "sampled" true (Clock.equal c c2)
   | Error e -> Alcotest.fail e);
  match Expr.clock_of ~cenv Expr.(var "y" + when_ (var "x") c2) with
  | Ok c -> checkb "when aligns" true (Clock.equal c c2)
  | Error e -> Alcotest.fail e

let test_expr_when_bad_subclock () =
  let c2 = Clock.every 2 Clock.Base in
  let c3 = Clock.every 3 Clock.Base in
  let cenv name = if String.equal name "y" then Some c2 else None in
  match Expr.clock_of ~cenv (Expr.when_ (Expr.var "y") c3) with
  | Ok _ -> Alcotest.fail "3 is not a subclock of 2"
  | Error _ -> ()

let test_expr_free_vars () =
  let e = Expr.(var "a" + if_ (Is_present "b") (var "a") (var "c")) in
  Alcotest.(check (list string)) "free vars" [ "a"; "b"; "c" ]
    (Expr.free_vars e)

let test_expr_inst_dependency () =
  let e = Expr.(var "a" + pre (Value.Int 0) (var "b")) in
  checkb "a instantaneous" true (Expr.depends_instantaneously_on e "a");
  checkb "b delayed" false (Expr.depends_instantaneously_on e "b");
  checkb "memory detected" true (Expr.has_memory_operator e);
  checkb "memoryless" false Expr.(has_memory_operator (var "a" + int 1))

let test_expr_pre_state_stream =
  QCheck.Test.make ~name:"pre shifts any int stream" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 20) small_int)
    (fun xs ->
      let e = Expr.pre (Value.Int 0) (Expr.var "a") in
      let outs = run_stream e (List.map present xs) in
      let expected = List.map present (0 :: List.filteri (fun i _ -> i < List.length xs - 1) xs) in
      List.for_all2 Value.equal_message outs expected)

(* ------------------------------------------------------------------ *)
(* Block_lib                                                          *)
(* ------------------------------------------------------------------ *)

let test_block_lib_eval () =
  checkb "limit clamps" true
    (Value.equal (Block_lib.eval "limit" [ Float 9.; Float 0.; Float 5. ]) (Float 5.));
  checkb "deadband zeroes" true
    (Value.equal (Block_lib.eval "deadband" [ Float 0.3; Float 0.5 ]) (Float 0.));
  checkb "select" true
    (Value.equal (Block_lib.eval "select" [ Bool false; Int 1; Int 2 ]) (Int 2));
  checkb "interp1 midpoint" true
    (Value.equal
       (Block_lib.eval "interp1" [ Float 5.; Float 0.; Float 0.; Float 10.; Float 100. ])
       (Float 50.))

let test_block_lib_errors () =
  checkb "unknown raises" true
    (try ignore (Block_lib.eval "nope" []); false
     with Block_lib.Unknown_function _ -> true);
  checkb "arity raises" true
    (try ignore (Block_lib.eval "add" [ Int 1 ]); false
     with Block_lib.Arity_error _ -> true)

let test_block_lib_typing () =
  (match Block_lib.result_type "add" [ Dtype.Tint; Dtype.Tfloat ] with
   | Ok ty -> checkb "promote" true (Dtype.equal ty Dtype.Tfloat)
   | Error e -> Alcotest.fail e);
  (match Block_lib.result_type "select" [ Dtype.Tbool; Dtype.Tint; Dtype.Tint ] with
   | Ok ty -> checkb "select typed" true (Dtype.equal ty Dtype.Tint)
   | Error e -> Alcotest.fail e);
  match Block_lib.result_type "select" [ Dtype.Tint; Dtype.Tint; Dtype.Tint ] with
  | Ok _ -> Alcotest.fail "bad select must fail"
  | Error _ -> ()

let test_block_lib_arity_names () =
  checkb "all names have arity" true
    (List.for_all (fun n -> Block_lib.arity n <> None) Block_lib.names)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "automode-core"
    [ ( "ident",
        [ Alcotest.test_case "roundtrip" `Quick test_ident_roundtrip;
          Alcotest.test_case "child/parent" `Quick test_ident_child_parent;
          Alcotest.test_case "prefix" `Quick test_ident_prefix;
          Alcotest.test_case "invalid segments" `Quick test_ident_invalid;
          Alcotest.test_case "append" `Quick test_ident_append ] );
      ( "value",
        [ Alcotest.test_case "arith promotion" `Quick test_value_arith_promotion;
          Alcotest.test_case "division" `Quick test_value_division;
          Alcotest.test_case "type errors" `Quick test_value_type_errors;
          Alcotest.test_case "message pp" `Quick test_value_message_pp;
          Alcotest.test_case "tuple equality" `Quick test_value_tuple_equal ]
        @ qsuite
            [ test_value_compare_total; test_value_printers_match_format ] );
      ( "dtype",
        [ Alcotest.test_case "enums" `Quick test_dtype_enum;
          Alcotest.test_case "defaults" `Quick test_dtype_defaults;
          Alcotest.test_case "compatibility" `Quick test_dtype_compat;
          Alcotest.test_case "type_of_value" `Quick test_dtype_type_of_value ] );
      ( "clock",
        [ Alcotest.test_case "every canon" `Quick test_clock_every_canon;
          Alcotest.test_case "shift canon" `Quick test_clock_shift;
          Alcotest.test_case "fig2 activity" `Quick test_clock_active_fig2;
          Alcotest.test_case "subclock" `Quick test_clock_subclock;
          Alcotest.test_case "meet" `Quick test_clock_meet;
          Alcotest.test_case "event clocks" `Quick test_clock_event;
          Alcotest.test_case "activation index" `Quick test_clock_activation_index;
          Alcotest.test_case "period ratio" `Quick test_clock_period_ratio ]
        @ qsuite [ test_clock_meet_is_intersection; test_clock_subclock_semantic ] );
      ( "expr",
        [ Alcotest.test_case "ADD block" `Quick test_expr_add_block;
          Alcotest.test_case "absent strictness" `Quick test_expr_absent_strictness;
          Alcotest.test_case "is_present" `Quick test_expr_is_present;
          Alcotest.test_case "pre" `Quick test_expr_pre;
          Alcotest.test_case "when downsampling (fig2)" `Quick test_expr_when_downsampling;
          Alcotest.test_case "current hold" `Quick test_expr_current_hold;
          Alcotest.test_case "if strictness" `Quick test_expr_if_strict_condition;
          Alcotest.test_case "typecheck" `Quick test_expr_typecheck;
          Alcotest.test_case "clock inference" `Quick test_expr_clock_inference;
          Alcotest.test_case "when non-subclock" `Quick test_expr_when_bad_subclock;
          Alcotest.test_case "free vars" `Quick test_expr_free_vars;
          Alcotest.test_case "instantaneous deps" `Quick test_expr_inst_dependency ]
        @ qsuite [ test_expr_pre_state_stream ] );
      ( "block_lib",
        [ Alcotest.test_case "eval" `Quick test_block_lib_eval;
          Alcotest.test_case "errors" `Quick test_block_lib_errors;
          Alcotest.test_case "typing" `Quick test_block_lib_typing;
          Alcotest.test_case "arity table" `Quick test_block_lib_arity_names ] ) ]
