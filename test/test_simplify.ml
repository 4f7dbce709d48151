(* Tests for the expression/model simplifier: rule-level unit tests plus
   the central property — simplification never changes an expression's
   message semantics (value AND presence) on random expressions, random
   environments, and random ticks. *)

open Automode_core

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let eval ?(tick = 0) ?(env = fun _ -> Value.Absent) e =
  fst (Expr.step ~tick ~env e (Expr.init_state e))

let simp_equal msg e expected =
  let got = Simplify.expr e in
  Alcotest.(check string) msg (Expr.to_string expected) (Expr.to_string got)

(* ------------------------------------------------------------------ *)
(* Rule-level tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_constant_folding () =
  simp_equal "arith" Expr.(int 2 + (int 3 * int 4)) (Expr.int 14);
  simp_equal "comparison" Expr.(float 1. < float 2.) (Expr.bool true);
  simp_equal "nested bool"
    Expr.(bool true && not_ (bool false))
    (Expr.bool true);
  simp_equal "call" (Expr.Call ("limit", [ Expr.float 12.; Expr.float 0.; Expr.float 5. ]))
    (Expr.float 5.)

let test_folding_preserves_errors () =
  (* division by zero must NOT be folded away (nor raise at simplify time) *)
  let e = Expr.(int 1 / int 0) in
  simp_equal "div by zero kept" e e;
  let bad = Expr.(bool true + int 1) in
  simp_equal "type error kept" bad bad;
  (* a NaN constant would be unequal to itself: the division stays *)
  let nan = Expr.(float 0. / int 0) in
  simp_equal "nan kept" nan nan;
  checkb "idempotent on nan" true (Simplify.expr nan = nan)

let test_neutral_elements () =
  simp_equal "x + 0" Expr.(var "x" + int 0) (Expr.var "x");
  simp_equal "0 + x" Expr.(int 0 + var "x") (Expr.var "x");
  simp_equal "x - 0" Expr.(var "x" - int 0) (Expr.var "x");
  simp_equal "x * 1" Expr.(var "x" * int 1) (Expr.var "x");
  simp_equal "x / 1" Expr.(var "x" / int 1) (Expr.var "x");
  simp_equal "b && true" Expr.(var "b" && bool true) (Expr.var "b");
  simp_equal "false || b" Expr.(bool false || var "b") (Expr.var "b")

let test_float_neutral_keeps_promotion () =
  (* QCheck counterexample: dropping the Float [1.0] next to an Int
     operand turned the promoted [Float 3.] back into [Int 3] *)
  let e =
    Expr.current (Value.Int 0)
      Expr.(
        when_ (Unop (Neg, int (-3))) (Clock.every 2 Clock.Base) * float 1.)
  in
  let expected = Value.Present (Value.Float 3.) in
  checkb "original steps to Float 3." true
    (Value.equal_message (eval e) expected);
  checkb "simplified steps to Float 3." true
    (Value.equal_message (eval (Simplify.expr e)) expected);
  let x_plus = Expr.(var "x" + float 0.) in
  simp_equal "x + 0.0 kept" x_plus x_plus

let test_unsafe_rules_not_applied () =
  (* x * 0 -> 0 would change presence: the product is absent when x is *)
  let e = Expr.(var "x" * int 0) in
  simp_equal "x * 0 kept" e e;
  (* b && false likewise *)
  let e2 = Expr.(var "b" && bool false) in
  simp_equal "b && false kept" e2 e2

let test_if_collapse () =
  simp_equal "if true" (Expr.if_ (Expr.bool true) (Expr.var "a") (Expr.var "b"))
    (Expr.var "a");
  simp_equal "if false" (Expr.if_ (Expr.bool false) (Expr.var "a") (Expr.var "b"))
    (Expr.var "b");
  (* variable condition: collapsing equal branches would change presence *)
  let e = Expr.if_ (Expr.var "c") (Expr.var "a") (Expr.var "a") in
  simp_equal "if var kept" e e

let test_negation_rules () =
  simp_equal "double not" (Expr.not_ (Expr.not_ (Expr.var "b"))) (Expr.var "b");
  simp_equal "not <" (Expr.not_ Expr.(var "x" < var "y"))
    Expr.(var "x" >= var "y")

let test_clock_rules () =
  let c2 = Clock.every 2 Clock.Base in
  simp_equal "when base" (Expr.when_ (Expr.var "x") Clock.Base) (Expr.var "x");
  simp_equal "nested same when"
    (Expr.when_ (Expr.when_ (Expr.var "x") c2) c2)
    (Expr.when_ (Expr.var "x") c2);
  let c3 = Clock.every 3 Clock.Base in
  let e = Expr.when_ (Expr.when_ (Expr.var "x") c2) c3 in
  simp_equal "different clocks kept" e e

let test_current_of_const () =
  simp_equal "current of const"
    (Expr.current (Value.Int 0) (Expr.int 5))
    (Expr.int 5)

let test_size_reduction_on_reengineered () =
  (* the symbolic execution output shrinks measurably *)
  let model, _ = Automode_transform.Reengineer.whitebox ~simplify:false
      (Automode_ascet.Ascet_parser.parse
         {|module M
input x : float = 0.0
output o : float = 0.0
task t period 1
process p on t {
  local a : float = 2.0;
  local b : float = 3.0;
  send o x * a * b + (1.0 - 1.0);
}
|})
  in
  let comp = model.Model.model_root in
  let total c =
    let n = ref 0 in
    Model.iter_components
      (fun _ (sub : Model.component) ->
        match sub.comp_behavior with
        | Model.B_exprs outs ->
          List.iter (fun (_, e) -> n := !n + Simplify.size e) outs
        | _ -> ())
      c;
    !n
  in
  let before = total comp in
  let after = total (Simplify.component comp) in
  checkb "simplification shrinks" true (after < before)

(* ------------------------------------------------------------------ *)
(* The semantics-preservation property                                *)
(* ------------------------------------------------------------------ *)

(* Random expression generator over variables v0..v3 (ints/bools mixed to
   also exercise the error-preservation paths). *)
let gen_expr : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let var_name = map (Printf.sprintf "v%d") (int_range 0 3) in
  let leaf =
    oneof
      [ map (fun i -> Expr.int i) (int_range (-5) 5);
        map (fun b -> Expr.bool b) bool;
        map (fun f -> Expr.float (float_of_int f)) (int_range (-3) 3);
        map Expr.var var_name;
        map (fun v -> Expr.Is_present v) var_name ]
  in
  let binop =
    oneofl
      [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.And; Expr.Or; Expr.Eq;
        Expr.Lt; Expr.Le; Expr.Min; Expr.Max ]
  in
  let unop = oneofl [ Expr.Neg; Expr.Not; Expr.Abs ] in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (2, leaf);
            (3, map3 (fun op a b -> Expr.Binop (op, a, b)) binop
                 (self (depth - 1)) (self (depth - 1)));
            (1, map2 (fun op a -> Expr.Unop (op, a)) unop (self (depth - 1)));
            (2, map3 (fun c a b -> Expr.If (c, a, b)) (self (depth - 1))
                 (self (depth - 1)) (self (depth - 1)));
            (1, map (fun a -> Expr.pre (Value.Int 0) a) (self (depth - 1)));
            (1, map (fun a -> Expr.when_ a (Clock.every 2 Clock.Base))
                 (self (depth - 1)));
            (1, map (fun a -> Expr.current (Value.Int 0) a) (self (depth - 1)));
            (1, map2 (fun a b -> Expr.Call ("add", [ a; b ]))
                 (self (depth - 1)) (self (depth - 1))) ])
    4

let arb_expr = QCheck.make ~print:Expr.to_string gen_expr

(* Run both expressions over a deterministic random input stream and
   compare messages tick by tick; runtime errors must coincide too. *)
let streams_agree seed e1 e2 =
  let n = 16 in
  let env_at tick name =
    let st = Random.State.make [| seed; tick; Hashtbl.hash name |] in
    if Random.State.int st 4 = 0 then Value.Absent
    else
      match Random.State.int st 3 with
      | 0 -> Value.Present (Value.Int (Random.State.int st 11 - 5))
      | 1 -> Value.Present (Value.Bool (Random.State.bool st))
      | _ -> Value.Present (Value.Float (float_of_int (Random.State.int st 7)))
  in
  let step_all e =
    let rec go tick st acc =
      if tick = n then List.rev acc
      else
        let result =
          try
            let m, st' = Expr.step ~tick ~env:(env_at tick) e st in
            Ok (m, st')
          with Expr.Eval_error _ | Division_by_zero -> Error ()
        in
        match result with
        | Ok (m, st') -> go (tick + 1) st' (Some m :: acc)
        | Error () -> List.rev (None :: acc)
    in
    go 0 (Expr.init_state e) []
  in
  let s1 = step_all e1 and s2 = step_all e2 in
  (* Soundness contract (see Simplify's doc): for runs on which the
     original expression evaluates without run-time type errors, the
     simplified one must produce the identical message stream and no
     error either.  Ill-typed originals are exempt: the neutral-element
     rules assume well-typedness, like any optimizer. *)
  if List.exists Option.is_none s1 then true
  else
    List.length s1 = List.length s2
    && List.for_all2
         (fun a b ->
           match a, b with
           | Some m1, Some m2 -> Value.equal_message m1 m2
           | None, _ | _, None -> false)
         s1 s2

let prop_simplify_preserves_semantics =
  QCheck.Test.make ~name:"simplify preserves message semantics" ~count:500
    arb_expr
    (fun e -> streams_agree 7 e (Simplify.expr e))

let prop_simplify_never_grows =
  QCheck.Test.make ~name:"simplify never grows expressions" ~count:500
    arb_expr
    (fun e -> Simplify.size (Simplify.expr e) <= Simplify.size e)

let prop_simplify_idempotent =
  QCheck.Test.make ~name:"simplify is idempotent" ~count:300 arb_expr
    (fun e ->
      let once = Simplify.expr e in
      Simplify.expr once = once)

(* Behavior-level: simplifying a whole reengineered model preserves its
   simulated trace. *)
let test_simplify_model_trace () =
  let m = Automode_casestudy.Engine_ascet.ascet_model in
  let model, _ = Automode_transform.Reengineer.whitebox m in
  let simplified = Simplify.model model in
  let inputs tick =
    List.map
      (fun (n, v) -> (n, Value.Present v))
      (Automode_casestudy.Engine_ascet.drive_inputs tick)
  in
  let t1 = Sim.run ~ticks:250 ~inputs model.Model.model_root in
  let t2 = Sim.run ~ticks:250 ~inputs simplified.Model.model_root in
  checkb "traces equal" true (Trace.equal t1 t2)

let test_simplify_sizes () =
  checki "const" 1 (Simplify.size (Expr.int 3));
  checki "binop" 3 (Simplify.size Expr.(var "x" + int 1));
  checki "call" 3 (Simplify.size (Expr.Call ("abs", [ Expr.var "x"; Expr.int 1 ])))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  ignore eval;
  Alcotest.run "automode-simplify"
    [ ( "rules",
        [ Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "errors preserved" `Quick test_folding_preserves_errors;
          Alcotest.test_case "neutral elements" `Quick test_neutral_elements;
          Alcotest.test_case "float neutral keeps promotion" `Quick
            test_float_neutral_keeps_promotion;
          Alcotest.test_case "unsafe rules absent" `Quick test_unsafe_rules_not_applied;
          Alcotest.test_case "if collapse" `Quick test_if_collapse;
          Alcotest.test_case "negation" `Quick test_negation_rules;
          Alcotest.test_case "clocks" `Quick test_clock_rules;
          Alcotest.test_case "current of const" `Quick test_current_of_const;
          Alcotest.test_case "reengineered shrinks" `Quick test_size_reduction_on_reengineered;
          Alcotest.test_case "size" `Quick test_simplify_sizes ] );
      ( "properties",
        qsuite
          [ prop_simplify_preserves_semantics; prop_simplify_never_grows;
            prop_simplify_idempotent ] );
      ( "model-level",
        [ Alcotest.test_case "reengineered trace preserved" `Quick
            test_simplify_model_trace ] ) ]
