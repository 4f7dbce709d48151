let rec size : Expr.t -> int = function
  | Expr.Const _ | Expr.Var _ | Expr.Is_present _ -> 1
  | Expr.Unop (_, e) | Expr.Pre (_, e) | Expr.When (e, _) | Expr.Current (_, e)
    -> 1 + size e
  | Expr.Binop (_, a, b) -> 1 + size a + size b
  | Expr.If (c, a, b) -> 1 + size c + size a + size b
  | Expr.Call (_, args) ->
    1 + List.fold_left (fun acc a -> acc + size a) 0 args

(* Fold a closed operator application faithfully: on a run-time failure
   (type error, division by zero, unknown function) the term is left
   untouched so the error still happens at the original evaluation site.
   A NaN result is left unfolded too: [Const nan] is unequal to itself,
   so the fixpoint below could never see the pass converge. *)
let try_fold f original =
  match f () with
  | Expr.Const (Value.Float x) when Float.is_nan x -> original
  | folded -> folded
  | exception
      ( Value.Type_error _ | Division_by_zero | Invalid_argument _
      | Block_lib.Unknown_function _ | Block_lib.Arity_error _ ) ->
    original

let fold_unop op v original =
  try_fold
    (fun () ->
      Expr.Const
        (match op with
         | Expr.Neg -> Value.neg v
         | Expr.Not -> Value.logical_not v
         | Expr.Abs -> Value.abs v))
    original

let fold_binop op a b original =
  try_fold
    (fun () ->
      Expr.Const
        (match op with
         | Expr.Add -> Value.add a b
         | Expr.Sub -> Value.sub a b
         | Expr.Mul -> Value.mul a b
         | Expr.Div -> Value.div a b
         | Expr.Mod -> Value.modulo a b
         | Expr.And -> Value.logical_and a b
         | Expr.Or -> Value.logical_or a b
         | Expr.Eq -> Value.eq a b
         | Expr.Ne -> Value.ne a b
         | Expr.Lt -> Value.lt a b
         | Expr.Le -> Value.le a b
         | Expr.Gt -> Value.gt a b
         | Expr.Ge -> Value.ge a b
         | Expr.Min -> Value.min_v a b
         | Expr.Max -> Value.max_v a b))
    original

(* Neutral elements are integer constants only: arithmetic with an [Int]
   constant keeps the other operand's type ([Float] stays [Float]), while
   a [Float] constant promotes an [Int] operand ([x * 1.0] is a [Float]),
   so dropping it would change the result's type. *)
let is_zero = function
  | Value.Int 0 -> true
  | Value.Int _ | Value.Float _ | Value.Bool _ | Value.Enum _ | Value.Tuple _
    -> false

let is_one = function
  | Value.Int 1 -> true
  | Value.Int _ | Value.Float _ | Value.Bool _ | Value.Enum _ | Value.Tuple _
    -> false

let negated_cmp = function
  | Expr.Eq -> Some Expr.Ne
  | Expr.Ne -> Some Expr.Eq
  | Expr.Lt -> Some Expr.Ge
  | Expr.Le -> Some Expr.Gt
  | Expr.Gt -> Some Expr.Le
  | Expr.Ge -> Some Expr.Lt
  | Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Mod | Expr.And
  | Expr.Or | Expr.Min | Expr.Max -> None

(* One bottom-up pass. *)
let rec pass (e : Expr.t) : Expr.t =
  match e with
  | Expr.Const _ | Expr.Var _ | Expr.Is_present _ -> e
  | Expr.Unop (op, a) ->
    let a = pass a in
    (match op, a with
     | _, Expr.Const v -> fold_unop op v (Expr.Unop (op, a))
     | Expr.Not, Expr.Unop (Expr.Not, inner) -> inner
     | Expr.Not, Expr.Binop (cmp, x, y) ->
       (match negated_cmp cmp with
        | Some cmp' -> Expr.Binop (cmp', x, y)
        | None -> Expr.Unop (op, a))
     | Expr.Neg, Expr.Unop (Expr.Neg, inner) -> inner
     | (Expr.Neg | Expr.Not | Expr.Abs), _ -> Expr.Unop (op, a))
  | Expr.Binop (op, a, b) ->
    let a = pass a and b = pass b in
    (match op, a, b with
     | _, Expr.Const va, Expr.Const vb ->
       fold_binop op va vb (Expr.Binop (op, a, b))
     (* neutral element on the constant side: presence follows the other
        operand either way, so dropping the constant is sound *)
     | (Expr.Add | Expr.Sub), other, Expr.Const z when is_zero z -> other
     | Expr.Add, Expr.Const z, other when is_zero z -> other
     | Expr.Mul, other, Expr.Const o when is_one o -> other
     | Expr.Mul, Expr.Const o, other when is_one o -> other
     | Expr.Div, other, Expr.Const o when is_one o -> other
     | Expr.And, other, Expr.Const (Value.Bool true) -> other
     | Expr.And, Expr.Const (Value.Bool true), other -> other
     | Expr.Or, other, Expr.Const (Value.Bool false) -> other
     | Expr.Or, Expr.Const (Value.Bool false), other -> other
     | _, _, _ -> Expr.Binop (op, a, b))
  | Expr.If (c, a, b) ->
    let c = pass c and a = pass a and b = pass b in
    (match c with
     | Expr.Const (Value.Bool true) -> a
     | Expr.Const (Value.Bool false) -> b
     | Expr.Const _ when a = b -> a
     | _ -> Expr.If (c, a, b))
  | Expr.Pre (init, a) -> Expr.Pre (init, pass a)
  | Expr.When (a, c) ->
    let a = pass a in
    (match a, c with
     | _, Clock.Base -> a
     | Expr.When (inner, c') , _ when Clock.equal c c' -> Expr.When (inner, c)
     | _, _ -> Expr.When (a, c))
  | Expr.Current (init, a) ->
    let a = pass a in
    (match a with
     | Expr.Const _ -> a (* a constant is always present: current is identity *)
     | _ -> Expr.Current (init, a))
  | Expr.Call (name, args) ->
    let args = List.map pass args in
    let all_const =
      List.filter_map
        (function Expr.Const v -> Some v | _ -> None)
        args
    in
    if List.length all_const = List.length args then
      try_fold
        (fun () -> Expr.Const (Block_lib.eval name all_const))
        (Expr.Call (name, args))
    else Expr.Call (name, args)

let expr e =
  let rec fixpoint e budget =
    let e' = pass e in
    if e' = e || budget = 0 then e' else fixpoint e' (budget - 1)
  in
  fixpoint e 16

let rec behavior (b : Model.behavior) : Model.behavior =
  match b with
  | Model.B_exprs outs ->
    Model.B_exprs (List.map (fun (port, e) -> (port, expr e)) outs)
  | Model.B_std std ->
    Model.B_std
      { std with
        Model.std_transitions =
          List.map
            (fun (t : Model.std_transition) ->
              { t with
                Model.st_guard = expr t.st_guard;
                st_outputs = List.map (fun (p, e) -> (p, expr e)) t.st_outputs;
                st_updates = List.map (fun (v, e) -> (v, expr e)) t.st_updates })
            std.Model.std_transitions }
  | Model.B_mtd mtd ->
    Model.B_mtd
      { mtd with
        Model.mtd_modes =
          List.map
            (fun (m : Model.mode) ->
              { m with Model.mode_behavior = behavior m.mode_behavior })
            mtd.Model.mtd_modes;
        mtd_transitions =
          List.map
            (fun (t : Model.mtd_transition) ->
              { t with Model.mt_guard = expr t.mt_guard })
            mtd.Model.mtd_transitions }
  | Model.B_dfd net -> Model.B_dfd (network net)
  | Model.B_ssd net -> Model.B_ssd (network net)
  | Model.B_unspecified -> Model.B_unspecified

and network (net : Model.network) : Model.network =
  { net with
    Model.net_components =
      List.map
        (fun (c : Model.component) ->
          { c with Model.comp_behavior = behavior c.comp_behavior })
        net.Model.net_components }

let component (c : Model.component) =
  { c with Model.comp_behavior = behavior c.comp_behavior }

let model (m : Model.model) =
  { m with Model.model_root = component m.Model.model_root }
