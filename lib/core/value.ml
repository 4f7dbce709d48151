type t =
  | Bool of bool
  | Int of int
  | Float of float
  | Enum of string * string
  | Tuple of t list

type message = Absent | Present of t

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let rec equal a b =
  match a, b with
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Enum (t1, l1), Enum (t2, l2) -> String.equal t1 t2 && String.equal l1 l2
  | Tuple xs, Tuple ys -> List.equal equal xs ys
  | (Bool _ | Int _ | Float _ | Enum _ | Tuple _), _ -> false

let rec compare a b =
  match a, b with
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Enum (t1, l1), Enum (t2, l2) ->
    let c = String.compare t1 t2 in
    if c <> 0 then c else String.compare l1 l2
  | Tuple xs, Tuple ys -> List.compare compare xs ys
  | Bool _, (Int _ | Float _ | Enum _ | Tuple _) -> -1
  | Int _, (Float _ | Enum _ | Tuple _) -> -1
  | Float _, (Enum _ | Tuple _) -> -1
  | Enum _, Tuple _ -> -1
  | Int _, Bool _ -> 1
  | Float _, (Bool _ | Int _) -> 1
  | Enum _, (Bool _ | Int _ | Float _) -> 1
  | Tuple _, (Bool _ | Int _ | Float _ | Enum _) -> 1

(* The one renderer: each value renders directly, with no formatter in
   between.  A tuple has no break hint inside, so [pp] printing this
   string lays out exactly as a formatter walking the value would. *)
let rec to_string = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Enum (_, lit) -> lit
  | Tuple vs -> "(" ^ String.concat ", " (List.map to_string vs) ^ ")"

let pp ppf v = Format.pp_print_string ppf (to_string v)

let equal_message m1 m2 =
  match m1, m2 with
  | Absent, Absent -> true
  | Present a, Present b -> equal a b
  | (Absent | Present _), _ -> false

let message_to_string = function
  | Absent -> "-"
  | Present v -> to_string v

let pp_message ppf m = Format.pp_print_string ppf (message_to_string m)

(* Numeric promotion: Int op Int -> Int, any Float -> Float. *)
let numeric2 name int_op float_op a b =
  match a, b with
  | Int x, Int y -> Int (int_op x y)
  | Float x, Float y -> Float (float_op x y)
  | Int x, Float y -> Float (float_op (float_of_int x) y)
  | Float x, Int y -> Float (float_op x (float_of_int y))
  | (Bool _ | Enum _ | Tuple _), _ | _, (Bool _ | Enum _ | Tuple _) ->
    type_error "%s: non-numeric operands %a, %a" name pp a pp b

let add = numeric2 "add" ( + ) ( +. )
let sub = numeric2 "sub" ( - ) ( -. )
let mul = numeric2 "mul" ( * ) ( *. )

let div a b =
  match a, b with
  | Int _, Int 0 -> raise Division_by_zero
  | _ -> numeric2 "div" ( / ) ( /. ) a b

let modulo a b =
  match a, b with
  | Int _, Int 0 -> raise Division_by_zero
  | Int x, Int y -> Int (x mod y)
  | _ -> type_error "mod: non-integer operands %a, %a" pp a pp b

let neg = function
  | Int x -> Int (-x)
  | Float x -> Float (-.x)
  | (Bool _ | Enum _ | Tuple _) as v -> type_error "neg: non-numeric %a" pp v

let abs = function
  | Int x -> Int (Stdlib.abs x)
  | Float x -> Float (Float.abs x)
  | (Bool _ | Enum _ | Tuple _) as v -> type_error "abs: non-numeric %a" pp v

let min_v = numeric2 "min" Stdlib.min Float.min
let max_v = numeric2 "max" Stdlib.max Float.max

let truth = function
  | Bool b -> b
  | (Int _ | Float _ | Enum _ | Tuple _) as v ->
    type_error "expected bool, got %a" pp v

let logical_and a b = Bool (truth a && truth b)
let logical_or a b = Bool (truth a || truth b)
let logical_not a = Bool (not (truth a))

let to_float = function
  | Int x -> float_of_int x
  | Float x -> x
  | (Bool _ | Enum _ | Tuple _) as v -> type_error "expected number, got %a" pp v

let to_int = function
  | Int x -> x
  | (Bool _ | Float _ | Enum _ | Tuple _) as v ->
    type_error "expected int, got %a" pp v

let cmp name op a b =
  match a, b with
  | (Int _ | Float _), (Int _ | Float _) -> Bool (op (to_float a) (to_float b))
  | (Bool _ | Enum _ | Tuple _), _ | _, (Bool _ | Enum _ | Tuple _) ->
    type_error "%s: non-numeric operands %a, %a" name pp a pp b

let lt = cmp "lt" ( < )
let le = cmp "le" ( <= )
let gt = cmp "gt" ( > )
let ge = cmp "ge" ( >= )
let eq a b = Bool (equal a b)
let ne a b = Bool (not (equal a b))
