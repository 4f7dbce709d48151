open Automode_robust

(* The PRNG is the same Random.State machinery the fault catalog seeds
   per (seed, tick, flow): a fixed algorithm, so expansion is stable
   across runs, engines and domains. *)
type rand = Random.State.t

let draw_int st n =
  if n < 1 then invalid_arg "Opgen.draw_int: bound must be positive";
  Random.State.int st n

let draw_pick st = function
  | [] -> invalid_arg "Opgen.draw_pick: empty list"
  | xs -> List.nth xs (Random.State.int st (List.length xs))

type t = {
  gen_name : string;
  gen_weight : int;
  draw : rand -> horizon:int -> Op.t;
}

let make ~name ?(weight = 1) draw =
  if weight < 0 then invalid_arg "Opgen.make: negative weight";
  { gen_name = name; gen_weight = weight; draw }

let name g = g.gen_name
let weight g = g.gen_weight

(* Windows are drawn so they end within the horizon whenever the hold
   fits at all — operations never dangle past the end of the run. *)
let draw_window st ~horizon ~max_hold =
  let hold = 1 + draw_int st max_hold in
  let hold = min hold horizon in
  let at = draw_int st (max 1 (horizon - hold + 1)) in
  (at, hold)

let command ?weight ?(hold = 1) ~flow ~values () =
  if values = [] then invalid_arg "Opgen.command: empty value list";
  make ~name:(Printf.sprintf "cmd:%s" flow) ?weight (fun st ~horizon ->
      let value = draw_pick st values in
      let at = draw_int st (max 1 (horizon - hold + 1)) in
      Op.command ~flow ~value ~at ~hold ())

let silence ?weight ?(max_hold = 4) ~flow () =
  make ~name:(Printf.sprintf "silence:%s" flow) ?weight (fun st ~horizon ->
      let at, hold = draw_window st ~horizon ~max_hold in
      Op.silence ~flow ~at ~hold)

let spike ?weight ?(max_hold = 4) ~flow ~values () =
  if values = [] then invalid_arg "Opgen.spike: empty value list";
  make ~name:(Printf.sprintf "spike:%s" flow) ?weight (fun st ~horizon ->
      let value = draw_pick st values in
      let at, hold = draw_window st ~horizon ~max_hold in
      Op.inject
        (Fault.spike ~flow ~value
           (Fault.Window { from_tick = at; until_tick = at + hold })))

let reset ?weight ?(max_down = 4) ~flows () =
  make
    ~name:(Printf.sprintf "reset:%s" (String.concat "," flows))
    ?weight
    (fun st ~horizon ->
      let at, down = draw_window st ~horizon ~max_hold:max_down in
      Op.reset ~flows ~at ~down)

let crash ?weight ~flows () =
  make
    ~name:(Printf.sprintf "crash:%s" (String.concat "," flows))
    ?weight
    (fun st ~horizon -> Op.crash ~flows ~at:(draw_int st horizon))

let fault ?weight ~name draw =
  make ~name ?weight (fun st ~horizon -> Op.inject (draw st ~horizon))

(* Weighted pick over the cumulative weight line. *)
let pick_gen st gens ~total =
  let roll = draw_int st total in
  let rec go acc = function
    | [] -> assert false
    | g :: rest ->
      let acc = acc + g.gen_weight in
      if roll < acc then g else go acc rest
  in
  go 0 gens

(* A fresh PRNG per (seed, iteration) — mixing both through the seed
   array keeps every iteration of every seed an independent, replayable
   stream.  The salt keeps proptest streams decorrelated from the fault
   catalog's per-(seed, tick, flow) streams built the same way. *)
let sequence_rand ~seed ~iteration =
  Random.State.make [| 0x9e3779b9; seed; iteration |]

let expand ~gens ~min_ops ~max_ops ~horizon ~seed ~iteration =
  if min_ops < 0 then invalid_arg "Opgen.expand: negative min_ops";
  if max_ops < min_ops then invalid_arg "Opgen.expand: max_ops < min_ops";
  if horizon < 1 then invalid_arg "Opgen.expand: horizon must be positive";
  let total = List.fold_left (fun acc g -> acc + g.gen_weight) 0 gens in
  if total <= 0 then invalid_arg "Opgen.expand: total generator weight is 0";
  let st = sequence_rand ~seed ~iteration in
  let count = min_ops + draw_int st (max_ops - min_ops + 1) in
  let ops =
    List.init count (fun _ -> (pick_gen st gens ~total).draw st ~horizon)
  in
  List.stable_sort (fun a b -> compare (Op.start_tick a) (Op.start_tick b)) ops
