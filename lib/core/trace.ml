type t = {
  flow_names : string list;
  (* newest tick first; each tick is an assoc list over flow_names *)
  rev_ticks : (string * Value.message) list list;
  n_ticks : int;  (* List.length rev_ticks *)
}

let make ~flows = { flow_names = flows; rev_ticks = []; n_ticks = 0 }

let record t tick_msgs =
  let tick =
    List.map
      (fun flow ->
        match List.assoc_opt flow tick_msgs with
        | Some msg -> (flow, msg)
        | None -> (flow, Value.Absent))
      t.flow_names
  in
  { t with rev_ticks = tick :: t.rev_ticks; n_ticks = t.n_ticks + 1 }

(* The caller guarantees [tick_msgs] covers every flow, in flow order —
   the per-flow assoc projection of [record] is skipped entirely (the
   batched engine builds its rows in flow order already). *)
let record_ordered t tick_msgs =
  { t with rev_ticks = tick_msgs :: t.rev_ticks; n_ticks = t.n_ticks + 1 }

let length t = t.n_ticks

(* The newest-first rows make the first [n] ticks a suffix of the row
   list: drop the [length - n] newest rows and share the rest. *)
let prefix t n =
  if n < 0 then invalid_arg "Trace.prefix: negative length";
  if n >= t.n_ticks then t
  else
    let rec drop k rows =
      if k = 0 then rows else drop (k - 1) (List.tl rows)
    in
    { t with rev_ticks = drop (t.n_ticks - n) t.rev_ticks; n_ticks = n }

let flows t = t.flow_names
let ticks t = List.rev t.rev_ticks

let row_get row flow =
  match List.assoc_opt flow row with
  | Some msg -> msg
  | None -> Value.Absent

let get t ~flow ~tick =
  if not (List.mem flow t.flow_names) then raise Not_found;
  (* rev_ticks is newest-first: tick [i] lives at index [length - 1 - i];
     a single nth walk avoids reversing (and allocating) the tick list on
     every call. *)
  let n = t.n_ticks in
  if tick < 0 || tick >= n then Value.Absent
  else
    match List.nth_opt t.rev_ticks (n - 1 - tick) with
    | None -> Value.Absent
    | Some row -> row_get row flow

let column t flow =
  if not (List.mem flow t.flow_names) then raise Not_found;
  List.map
    (fun row ->
      match List.assoc_opt flow row with
      | Some msg -> msg
      | None -> Value.Absent)
    (ticks t)

(* Every column in one walk over the rows.  Rows recorded through
   [record] (and [record_ordered]'s contract) are already in flow-name
   order, so each row zips against the column list directly; a row that
   is not in order falls back to the assoc lookup per flow. *)
let columns t =
  let n = t.n_ticks in
  let cols = List.map (fun f -> (f, Array.make n Value.Absent)) t.flow_names in
  List.iteri
    (fun i row ->
      let tick = n - 1 - i in
      let rec go cs r =
        match cs with
        | [] -> ()
        | (f, arr) :: cs' ->
          (match r with
           | (f', msg) :: r' when String.equal f f' ->
             arr.(tick) <- msg;
             go cs' r'
           | _ ->
             arr.(tick) <- row_get row f;
             go cs' r)
      in
      go cols row)
    t.rev_ticks;
  cols

let equal_on ~flows:fs a b =
  length a = length b
  && List.for_all
       (fun flow ->
         let ca = try column a flow with Not_found -> [] in
         let cb = try column b flow with Not_found -> [] in
         List.length ca = List.length cb
         && List.for_all2 Value.equal_message ca cb)
       fs

let equal a b =
  let sa = List.sort String.compare a.flow_names in
  let sb = List.sort String.compare b.flow_names in
  List.equal String.equal sa sb && equal_on ~flows:sa a b

let first_divergence a b =
  let common =
    List.filter (fun f -> List.mem f b.flow_names) a.flow_names
  in
  (* One parallel walk over both tick lists: O(ticks * flows) instead of
     the O(ticks^2 * flows) of a per-tick [get].  Ticks past the shorter
     trace's end read as all-absent rows. *)
  let rec scan tick rows_a rows_b =
    match rows_a, rows_b with
    | [], [] -> None
    | _, _ ->
      let row_a, rest_a =
        match rows_a with r :: rest -> (r, rest) | [] -> ([], [])
      in
      let row_b, rest_b =
        match rows_b with r :: rest -> (r, rest) | [] -> ([], [])
      in
      (match
         List.find_opt
           (fun flow ->
             not
               (Value.equal_message (row_get row_a flow) (row_get row_b flow)))
           common
       with
       | Some flow ->
         Some (tick, flow, row_get row_a flow, row_get row_b flow)
       | None -> scan (tick + 1) rest_a rest_b)
  in
  scan 0 (ticks a) (ticks b)

let restrict t keep =
  let keep = List.filter (fun f -> List.mem f t.flow_names) keep in
  { t with
    flow_names = keep;
    rev_ticks =
      List.map
        (fun row -> List.filter (fun (f, _) -> List.mem f keep) row)
        t.rev_ticks }

let rename t mapping =
  let map_name f =
    match List.assoc_opt f mapping with Some f' -> f' | None -> f
  in
  { t with
    flow_names = List.map map_name t.flow_names;
    rev_ticks =
      List.map (fun row -> List.map (fun (f, m) -> (map_name f, m)) row)
        t.rev_ticks }

let pp ppf t =
  let all = ticks t in
  let n = List.length all in
  let width_of flow =
    let cells =
      Value.message_to_string Value.Absent
      :: List.map (fun row ->
             Value.message_to_string
               (match List.assoc_opt flow row with
                | Some m -> m
                | None -> Value.Absent))
           all
    in
    List.fold_left (fun acc s -> Stdlib.max acc (String.length s)) 1 cells
  in
  let name_width =
    List.fold_left (fun acc f -> Stdlib.max acc (String.length f)) 4
      t.flow_names
  in
  Format.fprintf ppf "%-*s |" name_width "tick";
  for i = 0 to n - 1 do
    Format.fprintf ppf " t+%-3d" i
  done;
  Format.pp_print_newline ppf ();
  List.iter
    (fun flow ->
      let w = Stdlib.max 4 (width_of flow) in
      Format.fprintf ppf "%-*s |" name_width flow;
      List.iter
        (fun row ->
          let msg =
            match List.assoc_opt flow row with
            | Some m -> m
            | None -> Value.Absent
          in
          Format.fprintf ppf " %-*s" (Stdlib.max w 5)
            (Value.message_to_string msg))
        all;
      Format.pp_print_newline ppf ())
    t.flow_names

let to_string t = Format.asprintf "%a" pp t

(* Tuple values render as "(1, 2)" (Value.pp), so cells need RFC 4180
   quoting — done by the one shared writer in Obs.Csv. *)
let csv_cell = Automode_obs.Csv.cell

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    ("tick," ^ String.concat "," (List.map csv_cell t.flow_names) ^ "\n");
  List.iteri
    (fun tick row ->
      Buffer.add_string buf (string_of_int tick);
      List.iter
        (fun flow ->
          Buffer.add_char buf ',';
          match List.assoc_opt flow row with
          | Some (Value.Present v) ->
            Buffer.add_string buf (csv_cell (Value.to_string v))
          | Some Value.Absent | None -> ())
        t.flow_names;
      Buffer.add_char buf '\n')
    (ticks t);
  Buffer.contents buf
