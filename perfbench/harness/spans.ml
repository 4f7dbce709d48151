(* In-memory span recorder for the traced round.

   Spans are recorded by the harness around its calls into the
   program's public layer functions — never from inside the program.
   Each span names its job, its parent and a layer; they are written
   out once the round is over. *)

type span = {
  job : int;
  id : int;
  parent : int;  (** 0 for a job's root span *)
  layer : string;
  start : float;  (** seconds, [Unix.gettimeofday] *)
  stop : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable current : int;
  mutable job : int;
}

let create () = { spans = []; next = 1; current = 0; job = 0 }

let within t layer f =
  let id = t.next in
  t.next <- id + 1;
  let parent = t.current in
  t.current <- id;
  let start = Unix.gettimeofday () in
  let finish () =
    t.spans <-
      { job = t.job; id; parent; layer; start; stop = Unix.gettimeofday () }
      :: t.spans;
    t.current <- parent
  in
  match f () with
  | r -> finish (); r
  | exception e -> finish (); raise e

(* The root span of job [job]. *)
let job t job f =
  t.job <- job;
  within t "job" f

let spans t = List.rev t.spans

let duration s = s.stop -. s.start

(* Each span with its self time: its duration minus the durations of
   its direct children. *)
let with_self t =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let c = Option.value ~default:0. (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent (c +. duration s))
    t.spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt children s.id)))
    (spans t)

(* Per layer, in name order: (layer, calls, total, self), each span's
   times multiplied by [scale] of its job. *)
let layers ~scale t =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let calls, total, selfs =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt acc s.layer)
      in
      let k = scale s.job in
      Hashtbl.replace acc s.layer
        (calls + 1, total +. (k *. duration s), selfs +. (k *. self)))
    (with_self t);
  List.sort compare
    (Hashtbl.fold (fun l (c, tot, self) rows -> (l, c, tot, self) :: rows) acc [])

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let chrome_json t =
  let t0 =
    List.fold_left (fun m s -> Float.min m s.start) infinity t.spans
  in
  let event s =
    Printf.sprintf
      {|{"name":"%s","cat":"perfbench","ph":"X","pid":1,"tid":1,"ts":%.1f,"dur":%.1f,"args":{"job":%d,"span":%d,"parent":%d}}|}
      s.layer
      ((s.start -. t0) *. 1e6)
      (duration s *. 1e6) s.job s.id s.parent
  in
  "{\"traceEvents\":[\n"
  ^ String.concat ",\n" (List.map event (spans t))
  ^ "\n]}\n"
