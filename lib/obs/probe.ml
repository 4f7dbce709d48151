type sink = {
  on_count : string -> int -> unit;
  on_gauge : string -> int -> unit;
  on_sample : string -> int -> unit;
  on_enter : tick:int -> cat:string -> string -> unit;
  on_exit : tick:int -> cat:string -> string -> unit;
  on_instant : tick:int -> cat:string -> string -> unit;
  resolve_counter : string -> int ref option;
  record_spans : bool;
}

let current : sink option ref = ref None

(* Bumped on every sink change so pre-resolved {!counter} handles never
   write into a stale registry. *)
let epoch = ref 0

(* Mirrors [current]'s record_spans: a plain bool ref keeps [spans_on]
   small enough to inline to a single load at every enter/exit site. *)
let spans_enabled = ref false

let active () = match !current with Some _ -> true | None -> false

let spans_on () = !spans_enabled

let set s =
  incr epoch;
  current := s;
  spans_enabled := (match s with Some s -> s.record_spans | None -> false)

let with_sink s f =
  let prev = !current in
  set (Some s);
  match f () with
  | v -> set prev; v
  | exception e -> set prev; raise e

type counter = {
  c_key : string;
  mutable c_epoch : int;
  mutable c_cell : int ref;
}

let counter key = { c_key = key; c_epoch = -1; c_cell = ref 0 }

let hit c =
  match !current with
  | None -> ()
  | Some s ->
    if c.c_epoch = !epoch then c.c_cell := !(c.c_cell) + 1
    else (
      match s.resolve_counter c.c_key with
      | Some r ->
        c.c_epoch <- !epoch;
        c.c_cell <- r;
        r := !r + 1
      | None -> s.on_count c.c_key 1)

let count ?(by = 1) key =
  match !current with Some s -> s.on_count key by | None -> ()

let gauge key v =
  match !current with Some s -> s.on_gauge key v | None -> ()

let sample key v =
  match !current with Some s -> s.on_sample key v | None -> ()

let enter ~tick ?(cat = "sim") name =
  match !current with
  | Some s when s.record_spans -> s.on_enter ~tick ~cat name
  | _ -> ()

let exit_ ~tick ?(cat = "sim") name =
  match !current with
  | Some s when s.record_spans -> s.on_exit ~tick ~cat name
  | _ -> ()

let instant ~tick ?(cat = "sim") name =
  match !current with
  | Some s when s.record_spans -> s.on_instant ~tick ~cat name
  | _ -> ()

let standard ?span ?profile metrics =
  (* per-scope start-time stacks for wall-clock pairing; the mutex keeps
     the table intact if spans ever fire from several domains at once *)
  let starts : (string, float list ref) Hashtbl.t = Hashtbl.create 16 in
  let starts_lock = Mutex.create () in
  let with_starts f =
    Mutex.lock starts_lock;
    match f () with
    | v -> Mutex.unlock starts_lock; v
    | exception e -> Mutex.unlock starts_lock; raise e
  in
  let prof_enter name =
    match profile with
    | None -> ()
    | Some _ ->
      with_starts (fun () ->
          let stack =
            match Hashtbl.find_opt starts name with
            | Some st -> st
            | None ->
              let st = ref [] in
              Hashtbl.add starts name st;
              st
          in
          stack := Unix.gettimeofday () :: !stack)
  in
  let prof_exit name =
    match profile with
    | None -> ()
    | Some p -> (
      let t0 =
        with_starts (fun () ->
            match Hashtbl.find_opt starts name with
            | Some ({ contents = t0 :: rest } as stack) ->
              stack := rest;
              Some t0
            | _ -> None)
      in
      match t0 with
      | Some t0 -> Profile.record p name (Unix.gettimeofday () -. t0)
      | None -> ())
  in
  let span_ev f ~tick ~cat name =
    match span with Some sp -> f sp ~tick ~cat name | None -> ()
  in
  {
    on_count = (fun key by -> Metrics.add metrics key by);
    resolve_counter = (fun key -> Some (Metrics.counter_cell metrics key));
    on_gauge = (fun key v -> Metrics.set_gauge metrics key v);
    on_sample = (fun key v -> Metrics.observe metrics key v);
    on_enter =
      (fun ~tick ~cat name ->
        prof_enter name;
        span_ev (fun sp ~tick ~cat name -> Span.enter sp ~tick ~cat name)
          ~tick ~cat name);
    on_exit =
      (fun ~tick ~cat name ->
        prof_exit name;
        span_ev (fun sp ~tick ~cat name -> Span.exit_ sp ~tick ~cat name)
          ~tick ~cat name);
    on_instant =
      (fun ~tick ~cat name ->
        span_ev (fun sp ~tick ~cat name -> Span.instant sp ~tick ~cat name)
          ~tick ~cat name);
    record_spans = span <> None || profile <> None;
  }
