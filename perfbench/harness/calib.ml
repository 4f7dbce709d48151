(* Host-speed calibration.

   The host is shared: the same job can take twice as long when a
   neighbour loads the core, in blocks lasting seconds.  A fixed
   reference kernel, timed right before and right after each job, sees
   the same slowdown, so scaling the job's wall time by
   [nominal_ms / kernel time] cancels it.

   The kernel is FROZEN.  Every calibrated number this benchmark has
   ever reported is expressed in units of it; changing its work, its
   data or [nominal_ms] makes old and new results incomparable.  It does
   what campaign code does most — hashtable lookups, closure calls, list
   walks — and allocates nothing, so the program's heap cannot slow it
   down through the GC (checked by [minor_words_per_call]). *)

let nominal_ms = 0.5

let table : (int, int) Hashtbl.t =
  let t = Hashtbl.create 1024 in
  for i = 0 to 1023 do
    Hashtbl.replace t i ((i * 7919) land 1023)
  done;
  t

let steps : (int -> int) array =
  [| (fun x -> x + 1);
     (fun x -> x lxor 0x5a5a);
     (fun x -> (x * 3) land 0xffff);
     (fun x -> (x lsr 1) + 7) |]

let chain = List.init 48 (fun i -> (i * 31) land 255)

let rec walk acc = function
  | [] -> acc
  | x :: rest -> walk ((acc + x) land 0xfffff) rest

let iterations = 20_000

let kernel () =
  let acc = ref 0 in
  for i = 0 to iterations - 1 do
    let k = Hashtbl.find table ((!acc + i) land 1023) in
    acc := steps.(k land 3) (!acc + k);
    if i land 15 = 0 then acc := walk !acc chain
  done;
  Sys.opaque_identity !acc

let minor_words_per_call () =
  ignore (kernel ());
  let w0 = Gc.minor_words () in
  ignore (kernel ());
  let w1 = Gc.minor_words () in
  w1 -. w0

(* Best of three: an interrupt lands in one repetition, while a
   contention block slows all three alike. *)
let kernel_ms () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    ignore (kernel ());
    let dt = (Unix.gettimeofday () -. t0) *. 1e3 in
    if dt < !best then best := dt
  done;
  !best

let factor ~before_ms ~after_ms = nominal_ms /. ((before_ms +. after_ms) /. 2.)

let calibrate ~wall_ms ~before_ms ~after_ms =
  wall_ms *. factor ~before_ms ~after_ms
