(* Order statistics over job latencies. *)

(* Nearest rank: the smallest sample with at least [p]% of the samples
   at or below it.  The epsilon keeps 90% of 120 at rank 108, not 109. *)
let rank ~n p =
  max 1 (min n (int_of_float (ceil ((p *. float n /. 100.) -. 1e-9))))

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s.(rank ~n p - 1)

let beyond ~n p = n - rank ~n p

(* A percentile is only reported when at least ten samples lie beyond
   it; fewer and it is decided by one or two outliers. *)
let candidates = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

let tail_percentile ~n =
  List.find_opt (fun p -> beyond ~n p >= 10) candidates

let median xs = percentile xs 50.
