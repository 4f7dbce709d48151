(* A deterministic fork/join map over an OCaml 5 domain pool.

   Work items are claimed from a shared atomic counter (dynamic load
   balancing: fast seeds don't idle a worker that could take another),
   but results land in a pre-sized array at the item's own index, so the
   returned list is always in input order — campaigns merge verdicts
   back in seed order and their reports stay byte-identical to a serial
   run regardless of scheduling. *)

let map ~domains f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  if domains <= 1 || n <= 1 then List.map f items
  else begin
    let workers = Stdlib.min domains n in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let r =
            match f arr.(i) with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r;
          loop ()
        end
      in
      loop ()
    in
    (* the calling domain is one of the workers *)
    let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None ->
           (* every index < n is claimed exactly once before the joins
              return *)
           assert false)
  end
