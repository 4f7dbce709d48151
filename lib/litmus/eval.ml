open Automode_core
open Automode_robust
open Automode_proptest

type twin = {
  twin_name : string;
  unguarded : Builder.t;
  guarded : Builder.t;
  checks : Check.t list;
}

(* The fault-free reference runs, as the columns the divergence scan
   reads (computed once per synthesis), plus the guarded trace the
   checks compare against. *)
type nominal = {
  nom_guarded : Trace.t;
  cols_unguarded : (string * Value.message array) list;
  cols_guarded : (string * Value.message array) list;
}

let nominal twin =
  let run b = Builder.trace_ops b ~seed:0 ~ops:[] ~ticks:(Builder.ticks b) in
  (* guarded first: the order the probes, and so the metrics key order
     and the Chrome trace, have always seen *)
  let nom_guarded = run twin.guarded in
  let cols_unguarded = Trace.columns (run twin.unguarded) in
  { nom_guarded; cols_unguarded; cols_guarded = Trace.columns nom_guarded }

type classification = {
  canon : string;
  hash : string;
  unguarded_failures : (string * int * string) list;
  guarded_failures : (string * int * string) list;
  tags : string list;
  violations : (string * string) list;
}

let distinguishing c = c.unguarded_failures <> [] && c.guarded_failures = []
let survivor c = distinguishing c || c.violations <> []

(* Canonical divergence: flow-major, tick-ascending, one line
   "label|tick|flow|nominal|faulty" per tick where the faulty trace
   differs from the nominal one.  The hash of this text is the
   scenario's identity: equal hash <=> equal faulty traces (given the
   fixed nominal pair), modulo MD5 collisions.  [Trace.columns] walks
   the faulty trace once, O(ticks * flows); the nominal columns come
   precomputed. *)
let divergence buf ~label ~nominal ~faulty =
  let fau_cols = Trace.columns faulty in
  List.iter
    (fun (flow, nom) ->
      let fau =
        match List.assoc_opt flow fau_cols with
        | Some a -> a
        | None -> raise Not_found
      in
      let n = max (Array.length nom) (Array.length fau) in
      let get a t =
        if t < Array.length a then a.(t) else Value.Absent
      in
      for t = 0 to n - 1 do
        let m0 = get nom t and m1 = get fau t in
        if not (Value.equal_message m0 m1) then begin
          Buffer.add_string buf label;
          Buffer.add_char buf '|';
          Buffer.add_string buf (string_of_int t);
          Buffer.add_char buf '|';
          Buffer.add_string buf flow;
          Buffer.add_char buf '|';
          Buffer.add_string buf (Value.message_to_string m0);
          Buffer.add_char buf '|';
          Buffer.add_string buf (Value.message_to_string m1);
          Buffer.add_char buf '\n'
        end
      done)
    nominal

let failures_of verdicts =
  List.filter_map
    (fun (m, v) ->
      match v with
      | Monitor.Pass -> None
      | Monitor.Fail { at_tick; reason } -> Some (m, at_tick, reason))
    verdicts

type summary = {
  sum_failures : (string * int * string) list;
  sum_divergence : string;
}

let summarize twin ~nominal faulty =
  let buf = Buffer.create 512 in
  divergence buf ~label:"u" ~nominal:nominal.cols_unguarded ~faulty;
  { sum_failures =
      failures_of (Builder.eval_monitors twin.unguarded faulty);
    sum_divergence = Buffer.contents buf }

let classify twin ~nominal ~canon summary faulty_guarded =
  let unguarded_failures = summary.sum_failures in
  let guarded_failures =
    failures_of (Builder.eval_monitors twin.guarded faulty_guarded)
  in
  let buf = Buffer.create (String.length summary.sum_divergence + 512) in
  Buffer.add_string buf summary.sum_divergence;
  divergence buf ~label:"g" ~nominal:nominal.cols_guarded
    ~faulty:faulty_guarded;
  let hash = Stdlib.Digest.to_hex (Stdlib.Digest.string (Buffer.contents buf)) in
  let input =
    { Check.horizon = Builder.ticks twin.unguarded;
      nominal_guarded = nominal.nom_guarded;
      faulty_guarded;
      unguarded_failures;
      guarded_failures }
  in
  let infos, violations =
    List.fold_left
      (fun (infos, viols) check ->
        match Check.eval check input with
        | None -> (infos, viols)
        | Some (Check.Info tag) -> (tag :: infos, viols)
        | Some (Check.Violation detail) ->
          (infos, (Check.name check, detail) :: viols))
      ([], []) twin.checks
  in
  let violations = List.rev violations in
  let base_tags =
    if unguarded_failures <> [] && guarded_failures = [] then
      [ "distinguishing" ]
    else if unguarded_failures <> [] && guarded_failures <> [] then
      [ "both-fail" ]
    else if unguarded_failures = [] && guarded_failures = [] then
      [ "benign" ]
    else []
  in
  let tags =
    List.sort_uniq String.compare (base_tags @ infos)
  in
  { canon; hash; unguarded_failures; guarded_failures; tags; violations }

let evaluate_ops twin ~nominal ~canon ops =
  let trace b = Builder.trace_ops b ~seed:0 ~ops ~ticks:(Builder.ticks b) in
  let summary = summarize twin ~nominal (trace twin.unguarded) in
  classify twin ~nominal ~canon summary (trace twin.guarded)

let evaluate twin ~nominal scenario =
  evaluate_ops twin ~nominal
    ~canon:(Space.canonical scenario)
    (Space.ops scenario)

(* The encoding deliberately omits [canon]: two scenarios with the same
   divergence hash must encode byte-identically. *)
let encode c =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("hash " ^ c.hash ^ "\n");
  Buffer.add_string buf ("tags " ^ String.concat "," c.tags ^ "\n");
  List.iter
    (fun (side, fails) ->
      List.iter
        (fun (m, t, reason) ->
          Buffer.add_string buf
            (Printf.sprintf "%s %s|%d|%s\n" side m t reason))
        fails)
    [ ("ufail", c.unguarded_failures); ("gfail", c.guarded_failures) ];
  List.iter
    (fun (check, detail) ->
      Buffer.add_string buf (Printf.sprintf "viol %s|%s\n" check detail))
    c.violations;
  Buffer.contents buf

let split_failure rest =
  match String.index_opt rest '|' with
  | None -> None
  | Some i ->
    let monitor = String.sub rest 0 i in
    (match String.index_from_opt rest (i + 1) '|' with
     | None -> None
     | Some j ->
       (match int_of_string_opt (String.sub rest (i + 1) (j - i - 1)) with
        | None -> None
        | Some tick ->
          let reason =
            String.sub rest (j + 1) (String.length rest - j - 1)
          in
          Some (monitor, tick, reason)))

let decode ~canon payload =
  let lines =
    String.split_on_char '\n' payload
    |> List.filter (fun l -> l <> "")
  in
  let rec go acc lines =
    match (acc, lines) with
    | Some c, [] -> if c.hash = "" then None else Some c
    | Some c, line :: rest ->
      (match String.index_opt line ' ' with
       | None -> None
       | Some i ->
         let field = String.sub line 0 i in
         let value = String.sub line (i + 1) (String.length line - i - 1) in
         (match field with
          | "hash" -> go (Some { c with hash = value }) rest
          | "tags" ->
            let tags =
              if value = "" then [] else String.split_on_char ',' value
            in
            go (Some { c with tags }) rest
          | "ufail" ->
            Option.bind (split_failure value) (fun f ->
                go
                  (Some
                     { c with
                       unguarded_failures = c.unguarded_failures @ [ f ] })
                  rest)
          | "gfail" ->
            Option.bind (split_failure value) (fun f ->
                go
                  (Some
                     { c with guarded_failures = c.guarded_failures @ [ f ] })
                  rest)
          | "viol" ->
            (match String.index_opt value '|' with
             | None -> None
             | Some j ->
               let check = String.sub value 0 j in
               let detail =
                 String.sub value (j + 1) (String.length value - j - 1)
               in
               go
                 (Some { c with violations = c.violations @ [ (check, detail) ] })
                 rest)
          | _ -> None))
    | None, _ -> None
  in
  go
    (Some
       { canon;
         hash = "";
         unguarded_failures = [];
         guarded_failures = [];
         tags = [];
         violations = [] })
    lines
