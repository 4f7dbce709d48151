open Automode_core

type strategy = Majority | Median

(* Presence-guarded expressions.  [If] returns the chosen branch's
   message even when the other branch is absent, and [Is_present] is
   always present — so [if_ p e fallback] never poisons a condition the
   way a strict operator over an absent operand would. *)
let guard2 p q e = Expr.(if_ p (if_ q e (bool false)) (bool false))

let pair ?(name = "StandbyPair") ?ty () =
  let open Expr in
  let pp = Is_present "primary" and ps = Is_present "standby" in
  let vp = var "primary" and vs = var "standby" in
  let agree = if_ pp (if_ ps (vp = vs) (bool true)) (bool true) in
  Model.component name
    ~ports:
      [ Model.in_port ?ty "primary";
        Model.in_port ?ty "standby";
        Model.out_port ?ty "out";
        Model.out_port ~ty:Dtype.Tbool "using_standby";
        Model.out_port ~ty:Dtype.Tbool "agree";
        Model.out_port ~ty:Dtype.Tbool "mismatch" ]
    ~behavior:
      (Model.B_exprs
         [ ("out", if_ pp vp vs);
           ("using_standby", if_ pp (bool false) ps);
           ("agree", agree);
           ("mismatch", not_ agree) ])

let tmr ?(name = "VoterTmr") ?ty ?(strategy = Majority) () =
  let open Expr in
  let p i = Is_present (Printf.sprintf "in%d" i) in
  let v i = var (Printf.sprintf "in%d" i) in
  let eq i j = guard2 (p i) (p j) (v i = v j) in
  let both i j = guard2 (p i) (p j) (bool true) in
  (* first present input; absent when every replica is silent *)
  let fallback = if_ (p 1) (v 1) (if_ (p 2) (v 2) (v 3)) in
  let min2 a b = Binop (Min, a, b) in
  let max2 a b = Binop (Max, a, b) in
  let out, agree =
    match strategy with
    | Majority ->
      ( if_ (eq 1 2) (v 1)
          (if_ (eq 1 3) (v 1) (if_ (eq 2 3) (v 2) fallback)),
        eq 1 2 || eq 1 3 || eq 2 3 )
    | Median ->
      let all3 = guard2 (p 1) (both 2 3) (bool true) in
      let med = max2 (min2 (v 1) (v 2)) (min2 (max2 (v 1) (v 2)) (v 3)) in
      ( if_ all3 med
          (if_ (both 1 2)
             (min2 (v 1) (v 2))
             (if_ (both 1 3)
                (min2 (v 1) (v 3))
                (if_ (both 2 3) (min2 (v 2) (v 3)) fallback))),
        both 1 2 || both 1 3 || both 2 3 )
  in
  let count i = if_ (p i) (int 1) (int 0) in
  Model.component name
    ~ports:
      [ Model.in_port ?ty "in1";
        Model.in_port ?ty "in2";
        Model.in_port ?ty "in3";
        Model.out_port ?ty "out";
        Model.out_port ~ty:Dtype.Tbool "agree";
        Model.out_port ~ty:Dtype.Tint "nvalid" ]
    ~behavior:
      (Model.B_exprs
         [ ("out", out);
           ("agree", agree);
           ("nvalid", count 1 + count 2 + count 3) ])

let qualified ?(name = "QualifiedVoter") ?ty ?strategy ~config () =
  let voter = tmr ~name:"Voter" ?ty ?strategy () in
  let qual = Automode_guard.Health.qualifier ~name:"Qualify" ?ty config in
  let chan = Model.channel in
  Model.component name
    ~ports:
      [ Model.in_port ?ty "in1";
        Model.in_port ?ty "in2";
        Model.in_port ?ty "in3";
        Model.out_port ?ty "out";
        Model.out_port ~ty:Dtype.Tbool "ok";
        Model.out_port ~ty:Automode_guard.Health.status_type "status";
        Model.out_port ~ty:Dtype.Tbool "agree";
        Model.out_port ~ty:Dtype.Tint "nvalid" ]
    ~behavior:
      (Model.B_dfd
         { Model.net_name = name ^ "Net";
           net_components = [ voter; qual ];
           net_channels =
             [ chan ~name:"qv_in1" (Model.boundary "in1") (Model.at "Voter" "in1");
               chan ~name:"qv_in2" (Model.boundary "in2") (Model.at "Voter" "in2");
               chan ~name:"qv_in3" (Model.boundary "in3") (Model.at "Voter" "in3");
               chan ~name:"qv_raw" (Model.at "Voter" "out")
                 (Model.at "Qualify" "raw");
               chan ~name:"qv_out" (Model.at "Qualify" "out")
                 (Model.boundary "out");
               chan ~name:"qv_ok" (Model.at "Qualify" "ok")
                 (Model.boundary "ok");
               chan ~name:"qv_status" (Model.at "Qualify" "status")
                 (Model.boundary "status");
               chan ~name:"qv_agree" (Model.at "Voter" "agree")
                 (Model.boundary "agree");
               chan ~name:"qv_nvalid" (Model.at "Voter" "nvalid")
                 (Model.boundary "nvalid") ] })

(* ------------------------------------------------------------------ *)
(* Observability                                                      *)
(* ------------------------------------------------------------------ *)

let observe trace =
  if Automode_obs.Probe.active () then
    List.iter
      (fun flow ->
        let fl = String.length flow in
        let is_agree =
          String.equal flow "agree"
          || (fl > 6
              && String.equal (String.sub flow (fl - 6) 6) "_agree")
        in
        if is_agree then
          List.iter
            (fun msg ->
              match msg with
              | Value.Present (Value.Bool false) ->
                Automode_obs.Probe.count ("voter." ^ flow ^ ".disagreements")
              | Value.Present _ | Value.Absent -> ())
            (Trace.column trace flow))
      (Trace.flows trace)
