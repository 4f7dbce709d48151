exception Sim_error of string

let sim_error fmt = Format.kasprintf (fun s -> raise (Sim_error s)) fmt

(* Observability hooks.  Every probe site is guarded by [Probe.active]
   (a single ref load), so an uninstrumented run takes the exact same
   path and produces byte-identical traces.  Metric keys are memoized —
   the same channels and components fire every tick, and rebuilding
   "sim.ch.<name>.present" each time dominates probe cost (E16). *)
module Probe = Automode_obs.Probe

(* The memo tables are process-global, so compiling/initializing models
   from several domains at once (parallel campaign sweeps) must not race
   on the underlying Hashtbl.  The lock is only taken at init/compile
   time, never in the per-tick hot path (handles are pre-resolved). *)
let memo_mutex = Mutex.create ()

let memo_key (table : (string, 'a) Hashtbl.t) build name =
  Mutex.lock memo_mutex;
  match Hashtbl.find table name with
  | k ->
    Mutex.unlock memo_mutex;
    k
  | exception Not_found ->
    let k = build name in
    Hashtbl.add table name k;
    Mutex.unlock memo_mutex;
    k

let chan_keys : (string, Probe.counter * Probe.counter) Hashtbl.t =
  Hashtbl.create 64

let probe_channel_counters name =
  memo_key chan_keys
    (fun name ->
      ( Probe.counter ("sim.ch." ^ name ^ ".present"),
        Probe.counter ("sim.ch." ^ name ^ ".absent") ))
    name

let fire_keys : (string, Probe.counter) Hashtbl.t = Hashtbl.create 64

let probe_fire_counter name =
  memo_key fire_keys (fun name -> Probe.counter ("sim.fire." ^ name)) name

let probe_value (present, absent) v =
  Probe.hit
    (match v with Value.Present _ -> present | Value.Absent -> absent)

let sim_ticks = Probe.counter "sim.ticks"
let snapshot_capture = Probe.counter "sim.snapshot.capture"
let snapshot_restore = Probe.counter "sim.snapshot.restore"

type comp_state =
  | S_exprs of (string * Expr.state) list
  | S_std of Std_machine.state
  | S_mtd of {
      current : string;
      mode_states : (string * comp_state) list;
      (* [Some enum_name] when the component declares an output port
         named "mode": the current mode is emitted on it as an enum of
         that type.  Resolved once at init so the per-tick step does not
         scan the port list. *)
      mode_out : string option;
    }
  | S_net of net_state
  | S_unspec

and net_state = {
  (* evaluation order of sub-components (topological for DFDs), each
     with its pre-resolved fire-count probe handle *)
  order : (string * Probe.counter) list;
  sub : (string * comp_state) list;
  (* delay registers, keyed by channel name *)
  buffers : (string * Value.message) list;
  (* per-channel present/absent probe handles, aligned with the
     network's channel list — resolved once at init, not per tick *)
  chan_probes : (Probe.counter * Probe.counter) list;
}

(* ------------------------------------------------------------------ *)
(* Initialization                                                     *)
(* ------------------------------------------------------------------ *)

(* The enum name emitted on a declared "mode" output port, if any. *)
let mtd_mode_out ~(ports : Model.port list) (mtd : Model.mtd) =
  match
    List.find_opt
      (fun (p : Model.port) ->
        p.port_dir = Model.Out && String.equal p.port_name "mode")
      ports
  with
  | None -> None
  | Some p ->
    Some
      (match p.port_type with
       | Some (Dtype.Tenum e) -> e.enum_name
       | Some _ | None -> mtd.mtd_name ^ "_mode")

let rec init_behavior ~(ports : Model.port list) (behavior : Model.behavior) :
    comp_state =
  match behavior with
  | Model.B_exprs outs ->
    S_exprs (List.map (fun (port, e) -> (port, Expr.init_state e)) outs)
  | Model.B_std std -> S_std (Std_machine.init std)
  | Model.B_mtd mtd ->
    S_mtd
      { current = mtd.mtd_initial;
        mode_states =
          (* mode behaviors run against the MTD component's own port
             list (step passes the same ~ports down) *)
          List.map
            (fun (m : Model.mode) ->
              (m.mode_name, init_behavior ~ports m.mode_behavior))
            mtd.mtd_modes;
        mode_out = mtd_mode_out ~ports mtd }
  | Model.B_dfd net ->
    let order =
      match Causality.evaluation_order net with
      | Ok order -> order
      | Error loops ->
        sim_error "instantaneous loop in DFD %s: %s" net.net_name
          (String.concat " <-> " (List.concat loops))
    in
    S_net (init_net ~order net)
  | Model.B_ssd net ->
    (* SSD channels are delayed; declaration order is a valid schedule. *)
    let order =
      List.map (fun (c : Model.component) -> c.comp_name) net.net_components
    in
    S_net (init_net ~order net)
  | Model.B_unspecified -> S_unspec

and init_net ~order (net : Model.network) =
  { order = List.map (fun name -> (name, probe_fire_counter name)) order;
    chan_probes =
      List.map
        (fun (ch : Model.channel) -> probe_channel_counters ch.ch_name)
        net.net_channels;
    sub =
      List.map
        (fun (c : Model.component) ->
          (c.comp_name, init_behavior ~ports:c.comp_ports c.comp_behavior))
        net.net_components;
    buffers =
      List.map
        (fun (ch : Model.channel) ->
          let v =
            match ch.ch_init with
            | Some v -> Value.Present v
            | None -> Value.Absent
          in
          (ch.ch_name, v))
        net.net_channels }

let init (comp : Model.component) =
  init_behavior ~ports:comp.comp_ports comp.comp_behavior

(* ------------------------------------------------------------------ *)
(* Stepping                                                           *)
(* ------------------------------------------------------------------ *)

let lookup_outputs outs port =
  match List.assoc_opt port outs with
  | Some msg -> msg
  | None -> Value.Absent

(* Does a channel of this network kind read its delay register? *)
let channel_is_delayed ~ssd (ch : Model.channel) =
  if ch.ch_delayed then true
  else
    ssd
    && (match ch.ch_src.ep_comp, ch.ch_dst.ep_comp with
        | Some _, Some _ -> true
        | None, _ | _, None -> false)

let rec step_behavior ~schedule ~tick ~(ports : Model.port list)
    ~(inputs : string -> Value.message) (behavior : Model.behavior)
    (state : comp_state) : (string * Value.message) list * comp_state =
  match behavior, state with
  | Model.B_exprs outs, S_exprs states ->
    let stepped =
      List.map
        (fun (port, expr) ->
          let st =
            match List.assoc_opt port states with
            | Some st -> st
            | None -> Expr.init_state expr
          in
          let msg, st' =
            try Expr.step ~schedule ~tick ~env:inputs expr st
            with Expr.Eval_error msg -> sim_error "output %s: %s" port msg
          in
          (port, msg, st'))
        outs
    in
    ( List.map (fun (port, msg, _) -> (port, msg)) stepped,
      S_exprs (List.map (fun (port, _, st) -> (port, st)) stepped) )
  | Model.B_std std, S_std st ->
    let outs, st' =
      try Std_machine.step ~schedule ~tick ~env:inputs std st
      with Std_machine.Step_error msg -> sim_error "STD %s: %s" std.std_name msg
    in
    (outs, S_std st')
  | Model.B_mtd mtd, S_mtd { current; mode_states; mode_out } ->
    let previous = current in
    let current =
      match
        Mtd.enabled_transition ~schedule ~tick ~env:inputs mtd ~current
      with
      | Some t -> t.mt_dst
      | None -> current
    in
    if Probe.active () && not (String.equal previous current) then begin
      Probe.count
        ("mtd." ^ mtd.mtd_name ^ ".switch." ^ previous ^ "->" ^ current);
      Probe.instant ~tick ~cat:"mode"
        (mtd.mtd_name ^ ":" ^ previous ^ "->" ^ current)
    end;
    let mode =
      match Mtd.find_mode mtd current with
      | Some m -> m
      | None -> sim_error "MTD %s: unknown mode %s" mtd.mtd_name current
    in
    let mode_state =
      match List.assoc_opt current mode_states with
      | Some st -> st
      | None -> init_behavior ~ports mode.mode_behavior
    in
    let outs, mode_state' =
      step_behavior ~schedule ~tick ~ports ~inputs mode.mode_behavior
        mode_state
    in
    let mode_states =
      (current, mode_state')
      :: List.remove_assoc current mode_states
    in
    (* Emit the current mode on a declared "mode" output port, if any
       (port lookup precomputed at init — see [mtd_mode_out]). *)
    let outs =
      match mode_out with
      | None -> outs
      | Some enum_name ->
        ("mode", Value.Present (Value.Enum (enum_name, current)))
        :: List.remove_assoc "mode" outs
    in
    (outs, S_mtd { current; mode_states; mode_out })
  | Model.B_dfd net, S_net ns ->
    step_network ~schedule ~tick ~inputs ~ssd:false net ns
  | Model.B_ssd net, S_net ns ->
    step_network ~schedule ~tick ~inputs ~ssd:true net ns
  | Model.B_unspecified, S_unspec ->
    ( List.filter_map
        (fun (p : Model.port) ->
          if p.port_dir = Model.Out then Some (p.port_name, Value.Absent)
          else None)
        ports,
      S_unspec )
  | ( Model.(
        ( B_exprs _ | B_std _ | B_mtd _ | B_dfd _ | B_ssd _
        | B_unspecified )),
      (S_exprs _ | S_std _ | S_mtd _ | S_net _ | S_unspec) ) ->
    sim_error "behavior/state shape mismatch"

and step_network ~schedule ~tick ~inputs ~ssd (net : Model.network) ns =
  (* The value flowing on a channel this tick, once its source is known. *)
  let source_value computed (ch : Model.channel) =
    match ch.ch_src.ep_comp with
    | None -> inputs ch.ch_src.ep_port
    | Some comp ->
      (match List.assoc_opt comp computed with
       | Some outs -> lookup_outputs outs ch.ch_src.ep_port
       | None ->
         (* source not evaluated yet: only legal for delayed reads *)
         Value.Absent)
  in
  let channel_read computed (ch : Model.channel) =
    if channel_is_delayed ~ssd ch then
      match List.assoc_opt ch.ch_name ns.buffers with
      | Some buffered -> buffered
      | None -> Value.Absent
    else source_value computed ch
  in
  let input_of computed comp_name port =
    let driver =
      List.find_opt
        (fun (ch : Model.channel) ->
          ch.ch_dst.ep_comp = Some comp_name
          && String.equal ch.ch_dst.ep_port port)
        net.net_channels
    in
    match driver with
    | Some ch -> channel_read computed ch
    | None -> Value.Absent
  in
  (* Evaluate sub-components in (topological) order. *)
  let computed, sub' =
    List.fold_left
      (fun (computed, sub_states) (comp_name, fire) ->
        let comp =
          match Model.find_component net comp_name with
          | Some c -> c
          | None -> sim_error "network %s: unknown component %s" net.net_name comp_name
        in
        let st =
          match List.assoc_opt comp_name ns.sub with
          | Some st -> st
          | None -> init_behavior ~ports:comp.comp_ports comp.comp_behavior
        in
        let comp_inputs port = input_of computed comp_name port in
        if Probe.active () then begin
          Probe.hit fire;
          if Probe.spans_on () then Probe.enter ~tick comp_name
        end;
        let outs, st' =
          step_behavior ~schedule ~tick ~ports:comp.comp_ports
            ~inputs:comp_inputs comp.comp_behavior st
        in
        if Probe.spans_on () then Probe.exit_ ~tick comp_name;
        ((comp_name, outs) :: computed, (comp_name, st') :: sub_states))
      ([], []) ns.order
  in
  let sub' = List.rev sub' in
  (* Boundary outputs: channels whose destination is the boundary. *)
  let boundary_outputs =
    List.filter_map
      (fun (ch : Model.channel) ->
        match ch.ch_dst.ep_comp with
        | Some _ -> None
        | None -> Some (ch.ch_dst.ep_port, channel_read computed ch))
      net.net_channels
  in
  (* Refresh every delay register with this tick's source value. *)
  let buffers' =
    List.map2
      (fun (ch : Model.channel) probes ->
        let v = source_value computed ch in
        if Probe.active () then probe_value probes v;
        (ch.ch_name, v))
      net.net_channels ns.chan_probes
  in
  (boundary_outputs, S_net { ns with sub = sub'; buffers = buffers' })

let step ?(schedule = Clock.no_events) ~tick ~inputs (comp : Model.component)
    state =
  let outs, state' =
    step_behavior ~schedule ~tick ~ports:comp.comp_ports ~inputs
      comp.comp_behavior state
  in
  (* Report every declared output port, absent if not computed. *)
  let outs =
    List.filter_map
      (fun (p : Model.port) ->
        if p.port_dir = Model.Out then
          Some (p.port_name, lookup_outputs outs p.port_name)
        else None)
      comp.comp_ports
  in
  (outs, state')

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

type input_fn = int -> (string * Value.message) list

let no_inputs _tick = []

let run ?(schedule = Clock.no_events) ~ticks ~inputs (comp : Model.component) =
  let in_names =
    List.map (fun (p : Model.port) -> p.port_name) (Model.input_ports comp)
  in
  let out_names =
    List.map (fun (p : Model.port) -> p.port_name) (Model.output_ports comp)
  in
  let trace = Trace.make ~flows:(in_names @ out_names) in
  let rec go tick state trace =
    if tick >= ticks then trace
    else
      let offered = inputs tick in
      let input_fn port =
        match List.assoc_opt port offered with
        | Some msg -> msg
        | None -> Value.Absent
      in
      if Probe.active () then begin
        Probe.hit sim_ticks;
        if Probe.spans_on () then Probe.enter ~tick ~cat:"tick" "tick"
      end;
      let outs, state' = step ~schedule ~tick ~inputs:input_fn comp state in
      if Probe.spans_on () then Probe.exit_ ~tick ~cat:"tick" "tick";
      let row =
        List.map (fun port -> (port, input_fn port)) in_names @ outs
      in
      go (tick + 1) state' (Trace.record trace row)
  in
  go 0 (init comp) trace

(* ------------------------------------------------------------------ *)
(* Indexed simulation                                                 *)
(* ------------------------------------------------------------------ *)

(* Lowering stage: channel routing is resolved once and every channel,
   sub-component output and delay register is numbered at index time,
   so the batch compiler ({!batch}) turns every read into a fixed plane
   row instead of the interpreter's by-name search.  An [indexed] value
   is immutable and can be shared freely, including across domains and
   across the batches compiled from it.

   Per network and tick the staged step's phases mirror the interpreter
   exactly (the trace-identity tests depend on it):
   1. sweep sub-components in evaluation order — instantaneous reads see
      the slots already written this tick, delayed reads the registers
      from last tick;
   2. collect boundary outputs, still against the old registers;
   3. refresh every delay register from its source (slots/inputs only —
      never other registers), firing the per-channel probes. *)

type ix_read =
  | Rd_boundary of string  (* enclosing input port *)
  | Rd_slot of int         (* instantaneous: output slot written this tick *)
  | Rd_buffer of int       (* delayed: register holding last tick's value *)

type ix_node =
  | Ix_atomic of { xa_ports : Model.port list; xa_behavior : Model.behavior }
  | Ix_net of ix_net

and ix_net = {
  xn_subs : ix_sub array;      (* evaluation order *)
  xn_chans : ix_chan array;    (* register refresh plan, channel order *)
  xn_bounds : ix_bound array;  (* boundary outputs, channel order *)
  xn_nslots : int;
  xn_buf_init : Value.message array; (* channel ch_init values *)
}

and ix_sub = {
  xs_name : string;
  xs_fire : Probe.counter;
  xs_node : ix_node;
  (* input port -> resolved read; scanned linearly (ports per component
     are few), each hit is then an array access *)
  xs_drivers : (string * ix_read) array;
  xs_outs : xs_outs;
}

(* How a stepped sub-component's outputs reach the parent's slots. *)
and xs_outs =
  | Xo_atomic of (string * int) array (* (output port, slot) *)
  | Xo_net of (int * int) array       (* (child bound index or -1, slot) *)

and ix_bound = { xb_port : string; xb_read : ix_read }

and ix_chan = {
  xc_src : ix_read; (* Rd_boundary or Rd_slot only — sources are never
                       read through a register *)
  xc_buf : int;
  xc_present : Probe.counter;
  xc_absent : Probe.counter;
}

type indexed = {
  ix_in_ports : string list;
  ix_out_ports : string list;
  ix_root : ix_node;
  (* per declared output port, the root network's boundary index (-1
     when the port is never driven); [None] for atomic roots *)
  ix_out_bounds : int array option;
}

let rec index_behavior ~(ports : Model.port list) (behavior : Model.behavior) :
    ix_node =
  match behavior with
  | Model.B_dfd net -> Ix_net (index_network ~ssd:false net)
  | Model.B_ssd net -> Ix_net (index_network ~ssd:true net)
  | (Model.B_exprs _ | Model.B_std _ | Model.B_mtd _ | Model.B_unspecified)
    as b ->
    (* atomic behaviors step through the (pure) interpreter — identical
       semantics by construction, incl. MTD mode history *)
    Ix_atomic { xa_ports = ports; xa_behavior = b }

and index_network ~ssd (net : Model.network) : ix_net =
  let order =
    if ssd then
      List.map (fun (c : Model.component) -> c.comp_name) net.net_components
    else
      match Causality.evaluation_order net with
      | Ok order -> order
      | Error loops ->
        sim_error "instantaneous loop in DFD %s: %s" net.net_name
          (String.concat " <-> " (List.concat loops))
  in
  (* Number every (component, output port) pair used as a channel
     source; topological order guarantees a slot is written before any
     instantaneous read of it. *)
  let slot_tbl : (string * string, int) Hashtbl.t = Hashtbl.create 32 in
  let nslots = ref 0 in
  let slot_of comp port =
    match Hashtbl.find_opt slot_tbl (comp, port) with
    | Some i -> i
    | None ->
      let i = !nslots in
      incr nslots;
      Hashtbl.add slot_tbl (comp, port) i;
      i
  in
  let buf_of =
    let tbl = Hashtbl.create 32 in
    List.iteri
      (fun i (ch : Model.channel) -> Hashtbl.replace tbl ch.ch_name i)
      net.net_channels;
    fun name -> Hashtbl.find tbl name
  in
  let chan_src (ch : Model.channel) =
    match ch.ch_src.ep_comp with
    | None -> Rd_boundary ch.ch_src.ep_port
    | Some comp -> Rd_slot (slot_of comp ch.ch_src.ep_port)
  in
  let read_of (ch : Model.channel) =
    if channel_is_delayed ~ssd ch then Rd_buffer (buf_of ch.ch_name)
    else chan_src ch
  in
  (* Channels first: this allocates every slot. *)
  let chans =
    Array.of_list
      (List.mapi
         (fun i (ch : Model.channel) ->
           let present, absent = probe_channel_counters ch.ch_name in
           { xc_src = chan_src ch;
             xc_buf = i;
             xc_present = present;
             xc_absent = absent })
         net.net_channels)
  in
  let bounds =
    Array.of_list
      (List.filter_map
         (fun (ch : Model.channel) ->
           match ch.ch_dst.ep_comp with
           | Some _ -> None
           | None -> Some { xb_port = ch.ch_dst.ep_port; xb_read = read_of ch })
         net.net_channels)
  in
  let bound_index (child : ix_net) port =
    let bi = ref (-1) in
    Array.iteri
      (fun i (b : ix_bound) ->
        if !bi < 0 && String.equal b.xb_port port then bi := i)
      child.xn_bounds;
    !bi
  in
  let subs =
    Array.of_list
      (List.map
         (fun comp_name ->
           let comp =
             match Model.find_component net comp_name with
             | Some c -> c
             | None ->
               sim_error "network %s: unknown component %s" net.net_name
                 comp_name
           in
           let drivers =
             Array.of_list
               (List.filter_map
                  (fun (p : Model.port) ->
                    if p.port_dir <> Model.In then None
                    else
                      let driver =
                        List.find_opt
                          (fun (ch : Model.channel) ->
                            ch.ch_dst.ep_comp = Some comp_name
                            && String.equal ch.ch_dst.ep_port p.port_name)
                          net.net_channels
                      in
                      Option.map (fun ch -> (p.port_name, read_of ch)) driver)
                  comp.comp_ports)
           in
           let node = index_behavior ~ports:comp.comp_ports comp.comp_behavior in
           let my_slots =
             Hashtbl.fold
               (fun (c, port) slot acc ->
                 if String.equal c comp_name then (port, slot) :: acc else acc)
               slot_tbl []
           in
           let outs =
             match node with
             | Ix_atomic _ -> Xo_atomic (Array.of_list my_slots)
             | Ix_net child ->
               Xo_net
                 (Array.of_list
                    (List.map
                       (fun (port, slot) -> (bound_index child port, slot))
                       my_slots))
           in
           { xs_name = comp_name;
             xs_fire = probe_fire_counter comp_name;
             xs_node = node;
             xs_drivers = drivers;
             xs_outs = outs })
         order)
  in
  { xn_subs = subs;
    xn_chans = chans;
    xn_bounds = bounds;
    xn_nslots = !nslots;
    xn_buf_init =
      Array.of_list
        (List.map
           (fun (ch : Model.channel) ->
             match ch.ch_init with
             | Some v -> Value.Present v
             | None -> Value.Absent)
           net.net_channels) }

let index (comp : Model.component) : indexed =
  let in_ports =
    List.map (fun (p : Model.port) -> p.port_name) (Model.input_ports comp)
  in
  let out_ports =
    List.map (fun (p : Model.port) -> p.port_name) (Model.output_ports comp)
  in
  let root = index_behavior ~ports:comp.comp_ports comp.comp_behavior in
  let out_bounds =
    match root with
    | Ix_atomic _ -> None
    | Ix_net n ->
      Some
        (Array.of_list
           (List.map
              (fun port ->
                let bi = ref (-1) in
                Array.iteri
                  (fun i (b : ix_bound) ->
                    if !bi < 0 && String.equal b.xb_port port then bi := i)
                  n.xn_bounds;
                !bi)
              out_ports))
  in
  { ix_in_ports = in_ports;
    ix_out_ports = out_ports;
    ix_root = root;
    ix_out_bounds = out_bounds }

(* ------------------------------------------------------------------ *)
(* Batched simulation                                                 *)
(* ------------------------------------------------------------------ *)

(* Second lowering stage: one compiled net stepped across N instances at
   once (a "fleet").  Per-tick values live in struct-of-arrays planes —
   for every slot/register/port row, [instances] consecutive cells, one
   per instance — so the driver loops iterate the instance axis
   innermost over cache-sequential storage.  Atomic behaviors are
   *staged*: every expression is translated once, at batch-compile
   time, into a closure kernel that reads and writes a mutable scratch
   register file ([benv]), so the per-instance step executes no AST
   dispatch, no environment lookups and no allocation on the fast
   (bool/int/float) paths.  Enum/tuple values and rarely-taken type
   paths fall back to the exact {!Value} operations, and MTD behaviors
   fall back to the per-instance interpreter — semantics are identical
   to the interpreter ({!run}) by construction and asserted per instance
   by the test-suite and the E21 bench.

   Value encoding: a plane stores a message as a tag byte plus three
   payload lanes (native [int array] for bool/int — exact 63-bit ints —
   a float64 Bigarray for floats, and a boxed [Value.t array] for
   enums/tuples).  Cell [row * instances + i] belongs to instance [i]:
   instances are columns, rows are slots. *)

let tag_absent = 0
let tag_bool = 1
let tag_int = 2
let tag_float = 3
let tag_boxed = 4

type bplanes = {
  bp_tag : (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
  bp_int : int array;
  bp_flt : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  bp_box : Value.t array;
}

let bplanes_make ~stride rows =
  let n = max 1 (rows * stride) in
  let tag = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n in
  Bigarray.Array1.fill tag tag_absent;
  let flt = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill flt 0.;
  { bp_tag = tag;
    bp_int = Array.make n 0;
    bp_flt = flt;
    bp_box = Array.make n (Value.Bool false) }

(* Mutable scratch register file threaded through every staged kernel.
   The float payload lives in a one-element [floatarray] so that
   writing it never allocates (a mutable float field in a mixed record
   would box on every store). *)
type benv = {
  mutable b_inst : int;                (* current instance (absolute) *)
  mutable b_tick : int;
  mutable b_sched : Clock.schedule;    (* schedule of current instance *)
  b_scheds : Clock.schedule array;
  mutable b_tag : int;
  mutable b_int : int;                 (* bool/int payload *)
  b_flt : floatarray;                  (* float payload, length 1 *)
  mutable b_box : Value.t;             (* enum/tuple payload *)
}

type bkern = benv -> unit

let benv_make scheds =
  { b_inst = 0;
    b_tick = 0;
    b_sched = Clock.no_events;
    b_scheds = scheds;
    b_tag = tag_absent;
    b_int = 0;
    b_flt = Float.Array.make 1 0.;
    b_box = Value.Bool false }

let[@inline] be_inst be i =
  be.b_inst <- i;
  be.b_sched <- Array.unsafe_get be.b_scheds i

(* A resolved read target: a plane row, or statically absent. *)
type brow = Brow of bplanes * int | Brow_absent

let[@inline] bp_load p ofs be =
  let i = ofs + be.b_inst in
  let t = Bigarray.Array1.unsafe_get p.bp_tag i in
  be.b_tag <- t;
  if t = tag_boxed then be.b_box <- Array.unsafe_get p.bp_box i
  else begin
    be.b_int <- Array.unsafe_get p.bp_int i;
    Float.Array.unsafe_set be.b_flt 0 (Bigarray.Array1.unsafe_get p.bp_flt i)
  end

let[@inline] bp_store p ofs be =
  let i = ofs + be.b_inst in
  let t = be.b_tag in
  Bigarray.Array1.unsafe_set p.bp_tag i t;
  if t = tag_boxed then Array.unsafe_set p.bp_box i be.b_box
  else begin
    Array.unsafe_set p.bp_int i be.b_int;
    Bigarray.Array1.unsafe_set p.bp_flt i (Float.Array.unsafe_get be.b_flt 0)
  end

(* Shared [Present (Bool _)] messages keep trace decode allocation-free
   for the most common payload. *)
let msg_true = Value.Present (Value.Bool true)
let msg_false = Value.Present (Value.Bool false)

let value_parts (v : Value.t) =
  match v with
  | Value.Bool b -> (tag_bool, (if b then 1 else 0), 0., v)
  | Value.Int i -> (tag_int, i, 0., v)
  | Value.Float f -> (tag_float, 0, f, v)
  | Value.Enum _ | Value.Tuple _ -> (tag_boxed, 0, 0., v)

let value_of_parts tag i f box : Value.t =
  if tag = tag_bool then Value.Bool (i <> 0)
  else if tag = tag_int then Value.Int i
  else if tag = tag_float then Value.Float f
  else box

let[@inline] scratch_set_parts be t i f b =
  be.b_tag <- t;
  be.b_int <- i;
  Float.Array.unsafe_set be.b_flt 0 f;
  if t = tag_boxed then be.b_box <- b

let scratch_set_value be (v : Value.t) =
  match v with
  | Value.Bool b ->
    be.b_tag <- tag_bool;
    be.b_int <- (if b then 1 else 0)
  | Value.Int i ->
    be.b_tag <- tag_int;
    be.b_int <- i
  | Value.Float f ->
    be.b_tag <- tag_float;
    Float.Array.unsafe_set be.b_flt 0 f
  | Value.Enum _ | Value.Tuple _ ->
    be.b_tag <- tag_boxed;
    be.b_box <- v

let scratch_value be =
  value_of_parts be.b_tag be.b_int (Float.Array.unsafe_get be.b_flt 0) be.b_box

let scratch_message be =
  if be.b_tag = tag_absent then Value.Absent
  else Value.Present (scratch_value be)

let bp_message p i : Value.message =
  match Bigarray.Array1.unsafe_get p.bp_tag i with
  | 0 -> Value.Absent
  | 1 -> if Array.unsafe_get p.bp_int i <> 0 then msg_true else msg_false
  | 2 -> Value.Present (Value.Int (Array.unsafe_get p.bp_int i))
  | 3 -> Value.Present (Value.Float (Bigarray.Array1.unsafe_get p.bp_flt i))
  | _ -> Value.Present (Array.unsafe_get p.bp_box i)

let bp_set_value p i (v : Value.t) =
  match v with
  | Value.Bool b ->
    Bigarray.Array1.unsafe_set p.bp_tag i tag_bool;
    Array.unsafe_set p.bp_int i (if b then 1 else 0)
  | Value.Int n ->
    Bigarray.Array1.unsafe_set p.bp_tag i tag_int;
    Array.unsafe_set p.bp_int i n
  | Value.Float f ->
    Bigarray.Array1.unsafe_set p.bp_tag i tag_float;
    Bigarray.Array1.unsafe_set p.bp_flt i f
  | Value.Enum _ | Value.Tuple _ ->
    Bigarray.Array1.unsafe_set p.bp_tag i tag_boxed;
    Array.unsafe_set p.bp_box i v

let bp_set_message p i = function
  | Value.Absent -> Bigarray.Array1.unsafe_set p.bp_tag i tag_absent
  | Value.Present v -> bp_set_value p i v

(* Row-wise operations over one instance range. *)
let row_fill_absent p ofs lo hi =
  for i = lo + ofs to hi - 1 + ofs do
    Bigarray.Array1.unsafe_set p.bp_tag i tag_absent
  done

let row_copy sp sofs dp dofs lo hi =
  for i = lo to hi - 1 do
    let t = Bigarray.Array1.unsafe_get sp.bp_tag (sofs + i) in
    Bigarray.Array1.unsafe_set dp.bp_tag (dofs + i) t;
    if t = tag_boxed then
      Array.unsafe_set dp.bp_box (dofs + i) (Array.unsafe_get sp.bp_box (sofs + i))
    else begin
      Array.unsafe_set dp.bp_int (dofs + i) (Array.unsafe_get sp.bp_int (sofs + i));
      Bigarray.Array1.unsafe_set dp.bp_flt (dofs + i)
        (Bigarray.Array1.unsafe_get sp.bp_flt (sofs + i))
    end
  done

let elt_copy sp si dp di =
  let t = Bigarray.Array1.unsafe_get sp.bp_tag si in
  Bigarray.Array1.unsafe_set dp.bp_tag di t;
  if t = tag_boxed then
    Array.unsafe_set dp.bp_box di (Array.unsafe_get sp.bp_box si)
  else begin
    Array.unsafe_set dp.bp_int di (Array.unsafe_get sp.bp_int si);
    Bigarray.Array1.unsafe_set dp.bp_flt di (Bigarray.Array1.unsafe_get sp.bp_flt si)
  end

(* ---------------- Expression staging ------------------------------ *)

(* The slow paths decode scratch back to {!Value.t} and call the same
   operations as the interpreter, so every error message and every
   mixed-type corner (NaN equality via [Float.equal], comparisons
   through [Value.to_float], native-int division by zero) is identical
   to {!Expr.step}. *)

let eval_err msg = raise (Expr.Eval_error msg)

let slow_unop op ta ia fa ba be =
  let v = value_of_parts ta ia fa ba in
  match Expr.apply_unop op v with
  | r -> scratch_set_value be r
  | exception Value.Type_error msg -> eval_err msg

let slow_binop op ta ia fa ba be =
  let vb = scratch_value be in
  let va = value_of_parts ta ia fa ba in
  match Expr.apply_binop op va vb with
  | r -> scratch_set_value be r
  | exception Value.Type_error msg -> eval_err msg

(* Left operand in (ta, ia, fa, ba), right operand in scratch, both
   present.  Result goes to scratch. *)
let binop_combine op ta ia fa ba be =
  let tb = be.b_tag in
  match op with
  | Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Min | Expr.Max ->
    if ta = tag_int && tb = tag_int then begin
      let x = ia and y = be.b_int in
      match op with
      | Expr.Add -> be.b_int <- x + y
      | Expr.Sub -> be.b_int <- x - y
      | Expr.Mul -> be.b_int <- x * y
      | Expr.Div -> be.b_int <- x / y (* raises Division_by_zero, as Value.div *)
      | Expr.Min -> be.b_int <- (if x <= y then x else y)
      | Expr.Max -> be.b_int <- (if x >= y then x else y)
      | _ -> assert false
    end
    else if
      (ta = tag_int || ta = tag_float) && (tb = tag_int || tb = tag_float)
    then begin
      let x = if ta = tag_int then float_of_int ia else fa in
      let y =
        if tb = tag_int then float_of_int be.b_int
        else Float.Array.unsafe_get be.b_flt 0
      in
      let r =
        match op with
        | Expr.Add -> x +. y
        | Expr.Sub -> x -. y
        | Expr.Mul -> x *. y
        | Expr.Div -> x /. y
        | Expr.Min -> Float.min x y
        | Expr.Max -> Float.max x y
        | _ -> assert false
      in
      Float.Array.unsafe_set be.b_flt 0 r;
      be.b_tag <- tag_float
    end
    else slow_binop op ta ia fa ba be
  | Expr.Mod ->
    if ta = tag_int && tb = tag_int then begin
      let y = be.b_int in
      if y = 0 then raise Division_by_zero;
      be.b_int <- ia mod y
    end
    else slow_binop op ta ia fa ba be
  | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge ->
    if (ta = tag_int || ta = tag_float) && (tb = tag_int || tb = tag_float)
    then begin
      (* exact [Value.cmp] semantics: both sides through [to_float] *)
      let x = if ta = tag_int then float_of_int ia else fa in
      let y =
        if tb = tag_int then float_of_int be.b_int
        else Float.Array.unsafe_get be.b_flt 0
      in
      let r =
        match op with
        | Expr.Lt -> x < y
        | Expr.Le -> x <= y
        | Expr.Gt -> x > y
        | Expr.Ge -> x >= y
        | _ -> assert false
      in
      be.b_int <- (if r then 1 else 0);
      be.b_tag <- tag_bool
    end
    else slow_binop op ta ia fa ba be
  | Expr.Eq | Expr.Ne ->
    let r =
      if ta <> tb then false
      else if ta = tag_float then
        Float.equal fa (Float.Array.unsafe_get be.b_flt 0)
      else if ta = tag_boxed then Value.equal ba be.b_box
      else ia = be.b_int
    in
    let r = if op = Expr.Ne then not r else r in
    be.b_int <- (if r then 1 else 0);
    be.b_tag <- tag_bool
  | Expr.And ->
    if ta = tag_bool && ia = 0 then begin
      (* short-circuit: [truth b] is never checked, as [( && )] *)
      be.b_tag <- tag_bool;
      be.b_int <- 0
    end
    else if ta = tag_bool && tb = tag_bool then () (* result is [b], in scratch *)
    else slow_binop op ta ia fa ba be
  | Expr.Or ->
    if ta = tag_bool && ia <> 0 then begin
      be.b_tag <- tag_bool;
      be.b_int <- 1
    end
    else if ta = tag_bool && tb = tag_bool then ()
    else slow_binop op ta ia fa ba be

let truth_parts t i f b =
  if t = tag_bool then i <> 0
  else
    match Value.truth (value_of_parts t i f b) with
    | r -> r
    | exception Value.Type_error msg -> eval_err msg

(* Scratch-kernel staging, used for STD guards/outputs/updates where
   control flow is per-instance anyway.  Expressions are evaluated with
   the STD's stateless semantics: every evaluation runs against fresh
   registers ([Std_machine.eval_to_value] builds a fresh
   [Expr.init_state] per call).  Data-flow expression blocks use the
   row-granular stager below instead. *)
let rec stage_expr resolve (e : Expr.t) : bkern =
  match e with
  | Expr.Const v ->
    let t, i, f, b = value_parts v in
    fun be -> scratch_set_parts be t i f b
  | Expr.Var name -> (
    match resolve name with
    | Brow_absent -> fun be -> be.b_tag <- tag_absent
    | Brow (p, ofs) -> fun be -> bp_load p ofs be)
  | Expr.Is_present name -> (
    match resolve name with
    | Brow_absent ->
      fun be ->
        be.b_tag <- tag_bool;
        be.b_int <- 0
    | Brow (p, ofs) ->
      fun be ->
        be.b_int <-
          (if Bigarray.Array1.unsafe_get p.bp_tag (ofs + be.b_inst) = tag_absent
           then 0
           else 1);
        be.b_tag <- tag_bool)
  | Expr.Unop (op, a) ->
    let ka = stage_expr resolve a in
    fun be ->
      ka be;
      (match be.b_tag with
       | 0 -> ()
       | 2 when op = Expr.Neg -> be.b_int <- -be.b_int
       | 3 when op = Expr.Neg ->
         Float.Array.unsafe_set be.b_flt 0
           (-.Float.Array.unsafe_get be.b_flt 0)
       | 1 when op = Expr.Not -> be.b_int <- 1 - be.b_int
       | 2 when op = Expr.Abs -> be.b_int <- Stdlib.abs be.b_int
       | 3 when op = Expr.Abs ->
         Float.Array.unsafe_set be.b_flt 0
           (Float.abs (Float.Array.unsafe_get be.b_flt 0))
       | t ->
         slow_unop op t be.b_int
           (Float.Array.unsafe_get be.b_flt 0)
           be.b_box be)
  | Expr.Binop (op, Expr.Const v, b) ->
    (* constant left operand: no save/restore, no second kernel call *)
    let tc, ic, fc, bc = value_parts v in
    let kb = stage_expr resolve b in
    fun be ->
      kb be;
      if be.b_tag <> tag_absent then binop_combine op tc ic fc bc be
  | Expr.Binop (op, a, Expr.Const v) ->
    let tc, ic, fc, bc = value_parts v in
    let ka = stage_expr resolve a in
    fun be ->
      ka be;
      if be.b_tag <> tag_absent then begin
        let ta = be.b_tag and ia = be.b_int and ba = be.b_box in
        let fa = Float.Array.unsafe_get be.b_flt 0 in
        scratch_set_parts be tc ic fc bc;
        binop_combine op ta ia fa ba be
      end
  | Expr.Binop (op, a, b) ->
    let ka = stage_expr resolve a in
    let kb = stage_expr resolve b in
    fun be ->
      ka be;
      if be.b_tag = tag_absent then begin
        (* the interpreter still evaluates [b] (register advancement) *)
        kb be;
        be.b_tag <- tag_absent
      end
      else begin
        let ta = be.b_tag and ia = be.b_int and ba = be.b_box in
        let fa = Float.Array.unsafe_get be.b_flt 0 in
        kb be;
        if be.b_tag <> tag_absent then binop_combine op ta ia fa ba be
      end
  | Expr.If (c, a, b) ->
    let kc = stage_expr resolve c in
    let ka = stage_expr resolve a in
    let kb = stage_expr resolve b in
    fun be ->
      kc be;
      let tc = be.b_tag and ic = be.b_int and bc = be.b_box in
      let fc = Float.Array.unsafe_get be.b_flt 0 in
      (* both branches always run, matching data-flow semantics *)
      ka be;
      let ta = be.b_tag and ia = be.b_int and ba = be.b_box in
      let fa = Float.Array.unsafe_get be.b_flt 0 in
      kb be;
      if tc = tag_absent then be.b_tag <- tag_absent
      else if truth_parts tc ic fc bc then scratch_set_parts be ta ia fa ba
  | Expr.Pre (init, a) ->
    let ti, ii, fi, bi = value_parts init in
    let ka = stage_expr resolve a in
    fun be ->
      ka be;
      if be.b_tag <> tag_absent then scratch_set_parts be ti ii fi bi
  | Expr.Current (init, a) ->
    let ti, ii, fi, bi = value_parts init in
    let ka = stage_expr resolve a in
    fun be ->
      ka be;
      if be.b_tag = tag_absent then scratch_set_parts be ti ii fi bi
  | Expr.When (a, c) ->
    let ka = stage_expr resolve a in
    fun be ->
      ka be;
      if
        be.b_tag <> tag_absent
        && not (Clock.active ~schedule:be.b_sched c be.b_tick)
      then be.b_tag <- tag_absent
  | Expr.Call (name, args) ->
    let ks = Array.of_list (List.map (stage_expr resolve) args) in
    let n = Array.length ks in
    fun be ->
      let msgs = Array.make n Value.Absent in
      for i = 0 to n - 1 do
        (Array.unsafe_get ks i) be;
        msgs.(i) <- scratch_message be
      done;
      let rec collect i acc =
        if i < 0 then Some acc
        else
          match msgs.(i) with
          | Value.Present v -> collect (i - 1) (v :: acc)
          | Value.Absent -> None
      in
      (match collect (n - 1) [] with
       | None -> be.b_tag <- tag_absent
       | Some vals -> (
         match Block_lib.eval name vals with
         | r -> scratch_set_value be r
         | exception Block_lib.Unknown_function fn ->
           eval_err (Printf.sprintf "unknown library function %s" fn)
         | exception (Block_lib.Arity_error msg | Value.Type_error msg) ->
           eval_err msg))

(* ---------------- Node staging ------------------------------------ *)

(* A staged step over one contiguous instance range [lo, hi). *)
type bstep = benv -> int -> int -> unit

(* One column's copy of a snapshot site's cells: [rows] plane rows at
   stride 1, or the immutable element a per-column array holds (an STD
   state index, an interpreter state). *)
type bcells = Rows of bplanes | Std_state of int | Interp_state of comp_state

(* A snapshot site: [save col] copies column [col]'s cells out, [load
   cells dst] writes them into column [dst].  Staging is a function of
   the {!indexed} alone, so every batch compiled from one index
   registers the same sites in the same order, whatever its width — a
   snapshot taken in one of them loads into any other. *)
type bsite = { save : int -> bcells; load : bcells -> int -> unit }

(* Registry of a staged batch's per-instance state.  Every staging
   function that allocates state carrying over from tick to tick
   registers both a reset (all columns back to initial values) and a
   snapshot site.  Per-tick scratch (expression temps, update staging
   planes, the input planes) is deliberately NOT registered — it is
   fully rewritten before being read each tick. *)
type breg = {
  mutable rg_resets : (unit -> unit) list;
  mutable rg_sites : bsite list;
}

let reg_reset reg f = reg.rg_resets <- f :: reg.rg_resets
let reg_site reg site = reg.rg_sites <- site :: reg.rg_sites
let site_mismatch () = sim_error "batch_restore: snapshot site shape mismatch"

(* Snapshot site over [rows] rows of plane [p]. *)
let reg_plane_site reg ~stride p rows =
  if rows > 0 then
    reg_site reg
      { save =
          (fun col ->
            let tmp = bplanes_make ~stride:1 rows in
            for r = 0 to rows - 1 do
              elt_copy p ((r * stride) + col) tmp r
            done;
            Rows tmp);
        load =
          (fun cells dst ->
            match cells with
            | Rows tmp ->
              for r = 0 to rows - 1 do
                elt_copy tmp r p ((r * stride) + dst)
              done
            | Std_state _ | Interp_state _ -> site_mismatch ()) }

let reg_alloc ~stride ~resets init =
  let p = bplanes_make ~stride 1 in
  reg_reset resets (fun () ->
      for i = 0 to stride - 1 do
        bp_set_value p i init
      done);
  reg_plane_site resets ~stride p 1;
  (p, 0)

(* First matching driver wins, as the interpreter's channel search. *)
let resolve_of (drivers : (string * brow) array) name =
  let n = Array.length drivers in
  let rec find j =
    if j >= n then Brow_absent
    else
      let p, row = Array.unsafe_get drivers j in
      if String.equal p name then row else find (j + 1)
  in
  find 0

(* ---------------- Row-granular staging (expression blocks) -------- *)

(* Data-flow expression blocks have no per-instance control flow, so
   every AST node can run as ONE loop over the whole instance range
   (instance axis innermost, branch-light) instead of a per-instance
   kernel call.  Each node's result lives in a one-row plane; [Var],
   [Const] and [Current] results are aliases, so reads cost nothing.
   This is what makes a wide batch an order of magnitude faster than
   looping width-1 runs ([run_indexed]): the per-node interpretive
   overhead (closure dispatch, scratch traffic) is amortized over the
   range. *)

let[@inline] tag_at p i = Bigarray.Array1.unsafe_get p.bp_tag i
let[@inline] set_absent p i = Bigarray.Array1.unsafe_set p.bp_tag i tag_absent
let[@inline] int_at p i = Array.unsafe_get p.bp_int i
let[@inline] flt_at p i = Bigarray.Array1.unsafe_get p.bp_flt i

let[@inline] set_ires p i n =
  Bigarray.Array1.unsafe_set p.bp_tag i tag_int;
  Array.unsafe_set p.bp_int i n

let[@inline] set_fres p i f =
  Bigarray.Array1.unsafe_set p.bp_tag i tag_float;
  Bigarray.Array1.unsafe_set p.bp_flt i f

let[@inline] set_bres p i b =
  Bigarray.Array1.unsafe_set p.bp_tag i tag_bool;
  Array.unsafe_set p.bp_int i (if b then 1 else 0)

let elt_value p i =
  value_of_parts (tag_at p i) (int_at p i) (flt_at p i)
    (Array.unsafe_get p.bp_box i)

let truth_elt p i =
  if tag_at p i = tag_bool then int_at p i <> 0
  else
    match Value.truth (elt_value p i) with
    | r -> r
    | exception Value.Type_error msg -> eval_err msg

(* Mixed/boxed operands: decode and run the interpreter's operation,
   so every error message and corner case is identical. *)
let binop_slow_elt op ap ai bp bi dp di =
  let va = elt_value ap ai and vb = elt_value bp bi in
  match Expr.apply_binop op va vb with
  | r -> bp_set_value dp di r
  | exception Value.Type_error msg -> eval_err msg

let binop_row op (ap, aofs) (bp, bofs) (dp, dofs) : bstep =
  fun _be lo hi ->
    for i = lo to hi - 1 do
      let ai = aofs + i and bi = bofs + i and di = dofs + i in
      let ta = tag_at ap ai and tb = tag_at bp bi in
      if ta = tag_absent || tb = tag_absent then set_absent dp di
      else if ta = tag_float && tb = tag_float then begin
        let x = flt_at ap ai and y = flt_at bp bi in
        match op with
        | Expr.Add -> set_fres dp di (x +. y)
        | Expr.Sub -> set_fres dp di (x -. y)
        | Expr.Mul -> set_fres dp di (x *. y)
        | Expr.Div -> set_fres dp di (x /. y)
        | Expr.Min -> set_fres dp di (Float.min x y)
        | Expr.Max -> set_fres dp di (Float.max x y)
        | Expr.Lt -> set_bres dp di (x < y)
        | Expr.Le -> set_bres dp di (x <= y)
        | Expr.Gt -> set_bres dp di (x > y)
        | Expr.Ge -> set_bres dp di (x >= y)
        | Expr.Eq -> set_bres dp di (Float.equal x y)
        | Expr.Ne -> set_bres dp di (not (Float.equal x y))
        | Expr.Mod | Expr.And | Expr.Or -> binop_slow_elt op ap ai bp bi dp di
      end
      else if ta = tag_int && tb = tag_int then begin
        let x = int_at ap ai and y = int_at bp bi in
        match op with
        | Expr.Add -> set_ires dp di (x + y)
        | Expr.Sub -> set_ires dp di (x - y)
        | Expr.Mul -> set_ires dp di (x * y)
        | Expr.Div -> set_ires dp di (x / y) (* Division_by_zero, as Value.div *)
        | Expr.Mod ->
          if y = 0 then raise Division_by_zero else set_ires dp di (x mod y)
        | Expr.Min -> set_ires dp di (if x <= y then x else y)
        | Expr.Max -> set_ires dp di (if x >= y then x else y)
        (* exact [Value.cmp] semantics: both sides through [to_float] *)
        | Expr.Lt -> set_bres dp di (float_of_int x < float_of_int y)
        | Expr.Le -> set_bres dp di (float_of_int x <= float_of_int y)
        | Expr.Gt -> set_bres dp di (float_of_int x > float_of_int y)
        | Expr.Ge -> set_bres dp di (float_of_int x >= float_of_int y)
        | Expr.Eq -> set_bres dp di (x = y)
        | Expr.Ne -> set_bres dp di (x <> y)
        | Expr.And | Expr.Or -> binop_slow_elt op ap ai bp bi dp di
      end
      else if ta = tag_bool && tb = tag_bool then begin
        let x = int_at ap ai <> 0 and y = int_at bp bi <> 0 in
        match op with
        | Expr.And -> set_bres dp di (x && y)
        | Expr.Or -> set_bres dp di (x || y)
        | Expr.Eq -> set_bres dp di (x = y)
        | Expr.Ne -> set_bres dp di (x <> y)
        | _ -> binop_slow_elt op ap ai bp bi dp di
      end
      else binop_slow_elt op ap ai bp bi dp di
    done

let unop_row op (sp, sofs) (dp, dofs) : bstep =
  fun _be lo hi ->
    for i = lo to hi - 1 do
      let si = sofs + i and di = dofs + i in
      match tag_at sp si with
      | 0 -> set_absent dp di
      | 2 when op = Expr.Neg -> set_ires dp di (-int_at sp si)
      | 3 when op = Expr.Neg -> set_fres dp di (-.flt_at sp si)
      | 1 when op = Expr.Not -> set_bres dp di (int_at sp si = 0)
      | 2 when op = Expr.Abs -> set_ires dp di (Stdlib.abs (int_at sp si))
      | 3 when op = Expr.Abs -> set_fres dp di (Float.abs (flt_at sp si))
      | _ ->
        (match Expr.apply_unop op (elt_value sp si) with
         | r -> bp_set_value dp di r
         | exception Value.Type_error msg -> eval_err msg)
    done

let is_present_row (sp, sofs) (dp, dofs) : bstep =
  fun _be lo hi ->
    for i = lo to hi - 1 do
      set_bres dp (dofs + i) (tag_at sp (sofs + i) <> tag_absent)
    done

(* Both branches are already computed (data-flow semantics); the select
   only checks the condition's truth, as the interpreter. *)
let if_row (cp, cofs) ra rb (dp, dofs) : bstep =
  fun _be lo hi ->
    for i = lo to hi - 1 do
      let ci = cofs + i and di = dofs + i in
      if tag_at cp ci = tag_absent then set_absent dp di
      else
        match (if truth_elt cp ci then ra else rb) with
        | Brow_absent -> set_absent dp di
        | Brow (sp, sofs) -> elt_copy sp (sofs + i) dp di
    done

(* Register rows always hold a value (never absent): initialized from
   the declared init and only ever overwritten with present values. *)
let pre_row (sp, sofs) (rp, rofs) (dp, dofs) : bstep =
  fun _be lo hi ->
    for i = lo to hi - 1 do
      let si = sofs + i and di = dofs + i in
      if tag_at sp si = tag_absent then set_absent dp di
      else begin
        let ri = rofs + i in
        elt_copy rp ri dp di;
        elt_copy sp si rp ri
      end
    done

(* [Current]'s result row IS its register row: hold the last present
   value, so only present source elements are copied in. *)
let current_row (sp, sofs) (rp, rofs) : bstep =
  fun _be lo hi ->
    for i = lo to hi - 1 do
      let si = sofs + i in
      if tag_at sp si <> tag_absent then elt_copy sp si rp (rofs + i)
    done

let when_row c (sp, sofs) (dp, dofs) : bstep =
  fun be lo hi ->
    for i = lo to hi - 1 do
      let si = sofs + i and di = dofs + i in
      if
        tag_at sp si <> tag_absent
        && Clock.active ~schedule:(Array.unsafe_get be.b_scheds i) c be.b_tick
      then elt_copy sp si dp di
      else set_absent dp di
    done

let call_row name (args : (bplanes * int) array) (dp, dofs) : bstep =
  let n = Array.length args in
  fun _be lo hi ->
    for i = lo to hi - 1 do
      let di = dofs + i in
      let rec collect j acc =
        if j < 0 then Some acc
        else
          let p, ofs = Array.unsafe_get args j in
          if tag_at p (ofs + i) = tag_absent then None
          else collect (j - 1) (elt_value p (ofs + i) :: acc)
      in
      match collect (n - 1) [] with
      | None -> set_absent dp di
      | Some vals -> (
        match Block_lib.eval name vals with
        | r -> bp_set_value dp di r
        | exception Block_lib.Unknown_function fn ->
          eval_err (Printf.sprintf "unknown library function %s" fn)
        | exception (Block_lib.Arity_error msg | Value.Type_error msg) ->
          eval_err msg)
    done

let stage_exprs ~stride ~resets ~resolve ~(outs : (string * Expr.t) list)
    ~(sinks : (string * (bplanes * int)) list) : bstep =
  let temp () = (bplanes_make ~stride 1, 0) in
  let const_row v =
    let (p, _) as row = temp () in
    for i = 0 to stride - 1 do
      bp_set_value p i v
    done;
    row
  in
  let ops = ref [] in
  let add op = ops := op :: !ops in
  (* Emits the node's operation(s) and returns the row holding its
     result.  Producing nodes write into [dst] when given (so an
     output's top node writes the sink slot row directly); statically
     absent subtrees return [Brow_absent] while their registers still
     advance, as the interpreter's strict evaluation. *)
  let rec emit ?dst (e : Expr.t) : brow =
    let out () = match dst with Some row -> row | None -> temp () in
    match e with
    | Expr.Const v ->
      let p, ofs = const_row v in
      Brow (p, ofs)
    | Expr.Var name -> resolve name
    | Expr.Is_present name -> (
      match resolve name with
      | Brow_absent ->
        let p, ofs = const_row (Value.Bool false) in
        Brow (p, ofs)
      | Brow (sp, sofs) ->
        let (dp, dofs) as d = out () in
        add (is_present_row (sp, sofs) d);
        Brow (dp, dofs))
    | Expr.Unop (op, a) -> (
      match emit a with
      | Brow_absent -> Brow_absent
      | Brow (ap, aofs) ->
        let (dp, dofs) as d = out () in
        add (unop_row op (ap, aofs) d);
        Brow (dp, dofs))
    | Expr.Binop (op, a, b) -> (
      let ra = emit a in
      let rb = emit b in
      match (ra, rb) with
      | Brow_absent, _ | _, Brow_absent -> Brow_absent
      | Brow (ap, aofs), Brow (bp, bofs) ->
        let (dp, dofs) as d = out () in
        add (binop_row op (ap, aofs) (bp, bofs) d);
        Brow (dp, dofs))
    | Expr.If (c, a, b) -> (
      let rc = emit c in
      let ra = emit a in
      let rb = emit b in
      match rc with
      | Brow_absent -> Brow_absent
      | Brow (cp, cofs) ->
        let (dp, dofs) as d = out () in
        add (if_row (cp, cofs) ra rb d);
        Brow (dp, dofs))
    | Expr.Pre (init, a) -> (
      match emit a with
      | Brow_absent -> Brow_absent (* register never advances *)
      | Brow (ap, aofs) ->
        let r = reg_alloc ~stride ~resets init in
        let (dp, dofs) as d = out () in
        add (pre_row (ap, aofs) r d);
        Brow (dp, dofs))
    | Expr.Current (init, a) -> (
      let ((rp, rofs) as r) = reg_alloc ~stride ~resets init in
      match emit a with
      | Brow_absent -> Brow (rp, rofs) (* holds [init] forever *)
      | Brow (ap, aofs) ->
        add (current_row (ap, aofs) r);
        Brow (rp, rofs))
    | Expr.When (a, c) -> (
      match emit a with
      | Brow_absent -> Brow_absent
      | Brow (ap, aofs) -> (
        match c with
        | Clock.Base -> Brow (ap, aofs) (* the base clock is always active *)
        | _ ->
          let (dp, dofs) as d = out () in
          add (when_row c (ap, aofs) d);
          Brow (dp, dofs)))
    | Expr.Call (name, args) ->
      let rows = List.map (fun a -> emit a) args in
      if List.exists (function Brow_absent -> true | _ -> false) rows then
        Brow_absent (* any absent argument: result is absent *)
      else
        let rows =
          Array.of_list
            (List.map
               (function Brow (p, o) -> (p, o) | Brow_absent -> assert false)
               rows)
        in
        let (dp, dofs) as d = out () in
        add (call_row name rows d);
        Brow (dp, dofs)
  in
  let seen = Hashtbl.create 8 in
  let staged =
    List.map
      (fun (port, e) ->
        (* first occurrence wins for duplicate ports, as [List.assoc_opt];
           undeclared and duplicate ports are still evaluated, as the
           interpreter (registers advance), their result discarded *)
        let sink =
          if Hashtbl.mem seen port then None
          else begin
            Hashtbl.add seen port ();
            List.assoc_opt port sinks
          end
        in
        ops := [];
        let row =
          match sink with Some d -> emit ~dst:d e | None -> emit e
        in
        let port_ops = Array.of_list (List.rev !ops) in
        let finish : bstep option =
          match sink with
          | None -> None
          | Some (sp, sofs) -> (
            match row with
            | Brow (p, o) when p == sp && o = sofs -> None
            | Brow (p, o) -> Some (fun _be lo hi -> row_copy p o sp sofs lo hi)
            | Brow_absent ->
              Some (fun _be lo hi -> row_fill_absent sp sofs lo hi))
        in
        (port, port_ops, finish))
      outs
  in
  let staged = Array.of_list staged in
  let leftover =
    List.filter_map
      (fun (port, row) -> if Hashtbl.mem seen port then None else Some row)
      sinks
  in
  fun be lo hi ->
    Array.iter
      (fun (port, port_ops, finish) ->
        try
          Array.iter (fun op -> op be lo hi) port_ops;
          match finish with Some f -> f be lo hi | None -> ()
        with Expr.Eval_error msg -> sim_error "output %s: %s" port msg)
      staged;
    List.iter (fun (p, ofs) -> row_fill_absent p ofs lo hi) leftover

(* Staged STD transition: everything name-resolved and sorted at
   compile time; the per-instance step only walks int-indexed arrays. *)
type bt_sout = {
  so_port : string;
  so_kern : bkern;
  so_sink : (bplanes * int) option;
}

type bt_supd =
  | Su_undeclared of string
  | Su_eval of string * bkern * int (* name, kernel, scratch row offset *)

type bt_trans = {
  tr_src : string;
  tr_dst_name : string;
  tr_dst : int;
  tr_guard : bkern;
  tr_probe : string option; (* "std.<name>.<src>-><dst>" when src <> dst *)
  tr_outs : bt_sout array;
  tr_absent : (bplanes * int) list; (* sinks this transition leaves absent *)
  tr_updates : bt_supd array;
  tr_apply : (int * int) array; (* (var row offset, scratch row offset) *)
}

let stage_std ~stride ~resets ~resolve
    ~(sinks : (string * (bplanes * int)) list) (std : Model.std) : bstep =
  let state_idx name =
    let rec go i = function
      | [] -> sim_error "STD %s: unknown state %s" std.Model.std_name name
      | s :: rest -> if String.equal s name then i else go (i + 1) rest
    in
    go 0 std.Model.std_states
  in
  let vars = Array.of_list std.Model.std_vars in
  let nvars = Array.length vars in
  let var_planes = bplanes_make ~stride nvars in
  let var_row name =
    let r = ref (-1) in
    Array.iteri
      (fun i (n, _) -> if !r < 0 && String.equal n name then r := i)
      vars;
    !r
  in
  (* state variables shadow input ports, as [extend_env] *)
  let resolve_v name =
    let vr = var_row name in
    if vr >= 0 then Brow (var_planes, vr * stride) else resolve name
  in
  let max_upd =
    List.fold_left
      (fun m (t : Model.std_transition) -> max m (List.length t.st_updates))
      0 std.Model.std_transitions
  in
  let upd_planes = bplanes_make ~stride max_upd in
  let stage_trans (t : Model.std_transition) =
    let seen = Hashtbl.create 8 in
    let souts =
      List.map
        (fun (port, e) ->
          let sink =
            if Hashtbl.mem seen port then None
            else begin
              Hashtbl.add seen port ();
              List.assoc_opt port sinks
            end
          in
          { so_port = port; so_kern = stage_expr resolve_v e; so_sink = sink })
        t.st_outputs
    in
    let absent =
      List.filter_map
        (fun (port, row) -> if Hashtbl.mem seen port then None else Some row)
        sinks
    in
    let upd_names = Array.of_list (List.map fst t.st_updates) in
    let updates =
      List.mapi
        (fun j (name, e) ->
          if var_row name < 0 then Su_undeclared name
          else Su_eval (name, stage_expr resolve_v e, j * stride))
        t.st_updates
    in
    let apply = ref [] in
    Array.iteri
      (fun v (name, _) ->
        let j = ref (-1) in
        Array.iteri
          (fun k un -> if !j < 0 && String.equal un name then j := k)
          upd_names;
        if !j >= 0 then apply := (v * stride, !j * stride) :: !apply)
      vars;
    { tr_src = t.st_src;
      tr_dst_name = t.st_dst;
      tr_dst = state_idx t.st_dst;
      tr_guard = stage_expr resolve_v t.st_guard;
      tr_probe =
        (if String.equal t.st_src t.st_dst then None
         else
           Some
             ("std." ^ std.Model.std_name ^ "." ^ t.st_src ^ "->" ^ t.st_dst));
      tr_outs = Array.of_list souts;
      tr_absent = absent;
      tr_updates = Array.of_list updates;
      tr_apply = Array.of_list (List.rev !apply) }
  in
  (* per-state candidates: same filter + [List.sort] as the interpreter,
     so evaluation order (hence error order) is identical *)
  let by_state =
    Array.of_list
      (List.map
         (fun s ->
           let candidates =
             List.filter
               (fun (t : Model.std_transition) -> String.equal t.st_src s)
               std.Model.std_transitions
           in
           let sorted =
             List.sort
               (fun (a : Model.std_transition) b ->
                 Int.compare a.st_priority b.st_priority)
               candidates
           in
           Array.of_list (List.map stage_trans sorted))
         std.Model.std_states)
  in
  let init_state = state_idx std.Model.std_initial in
  let state_col = Array.make stride init_state in
  reg_reset resets (fun () ->
      Array.fill state_col 0 stride init_state;
      Array.iteri
        (fun v (_, init) ->
          for i = 0 to stride - 1 do
            bp_set_value var_planes ((v * stride) + i) init
          done)
        vars);
  reg_plane_site resets ~stride var_planes nvars;
  reg_site resets
    { save = (fun c -> Std_state state_col.(c));
      load =
        (fun cells c ->
          match cells with
          | Std_state st -> state_col.(c) <- st
          | Rows _ | Interp_state _ -> site_mismatch ()) };
  let all_sinks = List.map snd sinks in
  let name = std.Model.std_name in
  fun be lo hi ->
    let probing = Probe.active () in
    for i = lo to hi - 1 do
      be_inst be i;
      let trans = Array.unsafe_get by_state (Array.unsafe_get state_col i) in
      let nt = Array.length trans in
      let fired = ref (-1) in
      let j = ref 0 in
      while !fired < 0 && !j < nt do
        let t = Array.unsafe_get trans !j in
        let enabled =
          match t.tr_guard be with
          | () ->
            if be.b_tag = tag_absent then false
            else if be.b_tag = tag_bool then be.b_int <> 0
            else (
              match Value.truth (scratch_value be) with
              | r -> r
              | exception Value.Type_error msg ->
                sim_error "STD %s: guard: %s" name msg)
          | exception Expr.Eval_error msg ->
            sim_error "STD %s: guard of %s->%s: %s" name t.tr_src
              t.tr_dst_name msg
        in
        if enabled then fired := !j else incr j
      done;
      if !fired < 0 then
        (* stutter: all outputs absent, state unchanged *)
        List.iter
          (fun (p, ofs) ->
            Bigarray.Array1.unsafe_set p.bp_tag (ofs + i) tag_absent)
          all_sinks
      else begin
        let t = Array.unsafe_get trans !fired in
        (match t.tr_probe with
         | Some key when probing -> Probe.count key
         | Some _ | None -> ());
        Array.iter
          (fun so ->
            (match so.so_kern be with
             | () -> ()
             | exception Expr.Eval_error msg ->
               sim_error "STD %s: output %s: %s" name so.so_port msg);
            if be.b_tag = tag_absent then
              sim_error "STD %s: output %s evaluated to an absent message"
                name so.so_port;
            match so.so_sink with
            | Some (p, ofs) -> bp_store p ofs be
            | None -> ())
          t.tr_outs;
        List.iter
          (fun (p, ofs) ->
            Bigarray.Array1.unsafe_set p.bp_tag (ofs + i) tag_absent)
          t.tr_absent;
        Array.iter
          (function
            | Su_undeclared uname ->
              sim_error "STD %s: assignment to undeclared variable %s" name
                uname
            | Su_eval (uname, k, row) ->
              (match k be with
               | () -> ()
               | exception Expr.Eval_error msg ->
                 sim_error "STD %s: update %s: %s" name uname msg);
              if be.b_tag = tag_absent then
                sim_error "STD %s: update %s evaluated to an absent message"
                  name uname;
              bp_store upd_planes row be)
          t.tr_updates;
        Array.iter
          (fun (vrow, urow) ->
            elt_copy upd_planes (urow + i) var_planes (vrow + i))
          t.tr_apply;
        Array.unsafe_set state_col i t.tr_dst
      end
    done

(* Per-instance interpreter fallback (MTDs: mode history + strong
   preemption are cheap to keep exact this way; identical semantics and
   probes by construction). *)
let stage_interp ~stride ~resets ~(drivers : (string * brow) array)
    ~(sinks : (string * (bplanes * int)) list) ~ports behavior : bstep =
  let states = Array.init stride (fun _ -> init_behavior ~ports behavior) in
  reg_reset resets (fun () ->
      for i = 0 to stride - 1 do
        states.(i) <- init_behavior ~ports behavior
      done);
  (* [comp_state] values are immutable, so sharing one across columns is
     safe *)
  reg_site resets
    { save = (fun c -> Interp_state states.(c));
      load =
        (fun cells c ->
          match cells with
          | Interp_state st -> states.(c) <- st
          | Rows _ | Std_state _ -> site_mismatch ()) };
  let ndrv = Array.length drivers in
  let sinks = Array.of_list sinks in
  fun be lo hi ->
    for i = lo to hi - 1 do
      be_inst be i;
      let inputs port =
        let rec find j =
          if j >= ndrv then Value.Absent
          else
            let p, row = Array.unsafe_get drivers j in
            if String.equal p port then
              match row with
              | Brow_absent -> Value.Absent
              | Brow (pl, ofs) -> bp_message pl (ofs + i)
            else find (j + 1)
        in
        find 0
      in
      let outs, st' =
        step_behavior ~schedule:be.b_sched ~tick:be.b_tick ~ports ~inputs
          behavior states.(i)
      in
      states.(i) <- st';
      Array.iter
        (fun (port, (p, ofs)) ->
          bp_set_message p (ofs + i) (lookup_outputs outs port))
        sinks
    done

let stage_atomic ~stride ~resets ~drivers ~resolve ~sinks ~ports behavior :
    bstep =
  match behavior with
  | Model.B_exprs outs ->
    stage_exprs ~stride ~resets ~resolve ~outs ~sinks
  | Model.B_std std -> stage_std ~stride ~resets ~resolve ~sinks std
  | Model.B_unspecified ->
    let rows = List.map snd sinks in
    fun _be lo hi ->
      List.iter (fun (p, ofs) -> row_fill_absent p ofs lo hi) rows
  | Model.B_mtd _ -> stage_interp ~stride ~resets ~drivers ~sinks ~ports behavior
  | Model.B_dfd _ | Model.B_ssd _ ->
    sim_error "batch: network behavior in atomic position"

let rec stage_net ~stride ~resets ~(boundary : string -> brow) (n : ix_net) :
    bstep * bplanes =
  let nslots = n.xn_nslots in
  let slots = bplanes_make ~stride nslots in
  let nchans = Array.length n.xn_chans in
  let buffers = bplanes_make ~stride nchans in
  let nbounds = Array.length n.xn_bounds in
  let bout = bplanes_make ~stride nbounds in
  reg_reset resets (fun () ->
      for r = 0 to nslots - 1 do
        row_fill_absent slots (r * stride) 0 stride
      done;
      for c = 0 to nchans - 1 do
        let init = n.xn_buf_init.(c) in
        for i = 0 to stride - 1 do
          bp_set_message buffers ((c * stride) + i) init
        done
      done;
      for r = 0 to nbounds - 1 do
        row_fill_absent bout (r * stride) 0 stride
      done);
  (* the delay registers are the only carried state here; slots and
     boundary outputs are fully rewritten before being read each tick,
     but snapshotting them too keeps capture trivially complete *)
  reg_plane_site resets ~stride slots nslots;
  reg_plane_site resets ~stride buffers nchans;
  reg_plane_site resets ~stride bout nbounds;
  let brow_of = function
    | Rd_boundary port -> boundary port
    | Rd_slot i -> Brow (slots, i * stride)
    | Rd_buffer i -> Brow (buffers, i * stride)
  in
  let stage_sub (sub : ix_sub) : bstep =
    let drivers = Array.map (fun (p, rd) -> (p, brow_of rd)) sub.xs_drivers in
    let resolve = resolve_of drivers in
    let inner =
      match sub.xs_node with
      | Ix_atomic { xa_ports; xa_behavior } ->
        let sinks =
          match sub.xs_outs with
          | Xo_atomic pairs ->
            Array.to_list
              (Array.map (fun (port, slot) -> (port, (slots, slot * stride))) pairs)
          | Xo_net _ -> sim_error "batch: atomic sub with network outputs"
        in
        stage_atomic ~stride ~resets ~drivers ~resolve ~sinks ~ports:xa_ports
          xa_behavior
      | Ix_net child ->
        let child_step, child_bout =
          stage_net ~stride ~resets ~boundary:resolve child
        in
        let pairs =
          match sub.xs_outs with
          | Xo_net pairs -> pairs
          | Xo_atomic _ -> sim_error "batch: network sub with atomic outputs"
        in
        fun be lo hi ->
          child_step be lo hi;
          Array.iter
            (fun (bi, slot) ->
              if bi < 0 then row_fill_absent slots (slot * stride) lo hi
              else row_copy child_bout (bi * stride) slots (slot * stride) lo hi)
            pairs
    in
    let fire = sub.xs_fire in
    let sub_name = sub.xs_name in
    fun be lo hi ->
      if Probe.active () then begin
        (* one fire per instance, keeping counter totals identical to a
           looped sweep; spans wrap the whole batched sub-step *)
        for _ = lo to hi - 1 do
          Probe.hit fire
        done;
        if Probe.spans_on () then Probe.enter ~tick:be.b_tick sub_name
      end;
      inner be lo hi;
      if Probe.spans_on () then Probe.exit_ ~tick:be.b_tick sub_name
  in
  let sub_steps = Array.map stage_sub n.xn_subs in
  let bound_srcs = Array.map (fun (b : ix_bound) -> brow_of b.xb_read) n.xn_bounds in
  (* A delay buffer only needs its per-tick refresh if some read in this
     net actually targets it (instantaneous channels leave their buffer
     unread); probe counters still fire for every channel. *)
  let buf_needed = Array.make (max 1 nchans) false in
  let mark_read = function
    | Rd_buffer i -> buf_needed.(i) <- true
    | Rd_boundary _ | Rd_slot _ -> ()
  in
  Array.iter
    (fun (s : ix_sub) -> Array.iter (fun (_, rd) -> mark_read rd) s.xs_drivers)
    n.xn_subs;
  Array.iter (fun (b : ix_bound) -> mark_read b.xb_read) n.xn_bounds;
  let chan_srcs =
    Array.map
      (fun (ch : ix_chan) ->
        (brow_of ch.xc_src, ch.xc_buf, buf_needed.(ch.xc_buf), ch.xc_present,
         ch.xc_absent))
      n.xn_chans
  in
  let step be lo hi =
    (* 1. sweep sub-components in evaluation order *)
    Array.iter (fun f -> f be lo hi) sub_steps;
    (* 2. boundary outputs, against the old registers *)
    Array.iteri
      (fun i src ->
        match src with
        | Brow_absent -> row_fill_absent bout (i * stride) lo hi
        | Brow (p, ofs) -> row_copy p ofs bout (i * stride) lo hi)
      bound_srcs;
    (* 3. refresh delay registers *)
    let probing = Probe.active () in
    Array.iter
      (fun (src, buf, needed, present, absent) ->
        let dofs = buf * stride in
        match src with
        | Brow_absent ->
          if probing then
            for _ = lo to hi - 1 do
              Probe.hit absent
            done;
          if needed then row_fill_absent buffers dofs lo hi
        | Brow (p, sofs) ->
          if probing then
            for i = lo to hi - 1 do
              Probe.hit
                (if Bigarray.Array1.unsafe_get p.bp_tag (sofs + i) = tag_absent
                 then absent
                 else present)
            done;
          if needed then row_copy p sofs buffers dofs lo hi)
      chan_srcs
  in
  (step, bout)

(* ---------------- Batch compile and drive ------------------------- *)

type batch = {
  bb_ix : indexed; (* the index it was compiled from *)
  bb_instances : int;
  bb_flows : string list; (* trace flows: declared inputs, then outputs *)
  bb_nflows : int;
  bb_in_rows : int array; (* per declared input port, its row in bb_ins *)
  bb_in_tbl : (string, int) Hashtbl.t; (* + undeclared boundary reads *)
  bb_nin_rows : int;
  bb_ins : bplanes;
  bb_out_rows : brow array; (* per declared output port *)
  bb_step : bstep;
  bb_reset : unit -> unit;
  bb_sites : bsite list; (* per-instance snapshot sites *)
  mutable bb_count : int;
  mutable bb_ticks : int;
  mutable bb_trace : bplanes;
  (* Per column: the persistent trace prefix held outside the planes
     (restored from a snapshot, or consed by a capture) and the tick it
     ends at.  The column's plane rows from that tick on belong to its
     current run; rows before it are never read. *)
  bb_prefix : Trace.t array;
  bb_prefix_tick : int array;
}

(* Input names an atomic root behavior may read through its environment
   (state variables may shadow some — extra rows are harmless). *)
let rec behavior_inputs (b : Model.behavior) =
  match b with
  | Model.B_exprs outs -> List.concat_map (fun (_, e) -> Expr.free_vars e) outs
  | Model.B_std std ->
    List.concat_map
      (fun (t : Model.std_transition) ->
        Expr.free_vars t.st_guard
        @ List.concat_map (fun (_, e) -> Expr.free_vars e) t.st_outputs
        @ List.concat_map (fun (_, e) -> Expr.free_vars e) t.st_updates)
      std.Model.std_transitions
  | Model.B_mtd mtd ->
    List.concat_map
      (fun (t : Model.mtd_transition) -> Expr.free_vars t.mt_guard)
      mtd.Model.mtd_transitions
    @ List.concat_map
        (fun (m : Model.mode) -> behavior_inputs m.mode_behavior)
        mtd.Model.mtd_modes
  | Model.B_dfd _ | Model.B_ssd _ | Model.B_unspecified -> []

let batch ~instances (ix : indexed) : batch =
  if instances <= 0 then
    sim_error "batch: instances must be positive (got %d)" instances;
  let stride = instances in
  let resets = { rg_resets = []; rg_sites = [] } in
  let tbl = Hashtbl.create 16 in
  let add name =
    if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name (Hashtbl.length tbl)
  in
  List.iter add ix.ix_in_ports;
  (match ix.ix_root with
   | Ix_net n ->
     let add_read = function Rd_boundary p -> add p | Rd_slot _ | Rd_buffer _ -> () in
     Array.iter
       (fun (s : ix_sub) -> Array.iter (fun (_, rd) -> add_read rd) s.xs_drivers)
       n.xn_subs;
     Array.iter (fun (c : ix_chan) -> add_read c.xc_src) n.xn_chans;
     Array.iter (fun (b : ix_bound) -> add_read b.xb_read) n.xn_bounds
   | Ix_atomic a -> List.iter add (behavior_inputs a.xa_behavior));
  let nin_rows = Hashtbl.length tbl in
  let ins = bplanes_make ~stride nin_rows in
  let boundary name =
    match Hashtbl.find_opt tbl name with
    | Some r -> Brow (ins, r * stride)
    | None -> Brow_absent
  in
  let step, out_rows =
    match ix.ix_root with
    | Ix_net n ->
      let step, bout = stage_net ~stride ~resets ~boundary n in
      let bounds =
        match ix.ix_out_bounds with
        | Some b -> b
        | None -> sim_error "batch: network root without boundary indices"
      in
      ( step,
        Array.map
          (fun bi -> if bi < 0 then Brow_absent else Brow (bout, bi * stride))
          bounds )
    | Ix_atomic a ->
      let out_planes = bplanes_make ~stride (List.length ix.ix_out_ports) in
      reg_plane_site resets ~stride out_planes (List.length ix.ix_out_ports);
      let sinks =
        List.mapi (fun i port -> (port, (out_planes, i * stride))) ix.ix_out_ports
      in
      let drivers =
        Array.of_list
          (Hashtbl.fold (fun name r acc -> (name, Brow (ins, r * stride)) :: acc) tbl [])
      in
      let step =
        stage_atomic ~stride ~resets ~drivers ~resolve:boundary ~sinks
          ~ports:a.xa_ports a.xa_behavior
      in
      (step, Array.of_list (List.map (fun (_, row) -> Brow (fst row, snd row)) sinks))
  in
  let rs = resets.rg_resets in
  let reset () = List.iter (fun f -> f ()) rs in
  reset ();
  let flows = ix.ix_in_ports @ ix.ix_out_ports in
  { bb_ix = ix;
    bb_instances = instances;
    bb_flows = flows;
    bb_nflows = List.length flows;
    bb_in_rows =
      Array.of_list (List.map (fun p -> Hashtbl.find tbl p) ix.ix_in_ports);
    bb_in_tbl = tbl;
    bb_nin_rows = nin_rows;
    bb_ins = ins;
    bb_out_rows = out_rows;
    bb_step = step;
    bb_reset = reset;
    bb_sites = resets.rg_sites;
    bb_count = 0;
    bb_ticks = 0;
    bb_trace = bplanes_make ~stride 0;
    bb_prefix = Array.make instances (Trace.make ~flows);
    bb_prefix_tick = Array.make instances 0 }

let batch_count b = b.bb_count

let run_batch ?schedules ?map ?(shards = 1) ?count ?(start = 0) ?stop
    ?(reset = true) ~ticks ~inputs (b : batch) =
  let count = match count with Some c -> c | None -> b.bb_instances in
  if count <= 0 || count > b.bb_instances then
    sim_error "run_batch: count %d out of range (batch holds %d instances)"
      count b.bb_instances;
  if ticks < 0 then sim_error "run_batch: negative ticks (%d)" ticks;
  let stop = match stop with Some s -> s | None -> ticks in
  if start < 0 || start > stop || stop > ticks then
    sim_error "run_batch: bad span [%d, %d) over %d ticks" start stop ticks;
  let shards = max 1 (min shards count) in
  let stride = b.bb_instances in
  let nflows = b.bb_nflows in
  if reset then begin
    b.bb_reset ();
    (* an unchanged horizon keeps the trace store: clearing the tags
       leaves it indistinguishable from a fresh one *)
    if b.bb_ticks = ticks then
      Bigarray.Array1.fill b.bb_trace.bp_tag tag_absent
    else b.bb_trace <- bplanes_make ~stride (nflows * ticks);
    b.bb_ticks <- ticks;
    Array.fill b.bb_prefix 0 stride (Trace.make ~flows:b.bb_flows);
    Array.fill b.bb_prefix_tick 0 stride 0
  end
  else begin
    if b.bb_ticks <> ticks then
      sim_error
        "run_batch: resumed span expects the previous horizon %d (got %d)"
        b.bb_ticks ticks;
    for i = 0 to count - 1 do
      if b.bb_prefix_tick.(i) > start then
        sim_error
          "run_batch: span from tick %d overlaps instance %d's trace \
           prefix (recorded up to tick %d)"
          start i b.bb_prefix_tick.(i)
    done
  end;
  let infns : input_fn array = Array.init count inputs in
  let scheds =
    match schedules with
    | None -> Array.make count Clock.no_events
    | Some f -> Array.init count f
  in
  let trace = b.bb_trace in
  b.bb_count <- count;
  let nin_rows = b.bb_nin_rows in
  let ntrace_in = Array.length b.bb_in_rows in
  let run_range lo hi () =
    let be = benv_make scheds in
    (* first-offered-wins per port and tick, as [List.assoc_opt] *)
    let stamp = Array.make (max 1 nin_rows) (-1) in
    let gen = ref 0 in
    for tick = start to stop - 1 do
      be.b_tick <- tick;
      if Probe.active () then begin
        for _ = lo to hi - 1 do
          Probe.hit sim_ticks
        done;
        if Probe.spans_on () then Probe.enter ~tick ~cat:"tick" "tick"
      end;
      for r = 0 to nin_rows - 1 do
        row_fill_absent b.bb_ins (r * stride) lo hi
      done;
      for i = lo to hi - 1 do
        incr gen;
        let g = !gen in
        let offered = (Array.unsafe_get infns i) tick in
        List.iter
          (fun (port, msg) ->
            match Hashtbl.find_opt b.bb_in_tbl port with
            | None -> () (* port read by nothing: ignored, as the looped run *)
            | Some r ->
              if stamp.(r) <> g then begin
                stamp.(r) <- g;
                bp_set_message b.bb_ins ((r * stride) + i) msg
              end)
          offered
      done;
      b.bb_step be lo hi;
      if Probe.spans_on () then Probe.exit_ ~tick ~cat:"tick" "tick";
      let base = tick * nflows in
      Array.iteri
        (fun f r ->
          row_copy b.bb_ins (r * stride) trace ((base + f) * stride) lo hi)
        b.bb_in_rows;
      Array.iteri
        (fun k src ->
          let f = ntrace_in + k in
          match src with
          | Brow_absent -> row_fill_absent trace ((base + f) * stride) lo hi
          | Brow (p, ofs) -> row_copy p ofs trace ((base + f) * stride) lo hi)
        b.bb_out_rows
    done
  in
  let thunks =
    if shards = 1 then [ run_range 0 count ]
    else begin
      let per = count / shards and rem = count mod shards in
      let rec build i lo acc =
        if i >= shards then List.rev acc
        else
          let size = per + if i < rem then 1 else 0 in
          build (i + 1) (lo + size) (run_range lo (lo + size) :: acc)
      in
      build 0 0 []
    end
  in
  match map with
  | None -> List.iter (fun f -> f ()) thunks
  | Some m -> m thunks

(* Column [instance]'s trace over [\[0, upto)]: its recorded prefix
   with the plane rows from the prefix's end tick consed on. *)
let batch_rows (b : batch) ~instance ~upto =
  let stride = b.bb_instances in
  let nflows = b.bb_nflows in
  let trace = ref b.bb_prefix.(instance) in
  for tick = b.bb_prefix_tick.(instance) to upto - 1 do
    let base = tick * nflows in
    let row =
      List.mapi
        (fun f name ->
          (name, bp_message b.bb_trace (((base + f) * stride) + instance)))
        b.bb_flows
    in
    trace := Trace.record_ordered !trace row
  done;
  !trace

let batch_trace (b : batch) ~instance =
  if instance < 0 || instance >= b.bb_count then
    sim_error "batch_trace: instance %d out of range (last run had %d)"
      instance b.bb_count;
  batch_rows b ~instance ~upto:b.bb_ticks

(* ---------------- Batched snapshots ------------------------------- *)

type batch_snapshot = {
  bn_ix : indexed;
  bn_tick : int;
  bn_ticks : int; (* horizon of the span being snapshotted *)
  bn_cells : bcells list; (* one per site of [bb_sites], in order *)
  bn_trace : Trace.t; (* persistent: rows [0, bn_tick) *)
}

let batch_snapshot (b : batch) ~instance ~tick =
  if instance < 0 || instance >= b.bb_instances then
    sim_error "batch_snapshot: instance %d out of range (batch holds %d)"
      instance b.bb_instances;
  if tick < 0 || tick > b.bb_ticks then
    sim_error "batch_snapshot: tick %d out of range (horizon %d)" tick
      b.bb_ticks;
  if tick < b.bb_prefix_tick.(instance) then
    sim_error
      "batch_snapshot: tick %d precedes instance %d's trace prefix \
       (recorded up to tick %d)"
      tick instance b.bb_prefix_tick.(instance);
  if Probe.active () then Probe.hit snapshot_capture;
  let trace = batch_rows b ~instance ~upto:tick in
  (* the column's rows before [tick] are final: keep them as its
     prefix, so a later capture of the same column conses only the
     rows after this one *)
  b.bb_prefix.(instance) <- trace;
  b.bb_prefix_tick.(instance) <- tick;
  { bn_ix = b.bb_ix;
    bn_tick = tick;
    bn_ticks = b.bb_ticks;
    (* each site copies its column's cells out now, so the snapshot
       stays valid when the source column is stepped on or reused *)
    bn_cells = List.map (fun site -> site.save instance) b.bb_sites;
    bn_trace = trace }

let batch_snapshot_tick s = s.bn_tick

let batch_restore (b : batch) (snap : batch_snapshot) ~instance =
  if snap.bn_ix != b.bb_ix then
    sim_error "batch_restore: snapshot was taken from another index";
  if instance < 0 || instance >= b.bb_instances then
    sim_error "batch_restore: instance %d out of range (batch holds %d)"
      instance b.bb_instances;
  if b.bb_ticks <> snap.bn_ticks then
    sim_error "batch_restore: horizon %d differs from the capture run's %d"
      b.bb_ticks snap.bn_ticks;
  if Probe.active () then Probe.hit snapshot_restore;
  List.iter2 (fun site cells -> site.load cells instance) b.bb_sites
    snap.bn_cells;
  b.bb_prefix.(instance) <- snap.bn_trace;
  b.bb_prefix_tick.(instance) <- snap.bn_tick

(* ---------------- Width-1 runs ------------------------------------ *)

let run_indexed ?(schedule = Clock.no_events) ~ticks ~inputs (ix : indexed) =
  let b = batch ~instances:1 ix in
  run_batch ~schedules:(fun _ -> schedule) ~ticks ~inputs:(fun _ -> inputs) b;
  batch_trace b ~instance:0
