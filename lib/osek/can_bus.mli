(** CAN bus simulation (paper Secs. 2, 3.4).

    Signals between clusters deployed to different ECUs are mapped to
    frames of a communication network, e.g. CAN.  CAN arbitration is
    priority-based (lowest identifier wins) and non-preemptive: once a
    frame transmission starts it completes.  Time is in microseconds. *)

type frame = {
  frame_name : string;
  can_id : int;        (** arbitration identifier; lower = higher priority *)
  payload_bytes : int; (** 0..8 for classic CAN *)
  period : int;        (** queuing period, us *)
  offset : int;        (** first queuing instant, us *)
}

val frame :
  ?offset:int -> name:string -> can_id:int -> payload_bytes:int ->
  period:int -> unit -> frame
(** @raise Invalid_argument on payloads outside 0..8, non-positive
    period, or negative offset. *)

type config = { bitrate : int  (** bits per second *) }

val tx_time : config -> frame -> int
(** Transmission time in us of one instance, using the classic-CAN
    worst-case frame length [(34 + 8n)/5] stuff bits + [47 + 8n] bits
    for an [n]-byte payload. *)

type bus_off = {
  error_inc : int;    (** TEC bump per error frame (CAN: 8) *)
  success_dec : int;  (** TEC decay per completed transmission (CAN: 1) *)
  off_at : int;       (** TEC threshold that silences the bus (CAN: 256) *)
  recovery_us : int;  (** bus-off recovery time before rejoining *)
}

val bus_off :
  ?error_inc:int -> ?success_dec:int -> ?off_at:int -> recovery_us:int ->
  unit -> bus_off
(** Transmit-error-counter / bus-off state machine in the style of the
    CAN fault-confinement rules (defaults 8 / 1 / 256).  While the bus
    is off nothing transmits; queuings continue (superseding still
    counts drops) and transmission resumes after [recovery_us].
    @raise Invalid_argument on non-positive [error_inc], [off_at] or
    [recovery_us], or a negative [success_dec]. *)

type fault_model = {
  loss_rate : float;       (** per-transmission corruption probability *)
  fault_seed : int;        (** PRNG seed — same seed, same corruptions *)
  max_retransmits : int;   (** attempts per instance before it is dropped *)
  burst_rate : float;      (** per-instance probability of opening a loss
                               burst: this and the next [burst_len - 1]
                               instances of the frame are lost outright *)
  burst_len : int;         (** instances per burst (>= 1) *)
  retry_backoff_us : int;  (** backoff quantum before a retransmission:
                               retry [k] waits [2^(k-1)] quanta (0 = CAN's
                               immediate retransmission) *)
  bus_off_model : bus_off option;  (** error-counter fault confinement *)
}

val fault_model :
  ?seed:int -> ?max_retransmits:int -> ?burst_rate:float -> ?burst_len:int ->
  ?retry_backoff_us:int -> ?bus_off:bus_off ->
  loss_rate:float -> unit -> fault_model
(** Deterministic CAN loss/error-frame model (defaults: seed 0, 8
    retransmits, no bursts, immediate retransmission, no bus-off).
    [loss_rate = 0.] with [burst_rate = 0.] reproduces the fault-free
    simulation exactly.  Burst losses are the failure shape E2E alive
    counters exist to catch: every transmission attempt of a burst-hit
    instance is corrupted, so consecutive instances of the frame are
    dropped (seeded per id/instant, stream independent of the
    per-attempt corruption draw).  [retry_backoff_us > 0] makes a
    corrupted instance wait exponentially longer before each further
    attempt instead of re-arbitrating immediately; [bus_off] adds the
    error-counter state machine, reported in {!result.bus_offs}.
    @raise Invalid_argument on rates outside [0, 1], [burst_len < 1],
    or a negative backoff. *)

type frame_stats = {
  queued : int;
  sent : int;
  max_latency : int;     (** worst observed queuing-to-completion, us *)
  total_latency : int;
  dropped : int;         (** instances superseded while still queued, or
                             abandoned after [max_retransmits] errors *)
  errors : int;          (** corrupted transmissions (error frames seen) *)
  max_consec_dropped : int;
      (** longest run of consecutively lost instances — the gap a
          receiver-side E2E alive counter must cover to detect every
          loss of this frame *)
}

type result = {
  horizon : int;
  per_frame : (string * frame_stats) list;
  bus_busy : int;
  load : float;          (** busy / horizon *)
  bus_offs : int;        (** bus-off events over the horizon *)
}

val simulate :
  ?faults:fault_model -> ?background:frame list -> config -> horizon:int ->
  frame list -> result
(** Event-driven simulation.  A frame instance queued while the previous
    instance of the same frame is still waiting supersedes it (counted
    as [dropped]).

    [?faults] injects a deterministic loss model: each transmission is
    corrupted with probability [loss_rate] (seeded per id/instant/attempt);
    a corrupted slot costs the transmission time plus one error frame
    and interframe space (23 bits worst case), and the instance
    retransmits, up to [max_retransmits] attempts.
    [?background] adds frames that arbitrate and consume bus time (they
    raise [load]) but are excluded from [per_frame].  Omitting both
    reproduces today's fault-free behavior exactly.

    @raise Invalid_argument on duplicate frame names or CAN identifiers
    (background frames included). *)

val response_time_analysis : config -> frame list -> (string * int option) list
(** Classic worst-case CAN response-time analysis: blocking by the
    longest lower-priority frame plus higher-priority interference, with
    the frame's period as the deadline; [None] if unschedulable. *)

val pp_result : Format.formatter -> result -> unit
