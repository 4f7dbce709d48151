(** FlexRay-style dual-channel time-triggered bus (static segment).

    Complements the event-triggered {!Can_bus} model: communication is
    organized in fixed-length cycles of statically scheduled slots, each
    slot owned by exactly one frame per channel.  The bus has two
    physical channels A and B; a frame configured on both channels is
    transmitted redundantly and is delivered as long as {e either}
    channel carries it — the transport layer replicated deployments
    ride on.

    The timing model follows the FocusST FlexRay specification style:
    time advances in whole slots (no arbitration, no retransmission — a
    corrupted slot is simply lost and the next instance goes out one
    cycle later), which makes every quantity deterministic in the
    schedule and the fault seed.  Time is in microseconds. *)

type channel = A | B

type slot = {
  tt_frame : string;          (** frame transmitted in this slot *)
  slot_index : int;           (** 0-based position inside the cycle *)
  tt_payload_bytes : int;     (** 0..254 for FlexRay *)
  tx_channels : channel list; (** channels carrying the frame *)
}

val slot :
  ?channels:channel list -> name:string -> index:int ->
  payload_bytes:int -> unit -> slot
(** Default channels: both (dual-channel redundancy).
    @raise Invalid_argument on payloads outside 0..254, negative
    indices, or an empty channel list. *)

type schedule = {
  slots_per_cycle : int;
  slot_us : int;       (** static slot length (macrotick multiple) *)
  bitrate : int;       (** bits per second, per channel *)
  slots : slot list;
}

val schedule :
  ?bitrate:int -> slots_per_cycle:int -> slot_us:int -> slot list ->
  schedule
(** Default bitrate: 10 Mbit/s per channel.
    @raise Invalid_argument on duplicate frame names, slot indices not
    below [slots_per_cycle], two slots sharing an index on the same
    channel, or a [slot_us] shorter than the longest slot's wire time
    (5-byte header + payload + 3-byte trailer, with 25% byte-encoding
    overhead, rounded up). *)

val utilization : schedule -> channel -> float
(** Fraction of the cycle's slots occupied on the channel. *)

type chan_faults = {
  ch_loss_rate : float;     (** per-slot corruption probability *)
  ch_dead : (int * int) list;
      (** absolute outage windows [[from_us, until_us)): every slot
          transmission starting inside a window is lost — a cut
          harness, a dead bus driver, a failed star coupler *)
}

val chan_faults :
  ?loss_rate:float -> ?dead:(int * int) list -> unit -> chan_faults
(** Defaults: no loss, no outages.
    @raise Invalid_argument on rates outside [0, 1] or windows with
    [until < from] or negative bounds. *)

type fault_model = {
  tt_seed : int;
  chan_a : chan_faults;
  chan_b : chan_faults;
}

val fault_model :
  ?seed:int -> ?a:chan_faults -> ?b:chan_faults -> unit -> fault_model
(** Per-channel faults, deterministic in [seed]: each slot transmission
    is corrupted independently per (seed, channel, slot, cycle), so the
    two channels fail independently — the assumption dual-channel
    redundancy relies on.  Defaults reproduce the fault-free bus
    exactly. *)

type slot_stats = {
  instances : int;        (** cycles in the horizon *)
  delivered : int;        (** at least one configured channel delivered *)
  undelivered : int;      (** every configured channel lost the slot *)
  lost_a : int;           (** losses on channel A (where configured) *)
  lost_b : int;
  max_consec_undelivered : int;
      (** longest run of consecutively undelivered instances — the gap
          an E2E alive counter must cover, as in
          {!Can_bus.frame_stats.max_consec_dropped} *)
}

type result = {
  horizon : int;
  cycles : int;           (** complete cycles simulated *)
  per_slot : (string * slot_stats) list;  (** in schedule order *)
}

val simulate : ?faults:fault_model -> schedule -> horizon:int -> result
(** Walk [cycles = horizon / cycle_us] complete communication cycles.
    A slot instance is transmitted on each configured channel at
    [cycle * cycle_us + slot_index * slot_us]; the instance is delivered
    iff at least one channel's transmission is neither corrupted nor
    inside a dead window.  @raise Invalid_argument if the horizon holds
    no complete cycle. *)

val pp_result : Format.formatter -> result -> unit
