(** End-to-end signal protection (AUTOSAR-E2E-style, cf. the FlexRay
    formalization in PAPERS.md): data-ID + alive-counter + checksum
    wrapping for frame payloads.

    The protection exists at three layers, mirroring the FDA/TA split:
    value-level [wrap]/[check] for FDA simulation, {!Ta.frame_slot} /
    {!Can_bus.frame} capacity accounting for the deployment, and
    receiver-side loss detection over recorded bus statistics
    ({!bus_verdict}).  Everything is deterministic: the checksum is a
    pure function of (data id, counter, payload). *)

open Automode_core
open Automode_la
open Automode_osek

type profile = {
  data_id : int;       (** 0..255, transmitted in 8 bits *)
  counter_bits : int;  (** alive-counter width, 1..16 *)
  crc_bits : int;      (** checksum width, 1..16 *)
}

val profile : ?counter_bits:int -> ?crc_bits:int -> data_id:int -> unit -> profile
(** Defaults: 4-bit alive counter, 8-bit checksum.
    @raise Invalid_argument outside the documented ranges. *)

val overhead_bits : profile -> int
(** Protection overhead per instance: 8 data-ID bits + counter + CRC. *)

val max_detectable_gap : profile -> int
(** [alive_modulus - 1]: the longest run of consecutively lost instances
    the alive counter still detects; a longer run wraps the counter. *)

val wrap : profile -> counter:int -> Value.t -> Value.t
(** The protected payload
    [Tuple [data_id; counter mod modulus; crc; payload]]. *)

val wrap_stream : profile -> Value.t list -> Value.t list
(** Wrap a sample stream with counters 0, 1, 2, ... *)

type verdict =
  | Data of { payload : Value.t; alive : int; skipped : int }
      (** accepted; [skipped] counts instances lost since the previous
          accepted one (0 = fresh in sequence) *)
  | Repetition       (** alive counter did not advance (stale repeat) *)
  | Wrong_id of int  (** masquerading frame *)
  | Crc_mismatch     (** corrupted payload *)
  | Not_protected    (** value is not an E2E tuple *)

val check : profile -> last:int option -> Value.t -> verdict
(** Receiver-side check against the last accepted alive counter. *)

val check_stream : profile -> Value.t list -> verdict list
(** Fold {!check} over a received stream, threading the counter. *)

val protect_slot : profile -> Ta.frame_slot -> Ta.frame_slot
(** Add the protection overhead to a TA frame slot's payload capacity.
    @raise Invalid_argument when the protected capacity exceeds the
    64-bit classic-CAN payload. *)

val protect_frame : profile -> Can_bus.frame -> Can_bus.frame
(** Add the overhead (rounded up to bytes) to a CAN frame.
    @raise Invalid_argument when the protected payload exceeds 8 bytes. *)

val bus_verdict :
  profile -> bus:string -> Can_bus.result ->
  string * Automode_robust.Monitor.verdict
(** [bus:<name>:e2e-loss-detected]: passes when every frame's longest
    consecutive-loss run ({!Can_bus.frame_stats.max_consec_dropped})
    stays within {!max_detectable_gap} — i.e. the receiver detects every
    loss and can qualify/substitute instead of consuming stale data. *)
