(** Target-parametric well-definedness conditions for CCDs (paper
    Sec. 3.3).

    "As an example, consider an OSEK-conformant operating system as a
    target platform, with inter-task communication using data integrity
    mechanisms and fixed-priority, preemptive scheduling.  In this
    framework, communication from 'slower-rate' clusters to a
    'faster-rate' cluster necessitates the introduction of at least one
    delay operator in the direction of data flow.  On the other hand,
    communication in the opposite direction does not require
    introduction of delays.  Consequently, CCD well-definedness
    conditions may be adapted to the specific target architecture." *)

open Automode_core

type target = {
  target_name : string;
  needs_delay : src_period:int -> dst_period:int -> bool;
      (** must a channel between ports of these periods carry a delay? *)
}

val osek_fixed_priority : target
(** The paper's OSEK instance: slow-to-fast channels ([src_period >
    dst_period]) require a delay; fast-to-slow and same-rate do not. *)

val time_triggered : target
(** A stricter, TDMA-style instance used as an ablation: {e every}
    cross-rate channel requires a delay. *)

type violation = {
  v_channel : Model.channel;
  v_src_period : int;
  v_dst_period : int;
  v_reason : string;
}

val check : target:target -> Ccd.t -> violation list
(** All channels violating the target's delay conditions.  Channels
    whose end periods are unknown (boundary or aperiodic) are skipped. *)

val repair : target:target -> Ccd.t -> Ccd.t * int
(** Insert the missing delay operators ([ch_delayed = true], with the
    destination type's default as initial value when the type is known);
    returns the repaired CCD and the number of channels changed. *)
