(** Per-cluster rule-firing trace.

    The scheduler's fire sites call {!emit} (installed via
    [Cmd.Sim.set_rule_trace]) once per rule fire. A fast-path skip is a
    guard failure, not a fire, so the trace matches [Rule.fired] exactly
    with the fast path on or off. Fires land in the firing rule's cluster
    buffer ([Rule.t.part]), one buffer per Chrome track. *)

type t

val create : nparts:int -> t
val set_active : t -> bool -> unit
val nparts : t -> int

(** The [Sim.set_rule_trace] callback: record a fire of [rule] at [cycle].
    No-op while inactive (capture window closed) or for rules that were
    never assigned a trace id. *)
val emit : t -> Cmd.Rule.t -> int -> unit

(** All recorded fires of cluster [p] as (rid, cycle) pairs,
    chronological. *)
val fires : t -> int -> (int * int) list
