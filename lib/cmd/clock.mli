(** The simulated clock.

    A {!t} carries the current cycle number and the cycle-boundary work:
    per-cycle samplers ({!on_cycle_end}: statistics sampling,
    {!Config_reg} commits), which run at every edge, and edge workers
    ({!edge}: conflict-free FIFO snapshot refresh, {!Wire} reset), which
    run only at an edge their primitive {!arm}ed. Both run outside any
    rule, after all rules of the cycle have fired. *)

type t

(** A fresh clock at cycle 0 with no hooks. *)
val create : unit -> t

(** Current cycle number, starting at 0. *)
val now : t -> int

(** Process-lifetime cycle identity: advances with {!now} but never goes
    backward — a snapshot restore rewinds {!now} yet {e bumps} [uid], so a
    cycle id observed before the restore can never recur. This is the key
    for lazily-reset per-cycle caches (the kernel's cell access summaries),
    which would otherwise trust stale state when a restored machine's
    clock catches up to a cycle number from an earlier run. *)
val uid : t -> int

(** Register a sampler to run at the end of every cycle. *)
val on_cycle_end : t -> (unit -> unit) -> unit

(** {2 Edge workers}

    A primitive whose cycle-boundary work is a no-op unless something
    touched it during the cycle registers an edge worker and {!arm}s it on
    every touch (an enq, deq, clear or set, and a fault-injection flip of
    its state). An idle primitive then costs nothing per cycle. *)

type edge

(** [edge clk ~name] registers an unarmed worker that does nothing until
    {!set_work} installs its work (two steps, so the state the work refreshes
    can itself arm the worker when it is built). *)
val edge : t -> name:string -> edge

(** [set_work e f] installs [e]'s work. [f ()] returns whether it changed
    any state. *)
val set_work : edge -> (unit -> bool) -> unit

(** Run [e]'s work at the end of this cycle (once, however often it is
    armed). *)
val arm : edge -> unit

(** [set_audit clk (Some fail)] makes every {!tick} run every registered
    worker, armed or not, and call [fail name] (after the tick) if a worker
    that was not armed changed state: the edge half of the scheduler
    audit. [None] (the default) runs the armed workers only. *)
val set_audit : t -> (string -> unit) option -> unit

(** Run all samplers (oldest-first), then the armed edge workers (or, under
    the audit, every worker), then advance the cycle number. *)
val tick : t -> unit
