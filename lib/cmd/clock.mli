(** The simulated clock.

    A {!t} carries the current cycle number and the list of end-of-cycle
    hooks. Hooks are how cycle-boundary primitives ({!Config_reg}, {!Wire})
    commit or reset their state; they run outside any rule, after all rules of
    the cycle have fired, in registration order. *)

type t

(** A fresh clock at cycle 0 with no hooks. *)
val create : unit -> t

(** Current cycle number, starting at 0. Includes the calling domain's
    {!set_skew} offset, so a partition free-running inside an epoch window
    reads the architectural cycle it is simulating. *)
val now : t -> int

(** Process-lifetime cycle identity: advances with {!now} but never goes
    backward — a snapshot restore rewinds {!now} yet {e bumps} [uid], so a
    cycle id observed before the restore can never recur. This is the key
    for lazily-reset per-cycle caches (the kernel's cell access summaries),
    which would otherwise trust stale state when a restored machine's
    clock catches up to a cycle number from an earlier run. Like {!now},
    it includes the domain-local skew. *)
val uid : t -> int

(** Set the calling domain's clock skew: {!now} and {!uid} return their
    base value plus this offset. The window engine ([Sim]) sets it to the
    local cycle index while a partition free-runs (and while the uncore
    replays), and back to 0 at every synchronization point. Defaults to 0,
    and stays 0 in windows of one cycle. *)
val set_skew : int -> unit

(** Register a hook to run at the end of every cycle. The hook is tagged
    with the ambient {!Partition} at registration time, which determines
    which phase of an epoch window runs it (see {!hooks_by_partition}). *)
val on_cycle_end : t -> (unit -> unit) -> unit

(** Run all end-of-cycle hooks (oldest-first), then advance the cycle
    number. *)
val tick : t -> unit

(** The registered hooks grouped by owning partition, oldest-first within a
    group; index [p] holds partition [p]'s hooks. The array is cached and
    rebuilt on registration. The epoch engine runs group [p] after each of
    partition [p]'s local cycles but the window's last, on the domain that
    owns their primitives; the window close runs every group once through
    {!tick}, so hooks run exactly once per simulated cycle. *)
val hooks_by_partition : t -> (unit -> unit) array array

(** Advance [now] and [uid] by [cycles] without running any hooks — the
    epoch engine has already run each hook group for those cycles. *)
val advance : t -> cycles:int -> unit
