(** The simulated clock.

    A {!t} carries the current cycle number and the list of end-of-cycle
    hooks. Hooks are how cycle-boundary primitives ({!Config_reg}, {!Wire})
    commit or reset their state; they run outside any rule, after all rules of
    the cycle have fired, in registration order. *)

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

(** Register a hook to run at the end of every cycle. *)
val on_cycle_end : t -> (unit -> unit) -> unit

(** Run all end-of-cycle hooks (oldest-first), then advance the cycle
    number. *)
val tick : t -> unit
