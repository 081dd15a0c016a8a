(** Configuration registers: reads are conflict-free with the write.

    A read always returns the value the register held at the start of the
    cycle, no matter which rules have written it meanwhile; the last write of
    the cycle takes effect at the cycle boundary. Conflict matrix:
    [read CF read], [read CF write], [write C write].

    Use these for state consulted by many rules whose relative schedule order
    should not be constrained (epoch registers, mode bits, counters read for
    heuristics). *)

type 'a t

val create : ?name:string -> Clock.t -> 'a -> 'a t
val read : Kernel.ctx -> 'a t -> 'a
val write : Kernel.ctx -> 'a t -> 'a -> unit

(** Untracked current value (tests / stats). *)
val peek : 'a t -> 'a

(** Untracked set of the current value (initialization). *)
val poke : 'a t -> 'a -> unit
