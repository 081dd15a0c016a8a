(** Reorder buffer: all in-flight uops in program order (paper, Sec. V-A).

    A ring with absolute head/tail counters; [Uop.t.rob_idx] stores the
    absolute position, so misprediction truncation is one pointer move. The
    ROB doubles as the registry of live uops for speculation-mask broadcast
    ([iter_live]). *)

type t

val create : size:int -> t
val count : t -> int
val can_enq : t -> bool

(** Absolute index the next [enq] will use (to seed [Uop.t.rob_idx]). *)
val next_idx : t -> int

(** Allocate the tail slot; returns the absolute index. Guarded. *)
val enq : Cmd.Kernel.ctx -> t -> Uop.t -> int

(** Oldest in-flight uop (guarded on non-emptiness via option). *)
val head : t -> Uop.t option

(** The [k]-th oldest, for superscalar commit. *)
val peek : t -> int -> Uop.t option

(** Retire the head. *)
val deq : Cmd.Kernel.ctx -> t -> unit

(** Kill every uop strictly younger than [rob_idx] (misprediction): marks
    them killed and truncates the tail. Returns the killed uops. *)
val truncate_after : Cmd.Kernel.ctx -> t -> int -> Uop.t list

val iter_live : t -> (Uop.t -> unit) -> unit

(** Commit-time flush: empty everything (marking uops killed). *)
val flush : Cmd.Kernel.ctx -> t -> unit

(** Touched by [enq], [deq], [truncate_after] and [flush]: every change of
    occupancy. A rule whose [can_fire] consults {!can_enq} may watch it. *)
val signal : t -> Cmd.Wakeup.signal
