(** Intra-cycle wires (BSV's [RWire]): the carrier of bypass paths.

    A wire holds a value only within a cycle: [set] publishes a value, [get]
    observes it from rules scheduled later in the same cycle, and the wire
    empties at the cycle boundary. Conflict matrix: [set < get],
    [set C set]. The OOO core's bypass network (paper, Section V-A) is a set
    of wires: Exec/Reg-Write rules [set] ALU results, Reg-Read rules [get]
    them in the same cycle. *)

type 'a t

val create : ?name:string -> Clock.t -> unit -> 'a t

(** Publish a value for the remainder of the cycle. *)
val set : Kernel.ctx -> 'a t -> 'a -> unit

(** [get ctx w] is [Some v] if an earlier rule [set v] this cycle. *)
val get : Kernel.ctx -> 'a t -> 'a option

(** [get_exn] guards on the wire being set. *)
val get_exn : Kernel.ctx -> 'a t -> 'a

val peek : 'a t -> 'a option

(** The underlying EHR's wakeup signal (touched on [set] and on the
    cycle-boundary drain of a non-empty wire). *)
val signal : 'a t -> Wakeup.signal
