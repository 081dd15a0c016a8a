(** Plain registers: an EHR restricted to one read and one write port.

    Conflict matrix: [read < write], [write C write]. In a cycle, rules that
    read must be scheduled before the rule that writes; a rule may not read a
    register it has already written (use {!Ehr} if you want forwarding). *)

type 'a t

val create : ?name:string -> 'a -> 'a t
val read : Kernel.ctx -> 'a t -> 'a
val write : Kernel.ctx -> 'a t -> 'a -> unit

(** [modify ctx r f] reads then writes — subject to the same CM. *)
val modify : Kernel.ctx -> 'a t -> ('a -> 'a) -> unit

val peek : 'a t -> 'a
val poke : 'a t -> 'a -> unit
