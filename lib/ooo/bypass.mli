(** The bypass network (paper, Section V-A): ALU results travel from the
    Exec and Reg-Write rules to the Reg-Read rules of every pipeline in the
    same cycle, over wires with [set < get]. *)

type t

(** [n_wires] = number of producing stage-rules (2 per ALU pipe). *)
val create : Cmd.Clock.t -> n_wires:int -> t

(** Publish a (physical register, value) pair on wire [i]. *)
val set : Cmd.Kernel.ctx -> t -> int -> int -> int64 -> unit

(** Search all wires for [preg]'s value this cycle. *)
val get : Cmd.Kernel.ctx -> t -> int -> int64 option

