(** Registry of cross-partition boundary FIFOs.

    Conflict-free FIFOs ({!Fifo.cf}) are the only legal cross-partition
    channel. When one is built inside a {!collecting} scope it registers an
    {!ops} record; the epoch engine ([Sim.create ~epoch]) reads the registry
    to derive the safe lookahead bound L (the minimum declared response
    latency over all cross-partition boundaries) and to drive each
    boundary's visibility snapshots cycle-by-cycle during window replay. *)

type ops = {
  bo_name : string;
  bo_enq_tk : int;
      (** {!Partition} token prim id of the enqueuing side; the scheduler
          resolves it to a partition via its rule-ownership table *)
  bo_deq_tk : int;  (** token prim id of the dequeuing side *)
  bo_ctor_part : int;
      (** ambient partition at construction, which owns the FIFO's
          cycle-end hook; the epoch engine requires it to equal the
          non-uncore side's partition *)
  bo_prim : int;      (** [Conflict.prim] pid, for partition-audit exemption *)
  bo_lookahead : int option;
      (** declared minimum response latency in cycles; [None] = undeclared
          (contributes the trivial bound of 1 to the epoch length) *)
  bo_enq_total : unit -> int;
  bo_deq_total : unit -> int;
  bo_set_enq_snap : int -> unit;
  bo_set_deq_snap : int -> unit;
  bo_reset_eport : unit -> unit;
  bo_reset_dport : unit -> unit;
  bo_touch : unit -> unit;  (** wake rules parked on the FIFO's signal *)
}

(** Called by {!Fifo.cf} at construction; a no-op outside {!collecting}. *)
val note : ops -> unit

(** [collecting f] arms the calling domain's collector, runs [f], and
    returns its result with every boundary registered during the run
    (registration order). Nested scopes shadow the outer one. *)
val collecting : (unit -> 'a) -> 'a * ops list

(** The boundaries registered so far in the current {!collecting} scope
    (registration order); empty when none is armed. [Sim.create], which
    runs inside machine construction, uses this to see the FIFOs built
    before it. *)
val ambient : unit -> ops list
