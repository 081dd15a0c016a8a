(** Ambient cluster scoping: a label for where a rule lives in the machine.

    Every rule records the cluster that was ambient when it was built
    ([Rule.t.part]). A machine builder wraps each core's construction
    (pipeline, private caches, TLB) in [scoped (hart_id + 1)], and a banked
    L2's banks in their own clusters, so the label says which core or bank
    a rule belongs to. Only [lib/obs] reads it, to give each cluster its own
    Chrome trace track; the scheduler ignores it. *)

val uncore : int
(** The shared cluster, [0]. The ambient default. *)

val ambient : unit -> int
(** Current ambient cluster (set by an enclosing [scoped]). *)

val scoped : int -> (unit -> 'a) -> 'a
(** [scoped p f] runs [f] with ambient cluster [p] (restored on exit,
    including on exception). Raises [Invalid_argument] unless
    [0 <= p <= 60]. *)
