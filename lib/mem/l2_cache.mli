(** Shared, inclusive, non-blocking L2 cache: the MSI directory parent
    (paper, Section V-D and Fig. 11).

    Serves upgrade requests from [nchildren] L1 caches, tracking each child's
    state per line in a directory; demands downgrades when a grant requires
    them; recalls children and writes back dirty lines on its own evictions
    (inclusive); and fetches from {!Dram} on misses. A separate read port
    serves the L2 TLB's hardware page walks — those reads are coherent: any
    child holding the line in M is downgraded to S first.

    Channel discipline (deadlock/ordering argument): response channels
    (child→parent [cresp], parent→child [presp]) are processed
    unconditionally every cycle, so they are never blocked behind requests;
    grants therefore always beat later downgrade demands, and voluntary
    evictions always beat later re-requests. *)

type t

(** [?bank:(id, bits)] makes this instance one bank of a line-address-
    interleaved L2: it serves exactly the lines whose [bits]-wide field just
    above the line offset equals [id], and its set index and tag skip that
    field so the full set array stays usable. The default [(0, 0)] is the
    unbanked L2. Each bank owns its own {!Dram} channel. *)
val create :
  ?name:string ->
  ?bank:int * int ->
  Cmd.Clock.t ->
  nchildren:int ->
  geom:Cache_geom.t ->
  mshrs:int ->
  ?latency:int ->
  ?mesi:bool ->
  dram:Dram.t ->
  stats:Cmd.Stats.t ->
  unit ->
  t

(** Child-side channels, to be connected by {!Crossbar}. *)
val creq_in : t -> Msg.creq Cmd.Fifo.t

val cresp_in : t -> Msg.cresp Cmd.Fifo.t

(** Outbound messages carry the destination child. *)
val preq_out : t -> (int * Msg.preq) Cmd.Fifo.t

val presp_out : t -> (int * Msg.presp) Cmd.Fifo.t

(** {2 Page-walker port (coherent 8-byte reads)} *)

val walk_req : Cmd.Kernel.ctx -> t -> tag:int -> int64 -> unit
val can_walk_req : Cmd.Kernel.ctx -> t -> bool
val walk_resp : Cmd.Kernel.ctx -> t -> int * int64
val can_walk_resp : Cmd.Kernel.ctx -> t -> bool


(** Untracked walk-response availability + its wakeup signal, for the walk
    crossbar's [can_fire]. *)
val walk_resp_ready : t -> bool

val walk_resp_signal : t -> Cmd.Wakeup.signal

(** Untracked views of the walker port for the walk crossbar's ready tests:
    [walk_req_room] is false when [walk_req] would fail its guard, and
    [walk_resp_head] is the response [walk_resp] would return (call it only
    when [walk_resp_ready]). *)
val walk_req_room : t -> bool

val walk_resp_head : t -> int * int64

val rules : t -> Cmd.Rule.t list
