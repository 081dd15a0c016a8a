(** The DRAM model: fixed latency, bounded outstanding requests.

    Matches the paper's memory model (Fig. 12): a latency in cycles and a
    maximum number of in-flight requests standing in for bandwidth
    (24 requests ≈ 12.8 GB/s at 2 GHz). Reads complete in order after
    [latency] cycles; writes are acknowledged implicitly and applied at
    request time (the L2 is the only client and never reads a line it has
    outstanding writes for). *)

type t

(** [?name] disambiguates the snapshot field and pending-queue names when a
    machine instantiates several DRAM channels (one per L2 bank). *)
val create : ?name:string -> Cmd.Clock.t -> Isa.Phys_mem.t -> latency:int -> max_inflight:int -> t

(** Read a 64-byte line. Guarded on an in-flight slot being free. *)
val req_read : Cmd.Kernel.ctx -> t -> int64 -> unit

(** Write back a 64-byte line (costs an in-flight slot until accepted). *)
val req_write : Cmd.Kernel.ctx -> t -> int64 -> Bytes.t -> unit

(** Oldest completed read: [(line_addr, data)]. Guarded on one being ready. *)
val resp : Cmd.Kernel.ctx -> t -> int64 * Bytes.t

val can_resp : Cmd.Kernel.ctx -> t -> bool

(** Footprint atoms ([Rule.make ~fp]) covering every tracked access the DRAM
    model can make on behalf of a calling rule — [req_read], [can_resp] and
    [resp] all go through the pending queue; [req_write] touches no tracked
    cell. *)
val fp_use : t -> Cmd.Conflict.atom list

(** Partition tokens for both sides of the pending queue ([Rule.make
    ~touches]): the DRAM channel is private to the L2 bank that owns it. *)
val tokens : t -> Cmd.Partition.token list

(** Untracked: some read is in flight (possibly not yet ready) — part of the
    L2 tick rule's [can_fire]. *)
val busy : t -> bool

(** Untracked ready test for [resp]: [false] means [resp] would fail its
    guard. *)
val resp_ready : t -> bool

(** Total reads and writes accepted (statistics). *)
val reads : t -> int

val writes : t -> int
