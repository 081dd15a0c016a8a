(** The assembled coherent memory system (paper, Fig. 11): per-core L1 I/D
    caches, the cache crossbar, the shared inclusive L2, and DRAM.

    Both TLB page walks (through the L2 walker port) and all cache traffic
    are coherent, as in the paper. *)

type config = {
  l1d_bytes : int;
  l1d_ways : int;
  l1d_mshrs : int;
  l1i_bytes : int;
  l1i_ways : int;
  l2_bytes : int;
  l2_ways : int;
  l2_mshrs : int;
  l2_latency : int;  (** cycles added to every L2 response (hit latency) *)
  l2_banks : int;
      (** line-address-interleaved L2 banks (power of two; 1 = the seed's
          single shared L2). Capacity and MSHRs split evenly across banks,
          and each bank gets its own DRAM channel and, when banked, its own
          cluster label (its own Chrome trace track). *)
  mesi : bool;  (** grant exclusive-clean on unshared reads (MESI) *)
  mem_latency : int;
  mem_inflight : int;
}

(** The paper's RiscyOO-B memory parameters (Fig. 12). *)
val default_config : config

type t

val create :
  Cmd.Clock.t -> Isa.Phys_mem.t -> config -> ncores:int -> fetch_width:int -> stats:Cmd.Stats.t -> t

val dcache : t -> int -> L1_dcache.t
val icache : t -> int -> L1_icache.t

(** Bank 0 — {e the} L2 in an unbanked configuration. *)
val l2 : t -> L2_cache.t

(** All banks, in interleave order; length [cfg.l2_banks]. *)
val l2_banks : t -> L2_cache.t array

(** [bank_of t laddr] — which bank owns a line address (constant 0 when
    unbanked). The walker crossbar routes with this. *)
val bank_of : t -> int64 -> int

(** Bank 0's DRAM channel. *)
val dram : t -> Dram.t

val drams : t -> Dram.t array

(** All internal rules (caches, crossbar, L2), in a schedule that keeps
    response channels ahead of request channels. *)
val rules : t -> Cmd.Rule.t list
