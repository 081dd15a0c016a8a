(** Per-core address-translation system: L1 I/D TLBs, a unified per-core L2
    TLB, the hardware page walker, and (optionally) the split translation
    walk cache.

    Two personalities, selected by {!config} (paper, Section VI-A):
    - {!blocking_config} (RiscyOO-B): both TLB levels block on a miss — one
      outstanding miss in each L1 TLB and in the L2 TLB;
    - {!nonblocking_config} (RiscyOO-T+): parallel miss handling and
      hit-under-miss (4 D-TLB misses, 2 L2-TLB misses) plus a 24-entry/level
      translation cache.

    Page walks read real Sv39 tables through the L2 {e cache}'s coherent
    walker port (paper, Fig. 11), so TLB miss penalties include genuine
    cache/DRAM latencies. *)

type result = Hit of int64  (** full translated physical address *) | Fault

type config = {
  itlb_entries : int;
  itlb_misses : int;
  dtlb_entries : int;
  dtlb_misses : int;
  l2_sets : int;
  l2_ways : int;
  l2_misses : int;  (** also the number of concurrent page walks *)
  walk_cache_entries : int option;
}

val blocking_config : config
val nonblocking_config : config

type t

(** The page-walk request/response queues are conflict-free
    ({!Cmd.Fifo.cf}), like every link between a core and the uncore. *)
val create : ?name:string -> Cmd.Clock.t -> config -> stats:Cmd.Stats.t -> unit -> t

(** Root page-table base; 0 = bare mode (identity translation). *)
val set_satp : t -> int64 -> unit

val satp : t -> int64

(** {2 L1 TLB interfaces (guarded FIFO pairs)} *)

val itlb_req : Cmd.Kernel.ctx -> t -> tag:int -> int64 -> unit
val can_itlb_req : Cmd.Kernel.ctx -> t -> bool
val itlb_resp : Cmd.Kernel.ctx -> t -> int * result
val can_itlb_resp : Cmd.Kernel.ctx -> t -> bool
val dtlb_req : Cmd.Kernel.ctx -> t -> tag:int -> int64 -> unit
val can_dtlb_req : Cmd.Kernel.ctx -> t -> bool
val dtlb_resp : Cmd.Kernel.ctx -> t -> int * result
val can_dtlb_resp : Cmd.Kernel.ctx -> t -> bool


(** {2 Fast-path scheduler probes}

    Untracked response availability ([peek_size > 0]) and the matching
    wakeup signals, for the [can_fire] of core rules that dequeue TLB
    responses. *)

val itlb_resp_ready : t -> bool

val dtlb_resp_ready : t -> bool
val itlb_resp_signal : t -> Cmd.Wakeup.signal
val dtlb_resp_signal : t -> Cmd.Wakeup.signal

(** {2 Walker memory port} — to be connected to {!Mem.L2_cache} through the
    page-walk crossbar. Requests carry an opaque walk tag. *)

val walk_mem_req : t -> (int * int64) Cmd.Fifo.t

val walk_mem_resp : t -> (int * int64) Cmd.Fifo.t

val rules : t -> Cmd.Rule.t list

(** Dump internal walker/miss-slot state (debugging aid). *)
val pp_debug : Format.formatter -> t -> unit
