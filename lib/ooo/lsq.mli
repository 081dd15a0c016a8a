(** The load-store queue: LQ + SQ in program order (paper, Section V-B).

    Loads issue speculatively — possibly past older stores with unresolved
    addresses and, under TSO, out of order with older loads; the two kill
    mechanisms of the paper catch the violations:
    - [update_st] (a store's address becomes known) marks younger overlapping
      loads that already obtained a value as to-be-killed;
    - [cache_evict] (TSO only) marks loads whose line leaves the L1 as
      to-be-killed once they have read their value: completed but not
      committed, or read by the L1 with the response not yet delivered.
    A to-be-killed load flushes the pipeline when it reaches commit.

    Wrong-path slot recycling follows the paper: a killed load still waiting
    for a cache response leaves a sticky wrong-path bit on its slot; the slot
    may be reallocated but not issued until the stale response arrives (cache
    tags are absolute LQ indices, so staleness is exact). *)

type t

(** [Forward]/[ToCache] carry the unique tag that the eventual response
    must quote. *)
type issue_result = Forward of int64 * int | ToCache of int | Stalled

val create : Config.t -> t

(** {2 Rename side} *)

val can_enq_ld : t -> bool
val can_enq_st : t -> bool

(** Reserve the tail slot, returning the {e absolute} index to put in the
    uop; then [fill_*]. *)
val reserve_ld : Cmd.Kernel.ctx -> t -> int

val fill_ld : Cmd.Kernel.ctx -> t -> int -> Uop.t -> unit
val reserve_st : Cmd.Kernel.ctx -> t -> int
val fill_st : Cmd.Kernel.ctx -> t -> int -> Uop.t -> unit

(** Fences don't occupy LSQ slots but gate younger loads until committed. *)
val add_fence : Cmd.Kernel.ctx -> t -> Uop.t -> unit

val remove_fence : Cmd.Kernel.ctx -> t -> Uop.t -> unit

(** {2 Update (after address translation)} *)

val update_ld : Cmd.Kernel.ctx -> t -> Uop.t -> unit

(** Also performs the younger-load kill search. *)
val update_st : Cmd.Kernel.ctx -> t -> Uop.t -> unit

(** {2 Load issue / response} *)

(** Untracked probe mirroring {!get_issue_ld}'s scan: [false] exactly when
    [get_issue_ld] would guard-fail — the load-issue rule's [can_fire]. *)
val has_issue_ld : t -> bool

(** An issuable load: [(absolute index, uop)]; guarded. *)
val get_issue_ld : Cmd.Kernel.ctx -> t -> int * Uop.t

(** Search the SQ (combined with the store-buffer search result) and decide:
    forward, go to cache, or stall recording the stall source. *)
val issue_ld : Cmd.Kernel.ctx -> t -> int -> Uop.t -> sb_search:Store_buffer.search -> issue_result

(** Deliver a load value for issue tag [tag]. [`WrongPath] means the
    response belonged to a killed load; the slot becomes usable again. *)
val resp_ld : Cmd.Kernel.ctx -> t -> int -> int64 -> [ `Ok of Uop.t | `WrongPath ]

(** {2 Store issue (commit side)} *)

val set_at_commit : Cmd.Kernel.ctx -> t -> Uop.t -> unit

(** Oldest committed, unissued normal store (TSO): [(absolute idx, uop)]. *)
val oldest_committed_store : t -> (int * Uop.t) option

(** A translated store not yet prefetched (the paper's store-prefetch
    opportunity): oldest first. *)
val prefetch_candidate : t -> (int * Uop.t) option

val mark_prefetched : Cmd.Kernel.ctx -> t -> int -> unit

val mark_store_issued : Cmd.Kernel.ctx -> t -> int -> unit

(** Head of the SQ if it is a committed normal store (WMM: to store buffer;
    TSO: after its cache write completes). *)
val committed_store_head : t -> (int * Uop.t) option

(** Remove SQ head (must be committed); clears stalls blocked on it. *)
val deq_st : Cmd.Kernel.ctx -> t -> unit

(** Is [u] at the head of the SQ? (atomics drain older stores first) *)
val sq_head_is : t -> Uop.t -> bool

(** Has the SQ head already been issued to the cache (TSO)? *)
val sq_head_issued : t -> bool

val sq_empty : t -> bool

(** No committed store is still waiting to reach memory (speculative
    entries, which can never issue, are ignored). *)
val sq_quiesced : t -> bool

(** No store older than [seq] is still in the SQ (fences, LR, MMIO wait on
    this rather than on full emptiness — younger stores may legally sit
    behind them). *)
val no_older_stores : t -> int -> bool

(** Clear stalls recorded against store-buffer entry [idx]. *)
val wakeup_by_sb_deq : Cmd.Kernel.ctx -> t -> int -> unit

(** {2 Commit / speculation} *)

val deq_ld : Cmd.Kernel.ctx -> t -> unit

(** TSO eviction kill (the paper's [cacheEvict]): [cache_evict ctx t ~read
    line] marks to-be-killed every live load on [line] that has its value,
    and every issued load whose response tag is in [read] — the tags whose
    values the L1 has read from the line but not yet delivered. A load still
    waiting on a miss is spared: its value will come from the new copy. *)
val cache_evict : Cmd.Kernel.ctx -> t -> read:int list -> int64 -> unit

(** Drop killed (wrong-path) suffixes of both queues. *)
val kill_suffix : Cmd.Kernel.ctx -> t -> unit

(** Commit-time flush: drop everything (in-flight loads leave wrong-path
    bits). *)
val flush : Cmd.Kernel.ctx -> t -> unit
val pp_debug : Format.formatter -> t -> unit

(** Introspection: global counts of wrong-path slot reservations and of the
    stale responses that cleared them; they converge whenever the machine
    drains. *)
val wp_sets : int ref

val wp_clears : int ref
