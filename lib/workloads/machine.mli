(** Full-system harness: assembles cores, TLBs, the coherent cache hierarchy
    and DRAM into a runnable machine, loads a program, and runs to exit.

    One [program] serves every model — the golden ISA simulator, the in-order
    baseline and any {!Ooo.Config.t} — which is how the benchmark harness
    compares them. All harts start at the entry point; multi-threaded kernels
    branch on [mhartid]. *)

type kind =
  | Golden_only
  | In_order of { mem : Mem.Mem_sys.config; tlb : Tlb.Tlb_sys.config }
  | Out_of_order of Ooo.Config.t

type program = {
  asm : Isa.Asm.t;
  init_mem : (Isa.Phys_mem.t -> unit) option;  (** data-segment initialization *)
  regs : (int * int64) list;  (** initial registers, applied to every hart *)
}

val program : ?init_mem:(Isa.Phys_mem.t -> unit) -> ?regs:(int * int64) list -> Isa.Asm.t -> program

type t

(** [create kind prog] — [paging] builds identity Sv39 tables over
    [mapped_mb] megabytes from DRAM base and enables translation; [cosim]
    runs the golden model in lockstep with every OOO commit (single-core
    only). [watchdog] (cycles, 0 = off) attaches a liveness monitor that
    raises {!Verif.Watchdog.Trip} when no rule fires or no instruction
    commits for that many consecutive cycles; [invariants] collects the
    structural checks registered by the ROB, free list, LSQ, store buffer
    and L2 directory during construction and runs them once per cycle
    (raising {!Verif.Invariant.Violation} on corruption).

    [jobs] (default 1) enables domain-parallel rule execution: each core's
    pipeline, L1 caches and TLB form a private partition fired concurrently
    with the others, while the crossbar, L2 and DRAM run serially after a
    cycle barrier (see {!Cmd.Sim.create}). Results are bit-identical to
    [jobs:1]. Forced back to 1 under [cosim], whose golden model is shared
    across harts. [partition_audit] runs serially while checking every
    EHR/FIFO/wire access against the partition that makes it, raising
    {!Cmd.Kernel.Partition_overlap} on an undeclared cross-partition
    touch.

    [epoch] (default 1) sets the lookahead-window length for epoch
    execution (see {!Cmd.Sim.create}): partitions free-run that many cycles
    between synchronizations. [epoch:0] asks for the full bound derived
    from the boundary FIFOs' declared lookahead (the L2 response latency
    plus the crossbar round trip). Results at a given window length are
    bit-identical at any [jobs]. Forced back to 1 under [cosim] — the
    golden models share private memory, so commit interleaving across harts
    must not depend on the window length.

    [obs] plugs an observability hub in: every core is built against the
    hub's per-hart instruction tracer and the hub is attached to the
    simulator (rule numbering, rule-fire sink, capture window) — see
    {!Obs.Hub}. Without it the cores trace into [Obs.Pipe.null] and pay one
    load-and-branch per potential event. *)
val create :
  ?ncores:int ->
  ?paging:bool ->
  ?megapages:bool ->
  ?mapped_mb:int ->
  ?cosim:bool ->
  ?schedule:Ooo.Core.schedule ->
  ?mode:Cmd.Sim.mode ->
  ?fastpath:bool ->
  ?audit:bool ->
  ?jobs:int ->
  ?partition_audit:bool ->
  ?compile:bool ->
  ?compile_audit:bool ->
  ?epoch:int ->
  ?watchdog:int ->
  ?invariants:bool ->
  ?obligations:bool ->
  ?obs:Obs.Hub.t ->
  kind ->
  program ->
  t

type outcome = { exits : int64 array; cycles : int; timed_out : bool }

(** Run until every hart exits (or [max_cycles]). [on_cycle] is called with
    the loop's cycle index before each cycle — the fault-injection hook. *)
val run : ?max_cycles:int -> ?on_cycle:(int -> unit) -> t -> outcome

val stats : t -> Cmd.Stats.t

(** Architectural (committed) value of register [r] on [hart], read after a
    run — how the litmus harness extracts observed load values. *)
val reg : t -> hart:int -> int -> int64

(** Every OOO core's store queue and store buffer are empty. Combined with
    all harts having exited, this means every store has reached the
    coherent hierarchy. Vacuously true for golden/in-order machines. *)
val quiesced : t -> bool

(** True when the machine's simulator took the domain-parallel path (i.e.
    [jobs > 1], partitions exist, and no serializing option forced the
    fall-back). *)
val parallel : t -> bool

(** The effective epoch window length the simulator settled on (1 when
    epochs are off or the machine has no simulator). *)
val epoch_length : t -> int

val console : t -> string

(** Committed instructions, summed over harts. *)
val instrs : t -> int

val find_stat : t -> string -> int

(** Times the watchdog tripped (0 when none was attached). *)
val watchdog_trips : t -> int

(** The watchdog's rule-firing ring ({!Cmd.Sim.history}): the last cycles'
    fired rule names in schedule order. Empty without [~watchdog]. *)
val history : t -> (int * string list) list

(** Names of the invariant checks collected at construction. *)
val invariant_names : t -> string list

(** Interface-obligation monitors collected at construction (empty unless
    [~obligations:true]). A violating cycle raises
    {!Mcheck.Obligation.Violation} out of {!run}. *)
val obligation_monitors : t -> Mcheck.Obligation.monitor list

(** [(name, committed boundary events)] per monitor — evidence the contracts
    actually observed traffic. *)
val obligation_stats : t -> (string * int) list

(** Record every committed instruction of the OOO cores; {!flush_trace}
    prints them to the formatter after the run, hart-ordered (all of hart
    0's commits, then hart 1's, ...) so the output is deterministic at any
    [jobs] and schedule mode. *)
val trace_commits : t -> Format.formatter -> unit

(** Print the recorded commit trace (no-op when {!trace_commits} was never
    called). *)
val flush_trace : t -> unit

(** Per-rule firing statistics of the underlying scheduler (debugging). *)
val pp_rule_stats : Format.formatter -> t -> unit

(** The scheduler's rules, in schedule order (empty for golden-only) — the
    per-rule [fired] counters are how the snapshot tests check bit-identity. *)
val rule_list : t -> Cmd.Rule.t list

(** {2 Schedule compilation} — see {!Cmd.Sim.compiled} and friends. *)

val compiled : t -> bool

val compile_status : t -> string
val compile_report : t -> string
val pp_core_debug : Format.formatter -> t -> unit

(** {2 Snapshot / restore}

    Every stateful primitive registers into a per-machine state registry as
    the machine is built (see {!Cmd.State}); [snapshot] serializes the whole
    registry into a self-describing image with a format-version magic, a
    binary digest, a configuration digest and a payload checksum.
    [restore] writes an image back into a machine built with the {e same}
    configuration (kind, cores, paging, program — [jobs]/[fastpath]/[audit]
    excluded: they are state-identical by design), raising
    {!Cmd.State.Error} on any mismatch, truncation or corruption before
    touching machine state. A restored machine continues bit-identically to
    the one that was snapshotted: same cycles, instret and per-rule fire
    counts. *)

val snapshot : t -> string

(** Raises {!Cmd.State.Error} on mismatched, truncated or corrupt images. *)
val restore : t -> string -> unit

(** Names of the registered snapshot entries, in registration order. *)
val snapshot_entries : t -> string list

(** Re-seed the shuffle scheduler (no-op in other modes): after restoring a
    cycle-0 image, [reseed_schedule t seed] makes the run schedule-identical
    to a cold machine built with [mode = Shuffle seed] — the warm-fork path
    of the simulation farm. *)
val reseed_schedule : t -> int -> unit
