(** The rule scheduler and clock loop.

    Each cycle, rules are attempted in a fixed order (the static schedule).
    A rule fires when its guards hold and all its state accesses are
    admissible after what already fired this cycle; otherwise it is rolled
    back and retried next cycle. The net effect of a cycle is therefore
    always equal to executing its fired rules serially in schedule order —
    the paper's atomicity guarantee, enforced dynamically.

    The list order doubles as the intra-cycle logical order, so the
    microarchitectural orderings of Section IV-D ("doRegWrite < doIssue <
    doRename saves a cycle") are expressed by reordering the list. *)

type mode =
  | Multi  (** fire every admissible rule each cycle (the CMD hardware model) *)
  | One_per_cycle  (** reference executor: at most one rule per cycle *)
  | Shuffle of int  (** Multi, but attempt order is reshuffled each cycle
                        from the given seed — for schedule-robustness tests *)

(** Raised in audit mode when a rule's [can_fire] returned [false] but its
    body nevertheless fired (committed effects), or when a step's ready test
    ([Kernel.attempt_if]) returned [false] but the step committed: the
    predicate lies, and the fast path would silently starve the rule or the
    step. The same exception as [Kernel.Audit_fail]. *)
exception Audit_fail of string

(** Raised by {!create} when the static partition checker finds a primitive
    declared (via [Rule.make ~touches]) by rules in two different
    partitions, or a parallel rule watching a signal it does not own. *)
exception Partition_error of string

type t

(** [create ?mode ?fastpath ?audit ?jobs ?partition_audit ?stats clk rules]
    builds a scheduler.

    With [fastpath] (the default), a rule carrying a [can_fire] predicate is
    skipped — no transaction, no exception, no rollback — in cycles where
    the predicate returns [false], and parked on its watch set until a
    watched primitive is touched. Skips are accounted exactly as the seed
    scheduler would have accounted the doomed attempt, so cycle counts, fire
    counts, rule-firing history and all architectural state are bit-identical
    with [fastpath] on or off, in every mode. [~fastpath:false] strips the
    predicates (every rule is attempted, as before this optimization), and
    every step behind a [Kernel.attempt_if] ready test runs too, under the
    ready audit described below.

    [~audit:true] disables skipping but evaluates every [can_fire] and raises
    {!Audit_fail} if a rule fires in a cycle its predicate vetoed — the
    debug oracle for predicate truthfulness ([--scheduler-audit] in the
    driver). It also turns on the ready audit of every context
    ([Kernel.set_ready_audit]): a step whose [Kernel.attempt_if] ready test
    said false still runs, and raises {!Audit_fail} if it commits.

    {2 Partitioned parallel execution}

    With [jobs > 1], rules tagged with a non-zero partition (captured from
    [Partition.ambient] at construction — one partition per core cluster)
    are fired concurrently, one OCaml domain per partition, using at most
    [jobs] domains; rules in partition 0 (the {e uncore}) then run serially
    on the main domain. The static checker proves from the declared
    [~touches] tokens and watch sets that no primitive is reachable from
    two partitions (raising {!Partition_error} otherwise), so every
    interleaving of the parallel phase commutes — the paper's conflict-free
    rules — and results are bit-identical to [jobs = 1] in every mode:
    cycle counts, per-rule fire counts, firing history, architectural
    state.

    Parallel execution is inherently about firing {e many} rules per cycle,
    so [One_per_cycle] and the two audit modes execute serially regardless
    of [jobs] (with identical results, as always).

    [~partition_audit:true] executes serially while recording, per cell per
    cycle, which partitions touched it; any cross-partition overlap
    involving a write raises [Kernel.Partition_overlap]. This is the
    dynamic backstop for the static checker's private-state assumption
    ([--partition-audit] in the driver). Overlap detection within a cycle
    is order-independent, so the serial audit certifies the parallel
    schedule.

    [~grouped:true] builds the partition groups even at [jobs = 1] and
    runs them inline, in pid order, on the main domain. That is the
    execution structure of a parallel run: architectural results are the
    same either way, but fast-path skip counts ([Rule.skipped]) can depend
    on whether a partition's rules run before or after an uncore rule
    within a cycle, and a grouped run matches a parallel one exactly. It
    exists for the benchmark harness, whose jobs-1 oracle compares skip
    counts with a [jobs = 2] run ([Machine.create ~epoch:0]).

    [~stats] hands the machine's counter groups to the barrier: their
    per-partition shard accumulators (see [Stats.incr]) are merged at the
    end of every partitioned cycle, before post-cycle hooks run.

    {2 Cycle structure and hook ordering}

    Every [Multi]/[Shuffle] cycle proceeds: (1) partition phase — every
    non-zero partition runs its rules, concurrently on the pool when
    [jobs > 1] (inline under [~grouped]); (2) barrier — all partition effects become visible to the
    main domain; (3) uncore phase — the partition-0 rules run serially;
    (4) close — [Clock.tick], running every clock hook (wire resets,
    conflict-free FIFO snapshot advance); (5) stats shard merge; (6) the
    history ring; (7) {!on_post_cycle} hooks (invariant checks);
    (8) {!add_monitor} monitors (watchdog). A serial run is that cycle
    with no partition phase: one group holding every rule in schedule
    order. Steps 4–8 run on the main domain after the barrier, so
    invariant checks, watchdog monitors and anything else observing the
    machine between cycles always sees the merged, quiescent state —
    [--watchdog]/[--check-invariants] campaigns behave identically at any
    [jobs]. [run_until]'s [on_cycle] (the fault-injection hook) runs on
    the main domain {e before} the cycle's partition phase is dispatched,
    so injected flips are ordinary pre-cycle state changes and campaigns
    stay deterministic under [jobs > 1].

    Partitions synchronize every cycle. Their only channels are
    conflict-free FIFOs ({!Fifo.cf}), whose enq at cycle [c] is visible
    to the other side at [c + 1]: a link latency of one cycle, so a
    longer free-running window could not be cycle-exact.

    [One_per_cycle] alone has its own short loop: from a rotating start it
    runs the same per-rule runners until one fires, then closes the cycle
    like any other.

    {2 One checked engine}

    Every rule, in every mode, runs fully checked: each EHR port access
    goes through the kernel's admissibility test and the port log, so the
    paper's conflict matrix (Sec. IV-B) is enforced dynamically for the
    whole design, and a conflict aborts only the rule that made it
    ([Kernel.Retry], counted in [Rule.conflicted]). *)
val create :
  ?mode:mode ->
  ?fastpath:bool ->
  ?audit:bool ->
  ?jobs:int ->
  ?partition_audit:bool ->
  ?grouped:bool ->
  ?stats:Stats.t ->
  Clock.t ->
  Rule.t list ->
  t

val clock : t -> Clock.t

(** The [jobs] the scheduler was created with. *)
val jobs : t -> int

(** Whether partitions actually run on the domain pool (i.e. [jobs > 1],
    at least one non-zero partition, and a mode that is neither inherently
    serial nor the partition audit). *)
val parallel : t -> bool

(** Join the process-global worker-domain pool. Parallel simulations share
    one lazily-spawned pool that persists between runs; on OCaml 5 even
    idle domains tax every minor collection, so call this before timing
    serial code after a parallel run. The pool respawns transparently on
    the next parallel cycle. Also registered via [at_exit].

    Idempotent and reentrancy-safe: a second call — including one from a
    signal handler interrupting the first — returns immediately. Signal
    handlers should nevertheless prefer setting a flag and letting the
    main loop shut down (see [riscyoo farm]): a handler firing mid-cycle
    would block here until the in-flight cycle's tasks drain. *)
val shutdown_pool : unit -> unit

(** [pool_run ~helpers tasks] runs a batch of independent tasks on the same
    shared worker-domain pool the partitioned simulator uses: the calling
    domain participates, at most [helpers] pool workers steal tasks, and
    the call returns when every task has completed. Tasks must trap their
    own exceptions (an escaping one is silently dropped by the barrier).
    This is the simulation farm's job executor — a farm task typically
    builds and runs a whole [jobs:1] machine, which is safe because the
    snapshot/injection/invariant registries are all domain-local. *)
val pool_run : helpers:int -> (unit -> unit) array -> unit

(** [reseed t seed] re-keys a [Shuffle] schedule: attempt order back to
    the canonical rule order, fresh RNG from [seed] — exactly a cold
    [Shuffle seed] build's starting schedule state. Restoring a cycle-0
    snapshot then reseeding is schedule-identical to a cold build with
    that seed (the farm's warm-fork path). No-op in other modes. *)
val reseed : t -> int -> unit

(** Run one clock cycle; returns the number of rules that fired. *)
val cycle : t -> int

(** [run t n] runs [n] cycles. *)
val run : t -> int -> unit

(** [run_until t ~max_cycles pred] runs until [pred ()] holds at a cycle
    boundary, returning [`Done cycles] or [`Timeout cycles] (how far the run
    got before the budget ran out). [on_cycle] is called with the loop's
    cycle index before each cycle — the fault-injection hook. *)
val run_until :
  ?on_cycle:(int -> unit) ->
  t ->
  max_cycles:int ->
  (unit -> bool) ->
  [ `Done of int | `Timeout of int ]

val cycles : t -> int
val total_fires : t -> int
val rules : t -> Rule.t list

(** {2 Observability (verification layer)} *)

(** Keep a ring buffer of the last [depth] cycles' fired-rule names; the
    watchdog dumps it when it trips. *)
val enable_history : t -> depth:int -> unit

(** Recorded (cycle, fired rule names) pairs, oldest first. Empty unless
    {!enable_history} was called. *)
val history : t -> (int * string list) list

(** [add_monitor t f] — [f t fired] runs after every cycle with the number
    of rules that fired that cycle. Monitors may raise (e.g. a watchdog
    trip); the exception propagates out of {!cycle}. *)
val add_monitor : t -> (t -> int -> unit) -> unit

(** [on_post_cycle t f] — [f cycle] runs after every cycle, before the
    monitors: the invariant-checking hook. *)
val on_post_cycle : t -> (int -> unit) -> unit

(** [set_rule_trace t f] — [f rule cycle] runs once per rule fire (including
    vacuous fires accounted for skipped rules, so the trace matches
    [Rule.fired] exactly, fast path on or off). The callback runs on
    whichever domain fired the rule: under [jobs > 1] it must confine its
    writes to per-partition state indexed by [rule.part] (see [Obs] in
    lib/obs). The disabled cost at every fire site is a single flat-[bool]
    load and branch. *)
val set_rule_trace : t -> (Rule.t -> int -> unit) -> unit

(** Detach the rule-trace sink; fire sites go back to the bare branch. *)
val clear_rule_trace : t -> unit

(** Per-rule firing report, for debugging schedules. *)
val pp_stats : Format.formatter -> t -> unit
