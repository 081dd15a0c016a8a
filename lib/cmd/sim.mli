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
                        from the given seed — for schedule-robustness tests.
                        The RNG and the current order are snapshot state. *)

(** Raised in audit mode when a rule's [can_fire] returned [false] but its
    body nevertheless fired (committed effects), or when a step's ready test
    ([Kernel.attempt_if]) returned [false] but the step committed: the
    predicate lies, and the fast path would silently starve the rule or the
    step. The same exception as [Kernel.Audit_fail]. *)
exception Audit_fail of string

type t

(** [create ?mode ?fastpath ?audit clk rules] builds a scheduler. Every rule
    runs on the calling domain, through one transaction context.

    With [fastpath] (the default), a rule carrying a [can_fire] predicate is
    skipped — no transaction, no exception, no rollback — in cycles where
    the predicate returns [false], and parked on its watch set until a
    watched primitive is touched: [create] subscribes the rule to each
    watched signal ([Wakeup.subscribe]), and the cycle loop passes over a
    parked rule no touch has woken without calling anything. A skip is counted in [Rule.skipped] and
    as the guard failure the predicate foresaw ([Rule.guard_failed]).

    Engine identity, with [fastpath] on or off and in every mode: cycle
    counts, [Rule.fired], the rule-firing history ring, the rule trace and
    all architectural state are identical, and so is each rule's
    [guard_failed + conflicted]. The split between those two counters may
    differ: an attempt the fast path skips as a guard failure can, when it
    runs, hit a port conflict ([Kernel.Retry]) before its guard. A rule
    fires only by returning normally, so a body that did nothing raises: an
    aggregate body ends with [Kernel.require_effect].

    [~fastpath:false] strips the predicates (every rule is attempted, as
    before this optimization), and every step behind a [Kernel.attempt_if]
    ready test runs too, under the ready audit described below.

    [~audit:true] disables skipping but evaluates every [can_fire] and raises
    {!Audit_fail} if a rule fires (its body returns normally) in a cycle
    its predicate vetoed — the debug oracle for predicate truthfulness
    ([--scheduler-audit] in the driver). It also turns on the ready audit of
    its context ([Kernel.set_ready_audit]): a step whose [Kernel.attempt_if]
    ready test said false still runs, and raises {!Audit_fail} if it
    commits. And it audits the clock's edge workers ([Clock.set_audit]):
    every worker runs at every tick, and one that changes state without
    having been armed raises {!Audit_fail}.

    {2 Cycle structure and hook ordering}

    Every [Multi]/[Shuffle] cycle proceeds: (1) every rule, once, in the
    cycle's schedule order; (2) close — [Clock.tick], running the clock's
    samplers and the edge workers armed this cycle (wire resets,
    conflict-free FIFO snapshot advance); (3) the
    history ring; (4) {!on_post_cycle} hooks (invariant checks); (5)
    {!add_monitor} monitors (watchdog). Steps 2–5 therefore always see the
    quiescent state between cycles. [run_until]'s [on_cycle] (the
    fault-injection hook) runs before the cycle, so injected flips are
    ordinary pre-cycle state changes.

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
  Clock.t ->
  Rule.t list ->
  t

val clock : t -> Clock.t

(** {2 The farm's worker pool}

    The simulator itself never leaves the calling domain. The pool below
    is the simulation farm's job executor ([Farm.Sweep]); it lives here
    because the benchmark harness calls {!pool_run} and {!shutdown_pool}
    by these names. *)

(** Join the process-global worker-domain pool. Farm sweeps share one
    lazily-spawned pool that persists between batches; on OCaml 5 even
    idle domains tax every minor collection, so call this before timing
    single-domain code after a sweep. The pool respawns transparently on
    the next {!pool_run}. Also registered via [at_exit].

    Idempotent and reentrancy-safe: a second call — including one from a
    signal handler interrupting the first — returns immediately. Signal
    handlers should nevertheless prefer setting a flag and letting the
    main loop shut down (see [riscyoo farm]): a handler firing mid-batch
    would block here until the in-flight batch's tasks drain. *)
val shutdown_pool : unit -> unit

(** [pool_run ~helpers tasks] runs a batch of independent tasks on the
    shared worker-domain pool: the calling domain participates, at most
    [helpers] pool workers steal tasks, and the call returns when every
    task has completed. Tasks must trap their own exceptions (an escaping
    one is silently dropped). A farm task typically builds and runs a
    whole machine, which is safe because the snapshot/injection/invariant
    registries and the ambient cluster are all domain-local. *)
val pool_run : helpers:int -> (unit -> unit) array -> unit

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

(** [set_rule_trace t f] — [f rule cycle] runs once per rule fire, so the
    trace matches [Rule.fired] exactly, fast path on or off; a skip is not a
    fire and is not traced. The disabled cost at every fire site is a single
    flat-[bool] load and branch. *)
val set_rule_trace : t -> (Rule.t -> int -> unit) -> unit

(** Detach the rule-trace sink; fire sites go back to the bare branch. *)
val clear_rule_trace : t -> unit

(** Per-rule firing report, for debugging schedules. *)
val pp_stats : Format.formatter -> t -> unit
