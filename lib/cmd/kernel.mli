(** The CMD execution kernel: transactional guarded atomic actions.

    A design is a set of modules whose interface methods read and atomically
    update internal state, composed by {e rules}. A rule either updates the
    state of every module it calls or does nothing (paper, Section I). Within
    a clock cycle many rules may fire, but the net effect always equals
    executing the fired rules serially in schedule order.

    Every piece of rule-visible state bottoms out in a {e cell} — the port
    bookkeeping of one ephemeral history register (EHR). When a rule's method
    call touches port [p] of a cell, the kernel checks the access is
    admissible {e after} everything already performed this cycle (by earlier
    rules and by the same rule):

    - read port [i] after write port [j] requires [j < i];
    - write port [i] after read port [j] requires [j <= i];
    - write port [i] after write port [j] requires [j < i].

    These are exactly the EHR orderings, so the induced conflict matrix of any
    compound module matches what the BSV compiler would derive. An
    inadmissible access aborts the whole rule ({!Retry}), and every state
    change it made is rolled back — atomicity with no effort from the module
    author. *)

(** Raised by a method whose guard is not ready; aborts (and rolls back) the
    calling rule for this cycle. *)
exception Guard_fail of string

(** Raised internally when an access conflicts with the cycle's history; the
    scheduler rolls the rule back and retries it next cycle. *)
exception Retry of string

(** A genuine design error: the conflict arises within a single rule (e.g.
    writing a register twice, or reading a plain register after writing it),
    which no schedule can fix. *)
exception Conflict_error of string

(** Raised by the partition audit ([Sim.create ~partition_audit:true]) when a
    cell is touched by two different partitions within one cycle with at
    least one write involved — an overlap the static partition checker
    should have made impossible. Read-read sharing across partitions is
    order-independent and is not reported. *)
exception Partition_overlap of string

(** Raised by the compile audit ([Sim.create ~compile_audit:true]) when a
    rule's declared footprint is contradicted by an actual
    access — the dynamic discharge of the schedule compiler's proof
    obligations. *)
exception Compile_audit_fail of string

type cell
type ctx

(** [make_cell name] allocates the conflict-tracking bookkeeping for one EHR.
    [name] appears in conflict diagnostics. *)
val make_cell : string -> cell

(** A transaction context. Method implementations thread it through every
    state access. The context owns a reusable undo arena, so the scheduler
    keeps one context alive across all rule attempts of a run; call
    {!reset_ctx} between attempts after a commit. *)
val make_ctx : Clock.t -> ctx

(** Forget the committed undo log (without running it) and reset the access
    counter, readying the context for the next rule attempt. *)
val reset_ctx : ctx -> unit

(** The clock this context runs under. *)
val clock : ctx -> Clock.t

(** Name of the rule currently executing (for diagnostics). *)
val rule_name : ctx -> string
val set_rule_name : ctx -> string -> unit

(** Partition attributed to accesses made through this context. The
    scheduler sets it per execution context (parallel mode) or per rule
    (partition-audit mode); module code never touches it. *)
val partition : ctx -> int
val set_partition : ctx -> int -> unit

(** Shard index used by [Stats.incr] for counters incremented through this
    context; [-1] (the default) increments the counter directly. Parallel
    partitions each get a distinct slot so counter updates never race. *)
val stats_slot : ctx -> int
val set_stats_slot : ctx -> int -> unit

(** Enable per-partition cell-touch recording on this context; any
    cross-partition overlap involving a write raises {!Partition_overlap}.
    Audit masks are deliberately not rolled back on abort — even an aborted
    access read the cell concurrently. *)
val set_partition_audit : ctx -> bool -> unit

(** Whether partition-audit recording is enabled on this context. Modules
    with engine-sequenced latency contracts (the L2's declared lookahead)
    use it to run their own extra checks only under the audit. *)
val partition_audit : ctx -> bool

(** Key the partition-audit masks on a fixed value instead of the current
    cycle: under epoch execution the masks accumulate over the whole
    window, flagging state shared across a window's free-running phases
    even when the touches land on different local cycles. [-1] (default)
    restores per-cycle keying. *)
val set_audit_key : ctx -> int -> unit

(** Exempt cells owned by the given [Conflict.prim] pids from the audit:
    the epoch engine whitelists declared boundary FIFOs, whose
    cross-partition handoff it sequences itself. *)
val set_audit_exempt : ctx -> (int -> bool) -> unit

(** {2 Compiled-schedule support (used by [Sim])}

    The schedule compiler proves, per rule, that the per-cell admissibility
    bookkeeping is unnecessary, and runs the rule's body with [checked]
    cleared. It defaults to [true]; the undo arena is kept either way, so
    guard aborts still roll back. *)

val set_checked : ctx -> bool -> unit

(** Owning [Conflict.prim] pid of a cell; [-1] until adopted by a primitive
    wrapper (EHR, FIFO, …). Used by the compile audit to map accesses back
    to declared footprints. *)
val cell_prim : cell -> int

val set_cell_prim : cell -> int -> unit

(** Diagnostic name of a cell. *)
val cell_name : cell -> string

(** Number of {!Retry} raises observed on this context (monotonic; the
    compile audit diffs it around each rule attempt). *)
val retries : ctx -> int

(** Install a hook called on every tracked access with the touched cell
    ([write] says in which direction); the compile audit uses it to verify
    footprint coverage. [None] (the default) costs one load per access. *)
val set_fp_check : ctx -> (cell -> write:bool -> unit) option -> unit

(** [record_read ctx cell port] declares a port-[port] read of [cell],
    aborting with {!Retry} if inadmissible after this cycle's history. *)
val record_read : ctx -> cell -> int -> unit

(** [record_write ctx cell port] declares a port-[port] write of [cell]. *)
val record_write : ctx -> cell -> int -> unit

(** [on_abort ctx undo] registers [undo] to run if the enclosing rule (or
    {!attempt}) aborts. State primitives call this before each mutation. *)
val on_abort : ctx -> (unit -> unit) -> unit

(** [guard ctx ok msg] raises [Guard_fail msg] when [ok] is false. Guards are
    how methods refuse to be applied before they are ready (paper, Sec. III). *)
val guard : ctx -> bool -> string -> unit

(** [abort ctx] rolls back everything the transaction did and re-raises the
    given exception. Used by the scheduler. *)
val rollback : ctx -> unit

(** [attempt ctx f] runs [f ctx] as a nested transaction: if it raises
    {!Guard_fail} or {!Retry}, its effects are rolled back and the result is
    [None]; otherwise [Some] of its result. This expresses superscalar
    "do as many ways as are ready" loops without aborting the whole rule. *)
val attempt : ctx -> (ctx -> 'a) -> 'a option

(** Number of accesses recorded so far in this transaction (diagnostics). *)
val access_count : ctx -> int

(** Current depth of the undo arena: 0 right after {!make_ctx},
    {!reset_ctx} or a full {!rollback}; positive once the transaction has
    committed-but-revocable effects. The scheduler's audit mode uses this
    to detect that a rule claiming [can_fire = false] actually did
    something. *)
val undo_depth : ctx -> int
