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

(** Raised by the scheduler audit ([Sim.create ~audit:true]) when a rule or
    one of its steps claimed it could not fire and then committed an
    effect. [Sim.Audit_fail] is the same exception. *)
exception Audit_fail of string

type cell
type ctx

(** [make_cell name] allocates the conflict-tracking bookkeeping for one EHR.
    [name] appears in conflict diagnostics. *)
val make_cell : string -> cell

(** A transaction context. Method implementations thread it through every
    state access. The context owns a reusable undo trail, so the scheduler
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

(** Turn the ready-test audit of {!attempt_if} on or off (default off). The
    scheduler turns it on under [Sim.create ~audit:true] and
    [~fastpath:false]. *)
val set_ready_audit : ctx -> bool -> unit

(** [record_read ctx cell port] declares a port-[port] read of [cell],
    aborting with {!Retry} if inadmissible after this cycle's history. *)
val record_read : ctx -> cell -> int -> unit

(** [record_write ctx cell port] declares a port-[port] write of [cell]. *)
val record_write : ctx -> cell -> int -> unit

(** {2 The undo trail}

    State primitives log the old value of a location before they mutate
    it; if the enclosing rule (or {!attempt}) aborts, the entries are
    undone newest first. None of the [log_*] calls allocates when the old
    value is an immediate (int, bool, constant constructor) and the setter
    is a closed function. *)

(** [log_field ctx set o old] arranges for [set o old] to run on abort.
    [set] should be closed, e.g. [(fun o v -> o.f <- v)]: the trail keeps
    it indefinitely. [o] and [old] are dropped when the rule commits. *)
val log_field : ctx -> ('o -> 'a -> unit) -> 'o -> 'a -> unit

(** [log_set] is {!log_field} for an [o] that lives as long as the machine
    (a primitive's own record, a module's ref): the trail keeps [o] after
    the commit, until the row is reused, which saves the write barriers of
    clearing and re-storing it. The old value is still dropped. The same
    holds for the array of {!log_arr}, {!log_ints} and the buffer of
    {!log_u8} and {!log_bytes}. *)
val log_set : ctx -> ('o -> 'a -> unit) -> 'o -> 'a -> unit

(** [log_arr ctx a i old] arranges for [a.(i) <- old] to run on abort. *)
val log_arr : ctx -> 'a array -> int -> 'a -> unit

(** [log_u8 ctx b i old] arranges for byte [i] of [b] to be set back to
    [old] (0–255) on abort. *)
val log_u8 : ctx -> Bytes.t -> int -> int -> unit

(** [log_ints ctx a] saves the whole of [a], restored on abort. *)
val log_ints : ctx -> int array -> unit

(** [log_bytes ctx b pos len] saves [b]'s bytes [pos, pos+len), restored on
    abort. *)
val log_bytes : ctx -> Bytes.t -> int -> int -> unit

(** [on_abort ctx undo] registers an arbitrary [undo] to run on abort, for
    state the typed entries above cannot describe (buffer truncation, hash
    tables). *)
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

(** [attempt_if ctx ready f] is [attempt ctx f] behind a peek-only ready
    test: when [ready] is false the step is not run at all, and the result
    is [None] with no transaction opened, no exception raised and nothing
    allocated. [ready] keeps the one-sided contract of [Rule.can_fire] at
    step level: [false] must imply that [f] would abort, or return having
    logged nothing, on the current state; [true] promises nothing, and [f]'s
    own guards stay the backstop. Compute [ready] from untracked reads
    ([Fifo.peek_size], [Ehr.peek], plain fields), never through [ctx], and
    build [f] once, outside the rule body, so that the skip allocates no
    closure.

    Under the ready audit ({!set_ready_audit}) a step whose test said false
    runs anyway: an abort, or a return with nothing logged, yields [None] as
    the skip would; a return that logged any effect rolls back the whole
    rule and raises {!Audit_fail}. *)
val attempt_if : ctx -> bool -> (ctx -> 'a) -> 'a option

(** [require_effect ctx] is the guard of an aggregate rule, one whose
    body is a loop of {!attempt_if} steps: it raises {!Guard_fail} when
    nothing is on either log ([undo_depth ctx = 0]), the same "did nothing"
    the ready audit uses. A rule fires only if it updates some module
    (paper, Sec. II), so an aggregate body ends with this call: when every
    step declined, the rule fails its guard instead of firing empty. The
    exception is preallocated, so the call allocates nothing. *)
val require_effect : ctx -> unit

(** Number of accesses recorded so far in this transaction (diagnostics). *)
val access_count : ctx -> int

(** Number of undo entries (trail plus port log): 0 right after
    {!make_ctx}, {!reset_ctx} or a full {!rollback}; positive once the
    transaction has committed-but-revocable effects. {!require_effect}
    fails a rule's guard when it is 0. *)
val undo_depth : ctx -> int
