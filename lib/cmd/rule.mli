(** Rules: the guarded atomic actions that compose modules (paper, Sec. III).

    A rule's body calls interface methods of any number of modules; firing is
    all-or-nothing. The scheduler gathers per-rule firing statistics here.

    {2 Fast-path metadata}

    [can_fire] is an optional {e cheap, untracked} predicate: when it returns
    [false] the scheduler may skip the attempt entirely — no transaction
    context, no exception, no rollback. The contract is one-sided:
    [can_fire () = false] must imply the body could not fire this cycle
    (w.r.t. the state committed so far in the schedule); [true] promises
    nothing, the guard inside the body remains the correctness backstop.
    [Sim]'s [--scheduler-audit] mode checks the contract dynamically.

    [watches] is the rule's sensitivity set: when present, a rule whose
    [can_fire] said [false] is {e parked} and is not even re-polled until one
    of the watched signals is touched. A rule may only declare watches when
    its [can_fire] depends exclusively on state covered by those signals;
    rules reading plain mutable state (no signal) must stay watchless so the
    predicate is re-evaluated every cycle.

    A rule fires when its body returns normally; [Kernel.Guard_fail] is a
    guard failure and [Kernel.Retry] a conflict. A skip by the fast path is
    counted in [skipped] and as a guard failure. An aggregate rule, whose
    body is a loop of [Kernel.attempt_if] steps, states its own guard by
    ending with [Kernel.require_effect].

    {2 Cluster label}

    [part] is the cluster the rule belongs to, captured from
    [Partition.ambient] at construction: 0 for the shared uncore, [i + 1]
    for core [i]'s pipeline, private caches and TLB, and one cluster per
    bank of a banked L2. The scheduler ignores it; [lib/obs] groups trace
    tracks by it. *)

type t = {
  name : string;
  body : Kernel.ctx -> unit;
  can_fire : (unit -> bool) option;  (** cheap pre-attempt predicate *)
  watches : Wakeup.signal array;  (** sensitivity set for parking *)
  vacuous : bool;
      (** always [false]: a pinned field that no scheduler reads, kept for
          the benchmark harness *)
  part : int;  (** cluster, captured from [Partition.ambient] at [make] *)
  mutable fired : int;  (** cycles in which the rule fired *)
  mutable guard_failed : int;  (** attempts aborted by a guard *)
  mutable conflicted : int;  (** attempts aborted by an intra-cycle conflict *)
  mutable skipped : int;  (** attempts pruned by the fast path *)
  mutable rid : int;
      (** stable small-integer id, the rule's index in the list given to
          [Sim.create] (and to an observability sink); -1 before either
          claims the rule *)
}

val make :
  ?can_fire:(unit -> bool) ->
  ?watches:Wakeup.signal list ->
  string ->
  (Kernel.ctx -> unit) ->
  t

(** Reset the statistics counters. *)
val reset_stats : t -> unit
