(** Latency-insensitive FIFOs with explicit concurrency semantics.

    All three variants share the guarded interface [enq]/[deq]/[first]/
    [clear]; they differ only in their conflict matrices, which is exactly the
    paper's point: module refinement may change the CM, and composition
    remains correct (possibly with less concurrency).

    - {!pipeline}: [first < deq < enq < clear]. When full, a [deq] earlier in
      the schedule frees the slot an [enq] fills the same cycle (the classic
      pipeline register).
    - {!bypass}: [enq < deq < clear]. When empty, a value enqueued earlier in
      the schedule can be dequeued the same cycle (a same-cycle forwarding
      path).
    - {!cf}: [enq CF deq], both [< clear]. Guards are conservative — they see
      the occupancy at the start of the cycle — so enqueue and dequeue rules
      may be scheduled in either order. *)

type 'a t

val pipeline : ?name:string -> capacity:int -> unit -> 'a t

val bypass : ?name:string -> capacity:int -> unit -> 'a t

(** A conflict-free queue: each side's guard reads the other side's total
    as it stood at the start of the cycle, refreshed by an edge worker. An
    element enqueued at cycle [c] can be dequeued at [c + 1] at the
    earliest, and a slot freed at [c] can be refilled at [c + 1]: a link
    latency of one cycle, which lets the enq and deq rules be listed in
    either order. *)
val cf : ?name:string -> Clock.t -> capacity:int -> unit -> 'a t

(** [enq ctx q v] appends [v]; guarded on the queue not being full. *)
val enq : Kernel.ctx -> 'a t -> 'a -> unit

(** [deq ctx q] removes and returns the oldest element; guarded on
    non-emptiness. *)
val deq : Kernel.ctx -> 'a t -> 'a

(** [first ctx q] returns the oldest element without removing it. *)
val first : Kernel.ctx -> 'a t -> 'a

(** Non-aborting guard probes, reading through the same ports as the
    corresponding action. *)
val can_enq : Kernel.ctx -> 'a t -> bool

val can_deq : Kernel.ctx -> 'a t -> bool

(** [clear ctx q] empties the queue; logically ordered after every other
    method of the cycle (used by wrong-path flushes). *)
val clear : Kernel.ctx -> 'a t -> unit

val capacity : 'a t -> int
val name : 'a t -> string

(** The queue's wakeup signal: touched on every successful [enq], [deq] and
    [clear] (and, for {!cf}, when the cycle-boundary snapshots advance).
    Rules whose [can_fire] consults {!peek_size} may watch it. *)
val signal : 'a t -> Wakeup.signal

(** Untracked occupancy / contents, for statistics, tests and the ready
    tests of [Kernel.attempt_if]. [peek_size] counts every element
    currently held, including one a {!cf} queue's [deq] cannot see until
    the next cycle, so [peek_size q = 0] implies [first]/[deq] would fail. *)
val peek_size : 'a t -> int

(** [peek_can_enq q] is [enq]'s guard, read untracked: when false, [enq]
    would fail; when true, the guard holds. For a {!pipeline} or {!bypass}
    queue that is [peek_size q < capacity q]. A {!cf} queue's enq side
    sees the deq side as it stood at the start of the cycle, so a deq made
    earlier in the same cycle frees no slot until the next one. *)
val peek_can_enq : 'a t -> bool

(** [peek_first q] is the oldest element held, read untracked; call it only
    when [peek_size q > 0]. Whenever [first] succeeds it returns this
    element. *)
val peek_first : 'a t -> 'a

val peek_list : 'a t -> 'a list
