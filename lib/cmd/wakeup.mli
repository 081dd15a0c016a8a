(** Generation-counter wakeup signals for the fast-path scheduler.

    Every state primitive that can unblock a rule (EHR, FIFO, wire) owns a
    signal and {!touch}es it when its observable value changes. A rule
    parked by the scheduler records {!sum} over its watch set; since
    generations only grow, the sum changes iff any watched signal was
    touched since parking. Spurious touches are harmless (one extra
    predicate evaluation); a missed touch could strand a parked rule, so
    primitives touch conservatively. *)

type signal

val make : unit -> signal

(** Bump the generation: some observer's view of this primitive may have
    changed. *)
val touch : signal -> unit

val gen : signal -> int

(** Sum of the generations of a watch set (O(n), allocation-free). *)
val sum : signal array -> int
