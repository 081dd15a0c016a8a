(** Push wakeup signals for the fast-path scheduler.

    Every state primitive that can unblock a rule (EHR, FIFO, wire) owns a
    signal and {!touch}es it when its observable value changes. A scheduler
    subscribes each rule that watches the signal, once, at construction; a
    touch sets the rule's byte on that scheduler's wake board, and a parked
    rule is not even looked at until its byte is set. Spurious touches are
    harmless (one extra predicate evaluation); a missed touch could strand
    a parked rule, so primitives touch conservatively. *)

type signal

val make : unit -> signal

(** Some observer's view of this primitive may have changed: set every
    subscriber's wake byte. *)
val touch : signal -> unit

(** [subscribe s board id]: a later {!touch} of [s] sets byte [id] of
    [board] to ['\001']. Idempotent. *)
val subscribe : signal -> Bytes.t -> int -> unit
