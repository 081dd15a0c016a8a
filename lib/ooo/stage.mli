(** A one-entry pipeline stage register for uop-carrying payloads.

    Conflict matrix: [take < put < squash] — a stage can be emptied and
    refilled in the same cycle (pipeline behaviour), and the misprediction
    rule (scheduled later) can squash whatever sits in it. *)

type 'a t

(** [dead] decides whether an occupant is wrong-path (typically
    [fun (u, _) -> u.Uop.killed]). *)
val create : name:string -> dead:('a -> bool) -> 'a t

val put : Cmd.Kernel.ctx -> 'a t -> 'a -> unit
val can_put : Cmd.Kernel.ctx -> 'a t -> bool

(** Read without removing; guarded on a live occupant (dead occupants are
    dropped on the spot). *)
val peek : Cmd.Kernel.ctx -> 'a t -> 'a

val take : Cmd.Kernel.ctx -> 'a t -> 'a

(** Drop the occupant if [dead] (called by the misprediction rule). *)
val squash : Cmd.Kernel.ctx -> 'a t -> unit

val peek_opt : 'a t -> 'a option

(** Untracked occupancy probe for [can_fire] predicates. A dead (wrong-path)
    occupant still counts as occupied — the attempt then drops it and
    guard-fails, exactly as the seed scheduler did. *)
val occupied : 'a t -> bool

(** The slot EHR's wakeup signal, for rules whose [can_fire] is
    {!occupied}. *)
val signal : 'a t -> Cmd.Wakeup.signal

