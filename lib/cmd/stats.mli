(** Named performance counters.

    Counters live outside the rule-visible state: incrementing one is not an
    architectural effect, so increments from aborted rules must be rolled
    back explicitly with [incr ~ctx] (the common case) or left untracked for
    harness-level bookkeeping. *)

type t

(** A counter group, e.g. one per core. [prefix] prefixes every counter name
    in reports. *)
val create : ?prefix:string -> unit -> t

type counter

(** [counter t name] returns the (memoized) counter called [name]. *)
val counter : t -> string -> counter

(** [incr ?ctx ?by t c] adds [by] (default 1). With [~ctx], the increment is
    undone if the enclosing rule aborts. *)
val incr : ?ctx:Kernel.ctx -> ?by:int -> counter -> unit

(** Current value. *)
val get : counter -> int

val set : counter -> int -> unit

(** [find t name] is the current value of [name], 0 if never touched. *)
val find : t -> string -> int

(** All counters, sorted by name. *)
val to_list : t -> (string * int) list

val reset : t -> unit
val pp : Format.formatter -> t -> unit
