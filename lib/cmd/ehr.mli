(** Ephemeral history registers (Rosenband), the primitive from which all
    intra-cycle orderings are built.

    An EHR exposes numbered read/write ports. Within one cycle, a read at
    port [i] observes all writes at ports [< i] (from any rule fired earlier
    in the schedule, or earlier in the same rule); writes at a higher port
    supersede lower ones. The induced conflict matrix is:

    {v  r[i] CF r[j]      r[i] < w[j] iff i <= j
        w[i] < w[j] iff i < j      w[i] < r[j] iff i < j  v} *)

type 'a t

(** [create ?name ?inject init] makes an EHR holding [init]. With
    [~inject:false] its fault-injection site never flips (the site is still
    registered, so a campaign's site numbering does not depend on it). *)
val create : ?name:string -> ?inject:bool -> 'a -> 'a t

(** [read ctx t p] reads through port [p]. *)
val read : Kernel.ctx -> 'a t -> int -> 'a

(** [write ctx t p v] writes through port [p]. *)
val write : Kernel.ctx -> 'a t -> int -> 'a -> unit

(** Untracked read, for tests, statistics and cycle-boundary hooks only. *)
val peek : 'a t -> 'a

(** Untracked write, for initialization and cycle-boundary hooks only. *)
val poke : 'a t -> 'a -> unit

val name : 'a t -> string

(** The EHR's wakeup signal: touched on every tracked or untracked write
    that physically changes the value (and on fault-injection flips). Rules
    whose [can_fire] reads this EHR through {!peek} may watch it. *)
val signal : 'a t -> Wakeup.signal
