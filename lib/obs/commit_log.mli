(** Deterministic, hart-ordered commit trace.

    [--trace] output used to be printed straight from the commit hooks,
    interleaving harts in rule-firing order. This sink buffers each hart's
    lines separately and {!dump} emits hart 0's lines, then hart 1's, ...,
    following the hart-ordered convention of the Mmio console. Appends take
    a [ctx] and are undone if the enclosing rule aborts. *)

type t

val create : nharts:int -> t
val set_active : t -> bool -> unit
val is_active : t -> bool

(** [line ctx t ~hart s] appends [s] plus a newline to [hart]'s buffer;
    no-op while inactive. *)
val line : Cmd.Kernel.ctx -> t -> hart:int -> string -> unit

(** Everything logged, hart-ordered. *)
val contents : t -> string

val dump : t -> Format.formatter -> unit
