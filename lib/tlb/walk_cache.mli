(** Split translation cache (Barr, Cox & Rixner; paper, Section VI-A).

    Caches intermediate page-walk results per level: entries at level 1 map
    a [vpn2] prefix to the physical base of the level-1 table; entries at
    level 0 map a [(vpn2, vpn1)] prefix to the level-0 table. A walk starts
    from the deepest cached level, skipping memory reads. The paper's
    RiscyOO-T+ uses 24 fully associative entries per level. *)

type t

val create : entries_per_level:int -> t

(** [lookup t va] returns the deepest known starting point:
    [(level, table_base)] where [level] is the level whose table [base]
    addresses (2 = root not cached deeper). *)
val lookup : t -> root:int64 -> int64 -> int * int64

(** [insert ctx t va ~level ~base] records that the walk of [va] found the
    level-[level] table at [base], a page-aligned address. *)
val insert : Cmd.Kernel.ctx -> t -> int64 -> level:int -> base:int64 -> unit

val flush : t -> unit
