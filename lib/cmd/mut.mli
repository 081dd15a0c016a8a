(** Tracked mutation of module-internal state.

    Complex modules (caches, queues with search) keep their internals in
    plain OCaml structures rather than one EHR per field; their interface
    methods and internal rules still need the all-or-nothing property. These
    helpers perform a mutation {e and} register the undo with the enclosing
    transaction, so an aborting rule leaves no trace.

    Such state carries no conflict ports: the module's interface FIFOs and
    lock cells define its conflict matrix, and internal state is only ever
    reached through them.

    A write whose new value is physically the old one logs nothing. The
    trail keeps the ref, array or buffer of a committed write until its
    row is reused, so pass module state that lives as long as the machine;
    {!field} drops its record at the commit. *)

val set : Kernel.ctx -> 'a ref -> 'a -> unit
val set_arr : Kernel.ctx -> 'a array -> int -> 'a -> unit

(** [set_u8 ctx b i v] — tracked [Bytes.set_uint8]: a table of small
    counters kept in a buffer holds no pointers for the GC to scan, and
    its writes log an int-only trail row that allocates nothing. *)
val set_u8 : Kernel.ctx -> Bytes.t -> int -> int -> unit

(** Record-field mutation through closed accessors:
    [field ctx o ~get:(fun o -> o.f) ~set:(fun o v -> o.f <- v) v]. Closed
    accessors are static, so the write allocates nothing when the old value
    is an immediate. *)
val field : Kernel.ctx -> 'o -> get:('o -> 'a) -> set:('o -> 'a -> unit) -> 'a -> unit

(** [blit ctx ~src ~src_pos ~dst ~dst_pos ~len] — tracked [Bytes.blit]. *)
val blit : Kernel.ctx -> src:Bytes.t -> src_pos:int -> dst:Bytes.t -> dst_pos:int -> len:int -> unit

(** [blit_ints ctx ~src ~dst] — tracked copy of all of [src] over [dst]
    (equal lengths), logged as one entry. *)
val blit_ints : Kernel.ctx -> src:int array -> dst:int array -> unit

(** Tracked 64-bit little-endian store into a buffer. *)
val set_int64 : Kernel.ctx -> Bytes.t -> int -> int64 -> unit
