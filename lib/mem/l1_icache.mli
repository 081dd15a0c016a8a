(** L1 instruction cache: a blocking, coherent read-only (I/S) child.

    The front-end sends a fetch request tagged with an opaque id (the epoch,
    so wrong-path responses can be discarded) and receives up to
    [fetch_width] instruction words starting at the requested pc, truncated
    at the cache-line boundary. One miss outstanding at a time — instruction
    misses are rare enough that the paper's core keeps this simple. *)

type t

(** The four crossbar-facing queues are conflict-free ({!Cmd.Fifo.cf}), so
    the cache's rule and the crossbar's may be listed in either order. *)
val create :
  ?name:string ->
  Cmd.Clock.t ->
  child_id:int ->
  geom:Cache_geom.t ->
  fetch_width:int ->
  stats:Cmd.Stats.t ->
  unit ->
  t

(** [req ctx t ~tag pc] — pc must be 4-byte aligned. *)
val req : Cmd.Kernel.ctx -> t -> tag:int -> int64 -> unit

val can_req : Cmd.Kernel.ctx -> t -> bool

(** [(tag, pc, words)] — [words] holds 1..fetch_width instruction words. *)
val resp : Cmd.Kernel.ctx -> t -> int * int64 * int array

val can_resp : Cmd.Kernel.ctx -> t -> bool


(** Untracked response availability + its wakeup signal, for the fetch
    rule's [can_fire]. *)
val resp_ready : t -> bool

val resp_signal : t -> Cmd.Wakeup.signal

(** The tag of the oldest response held, read untracked; call it only when
    {!resp_ready}. *)
val resp_tag : t -> int

(** Untracked request-queue room: when false, {!req} would fail. *)
val req_room : t -> bool

val creq_out : t -> Msg.creq Cmd.Fifo.t
val cresp_out : t -> Msg.cresp Cmd.Fifo.t
val preq_in : t -> Msg.preq Cmd.Fifo.t
val presp_in : t -> Msg.presp Cmd.Fifo.t
val rules : t -> Cmd.Rule.t list
