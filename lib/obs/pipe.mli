(** Per-hart instruction lifecycle tracer.

    One [t] per hart. A traced instruction is assigned a {e trace id} (tid)
    when it is first seen (at decode in the OOO core, at execute in the
    in-order core — both backdate the fetch stage from the cycle recorded at
    fetch-issue); the tid rides in the uop, and every stage it passes through
    appends a [(tag, tid, arg, cycle)] group to this hart's {!Buf}.

    {b Zero cost when disabled.} [active] is a flat mutable [bool]; a core
    built against {!null} (or outside the capture window) checks it — or the
    equally flat [tid >= 0] it implies — and skips emission entirely. No
    sink attached means one load-and-branch per potential event.

    {b Determinism.} The buffer is written only from emission sites inside
    the owning hart's rules, which run in schedule order on the
    simulator's one domain, so the per-hart event sequence is a pure
    function of the run.

    {b Abort safety.} Every emission registers a [Kernel.on_abort] undo that
    truncates the buffer back to its pre-emission fill pointer (and
    {!start} also returns the tid counter), so a rolled-back rule attempt
    leaves no trace. *)

type t

val create : hart:int -> t

(** Shared always-inactive instance; the default sink of an uninstrumented
    core. *)
val null : t

val hart : t -> int
val is_active : t -> bool
val set_active : t -> bool -> unit

(** Trace ids allocated so far. *)
val count : t -> int

(** {2 Stage codes} *)

val s_fetch : int
val s_decode : int
val s_rename : int
val s_dispatch : int
val s_issue : int
val s_exec : int
val s_mem : int
val s_writeback : int
val s_commit : int
val n_stages : int
val stage_name : int -> string

(** {2 Emission (called from rule bodies; [ctx] makes them abort-safe)} *)

(** [start ctx t ~pc ~at] allocates a tid for the instruction at [pc],
    recording [at] (its fetch-issue cycle) as the start of its fetch stage.
    Call only when {!is_active}. *)
val start : Cmd.Kernel.ctx -> t -> pc:int64 -> at:int -> int

(** Attach the disassembly text (known at decode). *)
val set_text : t -> int -> string -> unit

val stage : Cmd.Kernel.ctx -> t -> int -> int -> at:int -> unit
val retire : Cmd.Kernel.ctx -> t -> int -> flushed:bool -> at:int -> unit

(** {2 Export} *)

type irec = {
  ihart : int;
  itid : int;
  ipc : int64;
  itext : string;
  istart : int;  (** fetch cycle *)
  istages : (int * int) array;  (** (stage code, cycle), emission order *)
  iretire : int;  (** retire/flush cycle, -1 if still in flight at run end *)
  iflushed : bool;
}

(** Decode the packed buffer into one record per tid. *)
val records : t -> irec array
