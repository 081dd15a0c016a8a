(** Kanata/Konata pipeline-trace export (format version 0004), as read by
    the Konata viewer (https://github.com/shioyadan/Konata).

    One file covers all harts: each instruction's [I] line carries its hart
    as the thread id, so the viewer can colour or filter by hart. File ids
    are assigned in (fetch cycle, hart, tid) order and retire ids in
    (retire cycle, hart, tid) order; both keys are derived purely from the
    recorded per-hart streams. Instructions still in flight at run end are closed with a
    synthetic flush at their last recorded cycle. *)

(** Render the whole trace. *)
val to_string : pipes:Pipe.t list -> string

val write : out:string -> pipes:Pipe.t list -> unit
