open Cmd

(* Deterministic commit trace.

   Printing straight from a commit hook interleaves harts in firing order,
   which differs between schedule modes and is awkward to diff. Instead each
   hart appends to its own buffer and the driver dumps hart 0, then hart 1,
   ... after the run — the convention the Mmio console already established.
   Appends are abort-safe: a rolled-back commit truncates its bytes away. *)

type t = { mutable active : bool; bufs : Buffer.t array }

let create ~nharts =
  { active = false; bufs = Array.init (max 1 nharts) (fun _ -> Buffer.create 4096) }

let set_active t b = t.active <- b
let is_active t = t.active

let line ctx t ~hart s =
  if t.active then begin
    let b = t.bufs.(hart) in
    let mark = Buffer.length b in
    Kernel.on_abort ctx (fun () -> Buffer.truncate b mark);
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  end

(* Hart-ordered concatenation of everything logged so far. *)
let contents t =
  let b = Buffer.create 4096 in
  Array.iter (fun hb -> Buffer.add_buffer b hb) t.bufs;
  Buffer.contents b

let dump t fmt =
  Format.pp_print_string fmt (contents t);
  Format.pp_print_flush fmt ()
