open Cmd

type t = {
  mutable active : bool;
  bufs : Buf.t array; (* per cluster: (rid, cycle) pairs in fire order *)
}

let create ~nparts =
  { active = false; bufs = Array.init (max 1 nparts) (fun _ -> Buf.create ()) }

let set_active t b = t.active <- b
let nparts t = Array.length t.bufs

(* The Sim fire-site callback: append to the firing rule's cluster buffer.
   No ctx: the scheduler invokes it strictly after the fire has committed,
   so there is nothing to undo. *)
let emit t (r : Rule.t) cyc =
  if t.active && r.Rule.rid >= 0 then begin
    let b = Array.unsafe_get t.bufs r.Rule.part in
    Buf.push b r.Rule.rid;
    Buf.push b cyc
  end

(* Per-cluster fire list: (rid, cycle) pairs, chronological. *)
let fires t p =
  let b = t.bufs.(p) in
  List.init (Buf.length b / 2) (fun k -> (Buf.get b (2 * k), Buf.get b ((2 * k) + 1)))
