open Cmd

type endpoint = {
  creq : Msg.creq Fifo.t;
  cresp : Msg.cresp Fifo.t;
  preq : Msg.preq Fifo.t;
  presp : Msg.presp Fifo.t;
}

(* Every crossbar rule is a pure queue-to-queue mover: it can only do work
   when some source queue is non-empty, so its [can_fire] is an occupancy
   scan and its watch set is the source queues' signals. (A full destination
   leaves the predicate true; the move's own ready test then skips it.)

   With a banked L2 the crossbar is also the bank demux: upbound messages
   route by [bank_of] on their line address, downbound rules drain every
   bank's output queue into the per-child queues. Message order per
   (child, line) is preserved — a line maps to exactly one bank.

   Each move is a step behind a peek-only ready test
   ([Kernel.attempt_if]): the source holds a message and its destination
   has room. The steps are built once, so a skipped move allocates
   nothing. *)

(* Move [src]'s head, as [payload] of it, to the queue [dst] picks for it. *)
let move_ready src dst = Fifo.peek_size src > 0 && Fifo.peek_can_enq (dst (Fifo.peek_first src))

let move src dst payload ctx =
  let m = Fifo.first ctx src in
  let d = dst m in
  Kernel.guard ctx (Fifo.can_enq ctx d) "dst full";
  ignore (Fifo.deq ctx src);
  Fifo.enq ctx d (payload m)

(* One move from each source; with no move, the rule fails its guard. *)
let move_each ctx srcs dst steps =
  for i = 0 to Array.length srcs - 1 do
    ignore (Kernel.attempt_if ctx (move_ready srcs.(i) dst) steps.(i))
  done;
  Kernel.require_effect ctx

(* As many moves from each source as the destinations accept; with no
   move, the rule fails its guard. *)
let drain_each ctx srcs dst steps =
  for i = 0 to Array.length srcs - 1 do
    while Option.is_some (Kernel.attempt_if ctx (move_ready srcs.(i) dst) steps.(i)) do
      ()
    done
  done;
  Kernel.require_effect ctx

let rules children ~banks ~bank_of =
  let child_sigs f = Array.to_list (Array.map f children) in
  let up_resp =
    Rule.make "xbar.up.resp"
      ~can_fire:(fun () -> Array.exists (fun ep -> Fifo.peek_size ep.cresp > 0) children)
      ~watches:(child_sigs (fun ep -> Fifo.signal ep.cresp))
      (let srcs = Array.map (fun ep -> ep.cresp) children in
       let dst (r : Msg.cresp) = L2_cache.cresp_in banks.(bank_of r.Msg.line) in
       let steps = Array.map (fun src -> move src dst Fun.id) srcs in
       fun ctx -> move_each ctx srcs dst steps)
  in
  let up_req =
    Rule.make "xbar.up.req"
      ~can_fire:(fun () -> Array.exists (fun ep -> Fifo.peek_size ep.creq > 0) children)
      ~watches:(child_sigs (fun ep -> Fifo.signal ep.creq))
      (let srcs = Array.map (fun ep -> ep.creq) children in
       let dst (r : Msg.creq) = L2_cache.creq_in banks.(bank_of r.Msg.line) in
       let steps = Array.map (fun src -> move src dst Fun.id) srcs in
       fun ctx -> move_each ctx srcs dst steps)
  in
  let bank_sigs f = Array.to_list (Array.map f banks) in
  let down_resp =
    Rule.make "xbar.down.resp"
      ~can_fire:(fun () ->
        Array.exists (fun l2 -> Fifo.peek_size (L2_cache.presp_out l2) > 0) banks)
      ~watches:(bank_sigs (fun l2 -> Fifo.signal (L2_cache.presp_out l2)))
      (* drain as many grants as the destinations accept this cycle *)
      (let srcs = Array.map L2_cache.presp_out banks in
       let dst (c, _) = children.(c).presp in
       let steps = Array.map (fun src -> move src dst snd) srcs in
       fun ctx -> drain_each ctx srcs dst steps)
  in
  let down_req =
    Rule.make "xbar.down.req"
      ~can_fire:(fun () ->
        Array.exists (fun l2 -> Fifo.peek_size (L2_cache.preq_out l2) > 0) banks)
      ~watches:(bank_sigs (fun l2 -> Fifo.signal (L2_cache.preq_out l2)))
      (let srcs = Array.map L2_cache.preq_out banks in
       let dst (c, _) = children.(c).preq in
       let steps = Array.map (fun src -> move src dst snd) srcs in
       fun ctx -> drain_each ctx srcs dst steps)
  in
  [ up_resp; down_resp; up_req; down_req ]
