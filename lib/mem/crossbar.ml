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
   merely makes the guarded enq fail — predicate true, attempt, guard-fail —
   exactly like the seed scheduler.)

   With a banked L2 the crossbar is also the bank demux: upbound messages
   route by [bank_of] on their line address, downbound rules drain every
   bank's output queue into the per-child queues. Message order per
   (child, line) is preserved — a line maps to exactly one bank. *)
let rules children ~banks ~bank_of =
  let child_sigs f = Array.to_list (Array.map f children) in
  (* Declared boundary tokens: the crossbar owns the uncore side of every
     child queue — deq of creq/cresp, enq of preq/presp — mirroring the
     L1 ticks' declarations of the opposite sides; likewise the uncore side
     of every bank queue, mirroring the bank ticks'. *)
  let child_tks f = Array.to_list (Array.map f children) in
  let bank_tks f = Array.to_list (Array.map f banks) in
  (* Footprints: pure movers touch only their source/destination queues. *)
  let child_fps f = List.concat_map f (Array.to_list children) in
  let bank_fps f = List.concat_map f (Array.to_list banks) in
  let up_resp =
    Rule.make "xbar.up.resp"
      ~can_fire:(fun () -> Array.exists (fun ep -> Fifo.peek_size ep.cresp > 0) children)
      ~watches:(child_sigs (fun ep -> Fifo.signal ep.cresp))
      ~touches:
        (child_tks (fun ep -> Fifo.deq_token ep.cresp)
        @ bank_tks (fun l2 -> Fifo.enq_token (L2_cache.cresp_in l2)))
      ~fp:
        (child_fps (fun ep -> [ Fifo.fp_first ep.cresp; Fifo.fp_deq ep.cresp ])
        @ bank_fps (fun l2 ->
              [ Fifo.fp_can_enq (L2_cache.cresp_in l2); Fifo.fp_enq (L2_cache.cresp_in l2) ]))
      ~vacuous:true
      (fun ctx ->
        Array.iter
          (fun ep ->
            ignore
              (Kernel.attempt ctx (fun ctx ->
                   let (r : Msg.cresp) = Fifo.first ctx ep.cresp in
                   let dst = L2_cache.cresp_in banks.(bank_of r.Msg.line) in
                   Kernel.guard ctx (Fifo.can_enq ctx dst) "dst full";
                   ignore (Fifo.deq ctx ep.cresp);
                   Fifo.enq ctx dst r)))
          children)
  in
  let up_req =
    Rule.make "xbar.up.req"
      ~can_fire:(fun () -> Array.exists (fun ep -> Fifo.peek_size ep.creq > 0) children)
      ~watches:(child_sigs (fun ep -> Fifo.signal ep.creq))
      ~touches:
        (child_tks (fun ep -> Fifo.deq_token ep.creq)
        @ bank_tks (fun l2 -> Fifo.enq_token (L2_cache.creq_in l2)))
      ~fp:
        (child_fps (fun ep -> [ Fifo.fp_first ep.creq; Fifo.fp_deq ep.creq ])
        @ bank_fps (fun l2 ->
              [ Fifo.fp_can_enq (L2_cache.creq_in l2); Fifo.fp_enq (L2_cache.creq_in l2) ]))
      ~vacuous:true
      (fun ctx ->
        Array.iter
          (fun ep ->
            ignore
              (Kernel.attempt ctx (fun ctx ->
                   let (r : Msg.creq) = Fifo.first ctx ep.creq in
                   let dst = L2_cache.creq_in banks.(bank_of r.Msg.line) in
                   Kernel.guard ctx (Fifo.can_enq ctx dst) "dst full";
                   ignore (Fifo.deq ctx ep.creq);
                   Fifo.enq ctx dst r)))
          children)
  in
  let bank_sigs f = Array.to_list (Array.map f banks) in
  let down_resp =
    Rule.make "xbar.down.resp"
      ~can_fire:(fun () ->
        Array.exists (fun l2 -> Fifo.peek_size (L2_cache.presp_out l2) > 0) banks)
      ~watches:(bank_sigs (fun l2 -> Fifo.signal (L2_cache.presp_out l2)))
      ~touches:
        (child_tks (fun ep -> Fifo.enq_token ep.presp)
        @ bank_tks (fun l2 -> Fifo.deq_token (L2_cache.presp_out l2)))
      ~fp:
        (bank_fps (fun l2 ->
             [ Fifo.fp_first (L2_cache.presp_out l2); Fifo.fp_deq (L2_cache.presp_out l2) ])
        @ child_fps (fun ep -> [ Fifo.fp_can_enq ep.presp; Fifo.fp_enq ep.presp ]))
      ~vacuous:true
      (fun ctx ->
        (* drain as many grants as the destinations accept this cycle *)
        Array.iter
          (fun l2 ->
            let continue = ref true in
            while !continue do
              match
                Kernel.attempt ctx (fun ctx ->
                    let child, (g : Msg.presp) = Fifo.first ctx (L2_cache.presp_out l2) in
                    Kernel.guard ctx (Fifo.can_enq ctx children.(child).presp) "dst full";
                    ignore (Fifo.deq ctx (L2_cache.presp_out l2));
                    Fifo.enq ctx children.(child).presp g)
              with
              | Some () -> ()
              | None -> continue := false
            done)
          banks)
  in
  let down_req =
    Rule.make "xbar.down.req"
      ~can_fire:(fun () ->
        Array.exists (fun l2 -> Fifo.peek_size (L2_cache.preq_out l2) > 0) banks)
      ~watches:(bank_sigs (fun l2 -> Fifo.signal (L2_cache.preq_out l2)))
      ~touches:
        (child_tks (fun ep -> Fifo.enq_token ep.preq)
        @ bank_tks (fun l2 -> Fifo.deq_token (L2_cache.preq_out l2)))
      ~fp:
        (bank_fps (fun l2 ->
             [ Fifo.fp_first (L2_cache.preq_out l2); Fifo.fp_deq (L2_cache.preq_out l2) ])
        @ child_fps (fun ep -> [ Fifo.fp_can_enq ep.preq; Fifo.fp_enq ep.preq ]))
      ~vacuous:true
      (fun ctx ->
        Array.iter
          (fun l2 ->
            let continue = ref true in
            while !continue do
              match
                Kernel.attempt ctx (fun ctx ->
                    let child, (d : Msg.preq) = Fifo.first ctx (L2_cache.preq_out l2) in
                    Kernel.guard ctx (Fifo.can_enq ctx children.(child).preq) "dst full";
                    ignore (Fifo.deq ctx (L2_cache.preq_out l2));
                    Fifo.enq ctx children.(child).preq d)
              with
              | Some () -> ()
              | None -> continue := false
            done)
          banks)
  in
  [ up_resp; down_resp; up_req; down_req ]
