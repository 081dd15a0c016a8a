open Cmd

let slot_bits = 4

(* Pure queue movers, like the cache crossbar: can_fire is source-queue
   occupancy, watches are the source queues' signals. With a banked L2 the
   walker crossbar also demuxes: requests route by [bank_of] on the walk
   address's line, responses drain from every bank (the response tag
   already carries core and slot, so merging order is irrelevant to
   correctness and fixed by bank order for determinism). *)
let rules tlbs ~banks ~bank_of =
  let bank_list f = Array.to_list (Array.map f banks) in
  let up =
    Rule.make "walkxbar.up"
      ~can_fire:(fun () ->
        Array.exists (fun t -> Fifo.peek_size (Tlb_sys.walk_mem_req t) > 0) tlbs)
      ~watches:(Array.to_list (Array.map (fun t -> Fifo.signal (Tlb_sys.walk_mem_req t)) tlbs))
      ~touches:(Array.to_list (Array.map (fun t -> Fifo.deq_token (Tlb_sys.walk_mem_req t)) tlbs))
      ~fp:
        (List.concat_map
           (fun t -> [ Fifo.fp_first (Tlb_sys.walk_mem_req t); Fifo.fp_deq (Tlb_sys.walk_mem_req t) ])
           (Array.to_list tlbs)
        @ List.concat (bank_list Mem.L2_cache.fp_walk_req))
      ~vacuous:true
      (fun ctx ->
        Array.iteri
          (fun core t ->
            ignore
              (Kernel.attempt ctx (fun ctx ->
                   (* walker-port capacity checked before the deq writes, so a
                      guard failure never rolls anything back *)
                   let _, addr = Fifo.first ctx (Tlb_sys.walk_mem_req t) in
                   let l2 = banks.(bank_of (Mem.Cache_geom.line_addr addr)) in
                   Kernel.guard ctx (Mem.L2_cache.can_walk_req ctx l2) "walk port full";
                   let slot, addr = Fifo.deq ctx (Tlb_sys.walk_mem_req t) in
                   Mem.L2_cache.walk_req ctx l2 ~tag:((core lsl slot_bits) lor slot) addr)))
          tlbs)
  in
  let down =
    Rule.make "walkxbar.down"
      ~can_fire:(fun () -> Array.exists Mem.L2_cache.walk_resp_ready banks)
      ~watches:(bank_list Mem.L2_cache.walk_resp_signal)
      ~touches:(Array.to_list (Array.map (fun t -> Fifo.enq_token (Tlb_sys.walk_mem_resp t)) tlbs))
      ~fp:
        (List.concat (bank_list Mem.L2_cache.fp_walk_resp)
        @ List.concat_map
            (fun t -> [ Fifo.fp_enq (Tlb_sys.walk_mem_resp t) ])
            (Array.to_list tlbs))
      ~vacuous:true
      (fun ctx ->
        Array.iter
          (fun l2 ->
            let continue = ref true in
            while !continue do
              match
                Kernel.attempt ctx (fun ctx ->
                    let tag, v = Mem.L2_cache.walk_resp ctx l2 in
                    Fifo.enq ctx
                      (Tlb_sys.walk_mem_resp tlbs.(tag lsr slot_bits))
                      (tag land ((1 lsl slot_bits) - 1), v))
              with
              | Some () -> ()
              | None -> continue := false
            done)
          banks)
  in
  [ down; up ]
