open Cmd

let slot_bits = 4

(* Pure queue movers, like the cache crossbar: can_fire is source-queue
   occupancy, watches are the source queues' signals. With a banked L2 the
   walker crossbar also demuxes: requests route by [bank_of] on the walk
   address's line, responses drain from every bank (the response tag
   already carries core and slot, so merging order is irrelevant to
   correctness and fixed by bank order for determinism). Each move is a
   step behind a peek-only ready test ([Kernel.attempt_if]): the source
   holds a message and its destination has room. *)

let up_step tlbs banks bank_of core ctx =
  (* walker-port capacity checked before the deq writes, so a guard failure
     never rolls anything back *)
  let _, addr = Fifo.first ctx (Tlb_sys.walk_mem_req tlbs.(core)) in
  let l2 = banks.(bank_of (Mem.Cache_geom.line_addr addr)) in
  Kernel.guard ctx (Mem.L2_cache.can_walk_req ctx l2) "walk port full";
  let slot, addr = Fifo.deq ctx (Tlb_sys.walk_mem_req tlbs.(core)) in
  Mem.L2_cache.walk_req ctx l2 ~tag:((core lsl slot_bits) lor slot) addr

let up_ready tlbs banks bank_of core =
  let q = Tlb_sys.walk_mem_req tlbs.(core) in
  Fifo.peek_size q > 0
  &&
  let _, addr = Fifo.peek_first q in
  Mem.L2_cache.walk_req_room banks.(bank_of (Mem.Cache_geom.line_addr addr))

let down_step tlbs l2 ctx =
  let tag, v = Mem.L2_cache.walk_resp ctx l2 in
  Fifo.enq ctx
    (Tlb_sys.walk_mem_resp tlbs.(tag lsr slot_bits))
    (tag land ((1 lsl slot_bits) - 1), v)

let down_ready tlbs l2 =
  Mem.L2_cache.walk_resp_ready l2
  &&
  let tag, _ = Mem.L2_cache.walk_resp_head l2 in
  Fifo.peek_can_enq (Tlb_sys.walk_mem_resp tlbs.(tag lsr slot_bits))

let rules tlbs ~banks ~bank_of =
  let bank_list f = Array.to_list (Array.map f banks) in
  let up =
    Rule.make "walkxbar.up"
      ~can_fire:(fun () ->
        Array.exists (fun t -> Fifo.peek_size (Tlb_sys.walk_mem_req t) > 0) tlbs)
      ~watches:(Array.to_list (Array.map (fun t -> Fifo.signal (Tlb_sys.walk_mem_req t)) tlbs))
      (let steps = Array.mapi (fun core _ -> up_step tlbs banks bank_of core) tlbs in
       fun ctx ->
         for core = 0 to Array.length tlbs - 1 do
           ignore (Kernel.attempt_if ctx (up_ready tlbs banks bank_of core) steps.(core))
         done;
         Kernel.require_effect ctx)
  in
  let down =
    Rule.make "walkxbar.down"
      ~can_fire:(fun () -> Array.exists Mem.L2_cache.walk_resp_ready banks)
      ~watches:(bank_list Mem.L2_cache.walk_resp_signal)
      (let steps = Array.map (down_step tlbs) banks in
       fun ctx ->
         for b = 0 to Array.length banks - 1 do
           while Option.is_some (Kernel.attempt_if ctx (down_ready tlbs banks.(b)) steps.(b)) do
             ()
           done
         done;
         Kernel.require_effect ctx)
  in
  [ down; up ]
