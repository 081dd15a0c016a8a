(* Unit tests for the load-store queue: program-order tracking, store-to-load
   forwarding decisions, the two kill mechanisms, and wrong-path slot
   recycling (paper, Section V-B). *)

open Cmd
open Ooo

let ctx0 () = Kernel.make_ctx (Clock.create ())

let cfg mm =
  { Ooo.Config.riscyoo_b with Ooo.Config.lq_size = 4; sq_size = 4; mem_model = mm }

let mk ?(seq = 0) op : Uop.t =
  {
    seq;
    pc = 0L;
    instr = Isa.Instr.make op;
    rob_idx = 0;
    prd = -1;
    prs1 = -1;
    prs2 = -1;
    prd_old = -1;
    spec_tag = -1;
    lsq = Uop.LNone;
    pred_next = 0L;
    ras_sp = Branch.Ras.snapshot (Branch.Ras.create ());
    ghist = None;
    spec_mask = 0;
    killed = false;
    completed = false;
    ld_kill = false;
    fault = false;
    mmio = false;
    translated = false;
    paddr = 0L;
    st_data = 0L;
    result = 0L;
    actual_next = 0L;
    tid = -1;
  }

let ld_op = Isa.Instr.Ld { width = Isa.Instr.D; unsigned = false }
let st_op = Isa.Instr.St Isa.Instr.D

let enq_ld ctx lsq ~seq ~paddr =
  let idx = Lsq.reserve_ld ctx lsq in
  let u = { (mk ~seq ld_op) with Uop.lsq = Uop.LQ idx; paddr } in
  Lsq.fill_ld ctx lsq idx u;
  (idx, u)

let enq_st ctx lsq ~seq ~paddr ~data =
  let idx = Lsq.reserve_st ctx lsq in
  let u = { (mk ~seq st_op) with Uop.lsq = Uop.SQ idx; paddr; st_data = data } in
  Lsq.fill_st ctx lsq idx u;
  (idx, u)

let test_forwarding () =
  let ctx = ctx0 () in
  let lsq = Lsq.create (cfg Ooo.Config.WMM) in
  let _, st = enq_st ctx lsq ~seq:1 ~paddr:0x80000100L ~data:0xDEADL in
  let lidx, ld = enq_ld ctx lsq ~seq:2 ~paddr:0x80000100L in
  Lsq.update_st ctx lsq st;
  Lsq.update_ld ctx lsq ld;
  let i, u = Lsq.get_issue_ld ctx lsq in
  Alcotest.(check int) "issuable load" lidx i;
  (match Lsq.issue_ld ctx lsq i u ~sb_search:Store_buffer.NoMatch with
  | Lsq.Forward (v, _) -> Alcotest.(check int64) "forwarded value" 0xDEADL v
  | _ -> Alcotest.fail "expected forwarding")

let test_partial_overlap_stalls () =
  let ctx = ctx0 () in
  let lsq = Lsq.create (cfg Ooo.Config.WMM) in
  (* 4-byte store, 8-byte load at the same address: partial cover -> stall *)
  let sidx = Lsq.reserve_st ctx lsq in
  let st = { (mk ~seq:1 (Isa.Instr.St Isa.Instr.W)) with Uop.lsq = Uop.SQ sidx; paddr = 0x80000100L } in
  Lsq.fill_st ctx lsq sidx st;
  let _, ld = enq_ld ctx lsq ~seq:2 ~paddr:0x80000100L in
  Lsq.update_st ctx lsq st;
  Lsq.update_ld ctx lsq ld;
  let i, u = Lsq.get_issue_ld ctx lsq in
  (match Lsq.issue_ld ctx lsq i u ~sb_search:Store_buffer.NoMatch with
  | Lsq.Stalled -> ()
  | _ -> Alcotest.fail "expected stall on partial overlap");
  (* once the store leaves the SQ the stall clears and the load goes to
     memory *)
  Lsq.set_at_commit ctx lsq st;
  Lsq.deq_st ctx lsq;
  let i, u = Lsq.get_issue_ld ctx lsq in
  match Lsq.issue_ld ctx lsq i u ~sb_search:Store_buffer.NoMatch with
  | Lsq.ToCache _ -> ()
  | _ -> Alcotest.fail "expected cache issue after store drained"

let test_store_update_kills_younger_load () =
  let ctx = ctx0 () in
  let lsq = Lsq.create (cfg Ooo.Config.WMM) in
  let _, st = enq_st ctx lsq ~seq:1 ~paddr:0x80000100L ~data:1L in
  let _, ld = enq_ld ctx lsq ~seq:2 ~paddr:0x80000100L in
  Lsq.update_ld ctx lsq ld;
  (* the load issues speculatively past the unresolved store *)
  let i, u = Lsq.get_issue_ld ctx lsq in
  (match Lsq.issue_ld ctx lsq i u ~sb_search:Store_buffer.NoMatch with
  | Lsq.ToCache _ -> ()
  | _ -> Alcotest.fail "expected speculative issue");
  Alcotest.(check bool) "not killed yet" false ld.Uop.ld_kill;
  (* the store's address resolves: the memory-dependency violation is caught *)
  Lsq.update_st ctx lsq st;
  Alcotest.(check bool) "violating load marked to-be-killed" true ld.Uop.ld_kill

let test_tso_cache_evict_kill () =
  let ctx = ctx0 () in
  let lsq = Lsq.create (cfg Ooo.Config.TSO) in
  let _, ld = enq_ld ctx lsq ~seq:1 ~paddr:0x80000140L in
  Lsq.update_ld ctx lsq ld;
  let i, u = Lsq.get_issue_ld ctx lsq in
  (match Lsq.issue_ld ctx lsq i u ~sb_search:Store_buffer.NoMatch with
  | Lsq.ToCache tag -> (
    match Lsq.resp_ld ctx lsq tag 42L with
    | `Ok _ -> ()
    | `WrongPath -> Alcotest.fail "live load")
  | _ -> Alcotest.fail "expected cache issue");
  (* an eviction of the line the completed-but-uncommitted load read: TSO
     marks it to-be-killed; WMM would not *)
  Lsq.cache_evict ctx lsq ~read:[] 0x80000140L;
  Alcotest.(check bool) "TSO kill" true ld.Uop.ld_kill;
  let lsq_w = Lsq.create (cfg Ooo.Config.WMM) in
  let _, ld2 = enq_ld ctx lsq_w ~seq:1 ~paddr:0x80000140L in
  Lsq.update_ld ctx lsq_w ld2;
  let i, u = Lsq.get_issue_ld ctx lsq_w in
  (match Lsq.issue_ld ctx lsq_w i u ~sb_search:Store_buffer.NoMatch with
  | Lsq.ToCache tag -> ignore (Lsq.resp_ld ctx lsq_w tag 42L)
  | _ -> ());
  Lsq.cache_evict ctx lsq_w ~read:[] 0x80000140L;
  Alcotest.(check bool) "WMM does not kill" false ld2.Uop.ld_kill

let test_wrong_path_slot () =
  let ctx = ctx0 () in
  let lsq = Lsq.create (cfg Ooo.Config.WMM) in
  let _, ld = enq_ld ctx lsq ~seq:1 ~paddr:0x80000100L in
  Lsq.update_ld ctx lsq ld;
  let i, u = Lsq.get_issue_ld ctx lsq in
  let tag =
    match Lsq.issue_ld ctx lsq i u ~sb_search:Store_buffer.NoMatch with
    | Lsq.ToCache tag -> tag
    | _ -> Alcotest.fail "expected cache issue"
  in
  (* the load is killed while its response is in flight *)
  Uop.mk_set_killed ctx ld true;
  Lsq.kill_suffix ctx lsq;
  (* the slot is reallocated to a new load, which must NOT be issuable yet *)
  let _, ld2 = enq_ld ctx lsq ~seq:2 ~paddr:0x80000200L in
  Lsq.update_ld ctx lsq ld2;
  (match Lsq.get_issue_ld ctx lsq with
  | exception Kernel.Guard_fail _ -> ()
  | _ -> Alcotest.fail "wrong-path slot must block issue");
  (* the stale response arrives: dropped, and the slot becomes usable *)
  (match Lsq.resp_ld ctx lsq tag 99L with
  | `WrongPath -> ()
  | `Ok _ -> Alcotest.fail "stale response must not deliver");
  let _, u2 = Lsq.get_issue_ld ctx lsq in
  Alcotest.(check int) "new load issuable" 2 u2.Uop.seq

let test_fences_gate_loads () =
  let ctx = ctx0 () in
  let lsq = Lsq.create (cfg Ooo.Config.WMM) in
  let fence = mk ~seq:1 Isa.Instr.Fence in
  Lsq.add_fence ctx lsq fence;
  let _, ld = enq_ld ctx lsq ~seq:2 ~paddr:0x80000100L in
  Lsq.update_ld ctx lsq ld;
  (match Lsq.get_issue_ld ctx lsq with
  | exception Kernel.Guard_fail _ -> ()
  | _ -> Alcotest.fail "load must wait for the older fence");
  Lsq.remove_fence ctx lsq fence;
  let _, u = Lsq.get_issue_ld ctx lsq in
  Alcotest.(check int) "issuable after fence" 2 u.Uop.seq

(* The TSO eviction kill must hit exactly the loads of the evicted line
   that already have their value: completed but uncommitted, or read by the
   L1 with the response still queued. Loads waiting on a miss and unissued
   loads will read the coherent cache anyway, and other lines are
   untouched. *)
let test_cache_evict_scope () =
  let ctx = ctx0 () in
  let lsq = Lsq.create { (cfg Ooo.Config.TSO) with Ooo.Config.lq_size = 8 } in
  (* seq 1: completed on line 0x...140; seq 2: issued, waiting on a miss,
     same line; seq 3: completed on a different line; seq 4: unissued;
     seq 5: issued, same line, value read by the L1 but not delivered *)
  let _, done_ld = enq_ld ctx lsq ~seq:1 ~paddr:0x80000140L in
  Lsq.update_ld ctx lsq done_ld;
  let i, u = Lsq.get_issue_ld ctx lsq in
  (match Lsq.issue_ld ctx lsq i u ~sb_search:Store_buffer.NoMatch with
  | Lsq.ToCache tag -> ignore (Lsq.resp_ld ctx lsq tag 1L)
  | _ -> Alcotest.fail "expected cache issue");
  let _, inflight_ld = enq_ld ctx lsq ~seq:2 ~paddr:0x80000148L in
  Lsq.update_ld ctx lsq inflight_ld;
  let i, u = Lsq.get_issue_ld ctx lsq in
  (match Lsq.issue_ld ctx lsq i u ~sb_search:Store_buffer.NoMatch with
  | Lsq.ToCache _ -> () (* response never delivered: still LdIssued *)
  | _ -> Alcotest.fail "expected cache issue");
  let _, other_ld = enq_ld ctx lsq ~seq:3 ~paddr:0x80000180L in
  Lsq.update_ld ctx lsq other_ld;
  let i, u = Lsq.get_issue_ld ctx lsq in
  (match Lsq.issue_ld ctx lsq i u ~sb_search:Store_buffer.NoMatch with
  | Lsq.ToCache tag -> ignore (Lsq.resp_ld ctx lsq tag 3L)
  | _ -> Alcotest.fail "expected cache issue");
  let _, idle_ld = enq_ld ctx lsq ~seq:4 ~paddr:0x80000150L in
  let _, read_ld = enq_ld ctx lsq ~seq:5 ~paddr:0x80000158L in
  Lsq.update_ld ctx lsq read_ld;
  let i, u = Lsq.get_issue_ld ctx lsq in
  let read_tag =
    match Lsq.issue_ld ctx lsq i u ~sb_search:Store_buffer.NoMatch with
    | Lsq.ToCache tag -> tag
    | _ -> Alcotest.fail "expected cache issue"
  in
  Alcotest.(check int) "seq 5 issued" 5 u.Uop.seq;
  (* the unissued load's address becomes known only now, so it stays
     unissued *)
  Lsq.update_ld ctx lsq idle_ld;
  Lsq.cache_evict ctx lsq ~read:[ read_tag ] 0x80000140L;
  Alcotest.(check bool) "completed load on the line killed" true done_ld.Uop.ld_kill;
  Alcotest.(check bool) "read-but-undelivered load killed" true read_ld.Uop.ld_kill;
  Alcotest.(check bool) "load waiting on a miss spared" false inflight_ld.Uop.ld_kill;
  Alcotest.(check bool) "other line spared" false other_ld.Uop.ld_kill;
  Alcotest.(check bool) "unissued load spared" false idle_ld.Uop.ld_kill;
  (* a second eviction of the same line must not disturb the verdicts *)
  Lsq.cache_evict ctx lsq ~read:[] 0x80000140L;
  Alcotest.(check bool) "kill is sticky" true done_ld.Uop.ld_kill;
  Alcotest.(check bool) "waiting load still spared" false inflight_ld.Uop.ld_kill

(* sq_quiesced: speculative entries don't count, committed ones do. *)
let test_sq_quiesced () =
  let ctx = ctx0 () in
  let lsq = Lsq.create (cfg Ooo.Config.TSO) in
  Alcotest.(check bool) "empty sq is quiesced" true (Lsq.sq_quiesced lsq);
  let _, st = enq_st ctx lsq ~seq:1 ~paddr:0x80000100L ~data:1L in
  Alcotest.(check bool) "speculative store ignored" true (Lsq.sq_quiesced lsq);
  Lsq.set_at_commit ctx lsq st;
  Alcotest.(check bool) "committed store pending" false (Lsq.sq_quiesced lsq);
  Lsq.deq_st ctx lsq;
  Alcotest.(check bool) "drained" true (Lsq.sq_quiesced lsq)

(* --- WMM store buffer: coalescing and out-of-order drain ------------------- *)

let test_sb_coalescing () =
  let ctx = ctx0 () in
  let sb = Store_buffer.create ~size:4 in
  Store_buffer.enq ctx sb ~addr:0x80000100L ~bytes:4 0xAAL;
  Store_buffer.enq ctx sb ~addr:0x80000108L ~bytes:4 0xBBL;
  Alcotest.(check int) "same line coalesces" 1 (Store_buffer.count sb);
  Store_buffer.enq ctx sb ~addr:0x80000140L ~bytes:4 0xCCL;
  Alcotest.(check int) "new line allocates" 2 (Store_buffer.count sb);
  (* both writes of the coalesced entry are visible to a load *)
  (match Store_buffer.search sb ~addr:0x80000108L ~bytes:4 with
  | Store_buffer.Full v -> Alcotest.(check int64) "coalesced data" 0xBBL v
  | _ -> Alcotest.fail "expected full match")

let test_sb_issued_not_coalesced () =
  let ctx = ctx0 () in
  let sb = Store_buffer.create ~size:4 in
  Store_buffer.enq ctx sb ~addr:0x80000100L ~bytes:4 0x11L;
  let _, line = Store_buffer.issue ctx sb in
  Alcotest.(check int64) "issued the only line" 0x80000100L line;
  (* a later store to the same line must NOT merge into the in-flight
     entry - the cache write is already on its way *)
  Store_buffer.enq ctx sb ~addr:0x80000100L ~bytes:4 0x22L;
  Alcotest.(check int) "fresh entry behind the issued one" 2 (Store_buffer.count sb);
  (* with the address present in both the in-flight and the fresh entry a
     load cannot forward - it stalls until the in-flight write drains *)
  (match Store_buffer.search sb ~addr:0x80000100L ~bytes:4 with
  | Store_buffer.Partial _ -> ()
  | _ -> Alcotest.fail "expected a stall while bytes are split");
  (* both entries are issuable: same-line write order is kept by the L1,
     which serves same-line requests in arrival order *)
  let idx2, line2 = Store_buffer.issue ctx sb in
  Alcotest.(check int64) "younger entry issues too" 0x80000100L line2;
  let _, _, _ = Store_buffer.deq ctx sb idx2 in
  (match Store_buffer.search sb ~addr:0x80000100L ~bytes:4 with
  | Store_buffer.Full v -> Alcotest.(check int64) "single match forwards" 0x11L v
  | _ -> Alcotest.fail "expected full match once only one entry holds the line")

(* search prefers the younger (unissued) entry when it alone covers the
   load, and falls back to the issued entry once it is the only match. *)
let test_sb_search_preference () =
  let ctx = ctx0 () in
  let sb = Store_buffer.create ~size:4 in
  (* issued entry covers offset 0; fresh entry covers offset 8 *)
  Store_buffer.enq ctx sb ~addr:0x80000100L ~bytes:4 0x11L;
  let idx1, _ = Store_buffer.issue ctx sb in
  Store_buffer.enq ctx sb ~addr:0x80000108L ~bytes:4 0x22L;
  (match Store_buffer.search sb ~addr:0x80000108L ~bytes:4 with
  | Store_buffer.Full v -> Alcotest.(check int64) "unissued bytes win" 0x22L v
  | _ -> Alcotest.fail "expected full match from the unissued entry");
  (match Store_buffer.search sb ~addr:0x80000100L ~bytes:4 with
  | Store_buffer.Full v -> Alcotest.(check int64) "issued bytes still visible" 0x11L v
  | _ -> Alcotest.fail "expected full match from the issued entry");
  let _, _, _ = Store_buffer.deq ctx sb idx1 in
  (match Store_buffer.search sb ~addr:0x80000100L ~bytes:4 with
  | Store_buffer.NoMatch -> ()
  | _ -> Alcotest.fail "drained bytes must no longer forward")

let test_sb_out_of_order_completion () =
  let ctx = ctx0 () in
  let sb = Store_buffer.create ~size:4 in
  Store_buffer.enq ctx sb ~addr:0x80000100L ~bytes:4 1L;
  Store_buffer.enq ctx sb ~addr:0x80000140L ~bytes:4 2L;
  let i1, l1 = Store_buffer.issue ctx sb in
  let i2, l2 = Store_buffer.issue ctx sb in
  Alcotest.(check bool) "different lines in flight" true (l1 <> l2);
  (* the cache acknowledges the SECOND line first: deq by tag, any order *)
  let line2, _, _ = Store_buffer.deq ctx sb i2 in
  Alcotest.(check int64) "second line deq'd first" l2 line2;
  let line1, _, _ = Store_buffer.deq ctx sb i1 in
  Alcotest.(check int64) "first line deq'd last" l1 line1;
  Alcotest.(check bool) "empty" true (Store_buffer.is_empty sb)

let test_no_older_stores () =
  let ctx = ctx0 () in
  let lsq = Lsq.create (cfg Ooo.Config.WMM) in
  let _, st = enq_st ctx lsq ~seq:5 ~paddr:0x80000100L ~data:1L in
  Alcotest.(check bool) "blocked by older store" false (Lsq.no_older_stores lsq 10);
  Alcotest.(check bool) "younger store does not block" true (Lsq.no_older_stores lsq 3);
  Lsq.set_at_commit ctx lsq st;
  Lsq.deq_st ctx lsq;
  Alcotest.(check bool) "empty sq blocks nothing" true (Lsq.no_older_stores lsq 10)

let suite =
  let t = Alcotest.test_case in
  [
    t "store-to-load forwarding" `Quick test_forwarding;
    t "partial overlap stalls, clears on drain" `Quick test_partial_overlap_stalls;
    t "store update kills younger issued load" `Quick test_store_update_kills_younger_load;
    t "TSO cache-evict kill (WMM immune)" `Quick test_tso_cache_evict_kill;
    t "wrong-path slot recycling" `Quick test_wrong_path_slot;
    t "fences gate younger loads" `Quick test_fences_gate_loads;
    t "no_older_stores predicate" `Quick test_no_older_stores;
    t "cache-evict kill scope" `Quick test_cache_evict_scope;
    t "sq_quiesced ignores speculative stores" `Quick test_sq_quiesced;
    t "store buffer coalesces per line" `Quick test_sb_coalescing;
    t "issued entries not coalesced into" `Quick test_sb_issued_not_coalesced;
    t "search prefers unissued bytes" `Quick test_sb_search_preference;
    t "out-of-order drain completion" `Quick test_sb_out_of_order_completion;
  ]
