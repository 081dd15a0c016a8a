(* Tests for the coherent memory hierarchy: L1 D/I caches, crossbar, the MSI
   directory L2, DRAM latency, and the walker port. *)

open Cmd
open Mem

let i64 = Alcotest.testable (Fmt.fmt "%Ld") Int64.equal
let base = Isa.Addr_map.dram_base

let small_config =
  {
    Mem_sys.l1d_bytes = 1024;
    l1d_ways = 2;
    l1d_mshrs = 4;
    l1i_bytes = 1024;
    l1i_ways = 2;
    l2_bytes = 4096;
    l2_ways = 2;
    l2_mshrs = 4;
    l2_latency = 4;
    mesi = false;
    mem_latency = 20;
    mem_inflight = 4;
    l2_banks = 1;
  }

type harness = { sim : Sim.t; ms : Mem_sys.t; pmem : Isa.Phys_mem.t; hstats : Stats.t }

let make ?(ncores = 1) ?(config = small_config) () =
  let clk = Clock.create () in
  let pmem = Isa.Phys_mem.create () in
  let stats = Stats.create () in
  let ms = Mem_sys.create clk pmem config ~ncores ~fetch_width:2 ~stats in
  let sim = Sim.create clk (Mem_sys.rules ms) in
  { sim; ms; pmem; hstats = stats }

(* Run one driver action in its own transaction at the head of the cycle,
   then fire all the cache rules. *)
let cycle_with h f =
  let ctx = Kernel.make_ctx (Sim.clock h.sim) in
  Kernel.set_rule_name ctx "driver";
  let r = Kernel.attempt ctx f in
  ignore (Sim.cycle h.sim);
  r

let rec wait_for ?(max = 2000) h f =
  if max = 0 then Alcotest.fail "memory op timed out"
  else
    match cycle_with h f with
    | Some v -> v
    | None -> wait_for ~max:(max - 1) h f

(* Blocking load through core [c]'s L1 D. *)
let load h c addr =
  let d = Mem_sys.dcache h.ms c in
  ignore
    (wait_for h (fun ctx ->
         L1_dcache.req ctx d (L1_dcache.Ld { tag = 0; addr; bytes = 8; unsigned = false })));
  let _, v = wait_for h (fun ctx -> L1_dcache.resp_ld ctx d) in
  v

(* Blocking store through core [c]'s L1 D, using the St/resp_st/write_data
   protocol with a full-line masked write. *)
let store h c addr v =
  let d = Mem_sys.dcache h.ms c in
  let line = Cache_geom.line_addr addr in
  ignore (wait_for h (fun ctx -> L1_dcache.req ctx d (L1_dcache.St { tag = 1; line })));
  let _ = wait_for h (fun ctx -> L1_dcache.resp_st ctx d) in
  let data = Bytes.make Cache_geom.line_bytes '\000' in
  let off = Cache_geom.offset addr in
  Bytes.set_int64_le data off v;
  let mask = Int64.shift_left 0xFFL off in
  ignore (wait_for h (fun ctx -> L1_dcache.write_data ctx d ~line ~data ~mask))

let test_load_miss_then_hit () =
  let h = make () in
  Isa.Phys_mem.store h.pmem ~bytes:8 base 0xABCDL;
  let t0 = Sim.cycles h.sim in
  Alcotest.check i64 "load value" 0xABCDL (load h 0 base);
  let miss_cycles = Sim.cycles h.sim - t0 in
  Alcotest.(check bool)
    (Printf.sprintf "miss paid dram latency (%d cycles)" miss_cycles)
    true (miss_cycles >= 20);
  let t1 = Sim.cycles h.sim in
  Alcotest.check i64 "hit value" 0xABCDL (load h 0 base);
  let hit_cycles = Sim.cycles h.sim - t1 in
  Alcotest.(check bool) (Printf.sprintf "hit fast (%d cycles)" hit_cycles) true (hit_cycles < 10)

let test_store_then_load () =
  let h = make () in
  store h 0 base 42L;
  Alcotest.check i64 "own store visible" 42L (load h 0 base);
  store h 0 (Int64.add base 8L) 43L;
  Alcotest.check i64 "second store" 43L (load h 0 (Int64.add base 8L));
  Alcotest.check i64 "first still there" 42L (load h 0 base)

let test_eviction_writeback () =
  let h = make () in
  store h 0 base 7L;
  (* small L1 (1KB/2way/64B = 8 sets): lines mapping to the same set are
     64*8=512 bytes apart; touch 3 of them to force the dirty line out *)
  let stride = 512L in
  ignore (load h 0 (Int64.add base stride));
  ignore (load h 0 (Int64.add base (Int64.mul stride 2L)));
  ignore (load h 0 (Int64.add base (Int64.mul stride 3L)));
  Alcotest.(check string)
    "dirty line left L1" "I"
    (Msg.state_to_string (L1_dcache.peek_state (Mem_sys.dcache h.ms 0) base));
  Alcotest.check i64 "value survives writeback" 7L (load h 0 base)

let test_coherence_two_cores () =
  let h = make ~ncores:2 () in
  store h 0 base 1L;
  Alcotest.check i64 "core1 sees core0's store" 1L (load h 1 base);
  store h 1 base 2L;
  Alcotest.check i64 "core0 sees core1's store" 2L (load h 0 base);
  (* core0's copy must have been invalidated before core1 got M *)
  store h 0 base 3L;
  store h 1 base 4L;
  Alcotest.check i64 "last writer wins" 4L (load h 0 base)

let test_icache_fetch () =
  let h = make () in
  Isa.Phys_mem.store h.pmem ~bytes:4 base 0x11223344L;
  Isa.Phys_mem.store h.pmem ~bytes:4 (Int64.add base 4L) 0x55667788L;
  let ic = Mem_sys.icache h.ms 0 in
  ignore (wait_for h (fun ctx -> L1_icache.req ctx ic ~tag:9 base));
  let tag, pc, words = wait_for h (fun ctx -> L1_icache.resp ctx ic) in
  Alcotest.(check int) "tag" 9 tag;
  Alcotest.check i64 "pc" base pc;
  Alcotest.(check int) "word0" 0x11223344 words.(0);
  Alcotest.(check int) "word1" 0x55667788 words.(1)

let test_walker_sees_dirty_data () =
  let h = make () in
  (* core 0 holds the line in M with a fresh value; a page walk through the
     L2 port must still observe it (coherent walks) *)
  store h 0 base 0xFEEDL;
  let l2 = Mem_sys.l2 h.ms in
  ignore (wait_for h (fun ctx -> L2_cache.walk_req ctx l2 ~tag:5 base));
  let tag, v = wait_for h (fun ctx -> L2_cache.walk_resp ctx l2) in
  Alcotest.(check int) "walk tag" 5 tag;
  Alcotest.check i64 "walk sees M data" 0xFEEDL v;
  (* and core 0 can write again afterwards (it was downgraded to S, not I) *)
  store h 0 base 0xBEEFL;
  Alcotest.check i64 "store after walk" 0xBEEFL (load h 0 base)

let test_parallel_misses () =
  (* non-blocking: issue several loads to distinct lines back to back, then
     collect all responses; total time must be far below serial latency *)
  let h = make () in
  let n = 4 in
  let d = Mem_sys.dcache h.ms 0 in
  for k = 0 to n - 1 do
    Isa.Phys_mem.store h.pmem ~bytes:8 (Int64.add base (Int64.of_int (k * 64))) (Int64.of_int k)
  done;
  let t0 = Sim.cycles h.sim in
  for k = 0 to n - 1 do
    ignore
      (wait_for h (fun ctx ->
           L1_dcache.req ctx d
             (L1_dcache.Ld
                { tag = k; addr = Int64.add base (Int64.of_int (k * 64)); bytes = 8; unsigned = false })))
  done;
  let got = Array.make n (-1L) in
  for _ = 0 to n - 1 do
    let tag, v = wait_for h (fun ctx -> L1_dcache.resp_ld ctx d) in
    got.(tag) <- v
  done;
  let elapsed = Sim.cycles h.sim - t0 in
  Array.iteri (fun k v -> Alcotest.check i64 (Printf.sprintf "resp %d" k) (Int64.of_int k) v) got;
  Alcotest.(check bool)
    (Printf.sprintf "misses overlapped (%d cycles)" elapsed)
    true
    (elapsed < (20 * n) + 15)

let test_amo_through_cache () =
  let h = make () in
  store h 0 base 10L;
  let d = Mem_sys.dcache h.ms 0 in
  let f old = (Some (Int64.add old 5L), old) in
  ignore (wait_for h (fun ctx -> L1_dcache.req ctx d (L1_dcache.At { tag = 3; addr = base; bytes = 8; f })));
  let tag, old = wait_for h (fun ctx -> L1_dcache.resp_at ctx d) in
  Alcotest.(check int) "amo tag" 3 tag;
  Alcotest.check i64 "amo returns old" 10L old;
  Alcotest.check i64 "amo stored" 15L (load h 0 base)

let test_l2_recall () =
  (* L2 is inclusive: evicting an L2 victim must recall it from the L1s
     first. Tiny L2 (4KB, 2-way, 32 sets): lines 2KB apart share a set. *)
  let h = make ~ncores:2 () in
  let a0 = base in
  let a1 = Int64.add base 2048L in
  let a2 = Int64.add base 4096L in
  store h 0 a0 111L;
  store h 1 a1 222L;
  (* third same-set line forces an L2 eviction and a recall of a dirty L1
     line *)
  store h 0 a2 333L;
  Alcotest.(check bool) "recalls happened" true (Stats.find h.hstats "l2.recalls" > 0);
  Alcotest.check i64 "recalled dirty data survives" 111L (load h 1 a0);
  Alcotest.check i64 "second line" 222L (load h 0 a1);
  Alcotest.check i64 "third line" 333L (load h 1 a2)

(* --- MESI extension ------------------------------------------------------ *)

let mesi_config = { small_config with Mem_sys.mesi = true }

let test_mesi_e_grant () =
  let h = make ~config:mesi_config () in
  (* an unshared read is granted exclusive-clean *)
  ignore (load h 0 base);
  Alcotest.(check string) "E on unshared read" "E"
    (Msg.state_to_string (L1_dcache.peek_state (Mem_sys.dcache h.ms 0) base));
  (* the first store hits silently: no second parent transaction *)
  let misses_before = Stats.find h.hstats "c0.l1d.misses" in
  store h 0 base 5L;
  let misses_after = Stats.find h.hstats "c0.l1d.misses" in
  Alcotest.(check int) "store after E costs no miss" misses_before misses_after;
  Alcotest.(check string) "silently M" "M"
    (Msg.state_to_string (L1_dcache.peek_state (Mem_sys.dcache h.ms 0) base));
  Alcotest.check i64 "value" 5L (load h 0 base)

let test_mesi_shared_read_no_e () =
  let h = make ~ncores:2 ~config:mesi_config () in
  ignore (load h 0 base);
  ignore (load h 1 base);
  (* the second reader must not leave two exclusive copies *)
  let s0 = Msg.state_to_string (L1_dcache.peek_state (Mem_sys.dcache h.ms 0) base) in
  let s1 = Msg.state_to_string (L1_dcache.peek_state (Mem_sys.dcache h.ms 1) base) in
  Alcotest.(check string) "second reader shared" "S" s1;
  Alcotest.(check bool) (Printf.sprintf "first demoted (%s)" s0) true (s0 = "S" || s0 = "I");
  (* silent-M detection: core0 writes (upgrade), core1 must still see it *)
  store h 0 base 9L;
  Alcotest.check i64 "coherent after upgrade" 9L (load h 1 base)

let test_mesi_silent_m_recall () =
  let h = make ~ncores:2 ~config:mesi_config () in
  ignore (load h 0 base);
  (* E at core0; silent write makes it M behind the directory's back *)
  store h 0 base 0x77L;
  (* core1's read must recall the silently-dirty data *)
  Alcotest.check i64 "silently dirty data recalled" 0x77L (load h 1 base)

(* Randomized two-core sequential traffic against a flat-memory oracle. *)
let qcheck_coherence_oracle =
  QCheck.Test.make ~name:"coherence matches flat-memory oracle (MSI + MESI)" ~count:12
    QCheck.(pair (int_bound 10000) (int_bound 1))
    (fun (seed, mesi) ->
      let rng = Random.State.make [| seed |] in
      let h = make ~ncores:2 ~config:(if mesi = 1 then mesi_config else small_config) () in
      let oracle = Hashtbl.create 64 in
      let addrs = Array.init 8 (fun k -> Int64.add base (Int64.of_int (k * 192))) in
      let ok = ref true in
      for _ = 1 to 60 do
        let c = Random.State.int rng 2 in
        let a = addrs.(Random.State.int rng (Array.length addrs)) in
        if Random.State.bool rng then begin
          let v = Int64.of_int (Random.State.int rng 1_000_000) in
          store h c a v;
          Hashtbl.replace oracle a v
        end
        else begin
          let expect = match Hashtbl.find_opt oracle a with Some v -> v | None -> 0L in
          if load h c a <> expect then ok := false
        end
      done;
      !ok)

let suite =
  let t = Alcotest.test_case in
  [
    t "load: miss then hit" `Quick test_load_miss_then_hit;
    t "store: st/resp/write_data protocol" `Quick test_store_then_load;
    t "eviction: dirty writeback" `Quick test_eviction_writeback;
    t "coherence: two cores" `Quick test_coherence_two_cores;
    t "icache: fetch words" `Quick test_icache_fetch;
    t "walker: coherent page-walk reads" `Quick test_walker_sees_dirty_data;
    t "mshr: parallel misses overlap" `Quick test_parallel_misses;
    t "amo: read-modify-write in cache" `Quick test_amo_through_cache;
    t "mesi: E grant + silent store" `Quick test_mesi_e_grant;
    t "mesi: shared read is not exclusive" `Quick test_mesi_shared_read_no_e;
    t "mesi: silent-M recall" `Quick test_mesi_silent_m_recall;
    t "l2: inclusive eviction recalls children" `Quick test_l2_recall;
    QCheck_alcotest.to_alcotest qcheck_coherence_oracle;
  ]
