(* Multicore tests: parallel kernels on the quad-core RiscyOO under TSO and
   WMM, with AMO-based locks and spin barriers. *)

open Isa
open Workloads

let i64 = Alcotest.testable (Fmt.fmt "%Ld") Int64.equal

(* Each of [n] harts adds its hart id + 1 to a shared counter [iters] times
   under an amoadd; hart 0 waits for all to finish (spin on a done-counter)
   and exits with the total. Other harts exit 0. *)
let shared_counter_kernel ~harts ~iters =
  let open Reg_name in
  let p = Asm.create () in
  let counter = 0x80100000L and done_ctr = 0x80100040L in
  Asm.csrr p t0 Csr.mhartid;
  Asm.li p s0 counter;
  Asm.li p s1 done_ctr;
  (* contribution = hart+1 *)
  Asm.addi p s2 t0 1L;
  Asm.li p s3 (Int64.of_int iters);
  Asm.label p "loop";
  Asm.amoadd_d p zero s2 s0;
  Asm.addi p s3 s3 (-1L);
  Asm.bne p s3 zero "loop";
  (* signal done *)
  Asm.li p t1 1L;
  Asm.fence p;
  Asm.amoadd_d p zero t1 s1;
  (* hart 0 waits and reports; others exit 0 *)
  Asm.csrr p t0 Csr.mhartid;
  Asm.bne p t0 zero "worker_exit";
  Asm.li p t2 (Int64.of_int harts);
  Asm.label p "wait";
  Asm.ld p t3 0L s1;
  Asm.bne p t3 t2 "wait";
  Asm.fence p;
  Asm.ld p a0 0L s0;
  Asm.li p a7 93L;
  Asm.ecall p;
  Asm.label p "worker_exit";
  Asm.li p a0 0L;
  Asm.li p a7 93L;
  Asm.ecall p;
  Machine.program p

(* spin-lock (amoswap) protected read-modify-write without atomics inside *)
let lock_kernel ~harts ~iters =
  let open Reg_name in
  let p = Asm.create () in
  let lock = 0x80100000L and shared = 0x80100040L and done_ctr = 0x80100080L in
  Asm.csrr p t0 Csr.mhartid;
  Asm.li p s0 lock;
  Asm.li p s1 shared;
  Asm.li p s2 done_ctr;
  Asm.li p s3 (Int64.of_int iters);
  Asm.label p "loop";
  (* acquire *)
  Asm.label p "acq";
  Asm.li p t1 1L;
  Asm.amoswap_w p t2 t1 s0;
  Asm.bne p t2 zero "acq";
  Asm.fence p;
  (* critical section: non-atomic increment *)
  Asm.ld p t3 0L s1;
  Asm.addi p t3 t3 1L;
  Asm.sd p t3 0L s1;
  (* release *)
  Asm.fence p;
  Asm.sw p zero 0L s0;
  Asm.addi p s3 s3 (-1L);
  Asm.bne p s3 zero "loop";
  Asm.li p t1 1L;
  Asm.fence p;
  Asm.amoadd_d p zero t1 s2;
  Asm.csrr p t0 Csr.mhartid;
  Asm.bne p t0 zero "worker_exit";
  Asm.li p t2 (Int64.of_int harts);
  Asm.label p "wait";
  Asm.ld p t3 0L s2;
  Asm.bne p t3 t2 "wait";
  Asm.fence p;
  Asm.ld p a0 0L s1;
  Asm.li p a7 93L;
  Asm.ecall p;
  Asm.label p "worker_exit";
  Asm.li p a0 0L;
  Asm.li p a7 93L;
  Asm.ecall p;
  Machine.program p

let small_mem =
  {
    Mem.Mem_sys.l1d_bytes = 2048;
    l1d_ways = 2;
    l1d_mshrs = 4;
    l1i_bytes = 2048;
    l1i_ways = 2;
    l2_bytes = 16384;
    l2_ways = 4;
    l2_mshrs = 8;
    l2_latency = 4;
    mesi = false;
    mem_latency = 20;
    mem_inflight = 8;
    l2_banks = 1;
  }

let run_mc mm ~ncores prog expect =
  let cfg = { (Ooo.Config.multicore mm) with Ooo.Config.mem = small_mem } in
  let m = Machine.create ~ncores ~invariants:true (Machine.Out_of_order cfg) prog in
  let o = Machine.run ~max_cycles:2_000_000 m in
  Alcotest.(check bool)
    (Printf.sprintf "%s x%d exits" cfg.Ooo.Config.name ncores)
    false o.Machine.timed_out;
  Alcotest.check i64 (Printf.sprintf "%s result" cfg.Ooo.Config.name) expect o.Machine.exits.(0)

let test_counter_tso () =
  run_mc Ooo.Config.TSO ~ncores:2 (shared_counter_kernel ~harts:2 ~iters:40) 120L;
  run_mc Ooo.Config.TSO ~ncores:4 (shared_counter_kernel ~harts:4 ~iters:25) 250L

let test_counter_wmm () =
  run_mc Ooo.Config.WMM ~ncores:2 (shared_counter_kernel ~harts:2 ~iters:40) 120L;
  run_mc Ooo.Config.WMM ~ncores:4 (shared_counter_kernel ~harts:4 ~iters:25) 250L

let test_lock_tso () = run_mc Ooo.Config.TSO ~ncores:4 (lock_kernel ~harts:4 ~iters:20) 80L
let test_lock_wmm () = run_mc Ooo.Config.WMM ~ncores:4 (lock_kernel ~harts:4 ~iters:20) 80L

let test_inorder_multicore () =
  let prog = shared_counter_kernel ~harts:2 ~iters:30 in
  let m =
    Machine.create ~ncores:2 ~invariants:true
      (Machine.In_order { mem = small_mem; tlb = Tlb.Tlb_sys.blocking_config })
      prog
  in
  let o = Machine.run ~max_cycles:2_000_000 m in
  Alcotest.(check bool) "inorder x2 exits" false o.Machine.timed_out;
  Alcotest.check i64 "inorder x2 result" 90L o.Machine.exits.(0)

let suite =
  let t = Alcotest.test_case in
  [
    t "shared counter, TSO (2 and 4 cores)" `Quick test_counter_tso;
    t "shared counter, WMM (2 and 4 cores)" `Quick test_counter_wmm;
    t "spin lock, TSO quad-core" `Quick test_lock_tso;
    t "spin lock, WMM quad-core" `Quick test_lock_wmm;
    t "in-order dual-core coherence" `Quick test_inorder_multicore;
  ]
