(* Integration tests: programs running on the in-order core through the real
   TLB + cache hierarchy, validated against the golden ISA simulator. *)

open Cmd
open Isa

let i64 = Alcotest.testable (Fmt.fmt "%Ld") Int64.equal
let base = Addr_map.dram_base

type machine = {
  sim : Sim.t;
  mmio : Mmio.t;
  core : Inorder.Inorder_core.t;
  stats : Stats.t;
}

let build ?(paging = false) ?(mem_latency = 20) ?(tlb_cfg = Tlb.Tlb_sys.blocking_config) prog =
  let clk = Clock.create () in
  let pmem = Phys_mem.create () in
  let mmio = Mmio.create () in
  let stats = Stats.create () in
  let words = Asm.words prog ~base in
  Array.iteri
    (fun i w -> Phys_mem.store pmem ~bytes:4 (Int64.add base (Int64.of_int (i * 4))) (Int64.of_int w))
    words;
  let mem_cfg =
    {
      Mem.Mem_sys.l1d_bytes = 4096;
      l1d_ways = 2;
      l1d_mshrs = 4;
      l1i_bytes = 4096;
      l1i_ways = 2;
      l2_bytes = 16384;
      l2_ways = 4;
      l2_mshrs = 4;
      l2_latency = 4;
      mesi = false;
      mem_latency;
      mem_inflight = 8;
      l2_banks = 1;
    }
  in
  let ms = Mem.Mem_sys.create clk pmem mem_cfg ~ncores:1 ~fetch_width:2 ~stats in
  let tlb = Tlb.Tlb_sys.create clk tlb_cfg ~stats () in
  let core =
    Inorder.Inorder_core.create clk ~hart_id:0 ~icache:(Mem.Mem_sys.icache ms 0)
      ~dcache:(Mem.Mem_sys.dcache ms 0) ~tlb ~mmio ~stats ()
  in
  if paging then begin
    let pt = Page_table.create pmem ~alloc_base:0x90000000L in
    Page_table.map_range pt ~va:base ~pa:base ~len:0x1000000L;
    Tlb.Tlb_sys.set_satp tlb (Page_table.root pt)
  end;
  let rules =
    Inorder.Inorder_core.rules core
    @ Tlb.Tlb_sys.rules tlb
    @ Tlb.Walk_xbar.rules [| tlb |] ~banks:(Mem.Mem_sys.l2_banks ms) ~bank_of:(Mem.Mem_sys.bank_of ms)
    @ Mem.Mem_sys.rules ms
  in
  let sim = Sim.create clk rules in
  { sim; mmio; core; stats }

let run_to_exit ?(max_cycles = 500_000) m =
  match Sim.run_until m.sim ~max_cycles (fun () -> Inorder.Inorder_core.halted m.core) with
  | `Done _ -> (
    match Mmio.exit_code m.mmio ~hart:0 with
    | Some v -> v
    | None -> Alcotest.fail "halted without exit code")
  | `Timeout _ -> Alcotest.fail "in-order core timed out"

(* golden-model reference run of the same program *)
let golden_exit prog =
  let pmem = Phys_mem.create () in
  let mmio = Mmio.create () in
  Array.iteri
    (fun i w -> Phys_mem.store pmem ~bytes:4 (Int64.add base (Int64.of_int (i * 4))) (Int64.of_int w))
    (Asm.words prog ~base);
  let g = Golden.create ~nharts:1 pmem mmio in
  Golden.set_pc g ~hart:0 base;
  match Golden.run g ~hart:0 ~max:2_000_000 with
  | `Halted _ -> Option.get (Mmio.exit_code mmio ~hart:0)
  | `Timeout -> Alcotest.fail "golden timed out"

let exit_with p =
  let open Reg_name in
  Asm.li p a7 93L;
  Asm.ecall p

(* sum of i*i for i in 0..n-1, with loads/stores through an array *)
let array_kernel n =
  let open Reg_name in
  let p = Asm.create () in
  Asm.li p s0 0x80100000L;
  (* array base *)
  Asm.li p s1 (Int64.of_int n);
  Asm.li p t0 0L;
  (* store phase *)
  Asm.label p "st";
  Asm.mul p t1 t0 t0;
  Asm.slli p t2 t0 3;
  Asm.add p t2 t2 s0;
  Asm.sd p t1 0L t2;
  Asm.addi p t0 t0 1L;
  Asm.blt p t0 s1 "st";
  (* load/accumulate phase *)
  Asm.li p t0 0L;
  Asm.li p a0 0L;
  Asm.label p "ld";
  Asm.slli p t2 t0 3;
  Asm.add p t2 t2 s0;
  Asm.ld p t1 0L t2;
  Asm.add p a0 a0 t1;
  Asm.addi p t0 t0 1L;
  Asm.blt p t0 s1 "ld";
  exit_with p;
  p

let branchy_kernel n =
  let open Reg_name in
  let p = Asm.create () in
  Asm.li p t0 0L;
  Asm.li p a0 0L;
  Asm.li p t3 2654435761L;
  Asm.label p "loop";
  (* pseudo-random branch on hash of i *)
  Asm.mul p t1 t0 t3;
  Asm.srli p t1 t1 13;
  Asm.andi p t1 t1 1L;
  Asm.beq p t1 zero "skip";
  Asm.addi p a0 a0 3L;
  Asm.label p "skip";
  Asm.addi p a0 a0 1L;
  Asm.addi p t0 t0 1L;
  Asm.li p t2 (Int64.of_int n);
  Asm.blt p t0 t2 "loop";
  exit_with p;
  p

let call_kernel () =
  let open Reg_name in
  let p = Asm.create () in
  Asm.li p sp 0x80200000L;
  Asm.li p a0 12L;
  Asm.call p "fact";
  exit_with p;
  (* recursive factorial mod 2^64 *)
  Asm.label p "fact";
  Asm.li p t0 1L;
  Asm.bne p a0 t0 "rec";
  Asm.ret p;
  Asm.label p "rec";
  Asm.addi p sp sp (-16L);
  Asm.sd p ra 0L sp;
  Asm.sd p a0 8L sp;
  Asm.addi p a0 a0 (-1L);
  Asm.call p "fact";
  Asm.ld p t1 8L sp;
  Asm.mul p a0 a0 t1;
  Asm.ld p ra 0L sp;
  Asm.addi p sp sp 16L;
  Asm.ret p;
  p

let check_against_golden ?paging ?tlb_cfg name prog =
  let expect = golden_exit prog in
  let m = build ?paging ?tlb_cfg prog in
  let got = run_to_exit m in
  Alcotest.check i64 name expect got

let test_array () = check_against_golden "array kernel" (array_kernel 200)
let test_branchy () = check_against_golden "branchy kernel" (branchy_kernel 300)
let test_calls () = check_against_golden "recursive calls" (call_kernel ())

let test_paging () =
  check_against_golden ~paging:true "array kernel under Sv39" (array_kernel 100);
  check_against_golden ~paging:true ~tlb_cfg:Tlb.Tlb_sys.nonblocking_config
    "array kernel, non-blocking TLB" (array_kernel 100)

let test_tlb_stats () =
  (* touching many pages must show up as D-TLB misses *)
  let open Reg_name in
  let p = Asm.create () in
  Asm.li p s0 0x80100000L;
  Asm.li p t0 0L;
  Asm.li p s1 64L;
  Asm.label p "loop";
  Asm.sd p t0 0L s0;
  Asm.li p t2 4096L;
  Asm.add p s0 s0 t2;
  Asm.addi p t0 t0 1L;
  Asm.blt p t0 s1 "loop";
  Asm.li p a0 0L;
  exit_with p;
  let m = build ~paging:true p in
  ignore (run_to_exit m);
  let misses = Stats.find m.stats "tlb.d.misses" in
  Alcotest.(check bool) (Printf.sprintf "dtlb misses %d >= 60" misses) true (misses >= 60)

let test_amo_lrsc () =
  let open Reg_name in
  let p = Asm.create () in
  Asm.li p s0 0x80100000L;
  Asm.li p t0 5L;
  Asm.sd p t0 0L s0;
  Asm.li p t1 7L;
  Asm.amoadd_d p t2 t1 s0;
  Asm.label p "retry";
  Asm.lr_d p t3 s0;
  Asm.addi p t3 t3 100L;
  Asm.sc_d p t4 t3 s0;
  Asm.bne p t4 zero "retry";
  Asm.ld p a0 0L s0;
  (* 5+7+100 = 112 *)
  Asm.add p a0 a0 t2;
  (* + old value 5 = 117 *)
  exit_with p;
  check_against_golden "amo/lrsc" p

let suite =
  let t = Alcotest.test_case in
  [
    t "array kernel vs golden" `Quick test_array;
    t "branchy kernel vs golden" `Quick test_branchy;
    t "recursive calls vs golden" `Quick test_calls;
    t "paging: blocking + non-blocking TLBs" `Quick test_paging;
    t "tlb: miss counters move" `Quick test_tlb_stats;
    t "amo + lr/sc vs golden" `Quick test_amo_lrsc;
  ]
