(* Integration tests for the RiscyOO out-of-order core: programs run with
   per-commit golden-model co-simulation; exit codes checked against a
   golden-only run of the same program. *)

open Isa
open Workloads

let i64 = Alcotest.testable (Fmt.fmt "%Ld") Int64.equal

let exit_with p =
  let open Reg_name in
  Asm.li p a7 93L;
  Asm.ecall p

(* small-cache config so misses and evictions are exercised quickly *)
let test_cfg =
  {
    Ooo.Config.riscyoo_b with
    Ooo.Config.mem =
      {
        Mem.Mem_sys.l1d_bytes = 2048;
        l1d_ways = 2;
        l1d_mshrs = 4;
        l1i_bytes = 2048;
        l1i_ways = 2;
        l2_bytes = 8192;
        l2_ways = 4;
        l2_mshrs = 8;
        l2_latency = 4;
        mesi = false;
        mem_latency = 30;
        mem_inflight = 8;
        l2_banks = 1;
      };
  }

let run_both ?(cfg = test_cfg) ?(paging = false) ?schedule name prog =
  let g = Machine.create ~paging Machine.Golden_only prog in
  let og = Machine.run ~max_cycles:3_000_000 g in
  Alcotest.(check bool) (name ^ ": golden exits") false og.Machine.timed_out;
  let m = Machine.create ~paging ~cosim:true ~invariants:true ?schedule (Machine.Out_of_order cfg) prog in
  let om = Machine.run ~max_cycles:3_000_000 m in
  Alcotest.(check bool) (name ^ ": ooo exits") false om.Machine.timed_out;
  Alcotest.check i64 (name ^ ": exit codes agree") og.Machine.exits.(0) om.Machine.exits.(0);
  (m, om)

let fib_program n =
  let open Reg_name in
  let p = Asm.create () in
  Asm.li p a0 (Int64.of_int n);
  Asm.li p t0 0L;
  Asm.li p t1 1L;
  Asm.label p "loop";
  Asm.beq p a0 zero "done";
  Asm.add p t2 t0 t1;
  Asm.mv p t0 t1;
  Asm.mv p t1 t2;
  Asm.addi p a0 a0 (-1L);
  Asm.j p "loop";
  Asm.label p "done";
  Asm.mv p a0 t0;
  exit_with p;
  Machine.program p

let array_kernel n =
  let open Reg_name in
  let p = Asm.create () in
  Asm.li p s0 0x80100000L;
  Asm.li p s1 (Int64.of_int n);
  Asm.li p t0 0L;
  Asm.label p "st";
  Asm.mul p t1 t0 t0;
  Asm.slli p t2 t0 3;
  Asm.add p t2 t2 s0;
  Asm.sd p t1 0L t2;
  Asm.addi p t0 t0 1L;
  Asm.blt p t0 s1 "st";
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
  Machine.program p

(* store->load forwarding and aliasing: repeatedly writes and re-reads the
   same few addresses with different widths *)
let forwarding_kernel () =
  let open Reg_name in
  let p = Asm.create () in
  Asm.li p s0 0x80100000L;
  Asm.li p a0 0L;
  Asm.li p t0 0L;
  Asm.li p s1 64L;
  Asm.label p "loop";
  Asm.sd p t0 0L s0;
  Asm.ld p t1 0L s0;
  (* immediate reload: forwarded *)
  Asm.add p a0 a0 t1;
  Asm.sw p t0 8L s0;
  Asm.lh p t2 8L s0;
  (* partial-width reload of a recent store *)
  Asm.add p a0 a0 t2;
  Asm.sb p t0 16L s0;
  Asm.lbu p t3 16L s0;
  Asm.add p a0 a0 t3;
  Asm.addi p t0 t0 3L;
  Asm.blt p t0 s1 "loop";
  exit_with p;
  Machine.program p

let branchy_kernel n =
  let open Reg_name in
  let p = Asm.create () in
  Asm.li p t0 0L;
  Asm.li p a0 0L;
  Asm.li p t3 2654435761L;
  Asm.label p "loop";
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
  Machine.program p

let call_kernel () =
  let open Reg_name in
  let p = Asm.create () in
  Asm.li p sp 0x80200000L;
  Asm.li p a0 12L;
  Asm.call p "fact";
  exit_with p;
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
  Machine.program p

let amo_kernel () =
  let open Reg_name in
  let p = Asm.create () in
  Asm.li p s0 0x80100000L;
  Asm.li p t0 5L;
  Asm.sd p t0 0L s0;
  Asm.fence p;
  Asm.li p t1 3L;
  Asm.amoadd_d p t2 t1 s0;
  Asm.label p "retry";
  Asm.lr_d p t3 s0;
  Asm.addi p t3 t3 100L;
  Asm.sc_d p t4 t3 s0;
  Asm.bne p t4 zero "retry";
  Asm.ld p a0 0L s0;
  Asm.add p a0 a0 t2;
  exit_with p;
  Machine.program p

let test_fib () = ignore (run_both "fib" (fib_program 20))
let test_array () = ignore (run_both "array" (array_kernel 150))
let test_forwarding () = ignore (run_both "forwarding" (forwarding_kernel ()))

let test_branchy () =
  let m, om = run_both "branchy" (branchy_kernel 300) in
  let mispred = Machine.find_stat m "c0.mispredicts" in
  Alcotest.(check bool)
    (Printf.sprintf "branchy has mispredicts (%d)" mispred)
    true (mispred > 0);
  ignore om

let test_calls () = ignore (run_both "calls" (call_kernel ()))
let test_amo () = ignore (run_both "amo" (amo_kernel ()))

let test_paging () =
  ignore (run_both ~paging:true "array+paging(blocking tlb)" (array_kernel 100));
  let cfg = { test_cfg with Ooo.Config.tlb = Tlb.Tlb_sys.nonblocking_config; name = "t+" } in
  ignore (run_both ~cfg ~paging:true "array+paging(nonblocking tlb)" (array_kernel 100))

let test_megapages_ooo () =
  (* megapages shorten walks to two reads and slash TLB pressure *)
  let prog = array_kernel 100 in
  let g = Machine.create Machine.Golden_only prog in
  let og = Machine.run ~max_cycles:3_000_000 g in
  let cfg = { test_cfg with Ooo.Config.tlb = Tlb.Tlb_sys.nonblocking_config; name = "t+" } in
  let m = Machine.create ~paging:true ~megapages:true ~cosim:true ~invariants:true (Machine.Out_of_order cfg) prog in
  let o = Machine.run ~max_cycles:3_000_000 m in
  Alcotest.(check bool) "megapage run exits" false o.Machine.timed_out;
  Alcotest.check i64 "megapage checksum" og.Machine.exits.(0) o.Machine.exits.(0)

let test_schedules () =
  ignore (run_both ~schedule:`Aggressive "fib aggressive" (fib_program 15));
  ignore (run_both ~schedule:`Conservative "fib conservative" (fib_program 15))

let test_tso () =
  let cfg = { test_cfg with Ooo.Config.mem_model = Ooo.Config.TSO; name = "tso" } in
  ignore (run_both ~cfg "array TSO" (array_kernel 100));
  ignore (run_both ~cfg "forwarding TSO" (forwarding_kernel ()))

let test_ipc_beats_inorder () =
  (* the paper's headline: OOO IPC beats in-order on the same memory *)
  let prog = array_kernel 200 in
  let m_ooo = Machine.create (Machine.Out_of_order test_cfg) prog in
  let o_ooo = Machine.run ~max_cycles:3_000_000 m_ooo in
  let m_io =
    Machine.create
      (Machine.In_order { mem = test_cfg.Ooo.Config.mem; tlb = Tlb.Tlb_sys.blocking_config })
      prog
  in
  let o_io = Machine.run ~max_cycles:3_000_000 m_io in
  Alcotest.(check bool) "both exit" false (o_ooo.Machine.timed_out || o_io.Machine.timed_out);
  let ipc_ooo = float_of_int (Machine.instrs m_ooo) /. float_of_int o_ooo.Machine.cycles in
  let ipc_io = float_of_int (Machine.instrs m_io) /. float_of_int o_io.Machine.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "ooo ipc (%.3f) > inorder ipc (%.3f)" ipc_ooo ipc_io)
    true (ipc_ooo > ipc_io)

let test_store_prefetch () =
  (* a burst of stores to distinct lines: under TSO the SQ drains serially
     (each head store waits for its M grant); store prefetching acquires the
     lines ahead of the head, so the drain pipelines *)
  let open Isa.Reg_name in
  let p = Isa.Asm.create () in
  Isa.Asm.li p s0 0x80100000L;
  Isa.Asm.li p s1 96L;
  Isa.Asm.li p t0 0L;
  Isa.Asm.label p "loop";
  Isa.Asm.slli p t2 t0 6;
  Isa.Asm.add p t2 t2 s0;
  Isa.Asm.sd p t0 0L t2;
  Isa.Asm.addi p t0 t0 1L;
  Isa.Asm.blt p t0 s1 "loop";
  Isa.Asm.ld p a0 0L s0;
  exit_with p;
  let prog = Machine.program p in
  let tso = { test_cfg with Ooo.Config.mem_model = Ooo.Config.TSO; name = "tso" } in
  let run cfg =
    let m = Machine.create ~cosim:true (Machine.Out_of_order cfg) prog in
    let o = Machine.run ~max_cycles:3_000_000 m in
    Alcotest.(check bool) (cfg.Ooo.Config.name ^ " exits") false o.Machine.timed_out;
    o.Machine.cycles
  in
  let plain = run tso in
  let pf = run { tso with Ooo.Config.st_prefetch = true; name = "tso+pf" } in
  Alcotest.(check bool)
    (Printf.sprintf "prefetch helps the TSO drain (%d -> %d cycles)" plain pf)
    true (pf < plain)

let test_predictors () =
  (* all three direction predictors run the branchy kernel correctly; the
     kernel's branches are data-random, so none should be wildly off *)
  let prog = branchy_kernel 250 in
  let g = Machine.create Machine.Golden_only prog in
  let og = Machine.run ~max_cycles:3_000_000 g in
  List.iter
    (fun kind ->
      let cfg =
        { test_cfg with Ooo.Config.predictor = kind; name = Branch.Dir_pred.kind_to_string kind }
      in
      let m = Machine.create ~cosim:true (Machine.Out_of_order cfg) prog in
      let o = Machine.run ~max_cycles:3_000_000 m in
      Alcotest.(check bool) (cfg.Ooo.Config.name ^ " exits") false o.Machine.timed_out;
      Alcotest.check i64 (cfg.Ooo.Config.name ^ " checksum") og.Machine.exits.(0)
        o.Machine.exits.(0))
    [ Branch.Dir_pred.Tournament; Branch.Dir_pred.Gshare; Branch.Dir_pred.Bimodal ]

let test_mesi_ooo () =
  (* the OOO core on a MESI hierarchy, with cosim: read-modify-write kernel *)
  let cfg =
    { test_cfg with
      Ooo.Config.mem = { test_cfg.Ooo.Config.mem with Mem.Mem_sys.mesi = true };
      name = "mesi" }
  in
  ignore (run_both ~cfg "forwarding on MESI" (forwarding_kernel ()));
  ignore (run_both ~cfg:{ cfg with Ooo.Config.mem_model = Ooo.Config.TSO; name = "mesi-tso" }
      "forwarding on MESI TSO" (forwarding_kernel ()))

let test_shuffled_schedule () =
  (* The paper's core guarantee: any admissible schedule gives the same
     architectural behaviour. Run the whole processor under randomly
     shuffled rule orders — with full co-simulation — and under the
     one-rule-at-a-time reference executor. *)
  let prog = array_kernel 60 in
  let g = Machine.create Machine.Golden_only prog in
  let og = Machine.run ~max_cycles:3_000_000 g in
  List.iter
    (fun (name, mode, budget) ->
      let m = Machine.create ~cosim:true ~mode (Machine.Out_of_order test_cfg) prog in
      let o = Machine.run ~max_cycles:budget m in
      Alcotest.(check bool) (name ^ " exits") false o.Machine.timed_out;
      Alcotest.check i64 (name ^ " checksum") og.Machine.exits.(0) o.Machine.exits.(0))
    [
      ("shuffle-1", Cmd.Sim.Shuffle 11, 3_000_000);
      ("shuffle-2", Cmd.Sim.Shuffle 222, 3_000_000);
      ("shuffle-3", Cmd.Sim.Shuffle 3333, 3_000_000);
      ("one-per-cycle", Cmd.Sim.One_per_cycle, 60_000_000);
    ]

let suite =
  let t = Alcotest.test_case in
  [
    t "fib vs golden (cosim)" `Quick test_fib;
    t "array kernel vs golden" `Quick test_array;
    t "store-load forwarding" `Quick test_forwarding;
    t "branchy kernel (mispredicts)" `Quick test_branchy;
    t "recursive calls (RAS)" `Quick test_calls;
    t "amo + lr/sc + fence" `Quick test_amo;
    t "paging: blocking + nonblocking TLB" `Quick test_paging;
    t "schedules: aggressive + conservative" `Quick test_schedules;
    t "TSO memory model" `Quick test_tso;
    t "IPC beats in-order" `Quick test_ipc_beats_inorder;
    t "schedule robustness: shuffled + serial" `Slow test_shuffled_schedule;
    t "store prefetch accelerates TSO drain" `Quick test_store_prefetch;
    t "predictors: tournament/gshare/bimodal" `Quick test_predictors;
    t "MESI hierarchy under the OOO core" `Quick test_mesi_ooo;
    t "Sv39 megapages end to end" `Quick test_megapages_ooo;
  ]
