(* Workload validation: every kernel completes on the golden model with a
   deterministic checksum; representative kernels are re-run on the OOO core
   under lockstep co-simulation and on the quad-core. *)

open Workloads

let i64 = Alcotest.testable (Fmt.fmt "%Ld") Int64.equal

let golden_run ?(ncores = 1) prog =
  let m = Machine.create ~ncores Machine.Golden_only prog in
  let o = Machine.run ~max_cycles:5_000_000 m in
  Alcotest.(check bool) "golden completes" false o.Machine.timed_out;
  (o.Machine.exits.(0), Machine.instrs m)

let test_spec_kernels_golden () =
  List.iter
    (fun (name, f) ->
      let code, n = golden_run (f ~scale:1) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: checksum non-negative (%Ld), %d instrs" name code n)
        true
        (Int64.compare code 0L >= 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: substantial work (%d instrs)" name n)
        true (n > 30_000);
      (* determinism *)
      let code2, _ = golden_run (f ~scale:1) in
      Alcotest.check i64 (name ^ ": deterministic") code code2)
    Spec_kernels.all

let test_parsec_kernels_golden () =
  List.iter
    (fun (name, f) ->
      List.iter
        (fun harts ->
          let code, n = golden_run ~ncores:harts (f ~harts ~scale:1) in
          Alcotest.(check bool)
            (Printf.sprintf "%s x%d: completes (%Ld, %d instrs)" name harts code n)
            true
            (Int64.compare code 0L >= 0))
        [ 1; 2; 4 ])
    Parsec_kernels.all

let small_cfg =
  {
    Ooo.Config.riscyoo_b with
    Ooo.Config.mem =
      {
        Mem.Mem_sys.l1d_bytes = 4096;
        l1d_ways = 2;
        l1d_mshrs = 4;
        l1i_bytes = 4096;
        l1i_ways = 2;
        l2_bytes = 32768;
        l2_ways = 4;
        l2_mshrs = 8;
        l2_latency = 4;
        mesi = false;
        mem_latency = 24;
        mem_inflight = 8;
        l2_banks = 1;
      };
    tlb = Tlb.Tlb_sys.nonblocking_config;
  }

(* three representative kernels, full cosim, with paging *)
let test_spec_on_ooo_cosim () =
  List.iter
    (fun name ->
      let prog = Spec_kernels.find name ~scale:1 in
      let expect, _ = golden_run prog in
      let m = Machine.create ~paging:true ~cosim:true (Machine.Out_of_order small_cfg) prog in
      let o = Machine.run ~max_cycles:10_000_000 m in
      Alcotest.(check bool) (name ^ " on ooo completes") false o.Machine.timed_out;
      Alcotest.check i64 (name ^ " checksum matches golden") expect o.Machine.exits.(0))
    [ "gcc"; "gobmk"; "omnetpp" ]

let test_parsec_on_quad () =
  let prog = Parsec_kernels.find "blackscholes" ~harts:4 ~scale:1 in
  let expect, _ = golden_run ~ncores:4 prog in
  List.iter
    (fun mm ->
      let cfg = { (Ooo.Config.multicore mm) with Ooo.Config.mem = small_cfg.Ooo.Config.mem } in
      let m = Machine.create ~ncores:4 (Machine.Out_of_order cfg) prog in
      let o = Machine.run ~max_cycles:10_000_000 m in
      Alcotest.(check bool) (cfg.Ooo.Config.name ^ " completes") false o.Machine.timed_out;
      Alcotest.check i64 (cfg.Ooo.Config.name ^ " checksum") expect o.Machine.exits.(0))
    [ Ooo.Config.TSO; Ooo.Config.WMM ]

let test_server_kernels_golden () =
  List.iter
    (fun (name, f) ->
      List.iter
        (fun harts ->
          let code, n = golden_run ~ncores:harts (f ~harts ~scale:1) in
          Alcotest.(check bool)
            (Printf.sprintf "%s x%d: completes (%Ld, %d instrs)" name harts code n)
            true
            (Int64.compare code 0L >= 0);
          let code2, _ = golden_run ~ncores:harts (f ~harts ~scale:1) in
          Alcotest.check i64 (Printf.sprintf "%s x%d: deterministic" name harts) code code2)
        [ 1; 2; 4 ])
    Server_kernels.all

(* The server kernels are self-checking under relaxation: reqresp's tagged
   handshakes need no fences, prodcons relies on its MP fences, and
   lockladder's checksum proves mutual exclusion — so running all three on
   the WMM quad against the golden checksum is a memory-model audit, not
   just a smoke test. *)
let test_server_on_quad_wmm () =
  List.iter
    (fun (name, f) ->
      let prog = f ~harts:4 ~scale:1 in
      let expect, _ = golden_run ~ncores:4 prog in
      let cfg =
        { (Ooo.Config.multicore Ooo.Config.WMM) with Ooo.Config.mem = small_cfg.Ooo.Config.mem }
      in
      let m = Machine.create ~ncores:4 (Machine.Out_of_order cfg) prog in
      let o = Machine.run ~max_cycles:10_000_000 m in
      Alcotest.(check bool) (name ^ " on quad-wmm completes") false o.Machine.timed_out;
      Alcotest.check i64 (name ^ " checksum") expect o.Machine.exits.(0))
    Server_kernels.all

let test_streamcluster_contention () =
  let prog = Parsec_kernels.find "streamcluster" ~harts:4 ~scale:1 in
  let expect, _ = golden_run ~ncores:4 prog in
  let cfg =
    { (Ooo.Config.multicore Ooo.Config.TSO) with Ooo.Config.mem = small_cfg.Ooo.Config.mem }
  in
  let m = Machine.create ~ncores:4 (Machine.Out_of_order cfg) prog in
  let o = Machine.run ~max_cycles:10_000_000 m in
  Alcotest.(check bool) "streamcluster TSO completes" false o.Machine.timed_out;
  Alcotest.check i64 "streamcluster checksum" expect o.Machine.exits.(0)

let test_partition () =
  (* the asm-level partitioner: slices must tile [0, n) exactly *)
  let open Isa.Reg_name in
  List.iter
    (fun (n, harts) ->
      let covered = Array.make n 0 in
      for h = 0 to harts - 1 do
        let p = Isa.Asm.create () in
        Isa.Asm.li p s3 (Int64.of_int n);
        Workloads.Kernel_lib.partition p ~n_reg:s3 ~harts ~lo_reg:s4 ~hi_reg:s5 ~tmp:t0;
        Isa.Asm.mv p a0 s4;
        Isa.Asm.slli p a1 s5 16;
        Isa.Asm.or_ p a0 a0 a1;
        Isa.Asm.li p a7 93L;
        Isa.Asm.ecall p;
        (* run on the golden model with mhartid = h *)
        let pmem = Isa.Phys_mem.create () in
        let mmio = Isa.Mmio.create () in
        Array.iteri
          (fun i w ->
            Isa.Phys_mem.store pmem ~bytes:4
              (Int64.add Isa.Addr_map.dram_base (Int64.of_int (i * 4)))
              (Int64.of_int w))
          (Isa.Asm.words p ~base:Isa.Addr_map.dram_base);
        let g = Isa.Golden.create ~nharts:(h + 1) pmem mmio in
        Isa.Golden.set_pc g ~hart:h Isa.Addr_map.dram_base;
        (match Isa.Golden.run g ~hart:h ~max:10000 with
        | `Halted _ -> ()
        | `Timeout -> Alcotest.fail "partition probe timed out");
        let v = Option.get (Isa.Mmio.exit_code mmio ~hart:h) in
        let lo = Int64.to_int (Int64.logand v 0xFFFFL) in
        let hi = Int64.to_int (Int64.shift_right_logical v 16) in
        for i = lo to hi - 1 do
          covered.(i) <- covered.(i) + 1
        done
      done;
      Array.iteri
        (fun i c ->
          Alcotest.(check int) (Printf.sprintf "n=%d harts=%d idx %d covered once" n harts i) 1 c)
        covered)
    [ (10, 3); (16, 4); (7, 4); (5, 2); (100, 4) ]

let suite =
  let t = Alcotest.test_case in
  [
    t "partition tiles exactly" `Quick test_partition;
    t "spec kernels on golden (deterministic)" `Quick test_spec_kernels_golden;
    t "parsec kernels on golden (1/2/4 harts)" `Quick test_parsec_kernels_golden;
    t "spec kernels on ooo (cosim + paging)" `Slow test_spec_on_ooo_cosim;
    t "server kernels on golden (1/2/4 harts)" `Quick test_server_kernels_golden;
    t "server kernels on quad-wmm (fence audit)" `Slow test_server_on_quad_wmm;
    t "parsec on quad core (TSO + WMM)" `Slow test_parsec_on_quad;
    t "streamcluster contention on TSO" `Slow test_streamcluster_contention;
  ]
