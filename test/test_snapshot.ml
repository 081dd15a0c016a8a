(* Machine snapshot/restore: bit-identity of the round trip, of a restore
   onto a machine that has already run past the image, and rejection of
   corrupt or mismatched images.

   "Bit-identical" is checked on everything the scheduler and cores expose:
   final cycle count, committed instructions, exit codes, console output and
   the per-rule fire counts — if any rule fired a different number of times
   after the restore, the machines diverged. *)

open Workloads

let i64 = Alcotest.testable (Fmt.fmt "%Ld") Int64.equal

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

type fingerprint = {
  f_cycles : int;
  f_instrs : int;
  f_exits : int64 array;
  f_console : string;
  f_fires : (string * int) list;
}

let rule_fires m =
  (* per-rule fire counts, name-keyed; names are unique per machine *)
  List.map (fun r -> (r.Cmd.Rule.name, r.Cmd.Rule.fired)) (Machine.rule_list m)

let finish m =
  let o = Machine.run ~max_cycles:10_000_000 m in
  Alcotest.(check bool) "run completes" false o.Machine.timed_out;
  {
    f_cycles = o.Machine.cycles;
    f_instrs = Machine.instrs m;
    f_exits = o.Machine.exits;
    f_console = Machine.console m;
    f_fires = rule_fires m;
  }

let check_fingerprint name a b =
  Alcotest.(check int) (name ^ ": cycles") a.f_cycles b.f_cycles;
  Alcotest.(check int) (name ^ ": instret") a.f_instrs b.f_instrs;
  Alcotest.(check (array i64)) (name ^ ": exits") a.f_exits b.f_exits;
  Alcotest.(check string) (name ^ ": console") a.f_console b.f_console;
  Alcotest.(check (list (pair string int))) (name ^ ": per-rule fires") a.f_fires b.f_fires

(* Snapshot machine [a] at cycle [at], restore into a fresh machine built by
   [mk ~fastpath:restore_fastpath], run both to completion, compare
   fingerprints. [at_snapshot] inspects [a] at the snapshot point. *)
let round_trip ?(restore_fastpath = true) ?(at_snapshot = ignore) name mk ~at =
  let a = mk ~fastpath:true in
  let o = Machine.run ~max_cycles:at a in
  Alcotest.(check bool) (name ^ ": still running at snapshot point") true o.Machine.timed_out;
  at_snapshot a;
  let img = Machine.snapshot a in
  let fa = finish a in
  let b = mk ~fastpath:restore_fastpath in
  Machine.restore b img;
  let fb = finish b in
  check_fingerprint name fa fb;
  String.length img

let test_roundtrip_smoke () =
  let mk ~fastpath =
    Machine.create ~fastpath (Machine.Out_of_order small_cfg) (Spec_kernels.find "gcc" ~scale:1)
  in
  ignore (round_trip "gcc/1-core" mk ~at:2_000)

(* The gshare and bimodal counter tables ride in the image too. *)
let test_roundtrip_predictors () =
  List.iter
    (fun predictor ->
      let cfg = { small_cfg with Ooo.Config.predictor } in
      let mk ~fastpath =
        Machine.create ~fastpath (Machine.Out_of_order cfg) (Spec_kernels.find "gcc" ~scale:1)
      in
      ignore (round_trip ("gcc/" ^ Branch.Dir_pred.kind_to_string predictor) mk ~at:2_000))
    Branch.Dir_pred.[ Gshare; Bimodal ]

let test_roundtrip_quad () =
  let prog = Parsec_kernels.find "blackscholes" ~harts:4 ~scale:1 in
  let cfg =
    { (Ooo.Config.multicore Ooo.Config.WMM) with Ooo.Config.mem = small_cfg.Ooo.Config.mem }
  in
  let mk ~fastpath = Machine.create ~ncores:4 ~fastpath (Machine.Out_of_order cfg) prog in
  (* restore into a stripped-scheduler machine: the image must be
     engine-agnostic *)
  ignore (round_trip "blackscholes/quad" mk ~at:3_000);
  ignore (round_trip "blackscholes/quad, stripped" ~restore_fastpath:false mk ~at:3_000)

let test_roundtrip_inorder_golden () =
  (* the registry covers the other machine kinds too *)
  let prog = Spec_kernels.find "mcf" ~scale:1 in
  let mk_io ~fastpath =
    Machine.create ~fastpath
      (Machine.In_order { mem = small_cfg.Ooo.Config.mem; tlb = Tlb.Tlb_sys.blocking_config })
      prog
  in
  ignore (round_trip "mcf/in-order" mk_io ~at:2_000);
  let g = Machine.create Machine.Golden_only prog in
  let o = Machine.run ~max_cycles:1_000 g in
  Alcotest.(check bool) "golden still running" true o.Machine.timed_out;
  let img = Machine.snapshot g in
  let fa = finish g in
  let g2 = Machine.create Machine.Golden_only prog in
  Machine.restore g2 img;
  let fb = finish g2 in
  check_fingerprint "mcf/golden" fa fb

let test_roundtrip_cosim_paging () =
  (* cosim registers the lockstep golden model's private memory too; a
     restored machine must keep passing the commit-by-commit comparison *)
  let mk ~fastpath =
    Machine.create ~fastpath ~paging:true ~cosim:true (Machine.Out_of_order small_cfg)
      (Spec_kernels.find "omnetpp" ~scale:1)
  in
  (* with paging on, every committed instruction was fetched through a
     translation the L2 TLB answered after a walk filled it: the image
     carries filled L2 TLB entries *)
  let at_snapshot m =
    Alcotest.(check bool) "L2 TLB walks before the snapshot" true
      (Machine.find_stat m "c0.tlb.l2.misses" > 0);
    Alcotest.(check bool) "instructions committed before the snapshot" true (Machine.instrs m > 0)
  in
  ignore (round_trip ~at_snapshot "omnetpp/cosim+paging" mk ~at:2_000)

let expect_error name f =
  match f () with
  | exception Cmd.State.Error _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Cmd.State.Error")

let test_rejects_bad_images () =
  let prog = Spec_kernels.find "gcc" ~scale:1 in
  let mk () = Machine.create (Machine.Out_of_order small_cfg) prog in
  let m = mk () in
  ignore (Machine.run ~max_cycles:1_000 m);
  let img = Machine.snapshot m in
  (* truncated: mid-payload, mid-header, empty *)
  expect_error "truncated payload" (fun () ->
      Machine.restore (mk ()) (String.sub img 0 (String.length img - 7)));
  expect_error "truncated header" (fun () -> Machine.restore (mk ()) (String.sub img 0 20));
  expect_error "empty" (fun () -> Machine.restore (mk ()) "");
  (* corrupted: flip one payload byte — inside it, and at either end (the
     payload is checked in place, after the fixed-size header: magic,
     exe digest, config digest, length, payload digest) *)
  let flip pos =
    let corrupt = Bytes.of_string img in
    Bytes.set corrupt pos (Char.chr (Char.code (Bytes.get corrupt pos) lxor 0x40));
    Bytes.to_string corrupt
  in
  let header = String.length "riscyoo-snap-v1\n" + 16 + 16 + 8 + 16 in
  expect_error "corrupt payload" (fun () -> Machine.restore (mk ()) (flip (String.length img - 100)));
  expect_error "corrupt first payload byte" (fun () -> Machine.restore (mk ()) (flip header));
  expect_error "corrupt last payload byte" (fun () ->
      Machine.restore (mk ()) (flip (String.length img - 1)));
  (* not an image at all *)
  expect_error "garbage" (fun () -> Machine.restore (mk ()) (String.make 4096 'x'));
  (* configuration mismatches: different program, different core count,
     different microarchitecture *)
  expect_error "different program" (fun () ->
      Machine.restore (Machine.create (Machine.Out_of_order small_cfg) (Spec_kernels.find "mcf" ~scale:1)) img);
  expect_error "different ncores" (fun () ->
      Machine.restore (Machine.create ~ncores:2 (Machine.Out_of_order small_cfg) prog) img);
  expect_error "different config" (fun () ->
      Machine.restore
        (Machine.create (Machine.Out_of_order { small_cfg with Ooo.Config.rob_size = 32 }) prog)
        img);
  (* the machine that produced the image still restores it *)
  Machine.restore (mk ()) img

let test_restore_after_run () =
  (* A machine restored after it has run must continue exactly as it did
     the first time. Regression test for the kernel's per-cycle cell
     summaries: they are stamped with [Clock.uid], which a restore bumps.
     Keyed on [Clock.now], which a restore rewinds, a summary stamped in the
     first run's cycle c would be trusted when the rerun reaches c again
     and veto port orders that are legal. A snapshot late in the run leaves
     most of the tail's cells stamped, so each point below must match. *)
  let prog = Spec_kernels.find "smoke" ~scale:1 in
  let mk () = Machine.create (Machine.Out_of_order Ooo.Config.riscyoo_b) prog in
  let cold = finish (mk ()) in
  List.iter
    (fun back ->
      let at = cold.f_cycles - back in
      let m = mk () in
      let o = Machine.run ~max_cycles:at m in
      Alcotest.(check bool) "still running at the snapshot point" true o.Machine.timed_out;
      let img = Machine.snapshot m in
      let first = finish m in
      Machine.restore m img;
      let again = finish m in
      let name = Printf.sprintf "restore at F-%d" back in
      check_fingerprint (name ^ ", first run") cold first;
      check_fingerprint (name ^ ", rerun") first again)
    [ 1; 5; 50; 500; 5_000 ]

let test_snapshot_stats () =
  (* counters travel with the image: after restore, stats match *)
  let prog = Spec_kernels.find "gcc" ~scale:1 in
  let mk () = Machine.create (Machine.Out_of_order small_cfg) prog in
  let a = mk () in
  ignore (Machine.run ~max_cycles:2_000 a);
  let img = Machine.snapshot a in
  let b = mk () in
  Machine.restore b img;
  Alcotest.(check int) "instret after restore" (Machine.instrs a) (Machine.instrs b);
  Alcotest.(check int)
    "a committed counter after restore"
    (Machine.find_stat a "c0.instrs")
    (Machine.find_stat b "c0.instrs")

let suite =
  let t = Alcotest.test_case in
  [
    t "round trip: gcc on 1 core" `Quick test_roundtrip_smoke;
    t "round trip: gshare and bimodal predictors" `Quick test_roundtrip_predictors;
    t "round trip: blackscholes on quad (fast path and stripped)" `Slow test_roundtrip_quad;
    t "round trip: in-order and golden kinds" `Quick test_roundtrip_inorder_golden;
    t "round trip: cosim + paging" `Slow test_roundtrip_cosim_paging;
    t "rejects corrupt and mismatched images" `Quick test_rejects_bad_images;
    t "restore onto a machine after it has run" `Quick test_restore_after_run;
    t "stats travel with the image" `Quick test_snapshot_stats;
  ]
