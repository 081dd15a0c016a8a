(* Epoch execution (lookahead windows): partitions free-run up to the
   derived lookahead bound between synchronizations, and the results at a
   given window length must be bit-identical at any --jobs — cycle count,
   per-hart exits, instret, every rule's fire count and the canonical
   stats-JSON bytes all agree. Also the guard rails: the epoch-mode
   partition audit runs clean on the real machine, an overstated lookahead
   declaration is caught (not silently trusted), and snapshot/restore at a
   window boundary continues bit-identically. *)

open Workloads

let i64 = Alcotest.testable (Fmt.fmt "%Ld") Int64.equal

(* 16-core machine shrunk to test size: tiny private L1s, a 4-bank L2. *)
let mem16 = { Test_multicore.small_mem with Mem.Mem_sys.l2_banks = 4 }
let cfg16 mm = { (Ooo.Config.multicore16 mm) with Ooo.Config.mem = mem16 }

(* Everything observable, including the serialized counter export — two
   runs agree exactly when these five components agree. *)
let fingerprint ?(ncores = 16) ?(budget = 6_000_000) ~jobs ~mode ~epoch cfg prog =
  let m = Machine.create ~ncores ~mode ~jobs ~epoch (Machine.Out_of_order cfg) prog in
  if epoch <> 1 then
    Alcotest.(check bool) "epoch engine engaged" true (Machine.epoch_length m > 1);
  let o = Machine.run ~max_cycles:budget m in
  Alcotest.(check bool) "epoch run completes" false o.Machine.timed_out;
  let stats =
    Obs.Stats_json.to_string ~cycles:o.Machine.cycles ~instrs:(Machine.instrs m)
      ~stats:(Machine.stats m) ()
  in
  (o.Machine.cycles, Array.to_list o.Machine.exits, Machine.instrs m,
   Test_sched.fired_counts m, stats)

let check_equiv name (c1, x1, i1, f1, s1) (c2, x2, i2, f2, s2) =
  Alcotest.(check int) (name ^ ": cycles identical") c1 c2;
  Alcotest.(check (list i64)) (name ^ ": exits identical") x1 x2;
  Alcotest.(check int) (name ^ ": instret identical") i1 i2;
  Alcotest.(check (list (pair string string))) (name ^ ": per-rule fires identical") f1 f2;
  Alcotest.(check string) (name ^ ": stats json bytes identical") s1 s2

(* The tentpole invariant: a 16-core PARSEC-shaped run at the full derived
   window (epoch 0 = auto) is bit-identical at --jobs 1, 4 and 8, under
   both the deterministic Multi schedule and a shuffled one. *)
let test_identity_16core () =
  let prog = Parsec_kernels.find "blackscholes" ~harts:16 ~scale:1 in
  let cfg = cfg16 Ooo.Config.WMM in
  List.iter
    (fun (mname, mode) ->
      let j1 = fingerprint ~jobs:1 ~mode ~epoch:0 cfg prog in
      let j4 = fingerprint ~jobs:4 ~mode ~epoch:0 cfg prog in
      let j8 = fingerprint ~jobs:8 ~mode ~epoch:0 cfg prog in
      check_equiv (Printf.sprintf "blackscholes-x16/%s jobs 1-vs-4" mname) j1 j4;
      check_equiv (Printf.sprintf "blackscholes-x16/%s jobs 1-vs-8" mname) j1 j8)
    [ ("multi", Cmd.Sim.Multi); ("shuffle", Cmd.Sim.Shuffle 20260808) ]

(* Same invariant under AMO contention: every hart hammers one shared line
   through the banked L2. *)
let test_identity_16core_amo () =
  let prog = Test_multicore.shared_counter_kernel ~harts:16 ~iters:4 in
  let cfg = cfg16 Ooo.Config.TSO in
  let j1 = fingerprint ~jobs:1 ~mode:Cmd.Sim.Multi ~epoch:0 cfg prog in
  let j8 = fingerprint ~jobs:8 ~mode:Cmd.Sim.Multi ~epoch:0 cfg prog in
  check_equiv "counter-x16/multi jobs 1-vs-8" j1 j8

(* Epoch length is a timing model, not a semantics change: architectural
   results (per-hart exit values) match the per-cycle engine. Cycle counts
   may differ — uncore-to-core responses quantize to window boundaries —
   so only the architecture is compared. *)
let test_epoch_architectural () =
  let prog = Parsec_kernels.find "blackscholes" ~harts:16 ~scale:1 in
  let cfg = cfg16 Ooo.Config.WMM in
  let _, x1, _, _, _ = fingerprint ~jobs:1 ~mode:Cmd.Sim.Multi ~epoch:1 cfg prog in
  let _, xe, _, _, _ = fingerprint ~jobs:1 ~mode:Cmd.Sim.Multi ~epoch:0 cfg prog in
  Alcotest.(check (list i64)) "exits match the per-cycle engine" x1 xe

(* The epoch-mode partition audit runs clean on the real machine: window
   free-runs, boundary-FIFO exemptions and the per-window access masks
   together accept a legal design. *)
let test_epoch_audit_clean () =
  let prog = Test_multicore.lock_kernel ~harts:4 ~iters:10 in
  let cfg = { (Ooo.Config.multicore Ooo.Config.TSO) with Ooo.Config.mem = mem16 } in
  let m =
    Machine.create ~ncores:4 ~epoch:0 ~partition_audit:true (Machine.Out_of_order cfg) prog
  in
  Alcotest.(check bool) "audited epoch machine uses windows" true (Machine.epoch_length m > 1);
  let o = Machine.run ~max_cycles:2_000_000 m in
  Alcotest.(check bool) "audited epoch run completes" false o.Machine.timed_out

(* Negative: declare more lookahead than the memory system guarantees
   (override 16 against a 1-cycle L2) and the audit must refuse the first
   response that beats the declared floor, rather than let partitions
   free-run past a visible effect. *)
let test_lookahead_audit_negative () =
  let mem =
    { mem16 with Mem.Mem_sys.l2_latency = 1; l2_banks = 1; lookahead_override = Some 16 }
  in
  let cfg = { (Ooo.Config.multicore Ooo.Config.TSO) with Ooo.Config.mem = mem } in
  let prog = Test_multicore.shared_counter_kernel ~harts:2 ~iters:4 in
  let m =
    Machine.create ~ncores:2 ~epoch:0 ~partition_audit:true (Machine.Out_of_order cfg) prog
  in
  let contains hay needle =
    let n = String.length needle and m = String.length hay in
    let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  match Machine.run ~max_cycles:2_000_000 m with
  | exception Cmd.Sim.Audit_fail msg ->
    Alcotest.(check bool) ("audit names the lookahead floor: " ^ msg) true
      (contains msg "lookahead")
  | _ -> Alcotest.fail "overstated lookahead declaration not caught by the epoch audit"

(* Snapshot at a window boundary, restore into a fresh epoch machine (at a
   different --jobs), continue: bit-identical to the uninterrupted run. *)
let test_epoch_snapshot_restore () =
  let prog = Parsec_kernels.find "blackscholes" ~harts:4 ~scale:1 in
  let cfg = { (Ooo.Config.multicore Ooo.Config.WMM) with Ooo.Config.mem = mem16 } in
  let mk ~jobs = Machine.create ~ncores:4 ~jobs ~epoch:0 (Machine.Out_of_order cfg) prog in
  let a = mk ~jobs:1 in
  let o = Machine.run ~max_cycles:2_000 a in
  Alcotest.(check bool) "still running at snapshot point" true o.Machine.timed_out;
  let img = Machine.snapshot a in
  let finish m =
    let o = Machine.run ~max_cycles:6_000_000 m in
    Alcotest.(check bool) "continuation completes" false o.Machine.timed_out;
    (o.Machine.cycles, Array.to_list o.Machine.exits, Machine.instrs m,
     Test_sched.fired_counts m)
  in
  let fa = finish a in
  let b = mk ~jobs:4 in
  Machine.restore b img;
  let fb = finish b in
  let (c1, x1, i1, f1) = fa and (c2, x2, i2, f2) = fb in
  Alcotest.(check int) "restored: cycles" c1 c2;
  Alcotest.(check (list i64)) "restored: exits" x1 x2;
  Alcotest.(check int) "restored: instret" i1 i2;
  Alcotest.(check (list (pair string string))) "restored: per-rule fires" f1 f2

(* The watchdog's history ring is rebuilt at every window close from the
   per-rule fire masks, whatever the engine, and must read the same
   (cycle, fired names) list under each. Walk the whole run in chunks
   short enough that the 32-cycle ring never wraps between looks, folding
   every entry into one digest. *)
let history_fingerprint m =
  let chunk = 32 - Machine.epoch_length m in
  let seen = ref (-1) and fires = ref 0 and acc = ref (Digest.string "") in
  let rec go () =
    let o = Machine.run ~max_cycles:chunk m in
    List.iter
      (fun (c, names) ->
        if c > !seen then begin
          Alcotest.(check int) "ring entries are consecutive cycles" (!seen + 1) c;
          seen := c;
          fires := !fires + List.length names;
          acc := Digest.string (!acc ^ string_of_int c ^ ":" ^ String.concat " " names)
        end)
      (Machine.history m);
    if o.Machine.timed_out then go () else o.Machine.cycles
  in
  let cycles = go () in
  Alcotest.(check int) "every cycle recorded" cycles (!seen + 1);
  Alcotest.(check bool) "rules fired" true (!fires > 0);
  Digest.to_hex !acc

let test_history_identity () =
  let quad = { (Ooo.Config.multicore Ooo.Config.WMM) with Ooo.Config.mem = mem16 } in
  let prog = Parsec_kernels.find "blackscholes" ~harts:4 ~scale:1 in
  let mk ?(compile = true) ~jobs ~epoch ~ncores cfg prog =
    Machine.create ~ncores ~jobs ~compile ~epoch ~watchdog:max_int (Machine.Out_of_order cfg) prog
  in
  let compiled = mk ~jobs:1 ~epoch:1 ~ncores:4 quad prog in
  Alcotest.(check bool) "serial run compiled" true (Machine.compiled compiled);
  let interpreted = mk ~compile:false ~jobs:1 ~epoch:1 ~ncores:4 quad prog in
  let par = mk ~jobs:2 ~epoch:1 ~ncores:4 quad prog in
  Alcotest.(check bool) "jobs 2 runs on the pool" true (Machine.parallel par);
  let h = history_fingerprint compiled in
  Alcotest.(check string) "quad: compile:false" h (history_fingerprint interpreted);
  Alcotest.(check string) "quad: jobs 2, E = 1" h (history_fingerprint par);
  let prog = Test_multicore.shared_counter_kernel ~harts:16 ~iters:4 in
  let j1 = mk ~jobs:1 ~epoch:0 ~ncores:16 (cfg16 Ooo.Config.TSO) prog in
  let j2 = mk ~jobs:2 ~epoch:0 ~ncores:16 (cfg16 Ooo.Config.TSO) prog in
  Alcotest.(check bool) "16-core: windows" true (Machine.epoch_length j1 > 1);
  Alcotest.(check string) "16-core: jobs 1 vs jobs 2, E = auto" (history_fingerprint j1)
    (history_fingerprint j2)

let suite =
  [
    Alcotest.test_case "16-core epoch identity across jobs (multi/shuffle)" `Slow
      test_identity_16core;
    Alcotest.test_case "16-core epoch identity under AMO contention" `Slow
      test_identity_16core_amo;
    Alcotest.test_case "epoch length changes timing, not architecture" `Slow
      test_epoch_architectural;
    Alcotest.test_case "epoch-mode partition audit clean" `Slow test_epoch_audit_clean;
    Alcotest.test_case "overstated lookahead caught by audit" `Quick
      test_lookahead_audit_negative;
    Alcotest.test_case "snapshot/restore at window boundary" `Slow test_epoch_snapshot_restore;
    Alcotest.test_case "history ring identical across engines" `Slow test_history_identity;
  ]
