(* Partitioned parallel execution: synthetic Sim-level checks plus
   parallel-vs-serial equivalence over the multicore machine kernels. *)

open Cmd

(* A tiny two-"core" + uncore design built only from Cmd primitives: each
   core counts locally in an EHR and streams its count into a cf FIFO; the
   uncore drains both queues into an accumulator EHR. All cross-partition
   traffic is conflict-free, so parallel execution must be bit-identical. *)
type toy = {
  clk : Clock.t;
  sim : Sim.t;
  acc : int Ehr.t;
  locals : int Ehr.t array;
}

let make_toy ?(jobs = 1) ?(mode = Sim.Multi) ?(partition_audit = false) ncores =
  let clk = Clock.create () in
  let qs =
    Array.init ncores (fun i ->
        Partition.scoped (i + 1) (fun () ->
            Fifo.cf ~name:(Printf.sprintf "c%d.q" i) clk ~capacity:4 ()))
  in
  let locals =
    Array.init ncores (fun i ->
        Partition.scoped (i + 1) (fun () ->
            Ehr.create ~name:(Printf.sprintf "c%d.n" i) 0))
  in
  let acc = Ehr.create ~name:"acc" 0 in
  let core_rules =
    List.concat
      (List.init ncores (fun i ->
           Partition.scoped (i + 1) (fun () ->
               [
                 Rule.make
                   ~touches:[ Fifo.enq_token qs.(i) ]
                   (Printf.sprintf "c%d.count" i)
                   (fun ctx ->
                     let v = Ehr.read ctx locals.(i) 0 in
                     Ehr.write ctx locals.(i) 0 (v + 1);
                     Fifo.enq ctx qs.(i) (v + 1));
               ])))
  in
  let uncore =
    Rule.make ~vacuous:true
      ~touches:(Array.to_list (Array.map Fifo.deq_token qs))
      "uncore.drain"
      (fun ctx ->
        let got = ref 0 in
        Array.iter
          (fun q ->
            match Kernel.attempt ctx (fun ctx -> Fifo.deq ctx q) with
            | Some v -> got := !got + v
            | None -> ())
          qs;
        if !got > 0 then Ehr.write ctx acc 0 (Ehr.read ctx acc 0 + !got))
  in
  let sim = Sim.create ~mode ~jobs ~partition_audit clk (core_rules @ [ uncore ]) in
  { clk; sim; acc; locals }

let toy_fingerprint t n =
  Sim.run t.sim n;
  ( Ehr.peek t.acc,
    Array.to_list (Array.map Ehr.peek t.locals),
    Sim.total_fires t.sim,
    List.map (fun (r : Rule.t) -> (r.name, r.fired, r.guard_failed, r.conflicted)) (Sim.rules t.sim)
  )

let test_toy_equiv () =
  List.iter
    (fun mode ->
      let serial = toy_fingerprint (make_toy ~jobs:1 ~mode 3) 500 in
      let par = toy_fingerprint (make_toy ~jobs:4 ~mode 3) 500 in
      Alcotest.(check bool) "parallel toy == serial toy" true (serial = par))
    [ Sim.Multi; Sim.Shuffle 42; Sim.One_per_cycle ]

let test_toy_parallel_active () =
  let t = make_toy ~jobs:4 3 in
  Alcotest.(check bool) "parallel path active at jobs=4" true (Sim.parallel t.sim);
  let s = make_toy ~jobs:1 3 in
  Alcotest.(check bool) "serial path at jobs=1" false (Sim.parallel s.sim)

(* Static checker: a ring FIFO is one primitive; rules in two different
   parallel partitions declaring it must be rejected at Sim.create. *)
let test_checker_rejects_shared_fifo () =
  let clk = Clock.create () in
  let q = Fifo.pipeline ~name:"shared" ~capacity:2 () in
  let r1 =
    Partition.scoped 1 (fun () ->
        Rule.make ~touches:[ Fifo.enq_token q ] "p1.enq" (fun ctx -> Fifo.enq ctx q 1))
  in
  let r2 =
    Partition.scoped 2 (fun () ->
        Rule.make ~touches:[ Fifo.deq_token q ] "p2.deq" (fun ctx -> ignore (Fifo.deq ctx q)))
  in
  Alcotest.check_raises "shared ring FIFO rejected"
    (Sim.Partition_error
       "primitive shared is touched from partition 1 (rule p1.enq) and partition 2 (rule p2.deq, token shared); only the two sides of a conflict-free FIFO may cross a partition boundary")
    (fun () -> ignore (Sim.create ~jobs:2 clk [ r1; r2 ]))

let test_checker_rejects_foreign_watch () =
  let clk = Clock.create () in
  let sg = Partition.scoped 2 (fun () -> Wakeup.make ()) in
  let r =
    Partition.scoped 1 (fun () ->
        Rule.make ~can_fire:(fun () -> false) ~watches:[ sg ] "p1.watcher" (fun _ -> ()))
  in
  match Sim.create ~jobs:2 clk [ r ] with
  | exception Sim.Partition_error _ -> ()
  | _ -> Alcotest.fail "foreign watch accepted"

(* Partition audit, positive: the legal toy runs clean. *)
let test_audit_clean () =
  let t = make_toy ~jobs:1 ~partition_audit:true 3 in
  Sim.run t.sim 500;
  Alcotest.(check bool) "audited toy ran" true (Sim.cycles t.sim = 500)

(* Partition audit, negative: two partitions write the same (undeclared)
   EHR — the static checker cannot see it, the audit must. *)
let test_audit_catches_overlap () =
  let clk = Clock.create () in
  let shared = Ehr.create ~name:"sneaky" 0 in
  let mk p =
    Partition.scoped p (fun () ->
        Rule.make
          (Printf.sprintf "p%d.bump" p)
          (fun ctx -> Ehr.write ctx shared 0 (Ehr.read ctx shared 0 + 1)))
  in
  let sim = Sim.create ~partition_audit:true clk [ mk 1; mk 2 ] in
  match Sim.run sim 2 with
  | exception Kernel.Partition_overlap _ -> ()
  | _ -> Alcotest.fail "cross-partition EHR write not caught by audit"

(* Stats sharding: increments from parallel rule bodies land in shards and
   merge to the same totals as serial execution. *)
let test_stats_shards () =
  let totals jobs =
    let clk = Clock.create () in
    let stats = Stats.create () in
    let c = Stats.counter stats "events" in
    let qs =
      Array.init 2 (fun i ->
          Partition.scoped (i + 1) (fun () ->
              Fifo.cf ~name:(Printf.sprintf "s%d.q" i) clk ~capacity:2 ()))
    in
    let rules =
      List.concat
        (List.init 2 (fun i ->
             Partition.scoped (i + 1) (fun () ->
                 [
                   Rule.make
                     ~touches:[ Fifo.enq_token qs.(i) ]
                     (Printf.sprintf "s%d.produce" i)
                     (fun ctx ->
                       Stats.incr ~ctx c;
                       Fifo.enq ctx qs.(i) i);
                 ])))
      @ [
          Rule.make ~vacuous:true
            ~touches:(Array.to_list (Array.map Fifo.deq_token qs))
            "drain"
            (fun ctx ->
              Array.iter
                (fun q ->
                  ignore (Kernel.attempt ctx (fun ctx -> Fifo.deq ctx q)))
                qs);
        ]
    in
    let sim = Sim.create ~jobs ~stats clk rules in
    Sim.run sim 200;
    Stats.find stats "events"
  in
  let s = totals 1 and p = totals 4 in
  Alcotest.(check int) "sharded counter total" s p;
  Alcotest.(check bool) "counter counted" true (s > 0)

(* ---------------------------------------------------------------- *)
(* Full-machine equivalence: jobs=4 vs jobs=1 on the multicore kernels *)
(* ---------------------------------------------------------------- *)

open Workloads

let i64 = Alcotest.testable (Fmt.fmt "%Ld") Int64.equal

let mc_cfg = { (Ooo.Config.multicore Ooo.Config.TSO) with Ooo.Config.mem = Test_multicore.small_mem }

(* Everything observable: cycle count, every hart's exit value, committed
   instructions, and the per-rule fire counts from the scheduler report. *)
let mc_fingerprint ~jobs ~mode ?(ncores = 4) ?(budget = 2_000_000) prog =
  let m = Machine.create ~ncores ~mode ~jobs (Machine.Out_of_order mc_cfg) prog in
  Alcotest.(check bool) "parallel path matches jobs/mode" (jobs > 1 && mode <> Sim.One_per_cycle)
    (Machine.parallel m);
  let o = Machine.run ~max_cycles:budget m in
  Alcotest.(check bool) "machine run completes" false o.Machine.timed_out;
  (o.Machine.cycles, Array.to_list o.Machine.exits, Machine.instrs m, Test_sched.fired_counts m)

let check_mc_equiv name (c1, x1, i1, f1) (c2, x2, i2, f2) =
  Alcotest.(check int) (name ^ ": cycles identical") c1 c2;
  Alcotest.(check (list i64)) (name ^ ": exits identical") x1 x2;
  Alcotest.(check int) (name ^ ": instret identical") i1 i2;
  Alcotest.(check (list (pair string string))) (name ^ ": per-rule fire counts identical") f1 f2

let test_machine_equiv () =
  List.iter
    (fun (kname, prog) ->
      List.iter
        (fun (mname, mode) ->
          let serial = mc_fingerprint ~jobs:1 ~mode prog in
          let par = mc_fingerprint ~jobs:4 ~mode prog in
          check_mc_equiv (Printf.sprintf "%s/%s" kname mname) serial par)
        [ ("multi", Sim.Multi); ("shuffle", Sim.Shuffle 20260807) ])
    [
      ("counter", Test_multicore.shared_counter_kernel ~harts:4 ~iters:25);
      ("lock", Test_multicore.lock_kernel ~harts:4 ~iters:20);
    ]

(* Single-core smoke under paging: partitions are just core 1 + uncore, the
   thinnest possible parallel split. *)
let test_smoke_equiv () =
  let prog = Spec_kernels.find "smoke" ~scale:1 in
  let fp jobs =
    let m =
      Machine.create ~paging:true ~jobs (Machine.Out_of_order Ooo.Config.riscyoo_b) prog
    in
    Alcotest.(check bool) "smoke parallel path" (jobs > 1) (Machine.parallel m);
    let o = Machine.run ~max_cycles:1_000_000 m in
    Alcotest.(check bool) "smoke completes" false o.Machine.timed_out;
    (o.Machine.cycles, Array.to_list o.Machine.exits, Machine.instrs m, Test_sched.fired_counts m)
  in
  List.iter
    (fun j -> check_mc_equiv (Printf.sprintf "smoke/jobs%d" j) (fp 1) (fp j))
    [ 2; 4 ]

(* One_per_cycle falls back to serial execution even at jobs=4; check the
   fall-back really is bit-identical on a smaller run. *)
let test_machine_equiv_opc () =
  let prog = Test_multicore.shared_counter_kernel ~harts:2 ~iters:5 in
  let serial = mc_fingerprint ~jobs:1 ~mode:Sim.One_per_cycle ~ncores:2 ~budget:20_000_000 prog in
  let par = mc_fingerprint ~jobs:4 ~mode:Sim.One_per_cycle ~ncores:2 ~budget:20_000_000 prog in
  check_mc_equiv "counter/one-per-cycle" serial par

(* The real processor's partition tagging is sound: a full audited run over
   the quad-core lock kernel and the single-core smoke kernel records every
   EHR/FIFO/wire touch per partition and finds no undeclared overlap. *)
let test_machine_audit_clean () =
  let prog = Test_multicore.lock_kernel ~harts:4 ~iters:20 in
  let m = Machine.create ~ncores:4 ~partition_audit:true (Machine.Out_of_order mc_cfg) prog in
  let o = Machine.run ~max_cycles:2_000_000 m in
  Alcotest.(check bool) "audited quad-core run completes" false o.Machine.timed_out;
  let smoke = Spec_kernels.find "smoke" ~scale:1 in
  let m =
    Machine.create ~paging:true ~partition_audit:true (Machine.Out_of_order Ooo.Config.riscyoo_b)
      smoke
  in
  let o = Machine.run ~max_cycles:1_000_000 m in
  Alcotest.(check bool) "audited smoke run completes" false o.Machine.timed_out

let test_machine_equiv_inorder () =
  let prog = Test_multicore.shared_counter_kernel ~harts:2 ~iters:30 in
  let fp jobs =
    let m =
      Machine.create ~ncores:2 ~jobs
        (Machine.In_order { mem = Test_multicore.small_mem; tlb = Tlb.Tlb_sys.blocking_config })
        prog
    in
    let o = Machine.run ~max_cycles:2_000_000 m in
    Alcotest.(check bool) "in-order run completes" false o.Machine.timed_out;
    (o.Machine.cycles, Array.to_list o.Machine.exits, Machine.instrs m, Test_sched.fired_counts m)
  in
  check_mc_equiv "inorder/multi" (fp 1) (fp 4)

(* 16-core machine shrunk to test size: tiny private L1s, a 4-bank L2. *)
let mem16 = { Test_multicore.small_mem with Mem.Mem_sys.l2_banks = 4 }
let cfg16 mm = { (Ooo.Config.multicore16 mm) with Ooo.Config.mem = mem16 }

(* Everything observable, including the serialized counter export — two
   runs agree exactly when these five components agree. *)
let full_fingerprint ~jobs ~mode cfg prog =
  let m = Machine.create ~ncores:16 ~mode ~jobs (Machine.Out_of_order cfg) prog in
  let o = Machine.run ~max_cycles:6_000_000 m in
  Alcotest.(check bool) "run completes" false o.Machine.timed_out;
  let stats =
    Obs.Stats_json.to_string ~cycles:o.Machine.cycles ~instrs:(Machine.instrs m)
      ~stats:(Machine.stats m) ()
  in
  (o.Machine.cycles, Array.to_list o.Machine.exits, Machine.instrs m,
   Test_sched.fired_counts m, stats)

let check_full_equiv name (c1, x1, i1, f1, s1) (c2, x2, i2, f2, s2) =
  check_mc_equiv name (c1, x1, i1, f1) (c2, x2, i2, f2);
  Alcotest.(check string) (name ^ ": stats json bytes identical") s1 s2

(* A 16-core PARSEC-shaped run with banked L2 partitions is bit-identical
   at --jobs 1, 4 and 8, under both the deterministic Multi schedule and a
   shuffled one. *)
let test_identity_16core () =
  let prog = Parsec_kernels.find "blackscholes" ~harts:16 ~scale:1 in
  let cfg = cfg16 Ooo.Config.WMM in
  List.iter
    (fun (mname, mode) ->
      let j1 = full_fingerprint ~jobs:1 ~mode cfg prog in
      let j4 = full_fingerprint ~jobs:4 ~mode cfg prog in
      let j8 = full_fingerprint ~jobs:8 ~mode cfg prog in
      check_full_equiv (Printf.sprintf "blackscholes-x16/%s jobs 1-vs-4" mname) j1 j4;
      check_full_equiv (Printf.sprintf "blackscholes-x16/%s jobs 1-vs-8" mname) j1 j8)
    [ ("multi", Sim.Multi); ("shuffle", Sim.Shuffle 20260808) ]

(* Same invariant under AMO contention: every hart hammers one shared line
   through the banked L2. *)
let test_identity_16core_amo () =
  let prog = Test_multicore.shared_counter_kernel ~harts:16 ~iters:4 in
  let cfg = cfg16 Ooo.Config.TSO in
  let j1 = full_fingerprint ~jobs:1 ~mode:Sim.Multi cfg prog in
  let j8 = full_fingerprint ~jobs:8 ~mode:Sim.Multi cfg prog in
  check_full_equiv "counter-x16/multi jobs 1-vs-8" j1 j8

(* Snapshot a serial run mid-flight, restore into a fresh machine at a
   different --jobs, continue: bit-identical to the uninterrupted run. *)
let test_snapshot_across_jobs () =
  let prog = Parsec_kernels.find "blackscholes" ~harts:4 ~scale:1 in
  let cfg = { (Ooo.Config.multicore Ooo.Config.WMM) with Ooo.Config.mem = mem16 } in
  let mk ~jobs = Machine.create ~ncores:4 ~jobs (Machine.Out_of_order cfg) prog in
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
  Alcotest.(check bool) "restored machine runs on the pool" true (Machine.parallel b);
  Machine.restore b img;
  check_mc_equiv "restored" fa (finish b)

(* The watchdog's history ring is rebuilt at every cycle close from the
   per-rule fire marks, whatever the engine, and must read the same
   (cycle, fired names) list under each. Walk the whole run in chunks
   short enough that the 32-cycle ring never wraps between looks, folding
   every entry into one digest. *)
let history_fingerprint m =
  let seen = ref (-1) and fires = ref 0 and acc = ref (Digest.string "") in
  let rec go () =
    let o = Machine.run ~max_cycles:31 m in
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
  let mk ~jobs ~ncores cfg prog =
    Machine.create ~ncores ~jobs ~watchdog:max_int (Machine.Out_of_order cfg) prog
  in
  let serial = mk ~jobs:1 ~ncores:4 quad prog in
  let par = mk ~jobs:2 ~ncores:4 quad prog in
  Alcotest.(check bool) "jobs 2 runs on the pool" true (Machine.parallel par);
  Alcotest.(check string) "quad: jobs 2" (history_fingerprint serial) (history_fingerprint par);
  let prog = Test_multicore.shared_counter_kernel ~harts:16 ~iters:4 in
  let j1 = mk ~jobs:1 ~ncores:16 (cfg16 Ooo.Config.TSO) prog in
  let j2 = mk ~jobs:2 ~ncores:16 (cfg16 Ooo.Config.TSO) prog in
  Alcotest.(check string) "16-core: jobs 1 vs jobs 2" (history_fingerprint j1)
    (history_fingerprint j2)

(* The window is one cycle: [~epoch] accepts only 0 and 1 (both mean one
   cycle) and refuses anything longer. [~epoch:0] keeps the partition
   groups at jobs 1, so every rule counter — fast-path skips included —
   matches a parallel run. [~compile], the other benchmark pin, is
   accepted and changes nothing. *)
let test_epoch_pin () =
  let prog = Test_multicore.shared_counter_kernel ~harts:4 ~iters:5 in
  let mk ?compile ?(jobs = 1) epoch =
    Machine.create ~ncores:4 ?compile ~jobs ~epoch (Machine.Out_of_order mc_cfg) prog
  in
  List.iter
    (fun e -> Alcotest.(check int) "one-cycle window" 1 (Machine.epoch_length (mk e)))
    [ 0; 1 ];
  (match mk 2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Machine.create ~epoch:2 accepted");
  let counters m =
    let o = Machine.run ~max_cycles:2_000_000 m in
    Alcotest.(check bool) "run completes" false o.Machine.timed_out;
    List.map
      (fun (r : Rule.t) -> (r.name, [ r.fired; r.guard_failed; r.conflicted; r.skipped ]))
      (Machine.rule_list m)
  in
  let grouped = mk 0 in
  Alcotest.(check bool) "grouped jobs 1 stays off the pool" false (Machine.parallel grouped);
  let par = counters (mk ~jobs:2 0) in
  Alcotest.(check (list (pair string (list int))))
    "epoch 0: jobs 1 rule counters == jobs 2" par (counters grouped);
  Alcotest.(check (list (pair string (list int))))
    "epoch 0, compile:false: rule counters == jobs 2" par (counters (mk ~compile:false 0))

(* Regression: [shutdown_pool] used to leave the interrupted generation's
   task queue behind, and the first worker of the respawned pool would claim
   a stale task — a cached per-cycle step closure of a machine that may have
   been mutated or discarded since. The shutdown now clears the queue, so
   tearing the pool down at any point between runs must neither disturb a
   live serial sim's compiled steps (its per-rule runners, built once at
   elaboration) nor leak work into the next parallel generation. *)
let test_pool_shutdown_compiled_steps () =
  let run_with ~interrupt =
    let clk = Clock.create () in
    let e = Ehr.create ~name:"ps" 0 in
    let bump = Rule.make "bump" (fun ctx -> Ehr.write ctx e 0 (Ehr.read ctx e 0 + 1)) in
    let sim = Sim.create clk [ bump ] in
    Sim.run sim 60;
    if interrupt then begin
      (* put real work through the pool, then kill it mid-session *)
      let t = make_toy ~jobs:4 2 in
      Sim.run t.sim 20;
      Sim.shutdown_pool ()
    end;
    (* the serial sim keeps stepping through its cached runners *)
    Sim.run sim 40;
    Ehr.peek e
  in
  let clean = run_with ~interrupt:false in
  let interrupted = run_with ~interrupt:true in
  Alcotest.(check int) "serial sim unaffected by pool shutdown" clean interrupted;
  Alcotest.(check int) "rule fired every cycle" 100 interrupted;
  (* and the respawned pool starts from a blank slate: no stale task runs,
     the next parallel generation computes exactly a fresh toy's result *)
  let fresh = toy_fingerprint (make_toy ~jobs:4 2) 50 in
  Sim.shutdown_pool ();
  let after = toy_fingerprint (make_toy ~jobs:4 2) 50 in
  Alcotest.(check bool) "restarted pool == fresh pool" true (fresh = after)

(* Last test: tear the worker pool down (so later suites in this binary are
   not taxed by idle domains) and prove it respawns for another parallel run. *)
let test_pool_restart () =
  Sim.shutdown_pool ();
  let t = make_toy ~jobs:4 2 in
  Sim.run t.sim 50;
  Alcotest.(check bool) "parallel run works after pool shutdown" true (Ehr.peek t.acc > 0);
  Sim.shutdown_pool ()

(* Two machines built and run at the same time on two domains equal the
   same machines built one after the other: each machine's undo trail and
   cell-id table are its own, so concurrent builds cannot mix them up. A
   start barrier makes the two builds overlap. *)
let test_concurrent_builds () =
  let smoke () =
    let prog = Spec_kernels.find "smoke" ~scale:1 in
    let m = Machine.create ~paging:true (Machine.Out_of_order Ooo.Config.riscyoo_b) prog in
    let o = Machine.run ~max_cycles:1_000_000 m in
    (o.Machine.cycles, Array.to_list o.Machine.exits, Machine.instrs m, Test_sched.fired_counts m)
  in
  let quad () =
    mc_fingerprint ~jobs:1 ~mode:Sim.Multi (Test_multicore.lock_kernel ~harts:4 ~iters:10)
  in
  let seq_a = smoke () and seq_b = quad () in
  for round = 1 to 4 do
    let ready = Atomic.make 0 in
    let start f () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      f ()
    in
    let d = Domain.spawn (start quad) in
    let a = start smoke () in
    let b = Domain.join d in
    check_mc_equiv (Printf.sprintf "smoke, concurrent round %d" round) seq_a a;
    check_mc_equiv (Printf.sprintf "lock quad, concurrent round %d" round) seq_b b
  done

(* The same property at the kernel, where it is easiest to break: two
   schedulers on two domains adopt thousands of fresh cells into their
   cell-id tables at the same moment. Each cycle a rule writes every cell
   at port 0 and aborts, and a second rule writes them all again: it can
   only commit if the abort restored every cell's port summary, so a cell
   id that resolved to another scheduler's cell would surface as a
   Conflict_error. *)
let test_concurrent_port_logs () =
  let n = 4000 in
  let run () =
    let clk = Clock.create () in
    let cells = Array.init n (fun _ -> Ehr.create 0) in
    let writes = ref 0 in
    let write_all ctx = Array.iteri (fun i e -> Ehr.write ctx e 0 (i + !writes)) cells in
    let sim =
      Sim.create clk
        [
          Rule.make "abort" (fun ctx ->
              write_all ctx;
              Kernel.guard ctx false "abort");
          Rule.make "commit" (fun ctx ->
              write_all ctx;
              incr writes);
        ]
    in
    Sim.run sim 5;
    !writes
  in
  for _ = 1 to 20 do
    let ready = Atomic.make 0 in
    let start () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      run ()
    in
    let d = Domain.spawn start in
    let a = start () in
    let b = Domain.join d in
    Alcotest.(check (pair int int)) "every commit rule fired" (5, 5) (a, b)
  done

let suite =
  [
    Alcotest.test_case "toy parallel == serial (all modes)" `Quick test_toy_equiv;
    Alcotest.test_case "parallel path engages" `Quick test_toy_parallel_active;
    Alcotest.test_case "checker rejects shared ring FIFO" `Quick test_checker_rejects_shared_fifo;
    Alcotest.test_case "checker rejects foreign watch" `Quick test_checker_rejects_foreign_watch;
    Alcotest.test_case "partition audit clean on legal design" `Quick test_audit_clean;
    Alcotest.test_case "partition audit catches overlap" `Quick test_audit_catches_overlap;
    Alcotest.test_case "stats shards merge to serial totals" `Quick test_stats_shards;
    Alcotest.test_case "machine parallel == serial (multi/shuffle)" `Slow test_machine_equiv;
    Alcotest.test_case "smoke parallel == serial (jobs 2/4)" `Slow test_smoke_equiv;
    Alcotest.test_case "machine one-per-cycle fallback identical" `Slow test_machine_equiv_opc;
    Alcotest.test_case "machine partition audit clean" `Slow test_machine_audit_clean;
    Alcotest.test_case "in-order machine parallel == serial" `Quick test_machine_equiv_inorder;
    Alcotest.test_case "16-core identity across jobs (multi/shuffle)" `Slow test_identity_16core;
    Alcotest.test_case "16-core identity under AMO contention" `Slow test_identity_16core_amo;
    Alcotest.test_case "snapshot/restore across jobs" `Slow test_snapshot_across_jobs;
    Alcotest.test_case "history ring identical across engines" `Slow test_history_identity;
    Alcotest.test_case "epoch pin: only 0 or 1; 0 keeps groups" `Quick test_epoch_pin;
    Alcotest.test_case "pool shutdown leaves compiled steps intact" `Quick
      test_pool_shutdown_compiled_steps;
    Alcotest.test_case "worker pool survives shutdown/restart" `Quick test_pool_restart;
    Alcotest.test_case "concurrent machine builds on two domains" `Quick test_concurrent_builds;
    Alcotest.test_case "concurrent port logs on two domains" `Quick test_concurrent_port_logs;
  ]
