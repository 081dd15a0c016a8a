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

(* Regression: [shutdown_pool] used to leave the interrupted generation's
   task queue behind, and the first worker of the respawned pool would claim
   a stale task — a cached per-cycle step closure of a machine that may have
   been mutated or discarded since. The shutdown now clears the queue, so
   tearing the pool down at any point between runs must neither disturb a
   live compiled sim's cached closures nor leak work into the next parallel
   generation. *)
let test_pool_shutdown_compiled_steps () =
  let run_with ~interrupt =
    let clk = Clock.create () in
    let e = Ehr.create ~name:"ps" 0 in
    let bump =
      Rule.make "bump"
        ~fp:[ Ehr.fp e ~label:"bump" [ (false, 0); (true, 0) ] ]
        (fun ctx -> Ehr.write ctx e 0 (Ehr.read ctx e 0 + 1))
    in
    let sim = Sim.create clk [ bump ] in
    Alcotest.(check bool) "synthetic sim compiled" true (Sim.compiled sim);
    Sim.run sim 60;
    if interrupt then begin
      (* put real work through the pool, then kill it mid-session *)
      let t = make_toy ~jobs:4 2 in
      Sim.run t.sim 20;
      Sim.shutdown_pool ()
    end;
    (* the compiled sim keeps stepping through its cached closures *)
    Sim.run sim 40;
    Ehr.peek e
  in
  let clean = run_with ~interrupt:false in
  let interrupted = run_with ~interrupt:true in
  Alcotest.(check int) "compiled sim unaffected by pool shutdown" clean interrupted;
  Alcotest.(check int) "compiled rule fired every cycle" 100 interrupted;
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
    Alcotest.test_case "pool shutdown leaves compiled steps intact" `Quick
      test_pool_shutdown_compiled_steps;
    Alcotest.test_case "worker pool survives shutdown/restart" `Quick test_pool_restart;
  ]
