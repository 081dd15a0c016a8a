(* The simulation farm's worker-domain pool ([Sim.pool_run]) and the
   domain-safety it relies on: machines built and run at the same time on
   two domains must not interfere. *)

open Cmd
open Workloads

let fingerprint ?(ncores = 1) ?(paging = false) kind prog =
  let m = Machine.create ~ncores ~paging kind prog in
  let o = Machine.run ~max_cycles:2_000_000 m in
  Alcotest.(check bool) "machine run completes" false o.Machine.timed_out;
  (o.Machine.cycles, Array.to_list o.Machine.exits, Machine.instrs m, Test_sched.rule_counts m)

let check_same name (c1, x1, i1, f1) (c2, x2, i2, f2) =
  Alcotest.(check int) (name ^ ": cycles identical") c1 c2;
  Alcotest.(check (list Test_multicore.i64)) (name ^ ": exits identical") x1 x2;
  Alcotest.(check int) (name ^ ": instret identical") i1 i2;
  Alcotest.(check (list (pair string (pair int int)))) (name ^ ": per-rule fires and aborts identical") f1 f2

(* A batch of independent sims on the pool: every task runs, on whichever
   domain claims it, and writes only its own slot. *)
let batch ~helpers n =
  let out = Array.make n 0 in
  let task i () =
    let clk = Clock.create () in
    let e = Ehr.create ~name:"bump" 0 in
    let sim = Sim.create clk [ Rule.make "bump" (fun ctx -> Ehr.write ctx e 0 (Ehr.read ctx e 0 + 1)) ] in
    Sim.run sim (10 + i);
    out.(i) <- Ehr.peek e
  in
  Sim.pool_run ~helpers (Array.init n task);
  Array.to_list out

(* Tearing the pool down between batches leaves a live sim on the calling
   domain untouched, and the respawned pool starts from a blank slate: the
   next batch computes exactly what a fresh pool does. *)
let test_pool_shutdown_steps () =
  let expect = List.init 8 (fun i -> 10 + i) in
  let run_with ~interrupt =
    let clk = Clock.create () in
    let e = Ehr.create ~name:"serial" 0 in
    let sim = Sim.create clk [ Rule.make "serial" (fun ctx -> Ehr.write ctx e 0 (Ehr.read ctx e 0 + 1)) ] in
    Sim.run sim 60;
    if interrupt then begin
      Alcotest.(check (list int)) "batch on a fresh pool" expect (batch ~helpers:1 8);
      Sim.shutdown_pool ()
    end;
    Sim.run sim 40;
    Ehr.peek e
  in
  let clean = run_with ~interrupt:false in
  let interrupted = run_with ~interrupt:true in
  Alcotest.(check int) "serial sim unaffected by pool shutdown" clean interrupted;
  Alcotest.(check int) "rule fired every cycle" 100 interrupted;
  Alcotest.(check (list int)) "batch after restart" expect (batch ~helpers:1 8)

(* Last pool test: tear the pool down (so later suites in this binary are not
   taxed by idle domains) and prove it respawns for another batch; a second
   shutdown of a pool that is already down is a no-op. *)
let test_pool_restart () =
  Sim.shutdown_pool ();
  Alcotest.(check (list int)) "batch after shutdown" (List.init 4 (fun i -> 10 + i)) (batch ~helpers:1 4);
  Sim.shutdown_pool ();
  Sim.shutdown_pool ()

(* Two machines built and run at the same time on two domains equal the
   same machines built one after the other: each machine's undo trail and
   cell-id table are its own, so concurrent builds cannot mix them up. A
   start barrier makes the two builds overlap. *)
let test_concurrent_builds () =
  let smoke () =
    fingerprint ~paging:true (Machine.Out_of_order Ooo.Config.riscyoo_b)
      (Spec_kernels.find "smoke" ~scale:1)
  in
  let quad () =
    fingerprint ~ncores:4 (Machine.Out_of_order Test_sched.mc_cfg)
      (Test_multicore.lock_kernel ~harts:4 ~iters:10)
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
    check_same (Printf.sprintf "smoke, concurrent round %d" round) seq_a a;
    check_same (Printf.sprintf "lock quad, concurrent round %d" round) seq_b b
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
    Alcotest.test_case "pool shutdown leaves compiled steps intact" `Quick test_pool_shutdown_steps;
    Alcotest.test_case "worker pool survives shutdown/restart" `Quick test_pool_restart;
    Alcotest.test_case "concurrent machine builds on two domains" `Quick test_concurrent_builds;
    Alcotest.test_case "concurrent port logs on two domains" `Quick test_concurrent_port_logs;
  ]
