(* Fast-path scheduler validation.

   The can_fire/wakeup fast path is a pure scheduling optimization: with it
   on or off (and in every mode) the simulation must be bit-identical — same
   cycle counts, same per-rule fire counts, same architectural results. These
   tests check that equivalence at two levels (synthetic CMD systems and the
   full processor on real kernels) plus the negative direction: a lying
   [can_fire] must be caught by the audit oracle, because under the fast
   path it would silently starve the rule. *)

open Cmd

let i64 = Alcotest.testable (Fmt.fmt "%Ld") Int64.equal

(* ---------------------------------------------------------------- *)
(* Sim-level equivalence on a synthetic system                        *)
(* ---------------------------------------------------------------- *)

(* A small producer/consumer system exercising every fast-path feature:
   watched parking rules (aggregate and bare), a watchless predicate rule, and
   a predicate-free rule. Returns the observable trajectory. *)
let run_synthetic ~fastpath ~mode ~cycles =
  let clk = Clock.create () in
  let q = Fifo.pipeline ~name:"q" ~capacity:4 () in
  let acc = Ehr.create ~name:"acc" 0 in
  let produced = ref 0 in
  let consumed = ref 0 in
  let rules =
    [
      (* bare guarded rule, watched parking: only admissible while q has data *)
      Rule.make "consume"
        ~can_fire:(fun () -> Fifo.peek_size q > 0)
        ~watches:[ Fifo.signal q ]
        (fun ctx ->
          let v = Fifo.deq ctx q in
          Mut.set ctx consumed (!consumed + v));
      (* aggregate (attempt-wrapped) watched rule on the accumulator EHR *)
      Rule.make "drain-acc"
        ~can_fire:(fun () -> Ehr.peek acc >= 10)
        ~watches:[ Ehr.signal acc ]
        (fun ctx ->
          ignore
            (Kernel.attempt ctx (fun ctx ->
                 Kernel.guard ctx (Ehr.read ctx acc 0 >= 10) "acc below threshold";
                 Ehr.write ctx acc 0 0));
          Kernel.require_effect ctx);
      (* watchless predicate: produced is private state of this rule *)
      Rule.make "produce"
        ~can_fire:(fun () -> !produced < 60)
        (fun ctx ->
          Kernel.guard ctx (!produced < 60) "production done";
          Fifo.enq ctx q !produced;
          Ehr.write ctx acc 0 (Ehr.read ctx acc 0 + 1);
          Mut.set ctx produced (!produced + 1));
      (* predicate-free rule: always attempted, fires every 7th value *)
      Rule.make "spill" (fun ctx ->
          Kernel.guard ctx (Fifo.can_deq ctx q) "empty";
          let v = Fifo.first ctx q in
          Kernel.guard ctx (v mod 7 = 3) "not a spill value";
          ignore (Fifo.deq ctx q));
    ]
  in
  let sim = Sim.create ~mode ~fastpath clk rules in
  for _ = 1 to cycles do
    ignore (Sim.cycle sim);
    Clock.tick clk
  done;
  let per_rule =
    List.map (fun (r : Rule.t) -> (r.name, r.fired, r.guard_failed, r.conflicted)) (Sim.rules sim)
  in
  (!produced, !consumed, Ehr.peek acc, Fifo.peek_list q, Sim.total_fires sim, per_rule)

let test_synthetic_equivalence () =
  List.iter
    (fun (mname, mode) ->
      let on = run_synthetic ~fastpath:true ~mode ~cycles:300 in
      let off = run_synthetic ~fastpath:false ~mode ~cycles:300 in
      let p, c, a, _, fires, _ = on in
      Alcotest.(check bool)
        (Printf.sprintf "%s: trajectories identical (p=%d c=%d acc=%d fires=%d)" mname p c a fires)
        true (on = off);
      (* the system did real work *)
      Alcotest.(check bool) (mname ^ ": produced all") true (p = 60))
    [ ("Multi", Sim.Multi); ("One_per_cycle", Sim.One_per_cycle); ("Shuffle", Sim.Shuffle 7) ]

(* A parked rule must wake when its watched signal is touched much later —
   the generation-sum comparison must not wrap into a false "unchanged". *)
let test_late_wakeup () =
  let clk = Clock.create () in
  let q = Fifo.pipeline ~name:"lateq" ~capacity:2 () in
  let got = ref (-1) in
  let n = ref 0 in
  let rules =
    [
      Rule.make "sink"
        ~can_fire:(fun () -> Fifo.peek_size q > 0)
        ~watches:[ Fifo.signal q ]
        (fun ctx -> Mut.set ctx got (Fifo.deq ctx q));
      Rule.make "tick" (fun ctx ->
          Kernel.guard ctx (!n = 1000) "not yet";
          Fifo.enq ctx q 42);
    ]
  in
  let sim = Sim.create clk rules in
  for _ = 1 to 1002 do
    incr n;
    ignore (Sim.cycle sim);
    Clock.tick clk
  done;
  Alcotest.(check int) "parked rule woke and consumed" 42 !got;
  let sink = List.hd (Sim.rules sim) in
  Alcotest.(check bool)
    (Printf.sprintf "sink was parked most of the run (skipped=%d)" sink.Rule.skipped)
    true
    (sink.Rule.skipped > 990)

(* ---------------------------------------------------------------- *)
(* Audit oracle: lying can_fire predicates must be caught             *)
(* ---------------------------------------------------------------- *)

let test_audit_catches_liar () =
  (* bare rule: predicate says false, body commits anyway *)
  let clk = Clock.create () in
  let e = Ehr.create 0 in
  let liar = Rule.make "liar" ~can_fire:(fun () -> false) (fun ctx -> Ehr.write ctx e 0 1) in
  let sim = Sim.create ~audit:true clk [ liar ] in
  Alcotest.check_raises "bare liar trips the audit"
    (Sim.Audit_fail "rule liar: can_fire returned false but the rule fired (cycle 0)")
    (fun () -> ignore (Sim.cycle sim));
  (* aggregate rule: the attempt swallows nothing — it commits state, so a
     false predicate is still a lie *)
  let clk = Clock.create () in
  let e = Ehr.create 0 in
  let aliar =
    Rule.make "aliar"
      ~can_fire:(fun () -> false)
      (fun ctx ->
        ignore (Kernel.attempt ctx (fun ctx -> Ehr.write ctx e 0 2));
        Kernel.require_effect ctx)
  in
  let sim = Sim.create ~audit:true clk [ aliar ] in
  Alcotest.check_raises "aggregate liar trips the audit"
    (Sim.Audit_fail "rule aliar: can_fire returned false but the rule fired (cycle 0)")
    (fun () -> ignore (Sim.cycle sim))

(* The same oracle one level down: a step's ready test
   ([Kernel.attempt_if]) is a can_fire for the step. *)
let test_audit_catches_lying_ready () =
  let stepper () =
    let clk = Clock.create () in
    let e = Ehr.create 0 in
    let step ctx = Ehr.write ctx e 0 (Ehr.read ctx e 0 + 1) in
    (* the first step's test lies; the second's is honest: its step aborts
       when the test says false *)
    let q = Fifo.pipeline ~name:"rq" ~capacity:2 () in
    let take ctx = ignore (Fifo.deq ctx q) in
    let r =
      Rule.make "stepper" (fun ctx ->
          ignore (Kernel.attempt_if ctx false step);
          ignore (Kernel.attempt_if ctx (Fifo.peek_size q > 0) take);
          Kernel.require_effect ctx)
    in
    (clk, e, r)
  in
  let clk, e, r = stepper () in
  let sim = Sim.create ~audit:true clk [ r ] in
  Alcotest.check_raises "lying ready test trips the audit"
    (Sim.Audit_fail
       "rule stepper: a step's ready test returned false but the step committed (cycle 0)")
    (fun () -> ignore (Sim.cycle sim));
  Alcotest.(check int) "the audit rolled the step back" 0 (Ehr.peek e);
  (* why the audit exists: without it the step would have committed, and
     the ready test skips it silently *)
  let clk, e, r = stepper () in
  let sim = Sim.create clk [ r ] in
  for _ = 1 to 10 do
    ignore (Sim.cycle sim);
    Clock.tick clk
  done;
  Alcotest.(check int) "the skipped step never ran" 0 (Ehr.peek e);
  Alcotest.(check (pair int int))
    "no step ran, so the rule failed its guard every cycle" (0, 10)
    (r.Rule.fired, r.Rule.guard_failed);
  (* an honest test passes the audit: a turned-away step that aborts, or
     returns having done nothing, is what the test promised *)
  let clk = Clock.create () in
  let q = Fifo.pipeline ~name:"hq" ~capacity:2 () in
  let take ctx = ignore (Fifo.deq ctx q) in
  let idle _ = () in
  let honest =
    Rule.make "honest-steps" (fun ctx ->
        ignore (Kernel.attempt_if ctx (Fifo.peek_size q > 0) take);
        ignore (Kernel.attempt_if ctx false idle);
        Kernel.require_effect ctx)
  in
  let sim = Sim.create ~audit:true clk [ honest ] in
  for _ = 1 to 20 do
    ignore (Sim.cycle sim);
    Clock.tick clk
  done;
  Alcotest.(check (pair int int))
    "honest steps pass the audit, failing the rule's guard" (0, 20)
    (honest.Rule.fired, honest.Rule.guard_failed)

(* An aggregate rule states its own guard: when every step declines, it
   fails its guard instead of firing empty, and its effects roll back. With
   the fast path the predicate skips it; stripped, its steps run and
   decline; both count the same fires and guard failures. *)
let test_aggregate_declined_is_guard_fail () =
  let run fastpath =
    let clk = Clock.create () in
    let q = Fifo.pipeline ~name:"aq" ~capacity:2 () in
    let e = Ehr.create 0 in
    let take ctx = ignore (Fifo.deq ctx q) and never _ = () in
    let agg =
      Rule.make "agg"
        ~can_fire:(fun () -> Fifo.peek_size q > 0)
        ~watches:[ Fifo.signal q ]
        (fun ctx ->
          ignore (Kernel.attempt_if ctx (Fifo.peek_size q > 0) take);
          ignore (Kernel.attempt_if ctx false never);
          Kernel.require_effect ctx)
    in
    (* a bare rule whose effect is undone by its own guard failure *)
    let half =
      Rule.make "half-done" (fun ctx ->
          Ehr.write ctx e 0 1;
          Kernel.guard ctx false "never ready")
    in
    let feed =
      Rule.make "feed" (fun ctx ->
          Kernel.guard ctx (Clock.now clk mod 3 = 0) "not this cycle";
          Fifo.enq ctx q 1)
    in
    let sim = Sim.create ~fastpath clk [ agg; half; feed ] in
    Sim.run sim 30;
    Alcotest.(check int) "effects rolled back" 0 (Ehr.peek e);
    List.map (fun (r : Rule.t) -> (r.Rule.fired, r.Rule.guard_failed)) [ agg; half; feed ]
  in
  let expect = [ (10, 20); (0, 30); (10, 20) ] in
  Alcotest.(check (list (pair int int))) "fast path: fired, guard_failed" expect (run true);
  Alcotest.(check (list (pair int int))) "stripped: fired, guard_failed" expect (run false)

let test_audit_passes_honest () =
  (* an aggregate rule whose inner guard fails commits nothing:
     can_fire=false is truthful and the audit must stay quiet *)
  let clk = Clock.create () in
  let q = Fifo.pipeline ~name:"hq" ~capacity:2 () in
  let honest =
    Rule.make "honest"
      ~can_fire:(fun () -> Fifo.peek_size q > 0)
      (fun ctx ->
        ignore (Kernel.attempt ctx (fun ctx -> ignore (Fifo.deq ctx q)));
        Kernel.require_effect ctx)
  in
  let sim = Sim.create ~audit:true clk [ honest ] in
  for _ = 1 to 50 do
    ignore (Sim.cycle sim);
    Clock.tick clk
  done;
  Alcotest.(check (pair int int))
    "honest rule failed its guard every cycle" (0, 50)
    (honest.Rule.fired, honest.Rule.guard_failed)

let test_fastpath_starves_liar () =
  (* the positive justification for the audit: under the fast path a lying
     predicate silently suppresses the rule *)
  let clk = Clock.create () in
  let e = Ehr.create 0 in
  let liar = Rule.make "liar" ~can_fire:(fun () -> false) (fun ctx -> Ehr.write ctx e 0 1) in
  let sim = Sim.create clk [ liar ] in
  for _ = 1 to 10 do
    ignore (Sim.cycle sim);
    Clock.tick clk
  done;
  Alcotest.(check int) "liar never ran under the fast path" 0 (Ehr.peek e);
  Alcotest.(check int) "all ten attempts were pruned" 10 liar.Rule.skipped

(* ---------------------------------------------------------------- *)
(* Full-machine equivalence on real kernels                           *)
(* ---------------------------------------------------------------- *)

open Workloads

(* (rule name, (fired, guard_failed + conflicted)) pairs, parsed from the
   scheduler report. Fire counts, each rule's aborts and the architectural
   outcome are the equivalence contract. The skipped column is scheduling
   detail, and so is the split of aborts into guard failures and
   conflicts: a stripped attempt can hit a port conflict before the guard
   the fast path's predicate foresaw. *)
let rule_counts m =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Machine.pp_rule_stats fmt m;
  Format.pp_print_flush fmt ();
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter_map (fun line ->
         match List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim line)) with
         | name :: rest -> (
           let col key =
             let k = String.length key in
             List.find_map
               (fun tok ->
                 if String.length tok > k && String.sub tok 0 k = key then
                   int_of_string_opt (String.sub tok k (String.length tok - k))
                 else None)
               rest
           in
           match (col "fired=", col "guard_failed=", col "conflicted=") with
           | Some f, Some g, Some c -> Some (name, (f, g + c))
           | _ -> None)
         | [] -> None)

let run_full ~fastpath ~mode ?(cfg = Ooo.Config.riscyoo_b) ~budget prog =
  let m = Machine.create ~paging:true ~mode ~fastpath (Machine.Out_of_order cfg) prog in
  let o = Machine.run ~max_cycles:budget m in
  Alcotest.(check bool) "run completes" false o.Machine.timed_out;
  (o.Machine.cycles, o.Machine.exits.(0), Machine.instrs m, rule_counts m)

let check_equiv name (c1, x1, i1, f1) (c2, x2, i2, f2) =
  Alcotest.(check int) (name ^ ": cycles identical") c1 c2;
  Alcotest.check i64 (name ^ ": exit checksum identical") x1 x2;
  Alcotest.(check int) (name ^ ": instret identical") i1 i2;
  Alcotest.(check (list (pair string (pair int int))))
    (name ^ ": per-rule fires and aborts identical") f1 f2

let test_smoke_equivalence () =
  let prog = Spec_kernels.find "smoke" ~scale:1 in
  List.iter
    (fun (mname, mode, budget) ->
      let on = run_full ~fastpath:true ~mode ~budget prog in
      let off = run_full ~fastpath:false ~mode ~budget prog in
      check_equiv ("smoke/" ^ mname) on off)
    [
      ("multi", Sim.Multi, 1_000_000);
      ("shuffle", Sim.Shuffle 20260807, 1_000_000);
      ("one-per-cycle", Sim.One_per_cycle, 60_000_000);
    ]

(* the small configuration test_workloads uses for its SPEC runs *)
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

let test_spec_equivalence () =
  List.iter
    (fun kernel ->
      let prog = Spec_kernels.find kernel ~scale:1 in
      let on = run_full ~fastpath:true ~mode:Sim.Multi ~cfg:small_cfg ~budget:10_000_000 prog in
      let off = run_full ~fastpath:false ~mode:Sim.Multi ~cfg:small_cfg ~budget:10_000_000 prog in
      check_equiv kernel on off)
    [ "gcc"; "gobmk" ]

(* The whole-processor predicate set, rule can_fires and step ready tests,
   passes the dynamic truthfulness check: on smoke, on the first 60k cycles
   of T+ mcf with paging on (TLB walks, the non-blocking TLB's miss slots)
   and on quad-core TSO blackscholes (coherence, crossbar, atomics). *)
let test_smoke_audit_clean () =
  let prog = Spec_kernels.find "smoke" ~scale:1 in
  let m =
    Machine.create ~paging:true ~audit:true (Machine.Out_of_order Ooo.Config.riscyoo_b) prog
  in
  let o = Machine.run ~max_cycles:1_000_000 m in
  Alcotest.(check bool) "audited run completes" false o.Machine.timed_out;
  let m =
    Machine.create ~paging:true ~audit:true
      (Machine.Out_of_order Ooo.Config.riscyoo_tplus)
      (Spec_kernels.find "mcf" ~scale:1)
  in
  let o = Machine.run ~max_cycles:60_000 m in
  Alcotest.(check bool) "audited T+ mcf ran its 60k cycles" true (o.Machine.cycles >= 60_000);
  let m =
    Machine.create ~ncores:4 ~audit:true
      (Machine.Out_of_order (Ooo.Config.multicore Ooo.Config.TSO))
      (Parsec_kernels.find "blackscholes" ~harts:4 ~scale:1)
  in
  let o = Machine.run ~max_cycles:2_000_000 m in
  Alcotest.(check bool) "audited quad-TSO blackscholes completes" false o.Machine.timed_out

(* ---------------------------------------------------------------- *)
(* Multicore engine identity                                          *)
(* ---------------------------------------------------------------- *)

let mc_cfg =
  { (Ooo.Config.multicore Ooo.Config.TSO) with Ooo.Config.mem = Test_multicore.small_mem }

(* 16-core machine shrunk to test size: tiny private L1s, a 4-bank L2. *)
let mem16 = { Test_multicore.small_mem with Mem.Mem_sys.l2_banks = 4 }
let cfg16 mm = { (Ooo.Config.multicore16 mm) with Ooo.Config.mem = mem16 }

(* Every rule counter, skips included. *)
let rule_counters m =
  List.map
    (fun (r : Rule.t) -> (r.name, [ r.fired; r.guard_failed; r.conflicted; r.skipped ]))
    (Machine.rule_list m)

(* One_per_cycle, the reference executor, is as bit-identical with the fast
   path on and off as the Multi engine. *)
let test_machine_equiv_opc () =
  let prog = Test_multicore.shared_counter_kernel ~harts:2 ~iters:5 in
  let fp fastpath =
    let m =
      Machine.create ~ncores:2 ~mode:Sim.One_per_cycle ~fastpath (Machine.Out_of_order mc_cfg)
        prog
    in
    let o = Machine.run ~max_cycles:20_000_000 m in
    Alcotest.(check bool) "machine run completes" false o.Machine.timed_out;
    (o.Machine.cycles, o.Machine.exits.(0), Machine.instrs m, rule_counts m)
  in
  check_equiv "counter/one-per-cycle" (fp true) (fp false)

(* The watchdog's history ring is rebuilt at every cycle close from the
   per-rule fire marks, whatever the engine, and must read the same
   (cycle, fired names) list with the fast path on and off. Walk the whole
   run in chunks short enough that the 32-cycle ring never wraps between
   looks, folding every entry into one digest. *)
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

(* The ring records fires, not attempts: a window of smoke, mid-run and
   at the end, names fewer rules than (its cycles) × (rule count), and all
   of them fired. *)
let test_history_names_fires () =
  let m =
    Machine.create ~paging:true ~watchdog:max_int
      (Machine.Out_of_order Ooo.Config.riscyoo_b)
      (Spec_kernels.find "smoke" ~scale:1)
  in
  let nrules = List.length (Machine.rule_list m) in
  let check_window what =
    let h = Machine.history m in
    let named = List.fold_left (fun acc (_, names) -> acc + List.length names) 0 h in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d names in %d cycles of %d rules" what named (List.length h) nrules)
      true
      (h <> [] && named > 0 && named < List.length h * nrules)
  in
  let o = Machine.run ~max_cycles:3_000 m in
  Alcotest.(check bool) "smoke is still running" true o.Machine.timed_out;
  check_window "mid-run";
  let o = Machine.run ~max_cycles:1_000_000 m in
  Alcotest.(check bool) "run completes" false o.Machine.timed_out;
  check_window "end"

let test_history_identity () =
  let fp ~ncores cfg prog =
    let mk fastpath =
      Machine.create ~ncores ~fastpath ~watchdog:max_int (Machine.Out_of_order cfg) prog
    in
    (history_fingerprint (mk true), history_fingerprint (mk false))
  in
  let quad = { (Ooo.Config.multicore Ooo.Config.WMM) with Ooo.Config.mem = mem16 } in
  let fast, stripped = fp ~ncores:4 quad (Parsec_kernels.find "blackscholes" ~harts:4 ~scale:1) in
  Alcotest.(check string) "quad: fast path vs stripped" fast stripped;
  let fast, stripped =
    fp ~ncores:16 (cfg16 Ooo.Config.TSO) (Test_multicore.shared_counter_kernel ~harts:16 ~iters:4)
  in
  Alcotest.(check string) "16-core: fast path vs stripped" fast stripped

(* The benchmark pins of [Machine.create] change nothing: [~jobs:2 ~epoch:0]
   (what the benchmark harness passes) and [~compile:false] build the same
   machine as the defaults, down to every rule counter; [~epoch] accepts
   only 0 and 1, both a one-cycle window. *)
let test_benchmark_pins () =
  let prog = Parsec_kernels.find "blackscholes" ~harts:16 ~scale:1 in
  let mk ?jobs ?epoch ?compile () =
    Machine.create ~ncores:16 ?jobs ?epoch ?compile (Machine.Out_of_order (cfg16 Ooo.Config.TSO))
      prog
  in
  let run m =
    let o = Machine.run ~max_cycles:6_000_000 m in
    Alcotest.(check bool) "run completes" false o.Machine.timed_out;
    (o.Machine.cycles, Array.to_list o.Machine.exits, rule_counters m)
  in
  let reference = run (mk ~jobs:1 ()) in
  let same name got =
    Alcotest.(check (triple int (list i64) (list (pair string (list int)))))
      (name ^ ": cycles, exits and rule counters") reference got
  in
  same "jobs 2, epoch 0" (run (mk ~jobs:2 ~epoch:0 ()));
  same "compile false" (run (mk ~compile:false ()));
  List.iter
    (fun e -> Alcotest.(check int) "one-cycle window" 1 (Machine.epoch_length (mk ~epoch:e ())))
    [ 0; 1 ];
  match mk ~epoch:2 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Machine.create ~epoch:2 accepted"

let suite =
  let t = Alcotest.test_case in
  [
    t "synthetic equivalence (3 modes)" `Quick test_synthetic_equivalence;
    t "late wakeup of a parked rule" `Quick test_late_wakeup;
    t "audit catches lying can_fire" `Quick test_audit_catches_liar;
    t "audit catches a lying step ready test" `Quick test_audit_catches_lying_ready;
    t "declined aggregate: guard failure" `Quick test_aggregate_declined_is_guard_fail;
    t "audit passes honest predicates" `Quick test_audit_passes_honest;
    t "fast path starves a liar (why audit exists)" `Quick test_fastpath_starves_liar;
    t "smoke equivalence (multi/shuffle/serial)" `Slow test_smoke_equivalence;
    t "spec kernel equivalence (gcc, gobmk)" `Slow test_spec_equivalence;
    t "smoke audit clean" `Quick test_smoke_audit_clean;
    t "machine one-per-cycle fallback identical" `Slow test_machine_equiv_opc;
    t "history ring identical across engines" `Slow test_history_identity;
    t "history ring names fires, not attempts" `Quick test_history_names_fires;
    t "benchmark pins: jobs, epoch and compile change nothing" `Quick test_benchmark_pins;
  ]
