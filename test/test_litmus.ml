(* Litmus subsystem: reference-model facts (well-established memory-model
   litmus results, asserted by hand against the operational enumerator) and
   quick DUT sweeps of the classic suite on the real multicore machine. *)

open Litmus

let allowed m t = Ref_model.allowed t ~model:m
let mem set o = Ref_model.is_allowed set o
let subset a b = List.for_all (mem b) a

(* --- reference engine ----------------------------------------------------- *)

(* The outcome sets must nest: every SC execution is a TSO execution, every
   TSO execution a WMM one. *)
let test_sets_nest () =
  List.iter
    (fun t ->
      let sc = allowed Ref_model.SC t
      and tso = allowed Ref_model.TSO t
      and wmm = allowed Ref_model.WMM t in
      Alcotest.(check bool) (t.Test.name ^ ": SC in TSO") true (subset sc tso);
      Alcotest.(check bool) (t.Test.name ^ ": TSO in WMM") true (subset tso wmm);
      Alcotest.(check bool) (t.Test.name ^ ": SC nonempty") true (sc <> []))
    Test.all

(* Hand-checked classics. Outcome layout: thread 0's observed registers
   (ascending), thread 1's, ..., then final location values in sorted
   location order. *)
let test_facts () =
  let chk name set o want =
    Alcotest.(check bool) name want (mem set o)
  in
  let sc t = allowed Ref_model.SC t
  and tso t = allowed Ref_model.TSO t
  and wmm t = allowed Ref_model.WMM t in
  (* SB: both loads 0 is the store-buffering outcome - non-SC, allowed TSO *)
  let sb_relaxed = [| 0; 0; 1; 1 |] in
  chk "SB relaxed not SC" (sc Test.sb) sb_relaxed false;
  chk "SB relaxed in TSO" (tso Test.sb) sb_relaxed true;
  chk "SB relaxed in WMM" (wmm Test.sb) sb_relaxed true;
  chk "SB+fence kills it" (wmm Test.sb_fence) sb_relaxed false;
  (* MP: flag seen, payload stale - needs ld-ld or st-st reordering *)
  let mp_relaxed = [| 1; 0; 1; 1 |] in
  chk "MP relaxed not TSO" (tso Test.mp) mp_relaxed false;
  chk "MP relaxed in WMM" (wmm Test.mp) mp_relaxed true;
  chk "MP+fence kills it" (wmm Test.mp_fence) mp_relaxed false;
  (* LB: r=1 on both sides needs load-store reordering WMM also forbids *)
  chk "LB relaxed not WMM" (wmm Test.lb) [| 1; 1; 1; 1 |] false;
  (* S: W-W reordering makes the overwritten store win *)
  let s_relaxed = [| 1; 2; 1 |] in
  chk "S relaxed not TSO" (tso Test.s) s_relaxed false;
  chk "S relaxed in WMM" (wmm Test.s) s_relaxed true;
  (* 2+2W: both first writes last *)
  let w_relaxed = [| 1; 1 |] in
  chk "2+2W relaxed not TSO" (tso Test.w2plus2) w_relaxed false;
  chk "2+2W relaxed in WMM" (wmm Test.w2plus2) w_relaxed true;
  (* coherence holds even under WMM *)
  chk "CoRR backwards not WMM" (wmm Test.corr) [| 1; 0; 1 |] false;
  Alcotest.(check (list (array Alcotest.int)))
    "CoWW: x=2 is the only outcome" [ [| 2 |] ] (wmm Test.coww);
  (* IRIW: the two readers disagree on the write order *)
  let iriw_relaxed = [| 1; 0; 1; 0; 1; 1 |] in
  chk "IRIW relaxed not TSO" (tso Test.iriw) iriw_relaxed false;
  chk "IRIW relaxed in WMM" (wmm Test.iriw) iriw_relaxed true;
  chk "IRIW+fence kills it" (wmm Test.iriw_fence) iriw_relaxed false

(* DPOR must be an exact reduction: same outcome set as the exhaustive
   memoized DFS on every test and model. The budget is set above the
   largest real test (IRIW+fence under WMM, 488 DFS states) but below
   Stress6 (2401): the scaling test is exactly the one the baseline
   cannot finish, while DPOR walks its single Mazurkiewicz trace. *)
let test_dpor_matches_dfs () =
  let budget = 2000 in
  List.iter
    (fun t ->
      List.iter
        (fun model ->
          let name =
            Printf.sprintf "%s/%s" t.Test.name (Ref_model.model_to_string model)
          in
          let dpor, dst = Ref_model.allowed_stats t ~model in
          match Ref_model.allowed_dfs ~budget t ~model with
          | Some (dfs, _) ->
            Alcotest.(check bool) (name ^ ": dpor = dfs") true (dpor = dfs)
          | None ->
            (* only the scaling test may blow the budget, and DPOR must
               still have finished it *)
            Alcotest.(check string) (name ^ ": only Stress6 exceeds") "Stress6"
              t.Test.name;
            Alcotest.(check bool) (name ^ ": dpor completed") true (dpor <> []);
            Alcotest.(check bool)
              (Printf.sprintf "%s: dpor %d states, >=10x under DFS budget %d" name
                 dst.Ref_model.states budget)
              true
              (dst.Ref_model.states * 10 <= budget))
        [ Ref_model.SC; Ref_model.TSO; Ref_model.WMM ])
    Test.all

(* Atomics facts, hand-checked. *)
let test_atomics_facts () =
  let chk name set o want = Alcotest.(check bool) name want (mem set o) in
  let sc t = allowed Ref_model.SC t
  and tso t = allowed Ref_model.TSO t
  and wmm t = allowed Ref_model.WMM t in
  (* MP+amo: flag read via amoadd-0 sees 1, payload stale - WMM only *)
  let mp_amo_relaxed = [| 1; 0; 1; 1 |] in
  chk "MP+amo relaxed not TSO" (tso Test.mp_amo) mp_amo_relaxed false;
  chk "MP+amo relaxed in WMM" (wmm Test.mp_amo) mp_amo_relaxed true;
  (* SB+amo: the amoadd drains the store buffer, so 0/0 dies even in WMM *)
  chk "SB+amo 0/0 not WMM" (wmm Test.sb_amo) [| 0; 0; 1; 1 |] false;
  (* LR-SC: both pairs reading 0 and both SCs succeeding is forbidden *)
  chk "LR-SC double success (x=1) not WMM" (wmm Test.lr_sc) [| 0; 0; 0; 0; 1 |] false;
  chk "LR-SC double success (x=2) not WMM" (wmm Test.lr_sc) [| 0; 0; 0; 0; 2 |] false;
  (* AMO-inc: no lost update under any model *)
  chk "AMO-inc serialized in SC" (sc Test.amo_inc) [| 0; 1; 2 |] true;
  List.iter
    (fun o -> Alcotest.(check int) "AMO-inc final x=2 always" 2 o.(2))
    (wmm Test.amo_inc)

(* Control-dependency facts, hand-checked. Outcome layout for MP+ctrl:
   [1:r0; 2:r0; 2:r1; x; y; z]. *)
let test_ctrl_facts () =
  let chk name set o want = Alcotest.(check bool) name want (mem set o) in
  let sc t = allowed Ref_model.SC t
  and tso t = allowed Ref_model.TSO t
  and wmm t = allowed Ref_model.WMM t in
  (* the chained relaxation: relay saw the flag, relay's store seen, yet the
     payload is stale at the final reader - WMM only (same mechanism as MP) *)
  let relaxed = [| 1; 1; 0; 1; 1; 1 |] in
  chk "MP+ctrl relaxed not SC" (sc Test.mp_ctrl) relaxed false;
  chk "MP+ctrl relaxed not TSO" (tso Test.mp_ctrl) relaxed false;
  chk "MP+ctrl relaxed in WMM" (wmm Test.mp_ctrl) relaxed true;
  (* the branch is always taken, so the relay store happens even when the
     relay thread read y=0 - a plain SC interleaving, no relaxation needed *)
  chk "MP+ctrl relay-before-flag in SC" (sc Test.mp_ctrl) [| 0; 1; 0; 1; 1; 1 |] true;
  (* the all-ones outcome (everything propagated in order) is SC too *)
  chk "MP+ctrl in-order outcome in SC" (sc Test.mp_ctrl) [| 1; 1; 1; 1; 1; 1 |] true

let test_labels () =
  Alcotest.(check (list string))
    "SB outcome labels" [ "0:r0"; "1:r0"; "x"; "y" ]
    (Test.outcome_labels Test.sb);
  Alcotest.(check (list string))
    "MP outcome labels" [ "1:r0"; "1:r1"; "x"; "y" ]
    (Test.outcome_labels Test.mp)

(* --- DSL validation ------------------------------------------------------- *)

let test_check_rejects () =
  let bad name threads = { Test.name; doc = ""; init = []; threads } in
  let raises t =
    match Test.check t with
    | () -> Alcotest.failf "%s: check accepted an invalid test" t.Test.name
    | exception Invalid_argument _ -> ()
  in
  raises (bad "empty-body" [| { warm = []; body = [] } |]);
  raises (bad "bad-reg" [| { warm = []; body = [ Test.Ld (4, "x") ] } |]);
  raises (bad "bad-value" [| { warm = []; body = [ Test.St ("x", 256) ] } |]);
  (* a warm store must be architecturally neutral *)
  raises (bad "warm-st" [| { warm = [ Test.St ("x", 1) ]; body = [ Test.Ld (0, "x") ] } |]);
  raises (bad "too-many-threads" (Array.make 5 { Test.warm = []; body = [ Test.Fence ] }))

(* --- compilation ---------------------------------------------------------- *)

(* Same (test, seed) -> bit-identical image; different seeds differ (the
   stagger loops), unless stagger is off. *)
let test_compile_deterministic () =
  let words seed stagger =
    let prog, _ = Compile.program ~seed ~stagger Test.sb in
    Isa.Asm.words prog.Workloads.Machine.asm ~base:0x8000_0000L
  in
  Alcotest.(check bool) "same seed, same image" true (words 7 true = words 7 true);
  Alcotest.(check bool) "stagger varies by seed" true (words 7 true <> words 8 true);
  Alcotest.(check bool) "no stagger, no variation" true (words 7 false = words 8 false)

(* --- the real machine ----------------------------------------------------- *)

let test_run_one_deterministic () =
  let run () = Run.run_one ~seed:5 ~model:Ooo.Config.WMM Test.sb in
  Alcotest.(check (array Alcotest.int)) "replay is exact" (run ()) (run ())

(* Every observed outcome of every classic test must be in its model's
   reference set. *)
let sweep_suite model =
  List.iter
    (fun t ->
      let r = Run.sweep ~seeds:6 ~model t in
      if not (Run.ok r) then
        Alcotest.failf "%s: %s" t.Test.name (Format.asprintf "%a" Run.pp_report r))
    Test.all

let test_dut_tso () = sweep_suite Ooo.Config.TSO
let test_dut_wmm () = sweep_suite Ooo.Config.WMM

(* The in-order core never reorders, so every outcome must sit in the SC
   set (the sweep checks against SC when dut is in-order); MESI is a pure
   coherence-protocol swap and must change nothing architecturally. *)
let test_dut_inorder () =
  List.iter
    (fun t ->
      let r = Run.sweep ~seeds:4 ~dut:Run.Dut_inorder ~model:Ooo.Config.TSO t in
      if not (Run.ok r) then
        Alcotest.failf "%s (inorder): %s" t.Test.name (Format.asprintf "%a" Run.pp_report r))
    Test.all

let test_dut_mesi () =
  List.iter
    (fun t ->
      let r = Run.sweep ~seeds:4 ~mesi:true ~model:Ooo.Config.WMM t in
      if not (Run.ok r) then
        Alcotest.failf "%s (mesi): %s" t.Test.name (Format.asprintf "%a" Run.pp_report r))
    Test.all

(* The harness must be able to distinguish the models: the SB sweep has to
   reach its non-SC outcome (store buffering is always visible), and MP has
   to reach its WMM-only outcome under WMM but never under TSO. *)
let test_relaxation_observed () =
  let sb = Run.sweep ~seeds:8 ~model:Ooo.Config.WMM Test.sb in
  Alcotest.(check bool) "SB non-SC outcome reached" true sb.Run.relaxed_seen;
  let mp = Run.sweep ~seeds:25 ~model:Ooo.Config.WMM Test.mp in
  Alcotest.(check bool) "MP WMM-only outcome reached" true mp.Run.wmm_only_seen;
  let mp_tso = Run.sweep ~seeds:25 ~model:Ooo.Config.TSO Test.mp in
  Alcotest.(check bool) "MP stays in TSO set under TSO" true
    (Run.ok mp_tso && not mp_tso.Run.wmm_only_seen);
  (* the atomics suite must relax too: the consumer's plain payload load
     performs under the slow amoadd-0 flag read *)
  let mp_amo = Run.sweep ~seeds:60 ~model:Ooo.Config.WMM Test.mp_amo in
  Alcotest.(check bool) "MP+amo WMM-only outcome reached" true mp_amo.Run.wmm_only_seen

(* Dedicated control-dependency sweep, deeper than the whole-suite pass.
   The compiled shape (always-taken branch guarding the relay store) must
   never leak a forbidden outcome, and under TSO in particular the chained
   relaxation must never appear. The WMM-only outcome itself is too rare to
   demand here - reaching it needs the stale payload copy to outlive the
   whole flag->relay->reader chain - so we check containment, not reach. *)
let test_dut_ctrl () =
  let tso = Run.sweep ~seeds:30 ~model:Ooo.Config.TSO Test.mp_ctrl in
  if not (Run.ok tso) then
    Alcotest.failf "MP+ctrl (TSO): %s" (Format.asprintf "%a" Run.pp_report tso);
  Alcotest.(check bool) "MP+ctrl never outside TSO set under TSO" true
    (not tso.Run.wmm_only_seen);
  let wmm = Run.sweep ~seeds:30 ~model:Ooo.Config.WMM Test.mp_ctrl in
  if not (Run.ok wmm) then
    Alcotest.failf "MP+ctrl (WMM): %s" (Format.asprintf "%a" Run.pp_report wmm)

(* Cross-engine identity on litmus machines: a [Shuffle seed] build with
   the fast path on and one with it off must agree on the outcome
   registers, the cycle count and every rule's fire count, and the outcome
   must be one the memory model admits. *)
let test_engines_agree () =
  let module M = Workloads.Machine in
  let cases =
    [
      (Test.mp, Ooo.Config.TSO, [ 2224653; 1; 17 ]);
      (Test.sb, Ooo.Config.WMM, [ 5; 9 ]);
      (Test.w2plus2, Ooo.Config.WMM, [ 3 ]);
    ]
  in
  List.iter
    (fun ((test : Test.t), model, seeds) ->
      let prog, meta = Compile.program ~seed:1 ~stagger:false test in
      let ncores = Test.nharts test in
      let kind =
        M.Out_of_order { (Ooo.Config.multicore model) with Ooo.Config.mem = Run.litmus_mem }
      in
      let run m =
        let o = M.run ~max_cycles:300_000 m in
        Alcotest.(check bool) "litmus run completes" false o.M.timed_out;
        ( Compile.read_outcome meta ~reg:(fun ~hart r -> M.reg m ~hart r),
          o.M.cycles,
          Test_sched.rule_counts m )
      in
      let admitted = allowed (Ref_model.of_mem_model model) test in
      List.iter
        (fun seed ->
          let cold ?(fastpath = true) () =
            run (M.create ~ncores ~fastpath ~mode:(Cmd.Sim.Shuffle seed) kind prog)
          in
          let check engine (o1, c1, f1) (o2, c2, f2) =
            let name = Printf.sprintf "%s seed %d, %s" test.Test.name seed engine in
            Alcotest.(check (array int)) (name ^ ": outcome") o1 o2;
            Alcotest.(check int) (name ^ ": cycles") c1 c2;
            Alcotest.(check (list (pair string (pair int int)))) (name ^ ": per-rule fires and aborts") f1 f2
          in
          let reference = cold () in
          (* MP/TSO seed 2224653 once delivered a value read before its
             line was invalidated (the TSO load-kill window) *)
          let outcome, _, _ = reference in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: outcome %s admitted by the model" test.Test.name seed
               (Test.outcome_to_string test outcome))
            true (mem admitted outcome);
          check "fast path off" reference (cold ~fastpath:false ()))
        seeds)
    cases

(* Machine-size regression: the 4-core IRIW machine, built as [Run.run_one]
   builds it (seed 1, staggered, [litmus_mem], TSO, [Shuffle 1]), stays
   within 110,000 reachable words. A litmus farm builds one per job; before
   the radix root grew on demand and the predictor and TLB tables were
   flattened it was 229,086 words. The count is deterministic. *)
let test_machine_size () =
  let test = Test.iriw in
  let prog, _ = Compile.program ~seed:1 ~stagger:true test in
  let cfg = { (Ooo.Config.multicore Ooo.Config.TSO) with Ooo.Config.mem = Run.litmus_mem } in
  let m =
    Workloads.Machine.create ~ncores:(Test.nharts test) ~mode:(Cmd.Sim.Shuffle 1)
      (Workloads.Machine.Out_of_order cfg) prog
  in
  let words = Obj.reachable_words (Obj.repr m) in
  Alcotest.(check bool) (Printf.sprintf "%d words <= 110000" words) true (words <= 110_000)

let suite =
  [
    Alcotest.test_case "ref: sets nest" `Quick test_sets_nest;
    Alcotest.test_case "ref: classic facts" `Quick test_facts;
    Alcotest.test_case "ref: atomics facts" `Quick test_atomics_facts;
    Alcotest.test_case "ref: ctrl-dep facts" `Quick test_ctrl_facts;
    Alcotest.test_case "ref: dpor = dfs" `Quick test_dpor_matches_dfs;
    Alcotest.test_case "outcome labels" `Quick test_labels;
    Alcotest.test_case "dsl validation" `Quick test_check_rejects;
    Alcotest.test_case "compile determinism" `Quick test_compile_deterministic;
    Alcotest.test_case "run_one determinism" `Quick test_run_one_deterministic;
    Alcotest.test_case "engines agree under Shuffle" `Quick test_engines_agree;
    Alcotest.test_case "iriw machine size" `Quick test_machine_size;
    Alcotest.test_case "dut: suite under TSO" `Slow test_dut_tso;
    Alcotest.test_case "dut: suite under WMM" `Slow test_dut_wmm;
    Alcotest.test_case "dut: suite on the in-order core" `Slow test_dut_inorder;
    Alcotest.test_case "dut: suite under MESI" `Slow test_dut_mesi;
    Alcotest.test_case "dut: MP+ctrl dedicated sweep" `Slow test_dut_ctrl;
    Alcotest.test_case "dut: relaxations observed" `Slow test_relaxation_observed;
  ]
