(* Static schedule compilation: the conflict-matrix algebra, the tier
   classifier inside [Sim.create], and the [--compile-audit] oracle that
   dynamically discharges the compiler's proof obligations.

   The contract under test mirrors the BSV compiler (paper, Section IV-B):
   from per-rule footprints — EHR-style (write?, cell, port) access lists —
   elaboration derives the pairwise conflict matrix, proves rules
   admissible in schedule order, and strips the port-checking machinery
   from their step closures.
   Results must be bit-identical to the interpreted engine; a rule whose
   footprint under-declares an access must be caught by the audit. *)

open Cmd

(* ---------------------------------------------------------------- *)
(* Algebra                                                           *)
(* ---------------------------------------------------------------- *)

let ord = Alcotest.testable Conflict.pp ( = )

let test_ehr_order () =
  let check name want a b = Alcotest.check ord name want (Conflict.ehr_order a b) in
  (* reads never conflict *)
  check "r0 r1" Conflict.Cf (false, 0) (false, 1);
  (* read[i] sees writes at ports < i *)
  check "r0 w0" Conflict.Lt (false, 0) (true, 0);
  check "r1 w0" Conflict.Gt (false, 1) (true, 0);
  check "w0 r1" Conflict.Lt (true, 0) (false, 1);
  (* double write at one port is irreconcilable *)
  check "w0 w0" Conflict.C (true, 0) (true, 0);
  check "w0 w1" Conflict.Lt (true, 0) (true, 1)

let test_join () =
  let j = Conflict.join in
  Alcotest.check ord "Cf is identity" Conflict.Lt (j Conflict.Cf Conflict.Lt);
  Alcotest.check ord "agreeing Lt" Conflict.Lt (j Conflict.Lt Conflict.Lt);
  Alcotest.check ord "disagreement collapses" Conflict.C (j Conflict.Lt Conflict.Gt);
  Alcotest.check ord "C absorbs" Conflict.C (j Conflict.C Conflict.Cf);
  Alcotest.check ord "flip" Conflict.Gt (Conflict.flip Conflict.Lt)

let test_rel_and_dyn () =
  let p = Conflict.fresh_prim "p" in
  let q = Conflict.fresh_prim "q" in
  let at pr l accs = Conflict.atom ~prim:pr ~label:l accs in
  (* different prims never interact *)
  Alcotest.check ord "disjoint prims" Conflict.Cf
    (Conflict.rel [ at p "w" [ (true, 0, 0) ] ] [ at q "w" [ (true, 0, 0) ] ]);
  (* EHR pipeline: writer at port 0, reader at port 1 *)
  Alcotest.check ord "w0 before r1" Conflict.Lt
    (Conflict.rel [ at p "w" [ (true, 0, 0) ] ] [ at p "r" [ (false, 0, 1) ] ]);
  (* cf-FIFO dyn ports: both sides compose in either order… *)
  Alcotest.check ord "dyn vs dyn" Conflict.Cf
    (Conflict.rel
       [ at p "enq" [ (true, 0, Conflict.dyn) ] ]
       [ at p "deq" [ (false, 0, Conflict.dyn) ] ]);
  (* …but a static clear port must come after every dynamic access *)
  Alcotest.check ord "dyn before clear" Conflict.Lt
    (Conflict.rel [ at p "enq" [ (true, 0, Conflict.dyn) ] ] [ at p "clear" [ (true, 0, 60) ] ]);
  Alcotest.check ord "clear after dyn" Conflict.Gt
    (Conflict.rel [ at p "clear" [ (true, 0, 60) ] ] [ at p "enq" [ (true, 0, Conflict.dyn) ] ]);
  (* self-compatibility: double-write port 0 is irreconcilable *)
  (match Conflict.self_compatible [ at p "a" [ (true, 0, 0) ]; at p "b" [ (true, 0, 0) ] ] with
  | Some _ -> ()
  | None -> Alcotest.fail "double write should be self-incompatible");
  match Conflict.self_compatible [ at p "a" [ (true, 0, 0) ]; at p "b" [ (false, 0, 1) ] ] with
  | None -> ()
  | Some _ -> Alcotest.fail "w0/r1 should be self-compatible"

(* ---------------------------------------------------------------- *)
(* Tier classification on synthetic rule sets                        *)
(* ---------------------------------------------------------------- *)

let stats = Alcotest.(pair int int)

(* Conflict-free set: three rules on disjoint EHRs, all declared; the
   classifier must compile everything. *)
let test_tiers_conflict_free () =
  let clk = Clock.create () in
  let es = Array.init 3 (fun i -> Ehr.create ~name:(Printf.sprintf "e%d" i) 0) in
  let rule i =
    Rule.make (Printf.sprintf "r%d" i)
      ~fp:[ Ehr.fp es.(i) ~label:"bump" [ (false, 0); (true, 0) ] ]
      (fun ctx -> Ehr.write ctx es.(i) 0 (Ehr.read ctx es.(i) 0 + 1))
  in
  let sim = Sim.create clk [ rule 0; rule 1; rule 2 ] in
  Alcotest.(check bool) "compiled" true (Sim.compiled sim);
  Alcotest.check stats "all 3 rules unchecked" (3, 0) (Sim.compile_stats sim);
  for _ = 1 to 10 do
    ignore (Sim.cycle sim);
    Clock.tick clk
  done;
  Array.iter (fun e -> Alcotest.(check int) "all fired every cycle" 10 (Ehr.peek e)) es

(* Sequentially composable pair: writer at port 0 listed before reader at
   port 1 is admissible (compiled); the reversed listing is not. *)
let test_tiers_sequential () =
  let mk order =
    let clk = Clock.create () in
    let e = Ehr.create ~name:"e" 0 in
    let w =
      Rule.make "w" ~fp:[ Ehr.fp_write e 0 ] (fun ctx -> Ehr.write ctx e 0 (Clock.now clk + 1))
    in
    let r =
      Rule.make "r" ~fp:[ Ehr.fp_read e 1 ]
        (fun ctx -> Kernel.guard ctx (Ehr.read ctx e 1 > 0) "no data")
    in
    let rules = match order with `Wr -> [ w; r ] | `Rw -> [ r; w ] in
    Sim.compile_stats (Sim.create clk rules)
  in
  Alcotest.check stats "w;r admissible: both compiled" (2, 0) (mk `Wr);
  (* r must logically follow w, but is listed first: both stay checked *)
  Alcotest.check stats "r;w inadmissible: both interpreted" (0, 2) (mk `Rw)

(* A conflicting pair (double write, port 0) partitions out of the compiled
   batch entirely — both endpoints keep the interpreted Retry machinery —
   while an unrelated third rule still compiles. *)
let test_tiers_conflict_pair () =
  let clk = Clock.create () in
  let e = Ehr.create ~name:"e" 0 in
  let other = Ehr.create ~name:"other" 0 in
  let w name = Rule.make name ~fp:[ Ehr.fp_write e 0 ] (fun ctx -> Ehr.write ctx e 0 1) in
  let ok =
    Rule.make "ok" ~fp:[ Ehr.fp_write other 0 ] (fun ctx -> Ehr.write ctx other 0 1)
  in
  let sim = Sim.create clk [ w "w1"; w "w2"; ok ] in
  Alcotest.check stats "conflicting pair interpreted, bystander compiled" (1, 2)
    (Sim.compile_stats sim);
  (* dynamic behavior preserved: w1 fires, w2 Retries (conflict), every cycle *)
  for _ = 1 to 5 do
    ignore (Sim.cycle sim);
    Clock.tick clk
  done;
  let by_name n = List.find (fun (r : Rule.t) -> r.name = n) (Sim.rules sim) in
  Alcotest.(check int) "w1 fired each cycle" 5 (by_name "w1").Rule.fired;
  Alcotest.(check int) "w2 conflicted each cycle" 5 (by_name "w2").Rule.conflicted

(* A rule with no footprint poisons nothing but itself only when absent —
   per the all-or-nothing contract, one undeclared rule keeps the whole
   design interpreted (it may touch anything). *)
let test_undeclared_rule_blocks_compile () =
  let clk = Clock.create () in
  let e = Ehr.create ~name:"e" 0 in
  let declared =
    Rule.make "declared" ~fp:[ Ehr.fp_write e 0 ] (fun ctx -> Ehr.write ctx e 0 1)
  in
  let mystery = Rule.make "mystery" (fun ctx -> ignore ctx) in
  let sim = Sim.create clk [ declared; mystery ] in
  Alcotest.(check bool) "not compiled" false (Sim.compiled sim);
  Alcotest.check stats "every rule interpreted without full coverage" (0, 2)
    (Sim.compile_stats sim)

(* ---------------------------------------------------------------- *)
(* The audit oracle                                                  *)
(* ---------------------------------------------------------------- *)

(* Under-declared footprint: the rule claims to touch [a] but also writes
   [b]. The static matrix is wrong (it would compile the pair), and only
   [~compile_audit] can tell — every tracked access must land on a declared
   (prim, direction, port). *)
let test_audit_catches_underdeclared () =
  let clk = Clock.create () in
  let a = Ehr.create ~name:"a" 0 in
  let b = Ehr.create ~name:"b" 0 in
  let sneaky =
    Rule.make "sneaky" ~fp:[ Ehr.fp_write a 0 ]
      (fun ctx ->
        Ehr.write ctx a 0 1;
        Ehr.write ctx b 0 1)
  in
  let sim = Sim.create ~compile_audit:true clk [ sneaky ] in
  Alcotest.(check bool) "audit mode runs interpreted" false (Sim.compiled sim);
  (match Sim.cycle sim with
  | _ -> Alcotest.fail "under-declared write escaped the audit"
  | exception Kernel.Compile_audit_fail msg ->
    Alcotest.(check bool)
      (Printf.sprintf "message names the rule and prim (%s)" msg)
      true
      (let has s sub =
         let n = String.length sub in
         let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
         go 0
       in
       has msg "sneaky" && has msg "b"));
  (* the honest twin passes the same audit *)
  let clk = Clock.create () in
  let c = Ehr.create ~name:"c" 0 in
  let honest = Rule.make "honest" ~fp:[ Ehr.fp_write c 0 ] (fun ctx -> Ehr.write ctx c 0 1) in
  let sim = Sim.create ~compile_audit:true clk [ honest ] in
  for _ = 1 to 20 do
    ignore (Sim.cycle sim);
    Clock.tick clk
  done;
  Alcotest.(check int) "honest rule ran clean under audit" 1 (Ehr.peek c)

let suite =
  let t = Alcotest.test_case in
  [
    t "EHR port-order algebra" `Quick test_ehr_order;
    t "join/flip" `Quick test_join;
    t "footprint rel + dyn ports" `Quick test_rel_and_dyn;
    t "tiers: conflict-free set compiles (A/B)" `Quick test_tiers_conflict_free;
    t "tiers: sequential pair depends on listing order" `Quick test_tiers_sequential;
    t "tiers: conflicting pair stays interpreted" `Quick test_tiers_conflict_pair;
    t "undeclared rule blocks compilation" `Quick test_undeclared_rule_blocks_compile;
    t "compile-audit catches an under-declared access" `Quick test_audit_catches_underdeclared;
  ]
