(* Tests for the CMD kernel: guarded atomic rules, EHR port semantics,
   conflict detection, FIFO conflict matrices, scheduler serializability. *)

open Cmd

let rule = Rule.make

let test_reg_read_before_write () =
  let clk = Clock.create () in
  let r = Reg.create 1 in
  let seen = ref 0 in
  let rules =
    [
      rule "reader" (fun ctx -> seen := Reg.read ctx r);
      rule "writer" (fun ctx -> Reg.write ctx r 42);
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check int) "reader saw old value" 1 !seen;
  Alcotest.(check int) "write landed" 42 (Reg.peek r);
  ignore (Sim.cycle sim);
  Alcotest.(check int) "reader sees new value next cycle" 42 !seen

let test_reg_write_blocks_read () =
  (* writer listed first: the reader must not fire in the same cycle
     (read < write in the register's CM), but fires the next cycle. *)
  let clk = Clock.create () in
  let r = Reg.create 1 in
  let reads = ref [] in
  let wrote = ref false in
  let rules =
    [
      rule "writer" (fun ctx ->
          Kernel.guard ctx (not !wrote) "once";
          Reg.write ctx r 42;
          Kernel.on_abort ctx (fun () -> wrote := false);
          wrote := true);
      rule "reader" (fun ctx -> reads := Reg.read ctx r :: !reads);
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check (list int)) "no same-cycle read after write" [] !reads;
  ignore (Sim.cycle sim);
  Alcotest.(check (list int)) "read next cycle" [ 42 ] !reads

let test_double_write_conflict () =
  let clk = Clock.create () in
  let r = Reg.create 0 in
  let sim =
    Sim.create clk
      [
        rule "bad" (fun ctx ->
            Reg.write ctx r 1;
            Reg.write ctx r 2);
      ]
  in
  try
    ignore (Sim.cycle sim);
    Alcotest.fail "expected Conflict_error"
  with Kernel.Conflict_error _ -> ()

let test_ehr_forwarding () =
  (* w0 by an earlier rule is seen by r1 of a later rule in the same cycle. *)
  let clk = Clock.create () in
  let e = Ehr.create 0 in
  let seen = ref (-1) in
  let rules =
    [
      rule "w0" (fun ctx -> Ehr.write ctx e 0 7);
      rule "r1" (fun ctx -> seen := Ehr.read ctx e 1);
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check int) "r1 sees w0 same cycle" 7 !seen

let test_ehr_port_order_enforced () =
  (* r1 listed first, then w0: w0 after r1 requires port 0 >= 1 — conflict,
     so the writer stalls to the next cycle. *)
  let clk = Clock.create () in
  let e = Ehr.create 0 in
  let fired_both = ref false in
  let rules =
    [
      rule "r1" (fun ctx -> ignore (Ehr.read ctx e 1));
      rule "w0" (fun ctx ->
          Ehr.write ctx e 0 7;
          fired_both := true);
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check bool) "w0 blocked after r1" false !fired_both

let test_guard_atomicity () =
  (* A rule that writes one register and then hits a failing guard must leave
     no trace of the write. *)
  let clk = Clock.create () in
  let a = Reg.create 0 and b = Reg.create 0 in
  let rules =
    [
      rule "partial" (fun ctx ->
          Reg.write ctx a 99;
          Kernel.guard ctx (Reg.read ctx b > 0) "b not ready");
    ]
  in
  let sim = Sim.create clk rules in
  Sim.run sim 3;
  Alcotest.(check int) "write rolled back" 0 (Reg.peek a)

(* A byte written through [Mut.set_u8] (twice, so the trail holds two
   successive old values) before a failing guard reads its old value
   again; an inner attempt's byte write is undone while the outer rule's
   survives. *)
let test_u8_rollback () =
  let clk = Clock.create () in
  let b = Bytes.of_string "\001\002\003" in
  let rules =
    [
      rule "partial" (fun ctx ->
          Mut.set_u8 ctx b 0 7;
          Mut.set_u8 ctx b 0 9;
          Mut.set_u8 ctx b 1 200;
          Kernel.guard ctx false "never ready");
      rule "nested" (fun ctx ->
          Mut.set_u8 ctx b 2 30;
          ignore
            (Kernel.attempt ctx (fun ctx ->
                 Mut.set_u8 ctx b 2 40;
                 Kernel.guard ctx false "inner aborts")));
    ]
  in
  let sim = Sim.create clk rules in
  Sim.run sim 1;
  Alcotest.(check (list int)) "bytes after the aborts" [ 1; 2; 30 ]
    (List.init 3 (Bytes.get_uint8 b))

let test_attempt_partial () =
  let clk = Clock.create () in
  let a = Reg.create 0 and b = Reg.create 0 in
  let rules =
    [
      rule "two_ways" (fun ctx ->
          let (_ : unit option) = Kernel.attempt ctx (fun ctx -> Reg.write ctx a 1) in
          let (_ : unit option) =
            Kernel.attempt ctx (fun ctx ->
                Reg.write ctx b 2;
                Kernel.guard ctx false "never")
          in
          ());
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check int) "first way committed" 1 (Reg.peek a);
  Alcotest.(check int) "second way rolled back" 0 (Reg.peek b)

let test_config_reg_cf () =
  (* Reads are CF with the write: both orders fire in one cycle and reads see
     the cycle-start value. *)
  let clk = Clock.create () in
  let c = Config_reg.create clk 5 in
  let seen1 = ref 0 and seen2 = ref 0 in
  let rules =
    [
      rule "rd1" (fun ctx -> seen1 := Config_reg.read ctx c);
      rule "wr" (fun ctx -> Config_reg.write ctx c 9);
      rule "rd2" (fun ctx -> seen2 := Config_reg.read ctx c);
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check int) "read before write sees old" 5 !seen1;
  Alcotest.(check int) "read after write sees old (CF)" 5 !seen2;
  ignore (Sim.cycle sim);
  Alcotest.(check int) "next cycle sees new" 9 !seen1

let test_wire_bypass () =
  let clk = Clock.create () in
  let w = Wire.create clk () in
  let got = ref [] in
  let rules =
    [
      rule "set" (fun ctx -> Wire.set ctx w 3);
      rule "get" (fun ctx -> match Wire.get ctx w with Some v -> got := v :: !got | None -> ());
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check (list int)) "wire carries within cycle" [ 3 ] !got;
  let clk2 = Clock.create () in
  let w2 = Wire.create clk2 () in
  let got2 = ref 0 in
  let sim2 =
    Sim.create clk2
      [ rule "get" (fun ctx -> match Wire.get ctx w2 with Some _ -> incr got2 | None -> ()) ]
  in
  Sim.run sim2 2;
  Alcotest.(check int) "wire empty when never set" 0 !got2

(* --- FIFO conflict matrices ------------------------------------------- *)

let test_pipeline_fifo_full_deq_enq () =
  (* capacity 1, kept full; deq listed before enq: both fire every cycle. *)
  let clk = Clock.create () in
  let q = Fifo.pipeline ~capacity:1 () in
  let out = ref [] in
  let next = ref 100 in
  let rules =
    [
      rule "deq" (fun ctx -> out := Fifo.deq ctx q :: !out);
      rule "enq" (fun ctx ->
          Fifo.enq ctx q !next;
          let old = !next in
          Kernel.on_abort ctx (fun () -> next := old);
          incr next);
    ]
  in
  let sim = Sim.create clk rules in
  Sim.run sim 5;
  Alcotest.(check (list int)) "pipeline sustains full throughput" [ 103; 102; 101; 100 ]
    (List.filteri (fun i _ -> i < 4) !out)

let test_pipeline_fifo_no_passthrough () =
  (* empty pipeline FIFO: a deq cannot observe the same cycle's enq. *)
  let clk = Clock.create () in
  let q = Fifo.pipeline ~capacity:2 () in
  let out = ref [] in
  let enqd = ref false in
  let rules =
    [
      rule "enq" (fun ctx ->
          Kernel.guard ctx (not !enqd) "once";
          Fifo.enq ctx q 1;
          Kernel.on_abort ctx (fun () -> enqd := false);
          enqd := true);
      rule "deq" (fun ctx -> out := Fifo.deq ctx q :: !out);
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check (list int)) "no same-cycle passthrough" [] !out;
  ignore (Sim.cycle sim);
  Alcotest.(check bool) "dequeued next cycle" true (List.mem 1 !out)

let test_bypass_fifo_passthrough () =
  let clk = Clock.create () in
  let q = Fifo.bypass ~capacity:1 () in
  let out = ref [] in
  let rules =
    [
      rule "enq" (fun ctx -> Fifo.enq ctx q 1);
      rule "deq" (fun ctx -> out := Fifo.deq ctx q :: !out);
    ]
  in
  let sim = Sim.create clk rules in
  ignore (Sim.cycle sim);
  Alcotest.(check (list int)) "same-cycle passthrough" [ 1 ] !out

let test_cf_fifo_either_order () =
  let clk = Clock.create () in
  let q = Fifo.cf clk ~capacity:4 () in
  let out = ref [] in
  let next = ref 0 in
  let rules =
    [
      rule "deq" (fun ctx -> out := Fifo.deq ctx q :: !out);
      rule "enq" (fun ctx ->
          Fifo.enq ctx q !next;
          let old = !next in
          Kernel.on_abort ctx (fun () -> next := old);
          incr next);
    ]
  in
  let sim = Sim.create clk rules in
  Sim.run sim 10;
  let got = List.rev !out in
  Alcotest.(check (list int)) "FIFO order preserved" (List.init (List.length got) Fun.id) got;
  Alcotest.(check bool) "some elements flowed" true (List.length got >= 5)

let test_fifo_clear () =
  let clk = Clock.create () in
  let q = Fifo.pipeline ~capacity:4 () in
  let ctx = Kernel.make_ctx clk in
  Fifo.enq ctx q 1;
  Clock.tick clk;
  let ctx = Kernel.make_ctx clk in
  Fifo.enq ctx q 2;
  Fifo.clear ctx q;
  Alcotest.(check int) "cleared" 0 (Fifo.peek_size q);
  Clock.tick clk;
  let ctx = Kernel.make_ctx clk in
  Fifo.enq ctx q 3;
  Alcotest.(check (list int)) "usable after clear" [ 3 ] (Fifo.peek_list q)

let test_cf_fifo_multiport () =
  (* several enqueues and dequeues inside one atomic rule: the k-th op of a
     cycle uses EHR port k, so batches compose (the L2's unconditional
     response drain depends on this) *)
  let clk = Clock.create () in
  let q = Fifo.cf clk ~capacity:8 () in
  let drained = ref [] in
  let phase = ref `Fill in
  let rules =
    [
      rule "burst" (fun ctx ->
          match !phase with
          | `Fill ->
            for i = 1 to 5 do
              Fifo.enq ctx q i
            done;
            Kernel.on_abort ctx (fun () -> phase := `Fill);
            phase := `Drain
          | `Drain ->
            let rec go () =
              match Kernel.attempt ctx (fun ctx -> Fifo.deq ctx q) with
              | Some v ->
                drained := v :: !drained;
                go ()
              | None -> ()
            in
            go ();
            Kernel.on_abort ctx (fun () -> phase := `Drain);
            phase := `Done
          | `Done -> raise (Kernel.Guard_fail "done"));
    ]
  in
  let sim = Sim.create clk rules in
  Sim.run sim 3;
  Alcotest.(check (list int)) "burst drained in order" [ 1; 2; 3; 4; 5 ] (List.rev !drained)

(* --- Scheduler properties ---------------------------------------------- *)

(* Producer/consumer chain through a FIFO: under every scheduler mode, the
   consumer must observe exactly the sequence 0,1,2,... (no loss, duplication
   or reordering) — the paper's "behaviour equals one-rule-at-a-time". *)
let chain_property mode kind =
  let clk = Clock.create () in
  let cap = 3 in
  let q =
    match kind with
    | `P -> Fifo.pipeline ~capacity:cap ()
    | `B -> Fifo.bypass ~capacity:cap ()
    | `C -> Fifo.cf clk ~capacity:cap ()
  in
  let produced = ref 0 and consumed = ref [] in
  let rules =
    [
      rule "produce" (fun ctx ->
          Kernel.guard ctx (!produced < 50) "done";
          Fifo.enq ctx q !produced;
          let old = !produced in
          Kernel.on_abort ctx (fun () -> produced := old);
          incr produced);
      rule "consume" (fun ctx -> consumed := Fifo.deq ctx q :: !consumed);
    ]
  in
  let sim = Sim.create ~mode clk rules in
  Sim.run sim 500;
  List.rev !consumed = List.init 50 Fun.id

let test_chain_all_modes () =
  List.iter
    (fun (mname, mode) ->
      List.iter
        (fun (kname, kind) ->
          Alcotest.(check bool)
            (Printf.sprintf "chain intact: %s fifo under %s" kname mname)
            true (chain_property mode kind))
        [ ("pipeline", `P); ("bypass", `B); ("cf", `C) ])
    [ ("Multi", Sim.Multi); ("One_per_cycle", Sim.One_per_cycle); ("Shuffle", Sim.Shuffle 7) ]

(* qcheck: tokens moved across two FIFOs under random schedules are
   conserved. *)
let qcheck_token_conservation =
  QCheck.Test.make ~name:"token conservation under random schedules" ~count:50
    QCheck.(pair (int_bound 1000) (int_bound 3))
    (fun (seed, extra) ->
      let clk = Clock.create () in
      let q1 = Fifo.cf clk ~capacity:(2 + extra) () in
      let q2 = Fifo.pipeline ~capacity:(2 + extra) () in
      let src = ref 40 and sink = ref 0 in
      let rules =
        [
          rule "inject" (fun ctx ->
              Kernel.guard ctx (!src > 0) "spent";
              Fifo.enq ctx q1 1;
              let old = !src in
              Kernel.on_abort ctx (fun () -> src := old);
              decr src);
          rule "move" (fun ctx -> Fifo.enq ctx q2 (Fifo.deq ctx q1));
          rule "drain" (fun ctx ->
              let v = Fifo.deq ctx q2 in
              let old = !sink in
              Kernel.on_abort ctx (fun () -> sink := old);
              sink := !sink + v);
        ]
      in
      let sim = Sim.create ~mode:(Sim.Shuffle seed) clk rules in
      Sim.run sim 400;
      !sink = 40 && Fifo.peek_size q1 = 0 && Fifo.peek_size q2 = 0)

(* qcheck: EHR port semantics — writes at distinct ports plus one read; the
   read (scheduled last) fires iff no earlier write used a port >= its own,
   and then sees exactly the last write at a lower port. *)
let qcheck_ehr_ports =
  QCheck.Test.make ~name:"EHR read sees writes at lower ports only" ~count:100
    QCheck.(pair (list_of_size Gen.(1 -- 5) (int_bound 6)) (int_bound 7))
    (fun (wports, rport) ->
      let wports = List.sort_uniq compare wports in
      let clk = Clock.create () in
      let e = Ehr.create (-1) in
      let seen = ref None in
      let rules =
        List.map (fun p -> rule (Printf.sprintf "w%d" p) (fun ctx -> Ehr.write ctx e p p)) wports
        @ [ rule "r" (fun ctx -> seen := Some (Ehr.read ctx e rport)) ]
      in
      let sim = Sim.create clk rules in
      ignore (Sim.cycle sim);
      let lower = List.filter (fun p -> p < rport) wports in
      let blocked = List.exists (fun p -> p >= rport) wports in
      match !seen with
      | None -> blocked
      | Some v ->
        (not blocked)
        && (match List.rev lower with [] -> v = -1 | last :: _ -> v = last))

(* The EHR conflict matrix as the kernel enforces it at run time: two
   one-access rules on one EHR, listed in both orders, for one cycle.
   [r0 < w0] means the pair fires together only when r0 is listed first;
   CF pairs fire together in either order, C pairs in neither. The rule
   that cannot follow counts a conflict instead. *)
let test_ehr_order_matrix () =
  let access (write, port) e ctx =
    if write then Ehr.write ctx e port 1 else ignore (Ehr.read ctx e port)
  in
  let both_fire first second =
    let clk = Clock.create () in
    let e = Ehr.create 0 in
    let r1 = rule "first" (access first e) and r2 = rule "second" (access second e) in
    ignore (Sim.cycle (Sim.create clk [ r1; r2 ]));
    Alcotest.(check int) "first listed fires" 1 r1.Rule.fired;
    Alcotest.(check int) "second listed fires or conflicts" 1 (r2.Rule.fired + r2.Rule.conflicted);
    r2.Rule.fired = 1
  in
  let r p = (false, p) and w p = (true, p) in
  List.iter
    (fun (name, a, b, want) ->
      Alcotest.(check (pair bool bool)) name want (both_fire a b, both_fire b a))
    [
      ("r0 r1: CF", r 0, r 1, (true, true));
      ("r0 w0: r0 < w0", r 0, w 0, (true, false));
      ("r1 w0: w0 < r1", r 1, w 0, (false, true));
      ("w0 r1: w0 < r1", w 0, r 1, (true, false));
      ("w0 w0: C", w 0, w 0, (false, false));
      ("w0 w1: w0 < w1", w 0, w 1, (true, false));
    ]

let test_run_until () =
  let clk = Clock.create () in
  let c = Reg.create 0 in
  let rules = [ rule "inc" (fun ctx -> Reg.modify ctx c succ) ] in
  let sim = Sim.create clk rules in
  (match Sim.run_until sim ~max_cycles:100 (fun () -> Reg.peek c >= 10) with
  | `Done n -> Alcotest.(check int) "took 10 cycles" 10 n
  | `Timeout _ -> Alcotest.fail "timeout");
  match Sim.run_until sim ~max_cycles:5 (fun () -> Reg.peek c >= 1000) with
  | `Done _ -> Alcotest.fail "should time out"
  | `Timeout n -> Alcotest.(check int) "spent the whole budget" 5 n

(* Two sims built identically with the same Shuffle seed must produce the
   same trace (per-cycle fire counts and final state): campaigns and
   schedule-robustness tests rely on this determinism. *)
let test_shuffle_deterministic () =
  let build () =
    let clk = Clock.create () in
    let a = Reg.create 0 and b = Reg.create 0 and c = Reg.create 0 in
    let rules =
      [
        rule "inc-a" (fun ctx -> Reg.modify ctx a succ);
        rule "a-to-b" (fun ctx -> Reg.write ctx b (Reg.read ctx a * 2));
        rule "b-to-c" (fun ctx -> Reg.write ctx c (Reg.read ctx b + Reg.read ctx c));
        rule "gated" (fun ctx ->
            Kernel.guard ctx (Reg.read ctx a mod 3 = 0) "mod3";
            Reg.modify ctx c succ);
      ]
    in
    let sim = Sim.create ~mode:(Sim.Shuffle 42) clk rules in
    let trace = List.init 50 (fun _ -> Sim.cycle sim) in
    (trace, Reg.peek a, Reg.peek b, Reg.peek c)
  in
  let t1 = build () and t2 = build () in
  Alcotest.(check bool) "identical traces under one seed" true (t1 = t2)

let test_one_per_cycle_fairness () =
  (* three always-ready rules, 9 cycles: the rotating start offset must give
     each exactly 3 firings (a fixed order would starve the later ones) *)
  let clk = Clock.create () in
  let counts = Array.make 3 0 in
  let rules =
    List.init 3 (fun i -> rule (Printf.sprintf "r%d" i) (fun _ -> counts.(i) <- counts.(i) + 1))
  in
  let sim = Sim.create ~mode:Sim.One_per_cycle clk rules in
  Sim.run sim 9;
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "rule %d fired 3 times" i) 3 c)
    counts

let test_watchdog_trip_and_reset () =
  let clk = Clock.create () in
  let budget = ref 5 in
  let rules =
    [
      rule "pump" (fun ctx ->
          Kernel.guard ctx (!budget > 0) "dry";
          Mut.set ctx budget (!budget - 1));
    ]
  in
  let sim = Sim.create clk rules in
  let wd = Verif.Watchdog.attach ~history:8 ~limit:8 sim in
  (* fires 5 cycles, then guard-fails forever: idle streak starts at cycle 5
     and the trip must come exactly 8 idle cycles later *)
  (match Sim.run_until sim ~max_cycles:100 (fun () -> false) with
  | `Done _ | `Timeout _ -> Alcotest.fail "watchdog never tripped"
  | exception Verif.Watchdog.Trip info ->
    Alcotest.(check int) "tripped after 5 live + 8 idle cycles" 13 info.at_cycle;
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "report names the starved rule" true (contains info.report "pump");
    Alcotest.(check bool) "report carries guard-fail counts" true
      (contains info.report "guard-failed"));
  Alcotest.(check int) "one trip recorded" 1 (Verif.Watchdog.trips wd);
  (* catching re-arms a full window: the next trip takes 8 more cycles *)
  (match Sim.run_until sim ~max_cycles:100 (fun () -> false) with
  | `Done _ | `Timeout _ -> Alcotest.fail "watchdog did not re-trip"
  | exception Verif.Watchdog.Trip info ->
    Alcotest.(check int) "re-tripped a full window later" 21 info.at_cycle);
  Alcotest.(check int) "two trips recorded" 2 (Verif.Watchdog.trips wd)

let test_inject_registry () =
  (* disarmed: registration is a no-op *)
  Inject.disarm ();
  let r0 = Reg.create 7 in
  ignore r0;
  Alcotest.(check int) "disarmed registers nothing" 0 (Inject.n_sites ());
  (* armed: every Reg/Ehr/Fifo cell becomes a site, and firing a bit flips
     the live value *)
  Inject.arm ();
  let r = Reg.create ~name:"target" 0 in
  let sites = Inject.sites () in
  Inject.disarm ();
  Alcotest.(check bool) "site registered" true (Array.length sites >= 1);
  let site =
    match Array.to_list sites |> List.find_opt (fun s -> s.Inject.name = "target") with
    | Some s -> s
    | None -> Alcotest.fail "named site missing"
  in
  Alcotest.(check bool) "flip applied" true (Inject.fire site 3);
  Alcotest.(check int) "bit 3 flipped" 8 (Reg.peek r);
  Alcotest.(check bool) "flip back" true (Inject.fire site 3);
  Alcotest.(check int) "restored" 0 (Reg.peek r)

(* qcheck: nested rule transactions against a pure reference model. A
   program is a list of cycles; each cycle runs rules on one context, each
   rule a tree of operations over every kind of tracked state, with guard
   failures at random depths and nested [Kernel.attempt]s. The model
   replays the same program on immutable state, including the EHR port
   rules and the cf FIFO's cycle-start guards, so a lost undo — of a value
   or of port bookkeeping — shows as a different final state or a
   different commit/abort outcome. *)
type op =
  | Ehr_w of int * int (* port, value *)
  | Ehr_r of int (* port; the value read goes to [fld] *)
  | Set_ref of int option
  | Set_arr of int * int
  | Field of int
  | Blit of int * int (* position, byte *)
  | I64 of int * int (* 0 or 8, value *)
  | Stat of int
  | Enq of int
  | Deq (* the value goes to [arr.(0)] *)
  | Fail
  | Attempt of op list

let rec show_op = function
  | Ehr_w (p, v) -> Printf.sprintf "ehr.w%d=%d" p v
  | Ehr_r p -> Printf.sprintf "ehr.r%d" p
  | Set_ref None -> "ref=None"
  | Set_ref (Some v) -> Printf.sprintf "ref=Some %d" v
  | Set_arr (i, v) -> Printf.sprintf "arr.(%d)=%d" i v
  | Field v -> Printf.sprintf "fld=%d" v
  | Blit (p, b) -> Printf.sprintf "blit@%d=%d" p b
  | I64 (o, v) -> Printf.sprintf "i64@%d=%d" o v
  | Stat n -> Printf.sprintf "stat+%d" n
  | Enq v -> Printf.sprintf "enq %d" v
  | Deq -> "deq"
  | Fail -> "FAIL"
  | Attempt ops -> "attempt[" ^ show_ops ops ^ "]"

and show_ops ops = String.concat "; " (List.map show_op ops)

let show_prog prog =
  String.concat " | "
    (List.map
       (fun rules ->
         String.concat " , "
           (List.map show_ops rules))
       prog)

let gen_prog =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (3, map2 (fun p v -> Ehr_w (p, v)) (int_bound 3) (int_bound 9));
        (2, map (fun p -> Ehr_r p) (int_bound 3));
        (2, map (fun v -> Set_ref v) (opt (int_bound 9)));
        (2, map2 (fun i v -> Set_arr (i, v)) (int_bound 3) (int_bound 9));
        (2, map (fun v -> Field v) (int_bound 9));
        (1, map2 (fun p b -> Blit (p, b)) (int_bound 13) (int_bound 255));
        (1, map2 (fun o v -> I64 (8 * o, v)) (int_bound 1) (int_bound 1000));
        (2, map (fun n -> Stat n) (1 -- 3));
        (2, map (fun v -> Enq v) (int_bound 9));
        (2, return Deq);
        (2, return Fail);
      ]
  in
  let rec ops depth =
    list_size (0 -- 5)
      (if depth = 0 then leaf
       else frequency [ (6, leaf); (1, map (fun o -> Attempt o) (ops (depth - 1))) ])
  in
  list_size (1 -- 4) (list_size (1 -- 4) (ops 2))

(* --- the model --- *)
type mstate = {
  ehr : int;
  sum : int * int * int; (* max_r, max_w, w_mask *)
  mref : int option;
  marr : int list;
  mfld : int;
  mbytes : string;
  mstat : int;
  q : int list;
  enq_total : int;
  deq_total : int;
  enq_snap : int;
  deq_snap : int;
}

let cap = 4

exception Abort

let set_nth l i v = List.mapi (fun j x -> if j = i then v else x) l

let rec mrun st = function
  | [] -> st
  | op :: rest ->
    let st =
      match op with
      | Ehr_w (p, v) ->
        let r, w, m = st.sum in
        if r > p || w >= p || m land (1 lsl p) <> 0 then raise Abort;
        { st with ehr = v; sum = (r, p, m lor (1 lsl p)) }
      | Ehr_r p ->
        let r, w, m = st.sum in
        if w >= p then raise Abort;
        { st with mfld = st.ehr; sum = (max r p, w, m) }
      | Set_ref v -> { st with mref = v }
      | Set_arr (i, v) -> { st with marr = set_nth st.marr i v }
      | Field v -> { st with mfld = v }
      | Blit (p, b) ->
        let by = Bytes.of_string st.mbytes in
        Bytes.fill by p 3 (Char.chr b);
        { st with mbytes = Bytes.to_string by }
      | I64 (o, v) ->
        let by = Bytes.of_string st.mbytes in
        Bytes.set_int64_le by o (Int64.of_int v);
        { st with mbytes = Bytes.to_string by }
      | Stat n -> { st with mstat = st.mstat + n }
      | Enq v ->
        if st.enq_total - st.deq_snap >= cap then raise Abort;
        { st with q = st.q @ [ v ]; enq_total = st.enq_total + 1 }
      | Deq -> (
        if st.deq_total >= st.enq_snap then raise Abort;
        match st.q with
        | v :: q -> { st with q; deq_total = st.deq_total + 1; marr = set_nth st.marr 0 v }
        | [] -> assert false)
      | Fail -> raise Abort
      | Attempt ops -> ( try mrun st ops with Abort -> st)
    in
    mrun st rest

(* Each rule's outcome (true = committed) and the state after each cycle. *)
let model prog =
  let st =
    {
      ehr = 0;
      sum = (-1, -1, 0);
      mref = None;
      marr = [ 0; 0; 0; 0 ];
      mfld = 0;
      mbytes = String.make 16 '\000';
      mstat = 0;
      q = [];
      enq_total = 0;
      deq_total = 0;
      enq_snap = 0;
      deq_snap = 0;
    }
  in
  let outcomes = ref [] and states = ref [] in
  ignore
    (List.fold_left
       (fun st rules ->
         let st =
           List.fold_left
             (fun st ops ->
               match mrun st ops with
               | st' ->
                 outcomes := true :: !outcomes;
                 st'
               | exception Abort ->
                 outcomes := false :: !outcomes;
                 st)
             st rules
         in
         states := st :: !states;
         {
           st with
           sum = (-1, -1, 0);
           enq_snap = st.enq_total;
           deq_snap = st.deq_total;
         })
       st prog);
  (List.rev !outcomes, List.rev !states)

(* --- the implementation --- *)
type frec = { mutable f : int }

let implementation prog =
  let clk = Clock.create () in
  let ctx = Kernel.make_ctx clk in
  let e = Ehr.create 0 in
  let r = ref None and arr = Array.make 4 0 and fr = { f = 0 } in
  let by = Bytes.make 16 '\000' in
  let stats = Stats.create () in
  let c = Stats.counter stats "c" in
  let q = Fifo.cf clk ~capacity:cap () in
  let rec run ctx = function
    | [] -> ()
    | op :: rest ->
      (match op with
      | Ehr_w (p, v) -> Ehr.write ctx e p v
      | Ehr_r p ->
        let v = Ehr.read ctx e p in
        Mut.field ctx fr ~get:(fun o -> o.f) ~set:(fun o v -> o.f <- v) v
      | Set_ref v -> Mut.set ctx r v
      | Set_arr (i, v) -> Mut.set_arr ctx arr i v
      | Field v -> Mut.field ctx fr ~get:(fun o -> o.f) ~set:(fun o v -> o.f <- v) v
      | Blit (p, b) ->
        Mut.blit ctx ~src:(Bytes.make 3 (Char.chr b)) ~src_pos:0 ~dst:by ~dst_pos:p ~len:3
      | I64 (o, v) -> Mut.set_int64 ctx by o (Int64.of_int v)
      | Stat n -> Stats.incr ~ctx ~by:n c
      | Enq v -> Fifo.enq ctx q v
      | Deq -> Mut.set_arr ctx arr 0 (Fifo.deq ctx q)
      | Fail -> Kernel.guard ctx false "gen"
      | Attempt ops -> ignore (Kernel.attempt ctx (fun ctx -> run ctx ops)));
      run ctx rest
  in
  let outcomes = ref [] and states = ref [] in
  List.iter
    (fun rules ->
      List.iter
        (fun ops ->
          (match run ctx ops with
          | () -> outcomes := true :: !outcomes
          | exception (Kernel.Guard_fail _ | Kernel.Retry _) ->
            Kernel.rollback ctx;
            if Kernel.undo_depth ctx <> 0 then failwith "rollback left entries";
            outcomes := false :: !outcomes);
          Kernel.reset_ctx ctx)
        rules;
      states :=
        {
          ehr = Ehr.peek e;
          sum = (-1, -1, 0);
          mref = !r;
          marr = Array.to_list arr;
          mfld = fr.f;
          mbytes = Bytes.to_string by;
          mstat = Stats.get c;
          q = Fifo.peek_list q;
          enq_total = 0;
          deq_total = 0;
          enq_snap = 0;
          deq_snap = 0;
        }
        :: !states;
      Clock.tick clk)
    prog;
  (List.rev !outcomes, List.rev !states)

let observable st =
  { st with sum = (-1, -1, 0); enq_total = 0; deq_total = 0; enq_snap = 0; deq_snap = 0 }

let qcheck_transactions =
  QCheck.Test.make ~name:"nested transactions match a pure model" ~count:400
    (QCheck.make ~print:show_prog gen_prog)
    (fun prog ->
      let mo, ms = model prog in
      let io, is = implementation prog in
      mo = io && List.map observable ms = is)

(* The satellite cases spelled out: a location written by an outer and an
   inner attempt where either level aborts, and an aborted rule whose port
   accesses must not make a later rule Retry. *)
let test_nested_abort_levels () =
  let check name prog expect_outcomes =
    let mo, ms = model prog in
    let io, is = implementation prog in
    Alcotest.(check (list bool)) (name ^ ": outcomes") expect_outcomes io;
    Alcotest.(check (list bool)) (name ^ ": model outcomes") mo io;
    Alcotest.(check bool) (name ^ ": states") true (List.map observable ms = is)
  in
  (* inner aborts: outer's write survives, inner's is undone *)
  check "inner aborts"
    [ [ [ Field 1; Attempt [ Field 2; Fail ]; Set_arr (1, 7) ] ] ]
    [ true ];
  (* outer aborts after a committed inner attempt: both undone *)
  check "outer aborts" [ [ [ Field 1; Attempt [ Field 2; Stat 2 ]; Fail ] ] ] [ false ];
  (* aborted rule wrote EHR port 1 and enqueued: a later rule still reads
     port 1 and enqueues at the same FIFO port without a Retry *)
  check "no Retry after abort"
    [ [ [ Ehr_w (1, 5); Enq 3; Fail ]; [ Ehr_r 1; Enq 4 ] ] ]
    [ false; true ]

(* Allocation regression: a committed write of an immediate value through
   Reg/Ehr, Mut.field, Mut.set_arr or a cf FIFO's ports logs its undo
   without allocating. The rule set is fixed and single-domain; after a
   warm-up (the trail reaches its working size) N cycles must allocate
   less than one word per cycle in total, where one closure per write
   would cost dozens. *)
type cnt = { mutable n : int }

let test_write_allocation () =
  let clk = Clock.create () in
  let r = Reg.create 0 and e = Ehr.create 0 in
  let o = { n = 0 } and a = Array.make 8 0 in
  let q = Fifo.cf clk ~capacity:4 () in
  let k = ref 0 in
  let rules =
    [
      rule "regs" (fun ctx ->
          Reg.write ctx r (Reg.read ctx r + 1);
          Ehr.write ctx e 0 (Ehr.read ctx e 0 + 1);
          Ehr.write ctx e 1 (Ehr.read ctx e 1 + 1));
      rule "mut" (fun ctx ->
          Mut.field ctx o ~get:(fun o -> o.n) ~set:(fun o v -> o.n <- v) (o.n + 1);
          Mut.set_arr ctx a (o.n land 7) o.n;
          Mut.set ctx k (!k + 1));
      rule "deq" (fun ctx -> Mut.set_arr ctx a 0 (Fifo.deq ctx q));
      rule "enq" (fun ctx -> Fifo.enq ctx q !k);
      (* a step its ready test turns away costs no transaction, closure or
         option, and the aggregate's own guard failure raises a
         preallocated exception *)
      (let empty = Fifo.cf clk ~capacity:2 () in
       let take ctx = ignore (Fifo.deq ctx empty) in
       Rule.make "skip" (fun ctx ->
           ignore (Kernel.attempt_if ctx (Fifo.peek_size empty > 0) take);
           Kernel.require_effect ctx));
    ]
  in
  let sim = Sim.create clk rules in
  Sim.run sim 100;
  let n = 10_000 in
  let before = Gc.minor_words () in
  Sim.run sim n;
  let words = Gc.minor_words () -. before in
  List.iter
    (fun (r : Rule.t) ->
      if r.Rule.name = "skip" then
        Alcotest.(check (pair int int))
          "skip failed its guard every cycle" (Sim.cycles sim, 0)
          (r.Rule.guard_failed, r.Rule.fired)
      else
        Alcotest.(check int) (r.Rule.name ^ " committed every steady cycle") 0
          (r.Rule.guard_failed + r.Rule.conflicted - if r.Rule.name = "deq" then 1 else 0))
    rules;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over %d cycles (< %d)" words n n)
    true
    (words < float_of_int n);
  (* the byte row ([Mut.set_u8]) on its own: one tracked byte write a
     cycle allocates not a single word *)
  let clk = Clock.create () in
  let tab = Bytes.make 8 '\000' in
  let n_u8 = ref 0 in
  let sim =
    Sim.create clk
      [
        rule "u8" (fun ctx ->
            let i = !n_u8 land 7 in
            Mut.set_u8 ctx tab i ((Bytes.get_uint8 tab i + 1) land 0xff));
        rule "count" (fun ctx -> Mut.set ctx n_u8 (!n_u8 + 1));
      ]
  in
  Sim.run sim 100;
  let before = Gc.minor_words () in
  Sim.run sim n;
  Alcotest.(check (float 0.)) "set_u8 rule: minor words" 0. (Gc.minor_words () -. before)

let suite =
  let t = Alcotest.test_case in
  [
    t "reg: read < write" `Quick test_reg_read_before_write;
    t "reg: write blocks later read" `Quick test_reg_write_blocks_read;
    t "reg: double write is a design error" `Quick test_double_write_conflict;
    t "ehr: forwarding through ports" `Quick test_ehr_forwarding;
    t "ehr: port order enforced" `Quick test_ehr_port_order_enforced;
    t "guard failure rolls back" `Quick test_guard_atomicity;
    t "mut: set_u8 rolls back" `Quick test_u8_rollback;
    t "attempt: partial ways" `Quick test_attempt_partial;
    t "config reg: read CF write" `Quick test_config_reg_cf;
    t "wire: intra-cycle bypass" `Quick test_wire_bypass;
    t "pipeline fifo: deq<enq when full" `Quick test_pipeline_fifo_full_deq_enq;
    t "pipeline fifo: no passthrough" `Quick test_pipeline_fifo_no_passthrough;
    t "bypass fifo: passthrough" `Quick test_bypass_fifo_passthrough;
    t "cf fifo: either order" `Quick test_cf_fifo_either_order;
    t "fifo: clear" `Quick test_fifo_clear;
    t "cf fifo: multi-ported bursts" `Quick test_cf_fifo_multiport;
    t "chain intact under all modes" `Quick test_chain_all_modes;
    t "conflict: EHR order matrix" `Quick test_ehr_order_matrix;
    t "sim: run_until" `Quick test_run_until;
    t "sim: shuffle deterministic under seed" `Quick test_shuffle_deterministic;
    t "sim: one-per-cycle round-robin fairness" `Quick test_one_per_cycle_fairness;
    t "watchdog: trip, report, re-arm" `Quick test_watchdog_trip_and_reset;
    t "inject: registry arm/fire/disarm" `Quick test_inject_registry;
    QCheck_alcotest.to_alcotest qcheck_token_conservation;
    QCheck_alcotest.to_alcotest qcheck_ehr_ports;
    t "txn: outer/inner aborts, no Retry after abort" `Quick test_nested_abort_levels;
    t "txn: committed immediate writes allocate nothing" `Quick test_write_allocation;
    QCheck_alcotest.to_alcotest qcheck_transactions;
  ]
