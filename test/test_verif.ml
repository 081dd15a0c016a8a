(* Tests for the verification subsystem: fault-injection campaigns are
   deterministic and classify every trial; invariant checks are silent on
   clean runs and catch deliberately seeded corruption. *)

open Workloads

(* same small-cache shape as test_ooo, so misses/evictions happen quickly *)
let test_cfg =
  {
    Ooo.Config.riscyoo_b with
    Ooo.Config.mem =
      {
        Mem.Mem_sys.l1d_bytes = 2048;
        l1d_ways = 2;
        l1d_mshrs = 4;
        l1i_bytes = 2048;
        l1i_ways = 2;
        l2_bytes = 8192;
        l2_ways = 4;
        l2_mshrs = 8;
        l2_latency = 4;
        mesi = false;
        mem_latency = 30;
        mem_inflight = 8;
        l2_banks = 1;
      };
  }

let smoke = Spec_kernels.find "smoke" ~scale:1

let campaign ~trials ~seed =
  let g = Machine.create Machine.Golden_only smoke in
  let go = Machine.run g in
  Alcotest.(check bool) "golden exits" false go.Machine.timed_out;
  let clean = Machine.create (Machine.Out_of_order test_cfg) smoke in
  let co = Machine.run ~max_cycles:1_000_000 clean in
  Alcotest.(check bool) "fault-free run exits" false co.Machine.timed_out;
  let horizon = co.Machine.cycles in
  let harness =
    {
      Verif.Fault.build =
        (fun () ->
          Machine.create ~cosim:true ~watchdog:1500 ~invariants:true
            (Machine.Out_of_order test_cfg) smoke);
      exec =
        (fun m ~on_cycle ->
          let o = Machine.run ~max_cycles:((2 * horizon) + 20_000) ~on_cycle m in
          if o.Machine.timed_out then `Timeout o.Machine.cycles else `Exit o.Machine.exits);
      reference = go.Machine.exits;
    }
  in
  Verif.Fault.run ~seed ~trials ~horizon harness

let test_campaign_classified () =
  let open Verif.Fault in
  let s = campaign ~trials:40 ~seed:11 in
  Alcotest.(check int) "all trials ran" 40 s.n_trials;
  Alcotest.(check int) "every trial classified" 40 (s.n_masked + s.n_divergence + s.n_hang);
  Alcotest.(check int) "no undiagnosed timeouts" 0 s.n_undiagnosed;
  (* a bit-flip campaign over real state should not be 100% masked *)
  Alcotest.(check bool) "some faults detected" true (s.n_divergence + s.n_hang > 0)

let test_campaign_deterministic () =
  let open Verif.Fault in
  let s1 = campaign ~trials:12 ~seed:5 in
  let s2 = campaign ~trials:12 ~seed:5 in
  Alcotest.(check bool) "same seed, same plan and classification" true (s1.trials = s2.trials)

let test_invariants_clean_run () =
  let m =
    Machine.create ~cosim:true ~invariants:true ~watchdog:5000 (Machine.Out_of_order test_cfg)
      smoke
  in
  let o = Machine.run ~max_cycles:1_000_000 m in
  Alcotest.(check bool) "exits cleanly with checks on" false o.Machine.timed_out;
  Alcotest.(check bool) "checks were registered" true
    (List.length (Machine.invariant_names m) >= 5);
  Alcotest.(check int) "no watchdog trips" 0 (Machine.watchdog_trips m)

(* Seed the exact bug the invariant exists for: free the same physical
   register twice and demand the free-list check names it. *)
let test_double_free_detected () =
  let clk = Cmd.Clock.create () in
  let fl, checks = Verif.Invariant.collecting (fun () -> Ooo.Free_list.create ~nregs:40) in
  Alcotest.(check bool) "check collected" true
    (List.mem "freelist.no-double-free" (Verif.Invariant.names checks));
  Verif.Invariant.run_checks checks;
  let ctx = Cmd.Kernel.make_ctx clk in
  let r = Ooo.Free_list.alloc ctx fl in
  Verif.Invariant.run_checks checks;
  Ooo.Free_list.free ctx fl r;
  Verif.Invariant.run_checks checks;
  Ooo.Free_list.free ctx fl r;
  match Verif.Invariant.run_checks checks with
  | () -> Alcotest.fail "seeded double-free not detected"
  | exception Verif.Invariant.Violation (name, _) ->
    Alcotest.(check string) "caught by the free-list check" "freelist.no-double-free" name

(* Registration is scoped: building a machine outside [collecting] (and with
   the Inject registry disarmed) must leave no global residue. *)
let test_registries_stay_clean () =
  Alcotest.(check bool) "inject disarmed" false (Cmd.Inject.is_armed ());
  let before = Cmd.Inject.n_sites () in
  let m = Machine.create (Machine.Out_of_order test_cfg) smoke in
  Alcotest.(check int) "no sites leaked" before (Cmd.Inject.n_sites ());
  Alcotest.(check (list string)) "no checks collected" [] (Machine.invariant_names m)

let suite =
  let t = Alcotest.test_case in
  [
    t "campaign: every trial classified" `Quick test_campaign_classified;
    t "campaign: deterministic under seed" `Quick test_campaign_deterministic;
    t "invariants: silent on clean run" `Quick test_invariants_clean_run;
    t "invariants: seeded double-free caught" `Quick test_double_free_detected;
    t "registries: no residue without opt-in" `Quick test_registries_stay_clean;
  ]
