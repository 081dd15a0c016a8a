let () =
  Alcotest.run "riscyoo"
    [
      ("cmd", Test_cmd.suite);
      ("conflict", Test_conflict.suite);
      ("sched", Test_sched.suite);
      ("isa", Test_isa.suite);
      ("mem", Test_mem.suite);
      ("branch", Test_branch.suite);
      ("inorder", Test_inorder.suite);
      ("ooo-units", Test_ooo_units.suite);
      ("lsq", Test_lsq.suite);
      ("tlb-units", Test_tlb_units.suite);
      ("ooo", Test_ooo.suite);
      ("multicore", Test_multicore.suite);
      ("workloads", Test_workloads.suite);
      ("obs", Test_obs.suite);
      ("verif", Test_verif.suite);
      ("random", Test_random.suite);
      ("synth", Test_synth.suite);
      ("litmus", Test_litmus.suite);
      ("mcheck", Test_mcheck.suite);
      ("snapshot", Test_snapshot.suite);
      ("farm", Test_farm.suite);
      ("pool", Test_pool.suite);
      ("explore", Test_explore.suite);
    ]
