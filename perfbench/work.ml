(* The three workloads, each run as one repetition inside a fresh child
   process (see main.ml for why). A repetition times the benchmark's own
   calls into the simulator's public API, checks every output, and emits
   its raw numbers as [m <name> <value>] lines plus per-job latencies
   ([l <ms>]) and the operation counts ([a]/[f] lines). *)

open Workloads

type rep = {
  traced : bool;
  root : int;  (** root span, -1 untraced *)
  short : bool;  (** the self-check's reduced sizes *)
  corrupt_golden : bool;  (** the self-check's negative case *)
  mutable attempted : int;
  mutable failed : int;
  mutable out : (string * float) list;
  mutable job_ms : float list;
  counts : (string, int) Hashtbl.t;  (** deterministic counters, summed *)
  mutable runs : (int64 * int64) list;  (** Machine.run intervals *)
  mutable domains : int;  (** domains simulating during those intervals *)
  mutable minor : float;  (** words allocated during those intervals *)
  mutable promoted : float;
}

let emit r name v = r.out <- (name, v) :: r.out

let op r ok what =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    Printf.eprintf "perfbench: FAILED %s\n%!" what
  end

let bump r name by =
  Hashtbl.replace r.counts name (by + Option.value ~default:0 (Hashtbl.find_opt r.counts name))

let count r name = Option.value ~default:0 (Hashtbl.find_opt r.counts name)
let max_cycles = 50_000_000

let median l =
  let s = Array.of_list l in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then 0. else (s.((n - 1) / 2) +. s.(n / 2)) /. 2.

(* Nearest-rank percentile of an unboxed sample. *)
let percentile a p =
  let n = Float.Array.length a in
  if n = 0 then 0.
  else begin
    let s = Float.Array.copy a in
    Float.Array.sort Float.compare s;
    Float.Array.get s (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1 |> max 0))
  end

let timed f =
  let t0 = Trace.now () in
  let x = f () in
  (x, Trace.secs t0 (Trace.now ()))

(* ------------------------------------------------------------------ *)
(* Counters read after a run                                            *)
(* ------------------------------------------------------------------ *)

(* Rule groups, named after the lib/ modules that register the rules. *)
let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let group name =
  let has = contains name in
  let ends s = String.ends_with ~suffix:s name in
  if has ".fetch." || ends ".decode" || ends ".rename" then "ooo.frontend"
  else if has ".l1d." || has ".l1i." then "mem.l1"
  else if has ".tlb." || String.starts_with ~prefix:"walkxbar" name then "tlb"
  else if String.starts_with ~prefix:"xbar" name || String.starts_with ~prefix:"l2" name then
    "mem.uncore"
  else if
    List.exists ends
      [ ".respLd"; ".respLdFwd"; ".updateLsq"; ".issueLd"; ".respSt"; ".sbIssue"; ".deqSt"; ".issueSt" ]
  then "ooo.lsq"
  else "ooo.backend"

let groups = [ "ooo.frontend"; "ooo.backend"; "ooo.lsq"; "mem.l1"; "mem.uncore"; "tlb" ]

(* A rule's counters: [fired + guard_failed + conflicted] is every
   scheduled attempt; [skipped] of those were pruned by the fast path
   without running the body (a vacuous rule's skip counts as fired, any
   other rule's as guard_failed — rule.mli, sim.ml). *)
let rule_counts m =
  List.map
    (fun (r : Cmd.Rule.t) -> (r.name, r.fired, r.guard_failed, r.conflicted, r.skipped, r.vacuous))
    (Machine.rule_list m)

let stat_sum m pred =
  List.fold_left (fun acc (n, v) -> if pred n then acc + v else acc) 0 (Cmd.Stats.to_list (Machine.stats m))

let add_counts r m ~cycles =
  let ends s n = String.ends_with ~suffix:s n in
  bump r "cycles" cycles;
  bump r "instrs" (Machine.instrs m);
  List.iter
    (fun (name, fired, gf, conf, skipped, vacuous) ->
      let g = group name in
      bump r (g ^ ".attempts") (fired + gf + conf - skipped);
      bump r "sched.scheduled" (fired + gf + conf);
      bump r "sched.skipped" skipped;
      bump r "sched.aborts" (gf + conf - if vacuous then 0 else skipped))
    (rule_counts m);
  bump r "core_cycles" (stat_sum m (fun n -> n.[0] = 'c' && ends ".cycles" n));
  bump r "mispredicts" (stat_sum m (ends ".mispredicts"));
  bump r "l1d_misses" (stat_sum m (ends ".l1d.misses"));
  bump r "l2_misses" (stat_sum m (fun n -> String.starts_with ~prefix:"l2" n && ends ".misses" n));
  bump r "dtlb_misses" (stat_sum m (ends ".tlb.d.misses"));
  bump r "walk_cycles" (stat_sum m (ends ".tlb.walkCycles"));
  bump r "rob_full" (stat_sum m (ends ".robFullCycles"));
  bump r "ld_kills" (stat_sum m (fun n -> ends ".ldKillFlushes" n || ends ".tsoKills" n))

(* Per-layer metrics derived from the summed counters. Deterministic. *)
let emit_counts r =
  let f = float_of_int in
  let ki = f (count r "instrs") /. 1000. and cyc = f (count r "cycles") in
  let per d n = if d > 0. then f (count r n) /. d else 0. in
  List.iter (fun g -> emit r (g ^ ".attempts_per_cycle") (per cyc (g ^ ".attempts"))) groups;
  emit r "cmd.sched.skip_share" (per (f (count r "sched.scheduled")) "sched.skipped");
  emit r "cmd.sched.aborts_pkc" (per (cyc /. 1000.) "sched.aborts");
  emit r "branch.mispredicts_pki" (per ki "mispredicts");
  emit r "mem.l1d.mpki" (per ki "l1d_misses");
  emit r "mem.l2.mpki" (per ki "l2_misses");
  emit r "tlb.dtlb_mpki" (per ki "dtlb_misses");
  emit r "tlb.walk_cycles_pki" (per ki "walk_cycles");
  emit r "ooo.rob_full_share" (per (f (count r "core_cycles")) "rob_full");
  emit r "ooo.ld_kill_pki" (per ki "ld_kills")

(* ------------------------------------------------------------------ *)
(* Machines: create, run, snapshot                                      *)
(* ------------------------------------------------------------------ *)

let create ~parent ?(run = -1) ?(compile = true) ?(jobs = 1) ?(epoch = 1) ?(ncores = 1) kind prog =
  Trace.with_span ~run ~parent "workloads.machine_create" (fun _ ->
      timed (fun () -> Machine.create ~ncores ~paging:true ~compile ~jobs ~epoch kind prog))

(* Run to exit. Traced runs stamp every [on_cycle] call and drain the GC
   event ring every 256 calls, so GC phases nest under this run's span.
   Only [primary] runs (not the traced run's oracle re-runs) feed the step
   and GC-share figures. *)
let count_alloc r (g0 : Gc.stat) =
  let g = Gc.quick_stat () in
  r.minor <- r.minor +. (g.minor_words -. g0.minor_words);
  r.promoted <- r.promoted +. (g.promoted_words -. g0.promoted_words)

let run_machine r ~parent ?(run = -1) ?(primary = true) m =
  Trace.gc_poll ~parent ();
  let sp = Trace.start ~run ~parent "workloads.machine_run" in
  let polls = ref 0 in
  let on_cycle _ =
    if primary then Trace.step ();
    incr polls;
    if !polls land 255 = 0 then Trace.gc_poll ~parent:sp ()
  in
  let g0 = Gc.quick_stat () in
  let t0 = Trace.now () in
  let o = if r.traced then Machine.run ~max_cycles ~on_cycle m else Machine.run ~max_cycles m in
  let t1 = Trace.now () in
  if primary then count_alloc r g0;
  if r.traced then begin
    Trace.step_end ();
    Trace.gc_poll ~parent:sp ()
  end;
  Trace.stop sp;
  if primary then r.runs <- (t0, t1) :: r.runs;
  (o, Trace.secs t0 t1)

let identity m (o : Machine.outcome) = (o.cycles, Machine.instrs m, o.exits, rule_counts m)

(* Snapshot/restore latency (median of 5) and image size on [m]. *)
let snapshot_costs r ~parent m =
  Trace.with_span ~parent "cmd.state.snapshot" (fun _ ->
      let saves = ref [] and restores = ref [] and size = ref 0 in
      for _ = 1 to 5 do
        let img, s = timed (fun () -> Machine.snapshot m) in
        let (), l = timed (fun () -> Machine.restore m img) in
        size := String.length img;
        saves := s :: !saves;
        restores := l :: !restores
      done;
      (median !saves, median !restores, float_of_int !size))
  |> fun (s, l, b) ->
  emit r "cmd.state.snapshot_ms" (1000. *. s);
  emit r "cmd.state.restore_ms" (1000. *. l);
  emit r "cmd.state.snapshot_mb" (b /. 1048576.)

(* Metrics common to every workload, read at the end of a repetition. *)
let emit_gc r ~run_s =
  let ki = float_of_int (count r "instrs") /. 1000. in
  emit r "ocaml.gc.minor_words_pki" (r.minor /. ki);
  emit r "ocaml.gc.promoted_words_pki" (r.promoted /. ki);
  emit r "ocaml.gc.top_heap_mb"
    (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  let gc_s = List.fold_left (fun acc (a, b) -> acc +. Trace.gc_within a b) 0. r.runs in
  emit r "ocaml.gc.share" (gc_s /. (run_s *. float_of_int r.domains));
  if !Trace.lost > 0 then Printf.eprintf "perfbench: %d runtime events lost\n%!" !Trace.lost

let emit_steps r =
  let a = Trace.step_lengths_us () in
  emit r "cmd.sim.step_us_p50" (percentile a 0.50);
  emit r "cmd.sim.step_us_p99" (percentile a 0.99)

(* Layers a workload does not exercise read 0. *)
let not_farm r =
  List.iter (fun k -> emit r k 0.)
    [ "litmus.ref_sets_s"; "mcheck.dpor.states"; "mcheck.dpor.transitions"; "farm.busy_share" ]

(* ------------------------------------------------------------------ *)
(* spec-serial                                                          *)
(* ------------------------------------------------------------------ *)

let spec_kind = Machine.Out_of_order Ooo.Config.riscyoo_tplus

let golden_exit prog =
  let g = Machine.create Machine.Golden_only prog in
  (Machine.run ~max_cycles g).Machine.exits

let spec_serial r =
  let kernels = if r.short then [ "hmmer" ] else [ "hmmer"; "gobmk"; "mcf" ] in
  r.domains <- 1;
  Cmd.Sim.shutdown_pool ();
  let setup = ref 0. and gen = ref 0. and mk = ref 0. and run_s = ref 0. and runs = ref 0 in
  let uncompiled = ref [] in
  List.iteri
    (fun i k ->
      let t_op = Trace.now () in
      let prog, g =
        Trace.with_span ~run:i ~parent:r.root "workloads.kernel_gen" (fun _ ->
            timed (fun () -> Spec_kernels.find k ~scale:1))
      in
      let m, c = create ~parent:r.root ~run:i spec_kind prog in
      let (o : Machine.outcome), w = run_machine r ~parent:r.root ~run:i m in
      r.job_ms <- (1000. *. Trace.secs t_op (Trace.now ())) :: r.job_ms;
      gen := !gen +. g;
      mk := !mk +. c;
      setup := !setup +. g +. c;
      run_s := !run_s +. w;
      incr runs;
      add_counts r m ~cycles:o.cycles;
      let expect =
        Trace.with_span ~run:i ~parent:r.root "check.golden" (fun _ -> golden_exit prog)
      in
      let expect = if r.corrupt_golden then Array.map (Int64.logxor 1L) expect else expect in
      op r
        ((not o.timed_out) && o.exits.(0) = expect.(0))
        (Printf.sprintf "spec-serial/%s: exit %Ld, golden %Ld%s" k o.exits.(0) expect.(0)
           (if o.timed_out then " (timed out)" else ""));
      if r.traced then begin
        snapshot_costs r ~parent:r.root m;
        (* the interpreted engine is the compiled one's oracle, and the
           difference in create time is the schedule compiler's cost *)
        let mi, ci = create ~parent:r.root ~run:i ~compile:false spec_kind prog in
        let oi, wi = run_machine r ~parent:r.root ~run:i ~primary:false mi in
        op r
          (identity m o = identity mi oi)
          (Printf.sprintf "spec-serial/%s: compiled and interpreted runs differ" k);
        uncompiled := (c -. ci, w, wi) :: !uncompiled
      end)
    kernels;
  let instrs = float_of_int (count r "instrs") in
  emit r "sim_kips" (instrs /. !run_s /. 1000.);
  emit r "ipc" (instrs /. float_of_int (count r "cycles"));
  emit r "setup_s" !setup;
  emit r "jobs_per_s" (float_of_int !runs /. (!setup +. !run_s));
  if r.traced then
    Trace.with_span ~parent:r.root "perfbench.report" @@ fun _ ->
    emit r "workloads.kernel_gen_s" !gen;
    emit r "workloads.machine_create_s" !mk;
    let compiled_w = List.fold_left (fun a (_, w, _) -> a +. w) 0. !uncompiled in
    let interp_w = List.fold_left (fun a (_, _, wi) -> a +. wi) 0. !uncompiled in
    emit r "workloads.machine_run_s" compiled_w;
    emit r "cmd.conflict.compile_s" (List.fold_left (fun a (d, _, _) -> a +. d) 0. !uncompiled);
    emit r "cmd.sim.compiled_speedup" (interp_w /. compiled_w);
    emit r "cmd.sim.par_speedup" 0.;
    not_farm r;
    emit_steps r;
    emit_counts r;
    emit_gc r ~run_s:compiled_w

(* ------------------------------------------------------------------ *)
(* parsec16-epoch                                                       *)
(* ------------------------------------------------------------------ *)

let parsec_scale = 1
let harts = 16
let parsec_kind = Machine.Out_of_order (Ooo.Config.multicore16 Ooo.Config.TSO)

let parsec16_epoch r =
  r.domains <- 2;
  let t_op = Trace.now () in
  let prog, gen =
    Trace.with_span ~run:0 ~parent:r.root "workloads.kernel_gen" (fun _ ->
        timed (fun () -> Parsec_kernels.find "streamcluster" ~harts ~scale:parsec_scale))
  in
  let m, mk = create ~parent:r.root ~run:0 ~ncores:harts ~jobs:2 ~epoch:0 parsec_kind prog in
  let (o : Machine.outcome), w = run_machine r ~parent:r.root ~run:0 m in
  r.job_ms <- [ 1000. *. Trace.secs t_op (Trace.now ()) ];
  add_counts r m ~cycles:o.cycles;
  let expect =
    Trace.with_span ~run:0 ~parent:r.root "check.golden" (fun _ ->
        let g = Machine.create ~ncores:harts Machine.Golden_only prog in
        (Machine.run ~max_cycles g).Machine.exits)
  in
  let expect = if r.corrupt_golden then Array.map (Int64.logxor 1L) expect else expect in
  op r ((not o.timed_out) && o.exits = expect) "parsec16-epoch/streamcluster: exit codes differ from golden";
  let instrs = float_of_int (count r "instrs") in
  emit r "sim_kips" (instrs /. w /. 1000.);
  emit r "ipc" (instrs /. float_of_int o.cycles);
  emit r "setup_s" (gen +. mk);
  emit r "jobs_per_s" (1. /. (gen +. mk +. w));
  if r.traced then begin
    Printf.eprintf "perfbench: parsec16-epoch epoch window %d\n%!" (Machine.epoch_length m);
    snapshot_costs r ~parent:r.root m;
    (* jobs 1 at the same window is the parallel engine's oracle;
       compile:false is predicted flat (epoch mode runs interpreted) *)
    Cmd.Sim.shutdown_pool ();
    let m1, _ = create ~parent:r.root ~run:0 ~ncores:harts ~jobs:1 ~epoch:0 parsec_kind prog in
    let o1, w1 = run_machine r ~parent:r.root ~run:0 ~primary:false m1 in
    op r (identity m o = identity m1 o1) "parsec16-epoch: jobs 1 and jobs 2 runs differ";
    let mi, ci = create ~parent:r.root ~run:0 ~compile:false ~ncores:harts ~jobs:2 ~epoch:0 parsec_kind prog in
    let oi, wi = run_machine r ~parent:r.root ~run:0 ~primary:false mi in
    op r (identity m o = identity mi oi) "parsec16-epoch: compiled and interpreted runs differ";
    Trace.with_span ~parent:r.root "perfbench.report" @@ fun _ ->
    emit r "workloads.kernel_gen_s" gen;
    emit r "workloads.machine_create_s" mk;
    emit r "workloads.machine_run_s" w;
    emit r "cmd.conflict.compile_s" (mk -. ci);
    emit r "cmd.sim.compiled_speedup" (wi /. w);
    emit r "cmd.sim.par_speedup" (w1 /. w);
    not_farm r;
    emit_steps r;
    emit_counts r;
    emit_gc r ~run_s:w
  end

(* ------------------------------------------------------------------ *)
(* litmus-farm                                                          *)
(* ------------------------------------------------------------------ *)

let models = [ Ooo.Config.TSO; Ooo.Config.WMM ]

(* The model under test admits outcome class [cls]: the reference sets
   nest (SC ⊆ TSO ⊆ WMM), so this is [Litmus.Run.farm_run]'s membership
   test read off the class. *)
let admitted model (cls : Litmus.Run.cls) =
  match (model, cls) with
  | _, Forbidden -> false
  | Ooo.Config.TSO, Wmm_relaxed -> false
  | _ -> true

(* Run [f] once on each of the two domains the farm uses: the pool hands
   one task to each, and each waits (up to 2 s) for the other to start so
   the main domain cannot take both. *)
let on_both_domains f =
  let arrived = Atomic.make 0 in
  let task () =
    Atomic.incr arrived;
    let t0 = Unix.gettimeofday () in
    while Atomic.get arrived < 2 && Unix.gettimeofday () -. t0 < 2. do
      Domain.cpu_relax ()
    done;
    f ()
  in
  Cmd.Sim.pool_run ~helpers:1 [| task; task |]

let litmus_farm r ~seed ~rep =
  r.domains <- 2;
  let seeds = if r.short then 2 else 10 in
  let tests = Litmus.Test.all in
  (* job expansion: the library's product, with schedule seeds derived
     from the benchmark seed and the repetition *)
  let jobs, expand_s =
    Trace.with_span ~parent:r.root "litmus.farm_jobs" (fun _ ->
        timed (fun () ->
            Litmus.Run.farm_jobs ~stagger:false ~seeds ~models tests
            |> List.map (fun (fj : Litmus.Run.farm_job) ->
                   { fj with fj_seed = 1 + (((seed * 7919) + (rep * 104729) + fj.fj_seed) land 0x3fffffff) })
            |> Array.of_list))
  in
  (* warm-up: the first warm run of each (test, model) on a domain builds
     and snapshots its machine and enumerates the test's reference sets;
     every later job on that domain restores the snapshot instead *)
  let warm_failures = Atomic.make 0 in
  let (), warm_s =
    Trace.with_span ~parent:r.root "litmus.warmup" (fun sp ->
        timed (fun () ->
            on_both_domains (fun () ->
                List.iter
                  (fun model ->
                    List.iter
                      (fun t ->
                        let s = Trace.start ~parent:sp "workloads.machine_create" in
                        (try
                           let o = Litmus.Run.run_one ~seed:1 ~stagger:false ~warm:true ~model t in
                           ignore (Litmus.Run.classify_outcome t o)
                         with e ->
                           Atomic.incr warm_failures;
                           Printf.eprintf "perfbench: warm-up %s: %s\n%!" t.Litmus.Test.name
                             (Printexc.to_string e));
                        Trace.stop s)
                      tests)
                  models)))
  in
  op r (Atomic.get warm_failures = 0) "litmus-farm: warm-up run failed";
  let n = Array.length jobs in
  let lat = Array.make n 0. and instrs = Array.make n 0 and cycles = Array.make n 0 in
  let ok = Array.make n false in
  let count_lock = Mutex.create () in
  let sweep ~workers ~record =
    let t_sweep = Trace.now () in
    let sp = Trace.start ~parent:r.root "farm.sweep" in
    let job i (fj : Litmus.Run.farm_job) =
      {
        Farm.Sweep.id = Litmus.Run.farm_job_id fj;
        kind = "litmus";
        spec = [];
        replay = "";
        run =
          (fun ~should_stop ->
            Trace.with_span ~run:i ~parent:sp "litmus.job" @@ fun _ ->
            let stamp = r.traced && record in
            let cancel = Farm.Sweep.cancel_hook ~should_stop in
            let cyc = ref 0 in
            let on_cycle c =
              cyc := c + 1;
              if stamp then Trace.step ();
              cancel c
            in
            let t0 = Trace.now () in
            let ins = ref 0 in
            let on_machine m =
              ins := Machine.instrs m;
              if stamp then begin
                Mutex.lock count_lock;
                add_counts r m ~cycles:(!cyc);
                Mutex.unlock count_lock
              end
            in
            let o =
              Fun.protect
                ~finally:(fun () -> if stamp then Trace.step_end ())
                (fun () ->
                  Litmus.Run.run_one ~seed:fj.fj_seed ~stagger:false ~warm:true ~on_cycle
                    ~on_machine ~model:fj.fj_model fj.fj_test)
            in
            let cls = Litmus.Run.classify_outcome fj.fj_test o in
            if record then begin
              lat.(i) <- 1000. *. Trace.secs t0 (Trace.now ());
              instrs.(i) <- !ins;
              cycles.(i) <- !cyc;
              ok.(i) <- admitted fj.fj_model cls
            end;
            if r.traced then Trace.gc_poll ~nest:false ~parent:sp ();
            Farm.Json.Str (Litmus.Run.cls_to_string cls));
      }
    in
    let cfg = { Farm.Sweep.workers; timeout_s = 60.; max_retries = 0; backoff_s = 0.05 } in
    let g0 = Gc.quick_stat () in
    let out, wall = timed (fun () -> Farm.Sweep.run cfg (Array.to_list (Array.mapi job jobs))) in
    if record then count_alloc r g0;
    Trace.stop sp;
    if record then r.runs <- (t_sweep, Trace.now ()) :: r.runs;
    (out, wall)
  in
  let out, wall = sweep ~workers:1 ~record:true in
  let quarantined = Farm.Sweep.quarantined out in
  List.iter (fun (id, err, _) -> Printf.eprintf "perfbench: quarantined %s: %s\n%!" id err) quarantined;
  Array.iteri
    (fun i (fj : Litmus.Run.farm_job) ->
      if not (List.exists (fun (id, _, _) -> id = Litmus.Run.farm_job_id fj) quarantined) then
        op r ok.(i) (Printf.sprintf "litmus-farm: %s outcome not allowed" (Litmus.Run.farm_job_id fj)))
    jobs;
  List.iter (fun (id, _, _) -> op r false ("litmus-farm: quarantined " ^ id)) quarantined;
  let done_ = List.filter (fun i -> lat.(i) > 0.) (List.init n Fun.id) in
  r.job_ms <- List.map (fun i -> lat.(i)) done_;
  let job_s = List.fold_left (fun a i -> a +. (lat.(i) /. 1000.)) 0. done_ in
  let sum a = List.fold_left (fun acc i -> acc + a.(i)) 0 done_ in
  emit r "sim_kips" (float_of_int (sum instrs) /. job_s /. 1000.);
  emit r "ipc" (float_of_int (sum instrs) /. float_of_int (sum cycles));
  emit r "setup_s" (expand_s +. warm_s);
  emit r "jobs_per_s" (float_of_int (List.length done_) /. wall);
  if r.traced then begin
    emit r "farm.busy_share" (job_s /. (wall *. 2.));
    let enum, ref_s =
      Trace.with_span ~parent:r.root "litmus.ref_sets" (fun _ ->
          timed (fun () ->
              List.concat_map
                (fun t ->
                  List.map
                    (fun model -> snd (Litmus.Ref_model.allowed_stats t ~model))
                    Litmus.Ref_model.[ SC; TSO; WMM ])
                tests))
    in
    emit r "litmus.ref_sets_s" ref_s;
    emit r "mcheck.dpor.states"
      (float_of_int (List.fold_left (fun a (e : Litmus.Ref_model.enum_stats) -> a + e.states) 0 enum));
    emit r "mcheck.dpor.transitions"
      (float_of_int (List.fold_left (fun a (e : Litmus.Ref_model.enum_stats) -> a + e.transitions) 0 enum));
    let _, wall1 = sweep ~workers:0 ~record:false in
    emit r "cmd.sim.par_speedup" (wall1 /. wall);
    Trace.with_span ~parent:r.root "litmus.snapshot_probe" (fun sp ->
        ignore
          (Litmus.Run.run_one ~seed:1 ~stagger:false ~warm:true
             ~on_machine:(snapshot_costs r ~parent:sp)
             ~model:Ooo.Config.TSO Litmus.Test.iriw));
    Trace.with_span ~parent:r.root "perfbench.report" @@ fun _ ->
    emit r "workloads.kernel_gen_s" expand_s;
    emit r "workloads.machine_create_s" warm_s;
    emit r "workloads.machine_run_s" job_s;
    emit r "cmd.conflict.compile_s" 0.;
    emit r "cmd.sim.compiled_speedup" 0.;
    emit_steps r;
    emit_counts r;
    emit_gc r ~run_s:wall
  end
