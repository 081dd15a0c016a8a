(* The riscyoo command-line driver: run a workload kernel on a chosen
   processor model and print the performance counters.

   Examples:
     dune exec bin/riscyoo.exe -- run mcf --config tplus
     dune exec bin/riscyoo.exe -- run blackscholes --parsec --cores 4 --config quad-wmm
     dune exec bin/riscyoo.exe -- list *)

module Cmd_stats = Cmd.Stats
module Cmd_sim = Cmd.Sim
open Cmdliner
open Workloads

(* Single exit funnel: the farm's domain pool is shut down explicitly on
   every path, so a failing run never leaves worker domains blocked on the
   job queue at process teardown. *)
let die code =
  Cmd_sim.shutdown_pool ();
  exit code

let write_file f s =
  let oc = open_out f in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let list_cmd =
  let doc = "List available kernels and configurations" in
  let run () =
    print_endline "SPEC-shaped kernels (single-core):";
    List.iter (fun n -> Printf.printf "  %s\n" n) Spec_kernels.names;
    print_endline "PARSEC-shaped kernels (use --parsec, multi-core):";
    List.iter (fun n -> Printf.printf "  %s\n" n) Parsec_kernels.names;
    print_endline "Server-shaped kernels (use --server, multi-core):";
    List.iter (fun n -> Printf.printf "  %s\n" n) Server_kernels.names;
    print_endline "Configurations (--config):";
    List.iter (fun (n, c, _) -> Format.printf "  %-14s %a@." n Ooo.Config.pp c) Ooo.Config.named;
    print_endline "  inorder-10 / inorder-120   (the Rocket-like in-order baseline)"
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run a kernel on a processor model" in
  let kernel = Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL") in
  let config =
    Arg.(value & opt string "tplus" & info [ "config" ] ~docv:"CONFIG" ~doc:"processor configuration")
  in
  let cores = Arg.(value & opt int 1 & info [ "cores" ] ~doc:"number of cores") in
  let scale = Arg.(value & opt int 1 & info [ "scale" ] ~doc:"workload scale factor") in
  let parsec = Arg.(value & flag & info [ "parsec" ] ~doc:"kernel is a PARSEC-shaped parallel kernel") in
  let server =
    Arg.(
      value & flag
      & info [ "server" ]
          ~doc:"kernel is a server-shaped communication kernel (request/response, rings, locks)")
  in
  let cosim = Arg.(value & flag & info [ "cosim" ] ~doc:"lockstep golden-model checking") in
  let paging = Arg.(value & opt bool true & info [ "paging" ] ~doc:"enable Sv39 translation") in
  let megapages = Arg.(value & flag & info [ "megapages" ] ~doc:"map memory with 2MB superpages") in
  let mesi = Arg.(value & flag & info [ "mesi" ] ~doc:"MESI coherence instead of MSI") in
  let prefetch = Arg.(value & flag & info [ "st-prefetch" ] ~doc:"store prefetching") in
  let predictor =
    Arg.(value & opt string "tournament" & info [ "predictor" ] ~doc:"tournament|gshare|bimodal")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"print every committed instruction") in
  let rules = Arg.(value & flag & info [ "rules" ] ~doc:"print per-rule firing statistics") in
  let watchdog =
    Arg.(
      value & opt int 0
      & info [ "watchdog" ] ~docv:"N"
          ~doc:"trip (with a rule-starvation report) after N cycles without a rule firing or an \
                instruction committing (0 = off)")
  in
  let invariants =
    Arg.(
      value & flag
      & info [ "check-invariants" ]
          ~doc:"check ROB/free-list/LSQ/store-buffer/L2-directory invariants every cycle")
  in
  let inject =
    Arg.(
      value & opt int 0
      & info [ "inject" ] ~docv:"TRIALS"
          ~doc:"run a fault-injection campaign of TRIALS single-bit flips instead of a plain run")
  in
  let inject_seed =
    Arg.(value & opt int 0xFA17 & info [ "inject-seed" ] ~docv:"SEED" ~doc:"campaign RNG seed")
  in
  let no_fastpath =
    Arg.(
      value & flag
      & info [ "no-fastpath" ]
          ~doc:"strip can_fire predicates: attempt every rule every cycle (the pre-optimization \
                scheduler; results must be bit-identical)")
  in
  let audit =
    Arg.(
      value & flag
      & info [ "scheduler-audit" ]
          ~doc:"attempt every rule and verify each can_fire predicate against what its rule \
                actually did; exits 3 on a lying predicate")
  in
  let obs_konata =
    Arg.(
      value & opt (some string) None
      & info [ "obs-konata" ] ~docv:"FILE"
          ~doc:"write a per-instruction pipeline trace in Konata (Kanata 0004) format")
  in
  let obs_chrome =
    Arg.(
      value & opt (some string) None
      & info [ "obs-chrome" ] ~docv:"FILE"
          ~doc:"write a rule-level cycle trace as Chrome trace_event JSON (chrome://tracing, \
                Perfetto), one track per cluster: uncore, each core, each L2 bank")
  in
  let stats_json =
    Arg.(
      value & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:"write every performance counter plus derived metrics (IPC, MPKI, occupancy \
                averages) as machine-readable JSON")
  in
  let obs_window =
    Arg.(
      value & opt (some (pair ~sep:':' int int)) None
      & info [ "obs-window" ] ~docv:"A:B"
          ~doc:"restrict trace capture to cycles [A, B): instructions decoded and rules fired \
                outside the window are not recorded (in-flight ones still complete)")
  in
  let run kernel config cores scale parsec server cosim paging megapages mesi prefetch predictor
      trace rules watchdog invariants inject inject_seed no_fastpath audit obs_konata obs_chrome
      stats_json obs_window =
    let fastpath = not no_fastpath in
    let prog =
      if server then Server_kernels.find kernel ~harts:cores ~scale
      else if parsec then Parsec_kernels.find kernel ~harts:cores ~scale
      else Spec_kernels.find kernel ~scale
    in
    let kind =
      match config with
      | "inorder-10" ->
        Machine.In_order
          { mem = { Mem.Mem_sys.default_config with mem_latency = 10 }; tlb = Tlb.Tlb_sys.blocking_config }
      | "inorder-120" ->
        Machine.In_order { mem = Mem.Mem_sys.default_config; tlb = Tlb.Tlb_sys.blocking_config }
      | "golden" -> Machine.Golden_only
      | name -> (
        match Ooo.Config.of_name name with
        | Some (cfg, _) ->
          let pk =
            match predictor with
            | "tournament" -> Branch.Dir_pred.Tournament
            | "gshare" -> Branch.Dir_pred.Gshare
            | "bimodal" -> Branch.Dir_pred.Bimodal
            | p -> failwith ("unknown predictor " ^ p)
          in
          Machine.Out_of_order
            {
              cfg with
              Ooo.Config.st_prefetch = prefetch;
              predictor = pk;
              mem = { cfg.Ooo.Config.mem with Mem.Mem_sys.mesi };
            }
        | None -> failwith ("unknown config " ^ name))
    in
    if inject > 0 then begin
      let harness, horizon =
        Machine.fault_harness ~ncores:cores ~paging ~megapages
          ?watchdog:(if watchdog > 0 then Some watchdog else None)
          kind prog
      in
      let t0 = Unix.gettimeofday () in
      let s = Verif.Fault.run ~seed:inject_seed ~trials:inject ~horizon harness in
      Printf.printf "reference exits: %s  (fault-free run: %d cycles)\n"
        (String.concat " "
           (Array.to_list (Array.map Int64.to_string harness.Verif.Fault.reference)))
        horizon;
      Verif.Report.print ~exemplars:10 s;
      Printf.printf "host: %.1fs\n" (Unix.gettimeofday () -. t0);
      if s.Verif.Fault.n_undiagnosed > 0 then die 1
    end
    else
    let obs =
      if obs_konata <> None || obs_chrome <> None || stats_json <> None then
        Some
          (Obs.Hub.create ?window:obs_window ?konata:obs_konata ?chrome:obs_chrome
             ?stats_json
             ~meta:
               [ ("kernel", kernel); ("config", config); ("cores", string_of_int cores) ]
             ~nharts:cores ())
      else None
    in
    let m =
      Machine.create ~ncores:cores ~paging ~megapages ~cosim ~fastpath ~audit ~watchdog
        ~invariants ?obs kind prog
    in
    if trace then Machine.trace_commits m Format.std_formatter;
    let t0 = Unix.gettimeofday () in
    let o =
      try Machine.run m with
      | Verif.Watchdog.Trip info ->
        print_endline info.Verif.Watchdog.report;
        die 2
      | Verif.Invariant.Violation (name, msg) ->
        Printf.printf "INVARIANT VIOLATION [%s]: %s\n" name msg;
        die 2
      | Cmd_sim.Audit_fail msg ->
        Printf.printf "SCHEDULER AUDIT FAILURE: %s\n" msg;
        die 3
    in
    let dt = Unix.gettimeofday () -. t0 in
    if trace then Machine.flush_trace m;
    (* artifacts are written even on timeout — a trace of a hang is the
       most useful trace of all *)
    Option.iter
      (fun hub ->
        Obs.Hub.finish hub ~cycles:o.Machine.cycles ~instrs:(Machine.instrs m)
          ~stats:(Machine.stats m))
      obs;
    if o.Machine.timed_out then print_endline "TIMED OUT"
    else begin
      Printf.printf "exit codes : %s\n"
        (String.concat " " (Array.to_list (Array.map Int64.to_string o.Machine.exits)));
      Printf.printf "cycles     : %d\n" o.Machine.cycles;
      Printf.printf "instrs     : %d\n" (Machine.instrs m);
      Printf.printf "IPC        : %.3f\n"
        (float_of_int (Machine.instrs m) /. float_of_int (max 1 o.Machine.cycles));
      Printf.printf "host       : %.1fs (%.0f sim-cycles/s)\n" dt (float_of_int o.Machine.cycles /. dt);
      print_endline "counters:";
      List.iter
        (fun (n, v) -> if v <> 0 then Printf.printf "  %-28s %d\n" n v)
        (Cmd_stats.to_list (Machine.stats m));
      if rules then Format.printf "%a@." Machine.pp_rule_stats m
    end
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "run" ~doc)
    Term.(
      const run $ kernel $ config $ cores $ scale $ parsec $ server $ cosim $ paging $ megapages
      $ mesi $ prefetch $ predictor $ trace $ rules $ watchdog $ invariants $ inject $ inject_seed
      $ no_fastpath $ audit $ obs_konata $ obs_chrome $ stats_json $ obs_window)

let synth_cmd =
  let doc = "Print the synthesis model's area/frequency estimates" in
  let run () =
    List.iter
      (fun (n, cfg, _) ->
        Printf.printf "%-14s %5.2f GHz  %6.2f M NAND2\n" n
          (Synth.Timing.max_freq_ghz cfg)
          (Synth.Gates.total cfg /. 1e6))
      Ooo.Config.named
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "synth" ~doc) Term.(const run $ const ())

let litmus_cmd =
  let doc = "Run memory-model litmus tests against reference outcome sets" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs each litmus test of the classic suite (SB, MP, LB, S, R, 2+2W, CoRR, CoWW, IRIW \
         and fence variants) on the quad-core machine across shuffled rule schedules, and checks \
         every observed outcome against the set an operational SC/TSO/WMM reference model \
         allows. Exits 1 if a forbidden outcome or an unmet --require-relaxed is found; 2 on \
         harness errors.";
    ]
  in
  let model =
    Arg.(
      value & opt string "both"
      & info [ "model" ] ~docv:"MODEL" ~doc:"memory model(s) to test: tso, wmm or both")
  in
  let seeds =
    Arg.(
      value & opt int 0
      & info [ "seeds" ] ~docv:"N"
          ~doc:"schedule seeds per (test, model); 0 = auto (200, or 12 with --quick)")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"small sweep for PR CI (12 seeds)") in
  let test_name =
    Arg.(
      value & opt (some string) None
      & info [ "test" ] ~docv:"NAME" ~doc:"run a single named test instead of the whole suite")
  in
  let hist =
    Arg.(
      value & opt (some string) None
      & info [ "hist" ] ~docv:"FILE" ~doc:"write the outcome histograms as JSON")
  in
  let trace_dir =
    Arg.(
      value & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:"replay the first run of each forbidden outcome with the Konata pipeline tracer \
                and drop the trace here")
  in
  let no_stagger =
    Arg.(
      value & flag
      & info [ "no-stagger" ] ~doc:"drop the seed-derived start-time skew (identical images)")
  in
  let require_relaxed =
    Arg.(
      value & flag
      & info [ "require-relaxed" ]
          ~doc:"also fail unless the sweep observed a non-SC outcome and, under WMM, an outcome \
                outside the TSO set — guards the harness against sweeps too tame to distinguish \
                the models")
  in
  let dut =
    Arg.(
      value & opt string "ooo"
      & info [ "dut" ] ~docv:"DUT"
          ~doc:"implementation to sweep: ooo (default) or inorder — the in-order baseline is \
                bounded by the SC outcome set")
  in
  let mesi =
    Arg.(value & flag & info [ "mesi" ] ~doc:"run the cache hierarchy with the MESI protocol")
  in
  let obligations =
    Arg.(
      value & flag
      & info [ "obligations" ]
          ~doc:"arm the per-interface contract monitors (LSQ, store buffer, L2 directory) on \
                every run; a violating cycle fails the sweep naming the module and interface, \
                and per-monitor event counts are reported")
  in
  let inject =
    Arg.(
      value & opt (some string) None
      & info [ "inject" ] ~docv:"BUG"
          ~doc:"enable a seeded implementation bug (ld-bypass-sq: load issue skips the \
                store-queue overlap scan) — for demonstrating --obligations catches it")
  in
  let run model seeds quick test_name hist trace_dir no_stagger require_relaxed dut mesi
      obligations inject =
    let models =
      match String.lowercase_ascii model with
      | "tso" -> [ Ooo.Config.TSO ]
      | "wmm" -> [ Ooo.Config.WMM ]
      | "both" -> [ Ooo.Config.TSO; Ooo.Config.WMM ]
      | m ->
        Printf.eprintf "unknown model %s (want tso, wmm or both)\n" m;
        die 2
    in
    let seeds = if seeds > 0 then seeds else if quick then 12 else 200 in
    let tests =
      match test_name with
      | None -> Litmus.Test.all
      | Some n -> (
        match Litmus.Test.find n with
        | Some t -> [ t ]
        | None ->
          Printf.eprintf "unknown litmus test %s; available: %s\n" n
            (String.concat " " (List.map (fun (t : Litmus.Test.t) -> t.name) Litmus.Test.all));
          die 2)
    in
    let dut =
      match String.lowercase_ascii dut with
      | "ooo" -> Litmus.Run.Dut_ooo
      | "inorder" | "in-order" -> Litmus.Run.Dut_inorder
      | d ->
        Printf.eprintf "unknown dut %s (want ooo or inorder)\n" d;
        die 2
    in
    let inject_lsq_bug =
      match inject with
      | None -> false
      | Some "ld-bypass-sq" -> true
      | Some b ->
        Printf.eprintf "unknown injected bug %s (want ld-bypass-sq)\n" b;
        die 2
    in
    Option.iter (fun d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755) trace_dir;
    let t0 = Unix.gettimeofday () in
    let reports =
      List.concat_map
        (fun m ->
          List.map
            (fun t ->
              let r =
                Litmus.Run.sweep ~seeds ~stagger:(not no_stagger) ?trace_dir ~dut ~mesi
                  ~obligations ~inject_lsq_bug ~model:m t
              in
              Format.printf "%a" Litmus.Run.pp_report r;
              r)
            tests)
        models
    in
    Option.iter (fun f -> write_file f (Litmus.Run.reports_to_json ~seeds reports)) hist;
    let failed = List.filter (fun r -> not (Litmus.Run.ok r)) reports in
    let errors = List.exists (fun r -> r.Litmus.Run.errors <> []) reports in
    let relaxed = List.exists (fun r -> r.Litmus.Run.relaxed_seen) reports in
    let wmm_only =
      List.exists
        (fun r -> r.Litmus.Run.model = Ooo.Config.WMM && r.Litmus.Run.wmm_only_seen)
        reports
    in
    Printf.printf "%d sweeps, %d failed  (%.1fs host)\n" (List.length reports)
      (List.length failed)
      (Unix.gettimeofday () -. t0);
    if require_relaxed then begin
      if not relaxed then print_endline "REQUIRE-RELAXED: no non-SC outcome was ever observed";
      if List.mem Ooo.Config.WMM models && not wmm_only then
        print_endline "REQUIRE-RELAXED: no outcome outside the TSO set was observed under WMM"
    end;
    if errors then die 2;
    if failed <> [] || (require_relaxed && (not relaxed || (List.mem Ooo.Config.WMM models && not wmm_only)))
    then die 1;
    die 0
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "litmus" ~doc ~man)
    Term.(
      const run $ model $ seeds $ quick $ test_name $ hist $ trace_dir $ no_stagger
      $ require_relaxed $ dut $ mesi $ obligations $ inject)

(* The options of every command that drains a manifest through the farm
   ([farm], [explore]); only the per-attempt timeout's default differs. *)
type drain_opts = {
  resume : bool;
  journal : string option;
  timeout_s : float;
  workers : int;
  out : string option;
  only : string option;
}

let drain_opts ~timeout_s =
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ] ~doc:"recover the journal and re-run only unfinished jobs")
  in
  let journal =
    Arg.(
      value & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"journal path (default: MANIFEST with a .journal.jsonl extension; with --only the \
                journal is disabled unless given explicitly)")
  in
  let timeout_s =
    Arg.(
      value & opt float timeout_s
      & info [ "timeout-s" ] ~docv:"S" ~doc:"per-attempt wall-clock limit; 0 disables")
  in
  let workers =
    Arg.(value & opt int 3 & info [ "workers" ] ~docv:"N" ~doc:"helper domains (total parallelism N+1)")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"write canonical riscyoo-farm-results-v1 JSON here")
  in
  let only =
    Arg.(
      value & opt (some string) None
      & info [ "only" ] ~docv:"ID[,ID..]"
          ~doc:"run only jobs whose id starts with one of the given prefixes (deterministic \
                replay of quarantined jobs)")
  in
  Term.(
    const (fun resume journal timeout_s workers out only ->
        { resume; journal; timeout_s; workers; out; only })
    $ resume $ journal $ timeout_s $ workers $ out $ only)

(* Drain [jobs] through the farm under [d]: the --only filter, the
   journal, SIGINT/SIGTERM cancellation, the sweep, its summary and
   QUARANTINED lines, and the --out file. [header] sees the selected jobs
   before the sweep starts. Exits 2 when nothing is selected or the
   journal is corrupt. *)
let drain ~cmd ?(header = ignore) ?(config = Farm.Sweep.default_config) ?abort_after ~manifest_path
    d jobs =
  let jobs =
    match d.only with
    | None -> jobs
    | Some pats ->
      let pats = String.split_on_char ',' pats in
      List.filter
        (fun (j : Farm.Sweep.job) -> List.exists (fun p -> String.starts_with ~prefix:p j.id) pats)
        jobs
  in
  if jobs = [] then begin
    Printf.eprintf "%s: no jobs selected\n" cmd;
    die 2
  end;
  header jobs;
  let journal =
    match (d.journal, d.only) with
    | Some f, _ -> Some f
    | None, Some _ -> None (* a filtered job set would not match the journal's manifest *)
    | None, None -> Some (Filename.remove_extension manifest_path ^ ".journal.jsonl")
  in
  (* SIGINT/SIGTERM: set the stop flag; in-flight jobs cancel at their
     next hook poll, the journal (fsync'd per append) stays consistent,
     and the sweep exits resumable. A second signal kills outright. *)
  let stop = Atomic.make false in
  let on_signal _ =
    if Atomic.get stop then exit 130;
    Atomic.set stop true;
    prerr_endline
      (cmd
     ^ ": interrupted — cancelling in-flight jobs (journal is consistent; resume with --resume)")
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  let config = { config with Farm.Sweep.workers = d.workers; timeout_s = d.timeout_s } in
  let t0 = Unix.gettimeofday () in
  let o =
    try
      Farm.Sweep.run ?journal ~resume:d.resume ~should_stop:(fun () -> Atomic.get stop) ?abort_after
        ~log:print_endline config jobs
    with Farm.Journal.Corrupt e ->
      Printf.eprintf "journal error: %s\n" e;
      die 2
  in
  Printf.printf "%s: %d jobs  %d ok  %d quarantined  %d resumed  %d unfinished  (%.1fs host)\n" cmd
    (List.length o.Farm.Sweep.records) o.Farm.Sweep.n_ok o.Farm.Sweep.n_quarantined
    o.Farm.Sweep.n_resumed o.Farm.Sweep.n_unfinished
    (Unix.gettimeofday () -. t0);
  List.iter
    (fun (id, err, replay) ->
      Printf.printf "QUARANTINED %s\n  error : %s\n  replay: %s\n" id err replay)
    (Farm.Sweep.quarantined o);
  Option.iter (fun f -> write_file f (Farm.Sweep.results_json o)) d.out;
  o

let farm_cmd =
  let doc = "Run a crash-safe farm of independent simulation jobs" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Expands a riscyoo-farm-manifest-v1 JSON file into independent jobs (litmus seeds, \
         fault-injection trials, synthetic poison jobs) and drains them across the worker-domain \
         pool with per-job wall-clock timeouts, retry-with-backoff and \
         quarantine-and-continue. Every terminal result is appended to a checksummed, fsync'd \
         journal, so a killed sweep resumes with --resume, re-running only unfinished jobs; the \
         final results file is byte-identical either way. SIGINT/SIGTERM cancel in-flight jobs \
         and leave the journal consistent for a later resume.";
      `P
        "Exits 0 when every job finished clean; 1 when jobs were quarantined or a litmus or \
         mcheck job observed an outcome outside its memory model's set (each printed as a \
         FORBIDDEN line with its job id and outcome); 2 on manifest/journal errors; 3 when \
         interrupted (resume with --resume).";
    ]
  in
  let manifest_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MANIFEST" ~doc:"riscyoo-farm-manifest-v1 JSON file")
  in
  let max_retries =
    Arg.(
      value & opt int 2
      & info [ "max-retries" ] ~docv:"N" ~doc:"retry rounds after the first attempt, then quarantine")
  in
  let backoff_s =
    Arg.(
      value & opt float 0.05
      & info [ "backoff-s" ] ~docv:"S" ~doc:"base retry backoff; round r waits S*2^(r-1), capped at 5s")
  in
  let hist =
    Arg.(
      value & opt (some string) None
      & info [ "hist" ] ~docv:"FILE"
          ~doc:"write the litmus jobs' outcome histograms as riscyoo-litmus-v1 JSON")
  in
  let abort_after =
    Arg.(
      value & opt (some int) None
      & info [ "abort-after" ] ~docv:"N"
          ~doc:"(testing) simulate a mid-sweep kill after N journal appends")
  in
  let run manifest_path d max_retries backoff_s hist abort_after =
    let m =
      try Farm.Jobs.load manifest_path with
      | Farm.Json.Parse_error e | Sys_error e ->
        Printf.eprintf "manifest error: %s\n" e;
        die 2
    in
    let config = { Farm.Sweep.default_config with max_retries; backoff_s } in
    let o =
      drain ~cmd:"farm" ~config ?abort_after ~manifest_path d (Farm.Jobs.jobs ~manifest_path m)
    in
    let disallowed = Farm.Jobs.disallowed o in
    List.iter (fun (id, outcome) -> Printf.printf "FORBIDDEN %s  %s\n" id outcome) disallowed;
    Option.iter
      (fun f ->
        let seeds =
          List.fold_left
            (fun acc -> function Farm.Jobs.Litmus ls -> max acc ls.Farm.Jobs.ls_seeds | _ -> acc)
            0 m.Farm.Jobs.sweeps
        in
        match Farm.Jobs.litmus_json ~seeds o with
        | Some json -> write_file f json
        | None -> prerr_endline "farm: --hist given but the sweep holds no litmus records")
      hist;
    if o.Farm.Sweep.interrupted then die 3;
    if o.Farm.Sweep.n_quarantined > 0 || disallowed <> [] then die 1;
    die 0
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "farm" ~doc ~man)
    Term.(
      const run $ manifest_arg $ drain_opts ~timeout_s:60. $ max_retries $ backoff_s $ hist
      $ abort_after)

let explore_cmd =
  let doc = "Sweep a config space through the farm and compute IPC-vs-area Pareto fronts" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Expands a riscyoo-explore-manifest-v1 JSON file — a base configuration, a grid/list of \
         microarchitectural config points (ROB/IQ/LSQ sizes, physical registers, branch \
         predictor, MSI vs MESI, TLB, core count, L2 banks) and a workload list — into one farm \
         job per workload x point. Each job runs the workload on a machine built from that \
         point, recording IPC/MPKI/occupancy from the stats schema plus the synth model's \
         area/frequency estimate, with the farm's journal/resume/quarantine machinery \
         underneath. The non-dominated IPC-vs-area subset per workload is the Pareto front \
         (riscyoo-pareto-v1, deterministic across --workers).";
      `P
        "Exits 0 when every point ran clean and the designated reference config (if any) sits \
         on every workload's front; 1 when points were quarantined or the reference fell off a \
         front; 2 on manifest errors; 3 when interrupted (resume with --resume).";
    ]
  in
  let manifest_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MANIFEST" ~doc:"riscyoo-explore-manifest-v1 JSON file")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"clamp every grid axis to its first 2 values (CI smoke sweeps)")
  in
  let front =
    Arg.(
      value & opt (some string) None
      & info [ "front" ] ~docv:"FILE" ~doc:"write the riscyoo-pareto-v1 Pareto fronts here")
  in
  let run manifest_path quick front d =
    let space =
      try
        let j = Rjson.of_string (read_file manifest_path) in
        Explore.Space.of_json (if quick then Explore.Space.quick_json j else j)
      with
      | Explore.Space.Bad_manifest e | Rjson.Parse_error e | Sys_error e ->
        Printf.eprintf "manifest error: %s\n" e;
        die 2
    in
    let header jobs =
      Printf.printf "explore: %d points x %d workloads = %d jobs (base %s)\n"
        (Explore.Space.n_points space)
        (List.length space.Explore.Space.workloads)
        (List.length jobs) space.Explore.Space.base_name
    in
    let jobs =
      Farm.Jobs.jobs ~replay_cmd:"explore" ~manifest_path
        { Farm.Jobs.sweeps = [ Farm.Jobs.Explore space ] }
    in
    let o = drain ~cmd:"explore" ~header ~manifest_path d jobs in
    let samples = Farm.Jobs.explore_samples o in
    let reference = space.Explore.Space.reference in
    (* human summary: the per-workload fronts *)
    List.iter
      (fun (w, ss) ->
        Printf.printf "%s: pareto front (of %d points)\n" w (List.length ss);
        List.iter
          (fun (s : Explore.Measure.sample) ->
            Printf.printf "  %-40s IPC %.3f  %6.2f M NAND2  %4.2f GHz  L2 %.2f mpki\n"
              s.Explore.Measure.point s.Explore.Measure.ipc
              (s.Explore.Measure.area_gates /. 1e6)
              s.Explore.Measure.freq_ghz s.Explore.Measure.l2_mpki)
          (Explore.Pareto.front ss))
      (Explore.Pareto.by_workload samples);
    Option.iter (fun f -> write_file f (Explore.Pareto.to_string ?reference samples ^ "\n")) front;
    let ref_ok = Explore.Pareto.reference_on_front ~reference samples in
    (match (reference, ref_ok) with
    | Some r, Some true -> Printf.printf "reference %s: on every front\n" r
    | Some r, Some false -> Printf.printf "REFERENCE %s: OFF the front\n" r
    | _ -> ());
    if o.Farm.Sweep.interrupted then die 3;
    if o.Farm.Sweep.n_quarantined > 0 || ref_ok = Some false then die 1;
    die 0
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "explore" ~doc ~man)
    Term.(const run $ manifest_arg $ quick $ front $ drain_opts ~timeout_s:300.)

let drift_cmd =
  let doc = "Compare two riscyoo-litmus-v1 histograms for relaxation-rate drift" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Nightly trend tracking: for every (test, model) sweep present in both files, compares \
         the relaxation rate (fraction of runs whose outcome lies outside the SC set) and fails \
         when any pair drifts by more than --tolerance. Sweeps present on only one side are \
         reported but not fatal. Exits 1 on drift or a forbidden outcome in NEW, 2 on parse \
         errors.";
    ]
  in
  let old_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD" ~doc:"baseline JSON") in
  let new_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW" ~doc:"candidate JSON") in
  let tolerance =
    Arg.(
      value & opt float 0.15
      & info [ "tolerance" ] ~docv:"T"
          ~doc:"max allowed absolute change in per-sweep relaxation rate (a fraction in [0,1])")
  in
  let run old_path new_path tolerance =
    let load path = Farm.Json.of_string (read_file path) in
    let sweeps j =
      match Farm.Json.get_list "sweeps" j with
      | Some l -> l
      | None -> failwith "no \"sweeps\" array (not a riscyoo-litmus-v1 file?)"
    in
    (* relaxation rate = non-SC outcomes / total runs *)
    let stats j =
      let test = Option.value ~default:"?" (Farm.Json.get_str "test" j) in
      let model = Option.value ~default:"?" (Farm.Json.get_str "model" j) in
      let runs = max 1 (Option.value ~default:1 (Farm.Json.get_int "runs" j)) in
      let outcomes = Option.value ~default:[] (Farm.Json.get_list "outcomes" j) in
      let relaxed =
        List.fold_left
          (fun acc o ->
            let cls = Option.value ~default:"SC" (Farm.Json.get_str "class" o) in
            let count = Option.value ~default:0 (Farm.Json.get_int "count" o) in
            if cls = "SC" then acc else acc + count)
          0 outcomes
      in
      let forbidden =
        match Farm.Json.get_list "forbidden" j with Some (_ :: _) -> true | _ -> false
      in
      (test ^ "/" ^ model, float_of_int relaxed /. float_of_int runs, forbidden)
    in
    match (load old_path, load new_path) with
    | exception Farm.Json.Parse_error e ->
      Printf.eprintf "drift: parse error: %s\n" e;
      die 2
    | exception Sys_error e ->
      Printf.eprintf "drift: %s\n" e;
      die 2
    | exception Failure e ->
      Printf.eprintf "drift: %s\n" e;
      die 2
    | old_j, new_j ->
      let old_stats = List.map stats (sweeps old_j) in
      let new_stats = List.map stats (sweeps new_j) in
      let failed = ref false in
      List.iter
        (fun (key, new_rate, forbidden) ->
          if forbidden then begin
            Printf.printf "DRIFT %-20s forbidden outcome present\n" key;
            failed := true
          end;
          match List.assoc_opt key (List.map (fun (k, r, _) -> (k, r)) old_stats) with
          | None -> Printf.printf "note  %-20s new sweep (no baseline)\n" key
          | Some old_rate ->
            let d = new_rate -. old_rate in
            if Float.abs d > tolerance then begin
              Printf.printf "DRIFT %-20s relaxation rate %.3f -> %.3f (|delta| %.3f > %.3f)\n" key
                old_rate new_rate (Float.abs d) tolerance;
              failed := true
            end
            else Printf.printf "ok    %-20s relaxation rate %.3f -> %.3f\n" key old_rate new_rate)
        new_stats;
      List.iter
        (fun (key, _, _) ->
          if not (List.exists (fun (k, _, _) -> k = key) new_stats) then
            Printf.printf "note  %-20s sweep dropped since baseline\n" key)
        old_stats;
      if !failed then die 1;
      die 0
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "drift" ~doc ~man) Term.(const run $ old_arg $ new_arg $ tolerance)

let () =
  let info = Cmdliner.Cmd.info "riscyoo" ~doc:"RiscyOO processor models and workloads" in
  die
    (Cmdliner.Cmd.eval
       (Cmdliner.Cmd.group info [ run_cmd; list_cmd; synth_cmd; litmus_cmd; farm_cmd; explore_cmd; drift_cmd ]))
