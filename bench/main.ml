(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Figs. 12-21), plus the ablations called out in DESIGN.md and a
   Bechamel microbenchmark suite for the CMD kernel itself.

   Usage:
     bench/main.exe                 run every figure
     bench/main.exe fig15 fig16     run selected figures
     bench/main.exe --scale 3 ...   larger workloads
     bench/main.exe bechamel        CMD-kernel microbenchmarks
     bench/main.exe perf [--quick] [--out F] [--check BASELINE] [--stats-json F]
                                    sim-speed report (JSON) + CI perf gate;
                                    --stats-json dumps per-workload counters
   Figures: fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21
            ablation-wakeup ablation-bypass ablation-tlb ablation-scheduler *)

open Workloads

let scale = ref 1
let parsec_scale = ref 1

(* ---------------------------------------------------------------- *)
(* Run management                                                     *)
(* ---------------------------------------------------------------- *)

type result = { cycles : int; instrs : int; stats : (string * int) list }

let results : (string * string, result) Hashtbl.t = Hashtbl.create 64
let golden_sums : (string, int64) Hashtbl.t = Hashtbl.create 16

let golden_checksum kernel =
  match Hashtbl.find_opt golden_sums kernel with
  | Some v -> v
  | None ->
    let prog = Spec_kernels.find kernel ~scale:!scale in
    let m = Machine.create Machine.Golden_only prog in
    let o = Machine.run ~max_cycles:100_000_000 m in
    if o.Machine.timed_out then failwith ("golden timed out on " ^ kernel);
    Hashtbl.add golden_sums kernel o.Machine.exits.(0);
    o.Machine.exits.(0)

let ipc r = float_of_int r.instrs /. float_of_int r.cycles

(* run one SPEC kernel on one machine kind, memoized, golden-checked *)
let run_spec ~config_name kind kernel =
  match Hashtbl.find_opt results (config_name, kernel) with
  | Some r -> r
  | None ->
    let t0 = Unix.gettimeofday () in
    let prog = Spec_kernels.find kernel ~scale:!scale in
    let m = Machine.create ~paging:true kind prog in
    let o = Machine.run ~max_cycles:200_000_000 m in
    if o.Machine.timed_out then failwith (Printf.sprintf "%s timed out on %s" config_name kernel);
    let expect = golden_checksum kernel in
    if o.Machine.exits.(0) <> expect then
      failwith
        (Printf.sprintf "%s on %s: checksum %Ld <> golden %Ld" config_name kernel
           o.Machine.exits.(0) expect);
    let r =
      { cycles = o.Machine.cycles; instrs = Machine.instrs m;
        stats = Cmd.Stats.to_list (Machine.stats m) }
    in
    Hashtbl.add results (config_name, kernel) r;
    Printf.eprintf "  [%s/%s] %d cycles, %d instrs, IPC %.3f (%.1fs)\n%!" config_name kernel
      r.cycles r.instrs (ipc r)
      (Unix.gettimeofday () -. t0);
    r

let ooo cfg = Machine.Out_of_order cfg
let spec_on cfg kernel = run_spec ~config_name:cfg.Ooo.Config.name (ooo cfg) kernel

let geomean l =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 l /. float_of_int (List.length l))

let pp_row name cells = Printf.printf "%-14s %s\n" name (String.concat " " cells)
let header title = Printf.printf "\n=== %s ===\n" title

(* ---------------------------------------------------------------- *)
(* Configuration tables (Figs. 12-14)                                 *)
(* ---------------------------------------------------------------- *)

let fig12 () =
  header "Fig 12: RiscyOO-B configuration";
  Format.printf "%a@." Ooo.Config.pp Ooo.Config.riscyoo_b;
  Printf.printf
    "Front-end: 2-wide fetch/decode/rename; 256-entry BTB; tournament predictor (21264-style);\n\
     8-entry RAS. Execution: 64-entry ROB, 2 ALU + 1 MEM + 1 MULDIV pipelines, 16-entry IQs.\n\
     Ld-St: 24-entry LQ, 14-entry SQ, 4-entry SB. TLBs: 32-entry L1 I/D, 2048-entry L2\n\
     (blocking). Caches: 32KB 8-way L1 I/D (8 MSHRs), 1MB 16-way L2 (16 MSHRs), coherent.\n\
     Memory: 120-cycle latency, 24 outstanding requests.\n"

let fig13 () =
  header "Fig 13: comparison processors";
  List.iter
    (fun (n, d) -> Printf.printf "%-12s %s\n" n d)
    [
      ("Rocket", "in-order baseline: our 1-wide in-order core, 16KB L1s, 10/120-cycle memory");
      ("A57", "commercial 3-wide OOO (proxy: 3-wide RiscyOO, 48KB L1I/32KB L1D, 2MB L2)");
      ("Denver", "commercial 7-wide (proxy: 7-wide RiscyOO, 128KB L1I/64KB L1D, 2MB L2)");
      ("BOOM", "academic 2-wide OOO, 80-entry ROB (paper-reported IPCs quoted)");
    ]

let fig14 () =
  header "Fig 14: RiscyOO variants";
  List.iter
    (fun c -> Format.printf "%a@." Ooo.Config.pp c)
    [ Ooo.Config.riscyoo_cminus; Ooo.Config.riscyoo_tplus; Ooo.Config.riscyoo_tplus_rplus ]

(* ---------------------------------------------------------------- *)
(* Fig 15: RiscyOO-T+ vs RiscyOO-B                                    *)
(* ---------------------------------------------------------------- *)

let fig15 () =
  header "Fig 15: RiscyOO-T+ normalized to RiscyOO-B (higher is better)";
  Printf.printf "(paper: geo-mean 1.29x, astar ~2x; TLB-bound kernels gain most)\n";
  let speedups =
    List.map
      (fun k ->
        let b = spec_on Ooo.Config.riscyoo_b k in
        let t = spec_on Ooo.Config.riscyoo_tplus k in
        let s = float_of_int b.cycles /. float_of_int t.cycles in
        pp_row k [ Printf.sprintf "%.2fx" s ];
        s)
      Spec_kernels.names
  in
  pp_row "geo-mean" [ Printf.sprintf "%.2fx" (geomean speedups) ]

(* ---------------------------------------------------------------- *)
(* Fig 16: miss rates of RiscyOO-T+                                   *)
(* ---------------------------------------------------------------- *)

let mpki r name =
  1000.0 *. float_of_int (try List.assoc name r.stats with Not_found -> 0) /. float_of_int r.instrs

let fig16 () =
  header "Fig 16: events per 1000 instructions on RiscyOO-T+";
  Printf.printf "%-14s %8s %8s %8s %8s %8s\n" "kernel" "DTLB" "L2TLB" "BrPred" "D$" "L2$";
  List.iter
    (fun k ->
      let r = spec_on Ooo.Config.riscyoo_tplus k in
      Printf.printf "%-14s %8.1f %8.1f %8.1f %8.1f %8.1f\n" k (mpki r "c0.tlb.d.misses")
        (mpki r "c0.tlb.l2.misses") (mpki r "c0.mispredicts") (mpki r "c0.l1d.misses")
        (mpki r "l2.misses"))
    Spec_kernels.names;
  Printf.printf
    "(paper: mcf/astar/omnetpp have very high TLB miss rates; hmmer/h264ref near zero;\n\
    \ sjeng/gobmk high branch mispredictions; libquantum high cache misses)\n"

(* ---------------------------------------------------------------- *)
(* Fig 17: vs the in-order baseline                                   *)
(* ---------------------------------------------------------------- *)

let rocket_mem latency =
  {
    Mem.Mem_sys.l1d_bytes = 16 * 1024;
    l1d_ways = 4;
    l1d_mshrs = 2;
    l1i_bytes = 16 * 1024;
    l1i_ways = 4;
    l2_bytes = 64 * 1024 (* Rocket has no L2; a tiny one stands in *);
    l2_ways = 4;
    l2_mshrs = 4;
    l2_latency = 4;
    mesi = false;
    mem_latency = latency;
    mem_inflight = 8;
    l2_banks = 1;
  }

let rocket name latency kernel =
  run_spec ~config_name:name
    (Machine.In_order { mem = rocket_mem latency; tlb = Tlb.Tlb_sys.blocking_config })
    kernel

let fig17 () =
  header "Fig 17: RiscyOO-C-, Rocket-10, Rocket-120 normalized to RiscyOO-T+ (higher is better)";
  Printf.printf "(paper: T+ beats Rocket-10 by 1.53x and Rocket-120 by 4.19x on the geo-mean)\n";
  Printf.printf "%-14s %10s %10s %10s\n" "kernel" "C-" "Rocket-10" "Rocket-120";
  let accs = ref [] in
  List.iter
    (fun k ->
      let t = spec_on Ooo.Config.riscyoo_tplus k in
      let c = spec_on Ooo.Config.riscyoo_cminus k in
      let r10 = rocket "rocket-10" 10 k in
      let r120 = rocket "rocket-120" 120 k in
      let n x = float_of_int t.cycles /. float_of_int x.cycles in
      accs := (n c, n r10, n r120) :: !accs;
      Printf.printf "%-14s %10.2f %10.2f %10.2f\n" k (n c) (n r10) (n r120))
    Spec_kernels.names;
  let g f = geomean (List.map f !accs) in
  Printf.printf "%-14s %10.2f %10.2f %10.2f\n" "geo-mean"
    (g (fun (a, _, _) -> a))
    (g (fun (_, b, _) -> b))
    (g (fun (_, _, c) -> c))

(* ---------------------------------------------------------------- *)
(* Fig 18: vs commercial-width proxies                                *)
(* ---------------------------------------------------------------- *)

(* the paper's published normalized performance (A57, Denver vs RiscyOO-T+),
   read off Fig 18 *)
let paper_fig18 =
  [
    ("bzip2", (1.20, 1.50)); ("gcc", (1.30, 1.20)); ("mcf", (0.90, 0.80));
    ("gobmk", (1.40, 1.30)); ("hmmer", (2.20, 2.50)); ("sjeng", (1.35, 1.40));
    ("libquantum", (3.19, 3.97)); ("h264ref", (1.90, 2.30)); ("astar", (0.85, 0.90));
    ("omnetpp", (0.95, 1.00)); ("xalancbmk", (1.25, 1.40));
  ]

let fig18 () =
  header "Fig 18: wider-core proxies normalized to RiscyOO-T+ (higher = wider core wins)";
  Printf.printf
    "(paper: A57 +34%%, Denver +45%% geo-mean, but T+ wins on TLB-bound mcf/astar/omnetpp)\n";
  Printf.printf "%-14s %12s %12s %14s %14s\n" "kernel" "a57-proxy" "denver-proxy" "paper-A57"
    "paper-Denver";
  let accs = ref [] in
  List.iter
    (fun k ->
      let t = spec_on Ooo.Config.riscyoo_tplus k in
      let a = spec_on Ooo.Config.a57_proxy k in
      let d = spec_on Ooo.Config.denver_proxy k in
      let n x = float_of_int t.cycles /. float_of_int x.cycles in
      let pa, pd = List.assoc k paper_fig18 in
      accs := (n a, n d) :: !accs;
      Printf.printf "%-14s %12.2f %12.2f %14.2f %14.2f\n" k (n a) (n d) pa pd)
    Spec_kernels.names;
  Printf.printf "%-14s %12.2f %12.2f\n" "geo-mean"
    (geomean (List.map fst !accs))
    (geomean (List.map snd !accs))

(* ---------------------------------------------------------------- *)
(* Fig 19: IPC vs BOOM                                                *)
(* ---------------------------------------------------------------- *)

(* BOOM IPCs as published (paper Fig 19, taken from Kim et al. CARRV'17) *)
let boom_ipc =
  [
    ("bzip2", 0.87); ("gcc", 0.63); ("mcf", 0.10); ("sjeng", 1.05); ("h264ref", 1.07);
    ("omnetpp", 0.49); ("astar", 0.58); ("xalancbmk", 0.67);
  ]

let fig19 () =
  header "Fig 19: IPC — RiscyOO-T+R+ vs BOOM (paper-reported)";
  Printf.printf "%-14s %10s %10s\n" "kernel" "T+R+" "BOOM";
  let ours = ref [] and theirs = ref [] in
  List.iter
    (fun (k, b) ->
      let r = spec_on Ooo.Config.riscyoo_tplus_rplus k in
      ours := ipc r :: !ours;
      theirs := b :: !theirs;
      Printf.printf "%-14s %10.2f %10.2f\n" k (ipc r) b)
    boom_ipc;
  let har l = float_of_int (List.length l) /. List.fold_left (fun a x -> a +. (1.0 /. x)) 0.0 l in
  Printf.printf "%-14s %10.2f %10.2f   (harmonic mean)\n" "har-mean" (har !ours) (har !theirs)

(* ---------------------------------------------------------------- *)
(* Fig 20: PARSEC on the quad-core, TSO vs WMM                        *)
(* ---------------------------------------------------------------- *)

let run_parsec mm kernel threads =
  let key =
    ( Printf.sprintf "parsec-%s-%d" (match mm with Ooo.Config.TSO -> "tso" | WMM -> "wmm") threads,
      kernel )
  in
  match Hashtbl.find_opt results key with
  | Some r -> r
  | None ->
    let prog = Parsec_kernels.find kernel ~harts:threads ~scale:!parsec_scale in
    let cfg = Ooo.Config.multicore mm in
    let m = Machine.create ~ncores:threads ~paging:true (ooo cfg) prog in
    let o = Machine.run ~max_cycles:100_000_000 m in
    if o.Machine.timed_out then failwith (Printf.sprintf "parsec %s x%d timed out" kernel threads);
    let r =
      { cycles = o.Machine.cycles; instrs = Machine.instrs m;
        stats = Cmd.Stats.to_list (Machine.stats m) }
    in
    Hashtbl.add results key r;
    Printf.eprintf "  [%s x%d %s] %d cycles (%d instrs)\n%!" kernel threads
      (match mm with Ooo.Config.TSO -> "tso" | WMM -> "wmm")
      r.cycles r.instrs;
    r

let fig20 () =
  header "Fig 20: PARSEC on the quad-core — speedup over TSO-1thread (higher is better)";
  Printf.printf "(paper: TSO and WMM indistinguishable; near-linear scaling; TSO kills rare)\n";
  Printf.printf "%-14s %7s %7s %7s %7s %7s %7s %12s\n" "kernel" "tso-1" "wmm-1" "tso-2" "wmm-2"
    "tso-4" "wmm-4" "ldKills/1k";
  let cols = ref [ []; []; []; []; []; [] ] in
  List.iter
    (fun k ->
      let base = (run_parsec Ooo.Config.TSO k 1).cycles in
      let cell mm n =
        let r = run_parsec mm k n in
        (float_of_int base /. float_of_int r.cycles, r)
      in
      let t1, _ = cell Ooo.Config.TSO 1 in
      let w1, _ = cell Ooo.Config.WMM 1 in
      let t2, _ = cell Ooo.Config.TSO 2 in
      let w2, _ = cell Ooo.Config.WMM 2 in
      let t4, r4 = cell Ooo.Config.TSO 4 in
      let w4, _ = cell Ooo.Config.WMM 4 in
      let kills =
        1000.0
        *. float_of_int
             (List.fold_left
                (fun a (n, v) ->
                  let tail = "ldKillFlushes" in
                  let lt = String.length tail in
                  if String.length n >= lt && String.sub n (String.length n - lt) lt = tail then
                    a + v
                  else a)
                0 r4.stats)
        /. float_of_int r4.instrs
      in
      cols := List.map2 (fun l v -> v :: l) !cols [ t1; w1; t2; w2; t4; w4 ];
      Printf.printf "%-14s %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f %12.3f\n" k t1 w1 t2 w2 t4 w4 kills)
    Parsec_kernels.names;
  match List.map geomean !cols with
  | [ t1; w1; t2; w2; t4; w4 ] ->
    Printf.printf "%-14s %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f\n" "geo-mean" t1 w1 t2 w2 t4 w4
  | _ -> ()

(* ---------------------------------------------------------------- *)
(* Fig 21: synthesis                                                  *)
(* ---------------------------------------------------------------- *)

let fig21 () =
  header "Fig 21: ASIC synthesis model (32nm-calibrated structural estimate)";
  Printf.printf "(paper: T+ 1.1 GHz / 1.78M gates; T+R+ 1.0 GHz / 1.89M gates — +6.2%% area)\n";
  Printf.printf "%-14s %12s %16s\n" "config" "max freq" "NAND2 gates";
  List.iter
    (fun cfg ->
      Printf.printf "%-14s %9.2f GHz %13.2f M\n" cfg.Ooo.Config.name
        (Synth.Timing.max_freq_ghz cfg)
        (Synth.Gates.total cfg /. 1e6))
    [ Ooo.Config.riscyoo_tplus; Ooo.Config.riscyoo_tplus_rplus ];
  Printf.printf "\nRiscyOO-T+ breakdown (NAND2 equivalents):\n";
  List.iter
    (fun (n, g) -> Printf.printf "  %-20s %10.0f\n" n g)
    (List.sort (fun (_, a) (_, b) -> compare b a) (Synth.Gates.breakdown Ooo.Config.riscyoo_tplus))

(* ---------------------------------------------------------------- *)
(* Ablations                                                          *)
(* ---------------------------------------------------------------- *)

let run_named name kind kernel = run_spec ~config_name:name kind kernel

let ablation_wakeup () =
  header "Ablation: rule-schedule ordering (paper Sec IV-D)";
  Printf.printf
    "(aggressive: doIssue before doRename — a renamed instruction can issue the same\n\
    \ cycle; conservative: the reverse order costs a cycle per wakeup chain)\n";
  List.iter
    (fun k ->
      let run sched =
        let prog = Spec_kernels.find k ~scale:!scale in
        let m = Machine.create ~paging:true ~schedule:sched (ooo Ooo.Config.riscyoo_tplus) prog in
        let o = Machine.run ~max_cycles:200_000_000 m in
        if o.Machine.timed_out then failwith "ablation timeout";
        o.Machine.cycles
      in
      let agg = run `Aggressive and cons = run `Conservative in
      Printf.printf "%-14s aggressive %8d cycles   conservative %8d cycles   (%.1f%% slower)\n" k
        agg cons
        (100.0 *. ((float_of_int cons /. float_of_int agg) -. 1.0)))
    [ "hmmer"; "gcc" ]

let ablation_bypass () =
  header "Ablation: ALU-result bypass network";
  let no_byp = { Ooo.Config.riscyoo_tplus with Ooo.Config.name = "T+nobypass"; bypass = false } in
  List.iter
    (fun k ->
      let w = spec_on Ooo.Config.riscyoo_tplus k in
      let n = run_named "T+nobypass" (ooo no_byp) k in
      Printf.printf "%-14s bypass %8d cycles   no-bypass %8d cycles   (%.1f%% slower)\n" k w.cycles
        n.cycles
        (100.0 *. ((float_of_int n.cycles /. float_of_int w.cycles) -. 1.0)))
    [ "hmmer"; "gcc" ]

let ablation_tlb () =
  header "Ablation: TLB microarchitecture on the TLB-bound kernels";
  let nb_nowc =
    {
      Ooo.Config.riscyoo_tplus with
      Ooo.Config.name = "T+noWC";
      tlb = { Tlb.Tlb_sys.nonblocking_config with Tlb.Tlb_sys.walk_cache_entries = None };
    }
  in
  Printf.printf "%-14s %12s %12s %12s\n" "kernel" "blocking" "nonblk-noWC" "nonblk+WC";
  List.iter
    (fun k ->
      let b = spec_on Ooo.Config.riscyoo_b k in
      let nw = run_named "T+noWC" (ooo nb_nowc) k in
      let t = spec_on Ooo.Config.riscyoo_tplus k in
      Printf.printf "%-14s %12d %12d %12d   (speedup %.2fx -> %.2fx)\n" k b.cycles nw.cycles
        t.cycles
        (float_of_int b.cycles /. float_of_int nw.cycles)
        (float_of_int b.cycles /. float_of_int t.cycles))
    [ "mcf"; "astar"; "omnetpp" ]

let ablation_mesi () =
  header "Ablation: MSI vs MESI coherence (the paper's suggested extension)";
  let mesi cfg =
    { cfg with Ooo.Config.mem = { cfg.Ooo.Config.mem with Mem.Mem_sys.mesi = true };
      name = cfg.Ooo.Config.name ^ "+mesi" }
  in
  List.iter
    (fun k ->
      let msi = spec_on Ooo.Config.riscyoo_tplus k in
      let me = run_named "T+mesi" (ooo (mesi Ooo.Config.riscyoo_tplus)) k in
      Printf.printf "%-14s MSI %9d cycles   MESI %9d cycles   (%.1f%% faster)\n" k msi.cycles
        me.cycles
        (100.0 *. (1.0 -. (float_of_int me.cycles /. float_of_int msi.cycles))))
    [ "omnetpp"; "gcc" ]

let ablation_prefetch () =
  header "Ablation: TSO store prefetching (paper Sec. V-B, unimplemented there)";
  let tso =
    { Ooo.Config.riscyoo_tplus with Ooo.Config.mem_model = Ooo.Config.TSO; name = "T+tso" }
  in
  let pf = { tso with Ooo.Config.st_prefetch = true; name = "T+tso+pf" } in
  List.iter
    (fun k ->
      let a = run_named tso.Ooo.Config.name (ooo tso) k in
      let b = run_named pf.Ooo.Config.name (ooo pf) k in
      Printf.printf "%-14s no-prefetch %9d cycles   prefetch %9d cycles   (%.1f%% faster)\n" k
        a.cycles b.cycles
        (100.0 *. (1.0 -. (float_of_int b.cycles /. float_of_int a.cycles))))
    [ "libquantum"; "omnetpp" ]

let ablation_predictors () =
  header "Ablation: direction predictors (tournament / gshare / bimodal)";
  Printf.printf "%-14s %14s %14s %14s   (mispredicts per 1k instructions)\n" "kernel" "tournament"
    "gshare" "bimodal";
  List.iter
    (fun k ->
      let row =
        List.map
          (fun kind ->
            let cfg =
              { Ooo.Config.riscyoo_tplus with
                Ooo.Config.predictor = kind;
                name = "T+" ^ Branch.Dir_pred.kind_to_string kind }
            in
            let r = run_named cfg.Ooo.Config.name (ooo cfg) k in
            mpki r "c0.mispredicts")
          [ Branch.Dir_pred.Tournament; Branch.Dir_pred.Gshare; Branch.Dir_pred.Bimodal ]
      in
      match row with
      | [ a; b; c ] -> Printf.printf "%-14s %14.1f %14.1f %14.1f\n" k a b c
      | _ -> ())
    [ "sjeng"; "gobmk"; "gcc" ]

let ablation_scheduler () =
  header "Ablation: CMD scheduler — multi-rule cycles preserve one-rule semantics";
  let prog = Spec_kernels.find "gcc" ~scale:1 in
  let g = Machine.create Machine.Golden_only prog in
  let og = Machine.run g in
  let multi = Machine.create ~paging:true (ooo Ooo.Config.riscyoo_tplus) prog in
  let om = Machine.run ~max_cycles:200_000_000 multi in
  Printf.printf "multi-rule:      %d cycles, exit %Ld\n" om.Machine.cycles om.Machine.exits.(0);
  Printf.printf "golden exit:     %Ld (agrees: %b)\n" og.Machine.exits.(0)
    (og.Machine.exits.(0) = om.Machine.exits.(0));
  Printf.printf
    "(one-rule-at-a-time equivalence is exercised structurally by the test suite's\n\
    \ Sim.One_per_cycle and Shuffle modes on the CMD primitives)\n"

(* ---------------------------------------------------------------- *)
(* Bechamel microbenchmarks of the CMD kernel                         *)
(* ---------------------------------------------------------------- *)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  header "Bechamel: CMD kernel primitives";
  let tests =
    [
      Test.make ~name:"ehr read+write"
        (Staged.stage
           (let clk = Cmd.Clock.create () in
            let e = Cmd.Ehr.create 0 in
            fun () ->
              let ctx = Cmd.Kernel.make_ctx clk in
              Cmd.Ehr.write ctx e 0 (Cmd.Ehr.read ctx e 0 + 1);
              Cmd.Clock.tick clk));
      Test.make ~name:"sim cycle (2-rule fifo chain)"
        (Staged.stage
           (let clk = Cmd.Clock.create () in
            let q = Cmd.Fifo.pipeline ~capacity:4 () in
            let n = ref 0 in
            let rules =
              [
                Cmd.Rule.make "deq" (fun ctx ->
                    incr n;
                    ignore (Cmd.Fifo.deq ctx q));
                Cmd.Rule.make "enq" (fun ctx -> Cmd.Fifo.enq ctx q !n);
              ]
            in
            let sim = Cmd.Sim.create clk rules in
            fun () -> ignore (Cmd.Sim.cycle sim)));
      Test.make ~name:"cf fifo enq+deq transaction"
        (Staged.stage
           (let clk = Cmd.Clock.create () in
            let q = Cmd.Fifo.cf clk ~capacity:8 () in
            fun () ->
              let ctx = Cmd.Kernel.make_ctx clk in
              Cmd.Fifo.enq ctx q 1;
              Cmd.Clock.tick clk;
              let ctx = Cmd.Kernel.make_ctx clk in
              ignore (Cmd.Fifo.deq ctx q);
              Cmd.Clock.tick clk));
    ]
  in
  List.iter
    (fun t ->
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
      let raw = Benchmark.all cfg Instance.[ monotonic_clock ] t in
      Hashtbl.iter
        (fun name r ->
          let est =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
              Instance.monotonic_clock r
          in
          match Analyze.OLS.estimates est with
          | Some [ per_run ] -> Printf.printf "%-34s %10.1f ns/run\n" name per_run
          | _ -> Printf.printf "%-34s (no estimate)\n" name)
        raw)
    tests

(* ---------------------------------------------------------------- *)
(* perf: sim-speed measurement, JSON report and CI regression gate    *)
(* ---------------------------------------------------------------- *)

(* Measure one bechamel staged thunk, returning ns/run (OLS estimate). *)
let measure_ns name staged =
  let open Bechamel in
  let open Toolkit in
  let test = Test.make ~name staged in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let out = ref nan in
  Hashtbl.iter
    (fun _ r ->
      let est =
        Analyze.one
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock r
      in
      match Analyze.OLS.estimates est with Some [ per_run ] -> out := per_run | _ -> ())
    raw;
  !out

(* A 64-rule mostly-idle system: one live producer/consumer pair plus 62
   rules parked on empty FIFOs. This is the scheduler shape the fast path
   targets — a wide processor where most rules are blocked most cycles. With
   [fastpath] the 62 idle rules cost two wake-board byte loads each; without
   it each costs a transactional attempt ending in an exception + rollback. *)
let idle_sched_thunk ~fastpath =
  let open Bechamel in
  Staged.stage
    (let clk = Cmd.Clock.create () in
     let active = Cmd.Fifo.pipeline ~name:"active" ~capacity:4 () in
     let n = ref 0 in
     let idle =
       List.init 62 (fun i ->
           let q = Cmd.Fifo.pipeline ~name:(Printf.sprintf "idle%d" i) ~capacity:4 () in
           Cmd.Rule.make (Printf.sprintf "idle%d" i)
             ~can_fire:(fun () -> Cmd.Fifo.peek_size q > 0)
             ~watches:[ Cmd.Fifo.signal q ]
             (fun ctx -> ignore (Cmd.Fifo.deq ctx q)))
     in
     let rules =
       Cmd.Rule.make "deq"
         ~can_fire:(fun () -> Cmd.Fifo.peek_size active > 0)
         ~watches:[ Cmd.Fifo.signal active ]
         (fun ctx -> ignore (Cmd.Fifo.deq ctx active))
       :: Cmd.Rule.make "enq" (fun ctx ->
              incr n;
              Cmd.Fifo.enq ctx active !n)
       :: idle
     in
     let sim = Cmd.Sim.create ~fastpath clk rules in
     fun () -> ignore (Cmd.Sim.cycle sim))

(* Two engines per workload: the fast path (default) and the stripped
   scheduler ([--no-fastpath]). Both must be bit-identical; the JSON reports
   the engine-vs-engine ratio, which is what CI gates on (a ratio cancels
   host-speed variation that makes absolute cycles/s untrustworthy there).
   Each wall is the fastest of its measurements (scheduling noise only ever
   slows a run down); the ratio is the median of per-round ratios, a round
   timing the two engines back to back, so a host-speed swing between rounds
   cancels within a round instead of landing in one engine's best-of. A
   measurement lasts at least [min_timed_s]: a kernel shorter than that
   (smoke runs for about 0.03 s) is run [reps] times on fresh machines
   within one measurement, and its wall is the mean per run. *)
type perf_row = {
  wname : string;
  pcycles : int;
  pinstrs : int;
  reps : int; (* kernel runs per timed measurement *)
  wall_fast : float;
  wall_stripped : float;
  fastpath_ratio : float; (* median over rounds of stripped / fast-path wall *)
}

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* the fewest engine rounds a ratio is the median of *)
let perf_rounds = 5

(* the shortest timed measurement, seconds *)
let min_timed_s = 0.3

let perf_workload ~budget kernel =
  let prog = Spec_kernels.find kernel ~scale:!scale in
  let snapshot = ref None in
  let run1 fastpath =
    let m = Machine.create ~paging:true ~fastpath (ooo Ooo.Config.riscyoo_b) prog in
    let t0 = Unix.gettimeofday () in
    let o = Machine.run ~max_cycles:budget m in
    let dt = Unix.gettimeofday () -. t0 in
    if o.Machine.timed_out then failwith ("perf: " ^ kernel ^ " timed out");
    if !snapshot = None then snapshot := Some (Machine.stats m);
    ((o.Machine.cycles, o.Machine.exits.(0), Machine.instrs m), dt)
  in
  (* untimed fast-path runs, [min_timed_s] of them, warm the process up and
     size the repeat count from the fastest *)
  let reps =
    let fastest = ref infinity and spent = ref 0.0 in
    while !spent < min_timed_s do
      let _, dt = run1 true in
      fastest := Float.min !fastest dt;
      spent := !spent +. dt
    done;
    max 1 (int_of_float (Float.ceil (min_timed_s /. !fastest)))
  in
  (* one timed measurement: [reps] runs, returning the mean wall per run *)
  let once fastpath =
    let id, dt = run1 fastpath in
    let sum = ref dt in
    for _ = 2 to reps do
      let id', dt' = run1 fastpath in
      if id' <> id then failwith ("perf: " ^ kernel ^ " is nondeterministic");
      sum := !sum +. dt'
    done;
    (id, !sum /. float_of_int reps)
  in
  (* engine 0 is the fast path, engine 1 the stripped scheduler *)
  let ids = Array.make 2 None and best = Array.make 2 infinity in
  let rounds = ref [] and total = ref 0.0 and nr = ref 0 in
  (* at least [perf_rounds] rounds and ~3 s of wall time in all; the engine
     order alternates each round so neither engine always runs first *)
  while !nr < perf_rounds || !total < 3.0 do
    let w = Array.make 2 0.0 in
    for k = 0 to 1 do
      let e = (k + !nr) mod 2 in
      let id, dt = once (e = 0) in
      (match ids.(e) with
      | None -> ids.(e) <- Some id
      | Some id0 -> if id <> id0 then failwith ("perf: " ^ kernel ^ " is nondeterministic"));
      w.(e) <- dt;
      best.(e) <- Float.min best.(e) dt;
      total := !total +. (dt *. float_of_int reps)
    done;
    rounds := w :: !rounds;
    incr nr
  done;
  let c_c, x_c, i_c = Option.get ids.(0) in
  (* the fast path must be a pure speed optimization *)
  let c, x, i = Option.get ids.(1) in
  if (c, x, i) <> (c_c, x_c, i_c) then
    failwith
      (Printf.sprintf "perf: %s diverges with fastpath off (%d/%Ld/%d vs %d/%Ld/%d)" kernel c_c
         x_c i_c c x i);
  let row =
    {
      wname = kernel;
      pcycles = c_c;
      pinstrs = i_c;
      reps;
      wall_fast = best.(0);
      wall_stripped = best.(1);
      fastpath_ratio = median (List.map (fun w -> w.(1) /. w.(0)) !rounds);
    }
  in
  Printf.eprintf
    "  [perf/%s] %d cycles, %d rounds of %d runs: %.0f c/s fast path, %.0f c/s stripped\n%!"
    kernel c_c !nr reps
    (float_of_int c_c /. row.wall_fast)
    (float_of_int c_c /. row.wall_stripped);
  (row, Option.get !snapshot)

let cps r = float_of_int r.pcycles /. r.wall_fast
let fastpath_speedup r = r.fastpath_ratio

(* ---------------------------------------------------------------- *)
(* Host-speed calibration                                             *)
(* ---------------------------------------------------------------- *)

(* A fixed-work pure-OCaml microbench: 50M iterations of an integer mix with
   no allocation, no I/O and no simulator state. The work is identical on
   every host, so its best-of wall time is a pure measure of host speed —
   dividing the baseline host's calibration wall by the current one scales
   the baseline's absolute sim-cycles/s to what this host should achieve,
   which is what lets the absolute gate run at a 10% margin on hosted
   runners instead of the flat 20% host-speed fudge. *)
let calib_name = "calib-fixed-work"

let best_of ~budget f =
  let b = ref infinity and total = ref 0.0 in
  while !total < budget do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !b then b := dt;
    total := !total +. dt
  done;
  !b

let calibrate () =
  let work () =
    let x = ref 0x243F6A8885A308D3 in
    for i = 1 to 50_000_000 do
      let v = !x + (i * 0x9E3779B97F4A7) in
      x := v lxor (v lsr 29) lxor (v lsl 7)
    done;
    ignore (Sys.opaque_identity !x)
  in
  let w = best_of ~budget:1.0 work in
  Printf.eprintf "  [perf/%s] %.4f s\n%!" calib_name w;
  w

(* minimal JSON scanning for the regression gate: find the object containing
   ["name": "<w>"] and read a numeric field out of it. Enough for
   baseline.json, which we also emit. *)
let substr_index s needle from =
  let n = String.length needle and m = String.length s in
  let rec go i =
    if i + n > m then None else if String.sub s i n = needle then Some i else go (i + 1)
  in
  go from

let scan_number content start =
  let e = ref start in
  while
    !e < String.length content
    && (match content.[!e] with '0' .. '9' | '.' | '-' | 'e' | '+' -> true | _ -> false)
  do
    incr e
  done;
  float_of_string_opt (String.sub content start (!e - start))

let baseline_field content w field =
  match substr_index content (Printf.sprintf "\"name\": \"%s\"" w) 0 with
  | None -> None
  | Some i -> (
    let key = Printf.sprintf "\"%s\": " field in
    match substr_index content key i with
    | None -> None
    | Some j -> scan_number content (j + String.length key))

let baseline_cps content w = baseline_field content w "sim_cps"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let perf_json ~calib_s rows micro_on micro_off =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"schema\": \"riscyoo-perf-v10\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"calibration\": {\"name\": \"%s\", \"wall_s\": %.4f},\n" calib_name
       calib_s);
  Buffer.add_string b "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": \"%s\", \"cycles\": %d, \"instrs\": %d, \"reps\": %d, \
            \"wall_s_fastpath\": %.4f, \"wall_s_stripped\": %.4f, \"sim_cps\": %.1f, \
            \"sim_kips\": %.2f, \"fastpath_speedup\": %.3f}%s\n"
           r.wname r.pcycles r.pinstrs r.reps r.wall_fast r.wall_stripped (cps r)
           (float_of_int r.pinstrs /. r.wall_fast /. 1000.0)
           (fastpath_speedup r)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"microbench\": {\n";
  Buffer.add_string b
    (Printf.sprintf "    \"idle_sched_fastpath_ns\": %.1f,\n    \"idle_sched_stripped_ns\": %.1f,\n"
       micro_on micro_off);
  Buffer.add_string b
    (Printf.sprintf "    \"idle_sched_speedup\": %.2f\n  }\n}\n" (micro_off /. micro_on));
  Buffer.contents b

(* One machine-readable counter snapshot per perf workload (first timed run;
   they are all deterministic, so any run's counters are *the* counters). *)
let write_stats_json path entries =
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\n  \"schema\": \"riscyoo-perf-stats-v1\",\n  \"workloads\": {\n";
  let n = List.length entries in
  List.iteri
    (fun i (name, cycles, instrs, st) ->
      let doc =
        Obs.Stats_json.to_string ~meta:[ ("workload", name) ] ~cycles ~instrs ~stats:st ()
      in
      Buffer.add_string b
        (Printf.sprintf "    %S: %s%s\n" name (String.trim doc) (if i = n - 1 then "" else ",")))
    entries;
  Buffer.add_string b "  }\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc;
  Printf.printf "wrote %s\n" path

let perf ~quick ~out ~check ~stats_json () =
  header "perf: simulation speed (fast path vs stripped)";
  (* calibrate first, on a quiet process *)
  let calib_s = calibrate () in
  let budget = 200_000_000 in
  let kernels = if quick then [ "smoke" ] else [ "smoke"; "gcc"; "gobmk" ] in
  let rows_s = List.map (perf_workload ~budget) kernels in
  let rows = List.map fst rows_s in
  (match stats_json with
  | None -> ()
  | Some path ->
    write_stats_json path
      (List.map (fun (r, st) -> (r.wname, r.pcycles, r.pinstrs, st)) rows_s));
  let micro_on = measure_ns "idle-sched fastpath" (idle_sched_thunk ~fastpath:true) in
  let micro_off = measure_ns "idle-sched stripped" (idle_sched_thunk ~fastpath:false) in
  Printf.printf "idle 64-rule scheduler cycle: %.1f ns fastpath, %.1f ns stripped (%.2fx)\n"
    micro_on micro_off (micro_off /. micro_on);
  Printf.printf "host calibration (%s): %.4f s\n" calib_name calib_s;
  let json = perf_json ~calib_s rows micro_on micro_off in
  (match out with
  | None -> print_string json
  | Some path ->
    let oc = open_out path in
    output_string oc json;
    close_out oc;
    Printf.printf "wrote %s\n" path);
  match check with
  | None -> ()
  | Some path ->
    (* CI gate, two kinds of check. (1) The engine ratio: the
       stripped-vs-fast-path wall-time ratio of the same binary in the same
       process, the median over interleaved rounds, cancels host speed; a
       ratio more than 5% below the checked-in baseline means the fast path
       lost its advantage. (2) Absolute
       sim-cycles/s, calibrated: raw cycles/s depend on the (shared, noisy)
       CI host, so the fixed-work calibration microbench rescales the
       baseline to this host first — expected = baseline_cps x
       (baseline_calib_wall / current_calib_wall) — and the gate fires only
       10% below that, replacing the old flat host-speed fudge. A
       baseline without a calibration entry keeps absolutes informational
       everywhere. *)
    let base = read_file path in
    let margin = 0.95 in
    let abs_margin = 0.90 in
    let calib_scale =
      match baseline_field base calib_name "wall_s" with
      | None ->
        Printf.printf "check: baseline has no %s entry; absolute sim_cps is informational\n"
          calib_name;
        None
      | Some bw ->
        Printf.printf "check: calibration %.4f s vs baseline %.4f s (host speed %.2fx)\n" calib_s
          bw (bw /. calib_s);
        Some (bw /. calib_s)
    in
    let abs_failures =
      List.filter_map
        (fun (name, c) ->
          match (baseline_cps base name, calib_scale) with
          | None, _ ->
            Printf.printf "check: no baseline sim_cps for %s\n" name;
            None
          | Some b, None ->
            Printf.printf "check: %s %.0f c/s vs baseline %.0f c/s (%.2fx) [informational]\n"
              name c b (c /. b);
            None
          | Some b, Some scale ->
            let expected = b *. scale in
            let ok = c >= abs_margin *. expected in
            Printf.printf
              "check: %s %.0f c/s vs calibrated baseline %.0f c/s (floor %.0f) %s\n" name c
              expected (abs_margin *. expected)
              (if ok then "ok" else "FAIL");
            if ok then None else Some (name ^ ".sim_cps"))
        (List.map (fun r -> (r.wname, cps r)) rows)
    in
    let gate name fields =
      List.filter_map
        (fun (field, v) ->
          match baseline_field base name field with
          | None ->
            Printf.printf "check: no baseline %s for %s, skipping\n" field name;
            None
          | Some b ->
            let ok = v >= margin *. b in
            Printf.printf "check: %s %s %.3f vs baseline %.3f (floor %.3f) %s\n" name field v b
              (margin *. b)
              (if ok then "ok" else "FAIL");
            if ok then None else Some (Printf.sprintf "%s.%s" name field))
        fields
    in
    let failures =
      List.concat_map
        (fun r ->
          gate r.wname [ ("fastpath_speedup", fastpath_speedup r) ])
        rows
    in
    let failures = failures @ abs_failures in
    if failures <> [] then begin
      Printf.eprintf "PERF REGRESSION (vs %s: ratio >5%%, calibrated sim_cps >10%% below): %s\n"
        path
        (String.concat ", " failures);
      exit 1
    end

(* ---------------------------------------------------------------- *)
(* Main                                                               *)
(* ---------------------------------------------------------------- *)

let all_figs =
  [
    ("fig12", fig12); ("fig13", fig13); ("fig14", fig14); ("fig15", fig15); ("fig16", fig16);
    ("fig17", fig17); ("fig18", fig18); ("fig19", fig19); ("fig20", fig20); ("fig21", fig21);
    ("ablation-wakeup", ablation_wakeup); ("ablation-bypass", ablation_bypass);
    ("ablation-tlb", ablation_tlb); ("ablation-scheduler", ablation_scheduler);
    ("ablation-mesi", ablation_mesi); ("ablation-prefetch", ablation_prefetch);
    ("ablation-predictors", ablation_predictors);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = ref false and out = ref None and check = ref None and stats_json = ref None in
  let rec parse = function
    | "--scale" :: n :: rest ->
      scale := int_of_string n;
      parsec_scale := int_of_string n;
      parse rest
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--out" :: f :: rest ->
      out := Some f;
      parse rest
    | "--check" :: f :: rest ->
      check := Some f;
      parse rest
    | "--stats-json" :: f :: rest ->
      stats_json := Some f;
      parse rest
    | x :: rest -> x :: parse rest
    | [] -> []
  in
  let named = parse args in
  match named with
  | [ "perf" ] -> perf ~quick:!quick ~out:!out ~check:!check ~stats_json:!stats_json ()
  | [] ->
    Printf.printf "RiscyOO evaluation — reproducing every table and figure (scale %d)\n" !scale;
    List.iter (fun (_, f) -> f ()) all_figs;
    bechamel ()
  | names ->
    List.iter
      (fun n ->
        match List.assoc_opt n all_figs with
        | Some f -> f ()
        | None when n = "bechamel" -> bechamel ()
        | None -> Printf.eprintf "unknown figure %s\n" n)
      names
