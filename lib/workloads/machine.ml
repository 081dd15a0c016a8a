open Cmd
open Isa

type kind =
  | Golden_only
  | In_order of { mem : Mem.Mem_sys.config; tlb : Tlb.Tlb_sys.config }
  | Out_of_order of Ooo.Config.t

type program = {
  asm : Asm.t;
  init_mem : (Phys_mem.t -> unit) option;
  regs : (int * int64) list;
}

let program ?init_mem ?(regs = []) asm = { asm; init_mem; regs }

type core_handle =
  | HGolden
  | HInorder of Inorder.Inorder_core.t
  | HOoo of Ooo.Core.t

type t = {
  kind : kind;
  ncores : int;
  pmem : Phys_mem.t;
  mmio : Mmio.t;
  sim : Sim.t option; (* None for golden-only *)
  golden : Golden.t option; (* used directly when Golden_only *)
  cores : core_handle array;
  stats_t : Stats.t;
  mutable spent_cycles : int;
  mutable wd : Verif.Watchdog.t option;
  mutable checks : Verif.Invariant.check list;
  mutable monitors : Mcheck.Obligation.monitor list;
  mutable tlog : (Obs.Commit_log.t * Format.formatter) option;
  mutable registry : State.registry option;
  mutable config_key : string;
}

type outcome = { exits : int64 array; cycles : int; timed_out : bool }

let base = Addr_map.dram_base

let load_program pmem (p : program) =
  Array.iteri
    (fun i w ->
      Phys_mem.store pmem ~bytes:4 (Int64.add base (Int64.of_int (i * 4))) (Int64.of_int w))
    (Asm.words p.asm ~base);
  match p.init_mem with Some f -> f pmem | None -> ()

let instrs t =
  let total = ref 0 in
  Array.iteri
    (fun h c ->
      match c with
      | HGolden -> (
        match t.golden with
        | Some g -> total := !total + Int64.to_int (Golden.instret g ~hart:h)
        | None -> ())
      | HInorder c -> total := !total + Inorder.Inorder_core.instret c
      | HOoo c -> total := !total + Ooo.Core.instret c)
    t.cores;
  !total

let create ?(ncores = 1) ?(paging = false) ?(megapages = false) ?(mapped_mb = 64)
    ?(cosim = false) ?schedule ?(mode = Sim.Multi) ?(fastpath = true) ?(audit = false)
    ?jobs:(_ : int option) ?compile:(_ : bool option) ?(epoch = 1) ?(watchdog = 0)
    ?(invariants = false) ?(obligations = false) ?obs kind prog =
  (* Benchmark pins: [epoch] survives only for callers written when windows
     could be longer than one cycle; 0 and 1 both mean one cycle. [jobs]
     and [compile] are accepted and ignored: every machine runs the one
     serial cycle loop on the one checked engine. *)
  if epoch <> 0 && epoch <> 1 then
    invalid_arg "Machine.create: epoch must be 0 or 1 (the window is one cycle)";
  (* The whole build runs inside a [State.collecting] scope: every primitive
     constructed along the way (EHRs, FIFOs, the PRF, caches, TLBs, the
     scheduler) registers its snapshot entry as a side effect, and the
     machine-level state the ISA layer cannot self-register (physical
     memory, MMIO devices, the golden models, spent cycles) is appended
     below. The resulting registry is what {!snapshot}/{!restore} walk. *)
  let construct () =
  let pmem = Phys_mem.create () in
  let mmio = Mmio.create () in
  let stats_t = Stats.create () in
  load_program pmem prog;
  let satp =
    if paging then begin
      let pt = Page_table.create pmem ~alloc_base:0xA000_0000L in
      let len = Int64.of_int (mapped_mb * 1024 * 1024) in
      if megapages then Page_table.map_mega_range pt ~va:base ~pa:base ~len
      else Page_table.map_range pt ~va:base ~pa:base ~len;
      Page_table.root pt
    end
    else 0L
  in
  (* cores built with no hub get the shared inactive Pipe.null: emission
     sites then cost one load-and-branch and record nothing *)
  let pipe_for i =
    match obs with Some hub -> Obs.Hub.pipe hub ~hart:i | None -> Obs.Pipe.null
  in
  let mk_sim clk rules =
    let sim = Sim.create ~mode ~fastpath ~audit clk rules in
    (match obs with Some hub -> Obs.Hub.attach hub sim | None -> ());
    sim
  in
  let build () =
  match kind with
  | Golden_only ->
    let g = Golden.create ~nharts:ncores pmem mmio in
    for h = 0 to ncores - 1 do
      Golden.set_pc g ~hart:h base;
      if satp <> 0L then Golden.set_satp g ~hart:h satp;
      List.iter (fun (r, v) -> Golden.set_reg g ~hart:h r v) prog.regs
    done;
    {
      kind;
      ncores;
      pmem;
      mmio;
      sim = None;
      golden = Some g;
      cores = Array.make ncores HGolden;
      stats_t;
      spent_cycles = 0;
      wd = None;
      checks = [];
      monitors = [];
      tlog = None;
      registry = None;
      config_key = "";
    }
  | In_order { mem; tlb } ->
    let clk = Clock.create () in
    let ms = Mem.Mem_sys.create clk pmem mem ~ncores ~fetch_width:2 ~stats:stats_t in
    let tlbs =
      Array.init ncores (fun i ->
          Partition.scoped (i + 1) (fun () ->
              let tl =
                Tlb.Tlb_sys.create ~name:(Printf.sprintf "c%d.tlb" i) clk tlb ~stats:stats_t ()
              in
              Tlb.Tlb_sys.set_satp tl satp;
              tl))
    in
    let cores =
      Array.init ncores (fun i ->
          let c =
            Inorder.Inorder_core.create ~name:(Printf.sprintf "c%d" i) ~pipe:(pipe_for i) clk
              ~hart_id:i
              ~icache:(Mem.Mem_sys.icache ms i) ~dcache:(Mem.Mem_sys.dcache ms i) ~tlb:tlbs.(i)
              ~mmio ~stats:stats_t ()
          in
          Inorder.Inorder_core.set_pc c base;
          List.iter (fun (r, v) -> Inorder.Inorder_core.set_reg c r v) prog.regs;
          c)
    in
    let rules =
      List.concat_map Inorder.Inorder_core.rules (Array.to_list cores)
      @ List.concat_map Tlb.Tlb_sys.rules (Array.to_list tlbs)
      @ Tlb.Walk_xbar.rules tlbs ~banks:(Mem.Mem_sys.l2_banks ms) ~bank_of:(Mem.Mem_sys.bank_of ms)
      @ Mem.Mem_sys.rules ms
    in
    {
      kind;
      ncores;
      pmem;
      mmio;
      sim = Some (mk_sim clk rules);
      golden = None;
      cores = Array.map (fun c -> HInorder c) cores;
      stats_t;
      spent_cycles = 0;
      wd = None;
      checks = [];
      monitors = [];
      tlog = None;
      registry = None;
      config_key = "";
    }
  | Out_of_order cfg ->
    let clk = Clock.create () in
    let ms =
      Mem.Mem_sys.create clk pmem cfg.Ooo.Config.mem ~ncores ~fetch_width:cfg.width
        ~stats:stats_t
    in
    let golden =
      if cosim then begin
        let g = Golden.create ~nharts:ncores (Phys_mem.copy pmem) (Mmio.create ()) in
        for h = 0 to ncores - 1 do
          Golden.set_pc g ~hart:h base;
          if satp <> 0L then Golden.set_satp g ~hart:h satp;
          List.iter (fun (r, v) -> Golden.set_reg g ~hart:h r v) prog.regs
        done;
        Some g
      end
      else None
    in
    (* The cosim golden model (and its private memory/device copies) is
       reachable only from the cores' commit hooks, so its snapshot entry
       must be registered here while it is in scope. *)
    (match golden with
    | Some g ->
      State.field ~name:"cosim.golden"
        (fun () -> (Golden.export g, Phys_mem.export (Golden.mem g), Mmio.export (Golden.mmio g)))
        (fun (hs, pm, mm) ->
          Golden.import g hs;
          Phys_mem.import (Golden.mem g) pm;
          Mmio.import (Golden.mmio g) mm)
    | None -> ());
    let tlbs =
      Array.init ncores (fun i ->
          Partition.scoped (i + 1) (fun () ->
              let tl =
                Tlb.Tlb_sys.create ~name:(Printf.sprintf "c%d.tlb" i) clk cfg.Ooo.Config.tlb
                  ~stats:stats_t ()
              in
              Tlb.Tlb_sys.set_satp tl satp;
              tl))
    in
    let cores =
      Array.init ncores (fun i ->
          let c =
            Ooo.Core.create ~name:(Printf.sprintf "c%d" i) ?cosim:golden ~pipe:(pipe_for i) clk
              cfg ~hart_id:i
              ~icache:(Mem.Mem_sys.icache ms i) ~dcache:(Mem.Mem_sys.dcache ms i) ~tlb:tlbs.(i)
              ~mmio ~stats:stats_t ()
          in
          Ooo.Core.set_pc c base;
          List.iter (fun (r, v) -> Ooo.Core.set_reg c r v) prog.regs;
          c)
    in
    let rules =
      List.concat_map (fun c -> Ooo.Core.rules ?schedule c) (Array.to_list cores)
      @ List.concat_map Tlb.Tlb_sys.rules (Array.to_list tlbs)
      @ Tlb.Walk_xbar.rules tlbs ~banks:(Mem.Mem_sys.l2_banks ms) ~bank_of:(Mem.Mem_sys.bank_of ms)
      @ Mem.Mem_sys.rules ms
    in
    {
      kind;
      ncores;
      pmem;
      mmio;
      sim = Some (mk_sim clk rules);
      golden = None;
      cores = Array.map (fun c -> HOoo c) cores;
      stats_t;
      spent_cycles = 0;
      wd = None;
      checks = [];
      monitors = [];
      tlog = None;
      registry = None;
      config_key = "";
    }
  in
  (* With [invariants], construction runs inside a collector scope: every
     ROB/free-list/LSQ/store-buffer/L2 built above registers its structural
     check, and the whole set is then evaluated once per cycle. [obligations]
     nests the same way for interface monitors: each LSQ/store-buffer/L2
     declares its message contracts during construction and checks them at
     the boundary as the machine runs. *)
  let with_invariants () =
    if invariants then Verif.Invariant.collecting build else (build (), [])
  in
  let (t, checks), monitors =
    if obligations then Mcheck.Obligation.collecting with_invariants else (with_invariants (), [])
  in
  t.checks <- checks;
  t.monitors <- monitors;
  State.field ~name:"machine.pmem" (fun () -> Phys_mem.export pmem) (Phys_mem.import pmem);
  State.field ~name:"machine.mmio" (fun () -> Mmio.export mmio) (Mmio.import mmio);
  State.field ~name:"machine.cycles"
    (fun () -> t.spent_cycles)
    (fun v -> t.spent_cycles <- v);
  (match t.golden with
  | Some g -> State.field ~name:"machine.golden" (fun () -> Golden.export g) (Golden.import g)
  | None -> ());
  (match t.sim with
  | Some sim ->
    Verif.Invariant.attach sim checks;
    Mcheck.Obligation.attach sim monitors;
    if watchdog > 0 then
      t.wd <- Some (Verif.Watchdog.attach ~progress:(fun () -> instrs t) ~limit:watchdog sim)
  | None -> ());
  t
  in
  let t, registry = State.collecting construct in
  t.registry <- Some registry;
  (* The configuration key covers everything that shapes the machine's state
     inventory or its cycle-accurate behaviour: kind (including the full OOO
     config), topology, paging, the program image and initial registers.
     [fastpath]/[audit] are excluded on purpose — they are state-identical
     by design, so an image snapshotted with the fast path loads into a
     stripped machine.
     The [Shuffle] seed is normalized away: the schedule RNG and attempt
     order travel inside the image ("sim.sched"), so the image alone fixes
     the schedule from the snapshot on, and machines that differ only in
     their seed accept each other's images. *)
  let mode_key = match mode with Sim.Shuffle _ -> Sim.Shuffle 0 | m -> m in
  t.config_key <-
    Digest.string
      (Marshal.to_string
         ( kind,
           ncores,
           paging,
           megapages,
           mapped_mb,
           cosim,
           schedule,
           mode_key,
           Asm.words prog.asm ~base,
           prog.regs )
         []);
  t

let hart_halted t h =
  match t.cores.(h) with
  | HGolden -> ( match t.golden with Some g -> Golden.halted g ~hart:h | None -> true)
  | HInorder c -> Inorder.Inorder_core.halted c
  | HOoo c -> Ooo.Core.halted c

let all_halted t =
  let ok = ref true in
  for h = 0 to t.ncores - 1 do
    if not (hart_halted t h) then ok := false
  done;
  !ok

let reg t ~hart r =
  if hart < 0 || hart >= t.ncores then invalid_arg "Machine.reg: bad hart";
  match t.cores.(hart) with
  | HGolden -> (
    match t.golden with
    | Some g -> Golden.reg g ~hart r
    | None -> invalid_arg "Machine.reg: empty machine")
  | HInorder c -> Inorder.Inorder_core.reg c r
  | HOoo c -> Ooo.Core.reg c r

let quiesced t =
  Array.for_all
    (function HGolden | HInorder _ -> true | HOoo c -> Ooo.Core.quiesced c)
    t.cores

let run ?(max_cycles = 50_000_000) ?on_cycle t =
  (match t.sim, t.golden with
  | Some sim, _ ->
    (match Sim.run_until ?on_cycle sim ~max_cycles (fun () -> all_halted t) with
    | `Done n | `Timeout n -> t.spent_cycles <- t.spent_cycles + n)
  | None, Some g ->
    (* golden-only: round-robin the harts *)
    let budget = ref max_cycles in
    let live = ref true in
    while !live && !budget > 0 do
      live := false;
      for h = 0 to t.ncores - 1 do
        match Golden.step g ~hart:h with Some _ -> live := true | None -> ()
      done;
      decr budget;
      t.spent_cycles <- t.spent_cycles + 1
    done
  | None, None -> invalid_arg "Machine.run: empty machine");
  let exits =
    Array.init t.ncores (fun h ->
        match Mmio.exit_code t.mmio ~hart:h with Some v -> v | None -> -1L)
  in
  { exits; cycles = t.spent_cycles; timed_out = not (all_halted t) }

(* The campaign prologue: a golden reference run, then a fault-free DUT
   run whose cycle count bounds the injection window. Each trial machine
   runs with lockstep cosim (single-core), invariant checks and a
   watchdog, so every flip is masked, detected or diagnosed. *)
let fault_harness ?(ncores = 1) ?paging ?megapages ?(watchdog = 10_000) kind prog =
  let go = run (create ~ncores ?paging ?megapages Golden_only prog) in
  if go.timed_out then failwith "fault campaign: golden reference run timed out";
  let co = run (create ~ncores ?paging ?megapages kind prog) in
  if co.timed_out then failwith "fault campaign: fault-free run timed out";
  let horizon = co.cycles in
  ( {
      Verif.Fault.build =
        (fun () ->
          create ~ncores ?paging ?megapages ~cosim:(ncores = 1) ~watchdog ~invariants:true kind
            prog);
      exec =
        (fun m ~on_cycle ->
          let o = run ~max_cycles:((2 * horizon) + (10 * watchdog)) ~on_cycle m in
          if o.timed_out then `Timeout o.cycles else `Exit o.exits);
      reference = go.exits;
    },
    horizon )

let stats t = t.stats_t

(* Benchmark pin, see [create]'s [epoch]. *)
let epoch_length _ = 1

let console t = Mmio.console t.mmio

let find_stat t name = Stats.find t.stats_t name

let watchdog_trips t = match t.wd with Some w -> Verif.Watchdog.trips w | None -> 0
let history t = match t.sim with Some sim -> Sim.history sim | None -> []
let invariant_names t = Verif.Invariant.names t.checks
let obligation_monitors t = t.monitors
let obligation_stats t = Mcheck.Obligation.stats t.monitors

let pp_rule_stats fmt t =
  match t.sim with Some sim -> Sim.pp_stats fmt sim | None -> ()

let rule_list t = match t.sim with Some sim -> Sim.rules sim | None -> []

(* Trace committed instructions of every OOO core. Lines land in a
   per-hart Obs.Commit_log (abort-safe, one log per hart) and
   [flush_trace] prints them hart-ordered after the run — printing straight
   from the hook would interleave harts in rule-firing order. *)
let trace_commits t fmt =
  let log = Obs.Commit_log.create ~nharts:t.ncores in
  Obs.Commit_log.set_active log true;
  t.tlog <- Some (log, fmt);
  Array.iteri
    (fun h c ->
      match c with
      | HOoo core ->
        Ooo.Core.set_commit_hook core (fun ctx u ->
            Obs.Commit_log.line ctx log ~hart:h
              (Printf.sprintf "C%d %8d: %Lx %s -> %Lx" h (Ooo.Core.instret core) u.Ooo.Uop.pc
                 (Isa.Instr.to_string u.Ooo.Uop.instr) u.Ooo.Uop.result))
      | HInorder _ | HGolden -> ())
    t.cores

let flush_trace t =
  match t.tlog with Some (log, fmt) -> Obs.Commit_log.dump log fmt | None -> ()

(* -------------------------------------------------------------------- *)
(* Snapshot / restore                                                   *)
(* -------------------------------------------------------------------- *)

let registry t =
  match t.registry with
  | Some r -> r
  | None -> invalid_arg "Machine: no state registry (machine not built via create?)"

let snapshot t = State.save (registry t) ~config:t.config_key
let restore t img = State.load (registry t) ~config:t.config_key img
let snapshot_entries t = State.names (registry t)

let pp_core_debug fmt t =
  Array.iter
    (fun c -> match c with HOoo c -> Ooo.Core.pp_debug fmt c | HInorder _ | HGolden -> ())
    t.cores
