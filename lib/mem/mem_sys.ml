type config = {
  l1d_bytes : int;
  l1d_ways : int;
  l1d_mshrs : int;
  l1i_bytes : int;
  l1i_ways : int;
  l2_bytes : int;
  l2_ways : int;
  l2_mshrs : int;
  l2_latency : int;
  l2_banks : int;
  mesi : bool;
  mem_latency : int;
  mem_inflight : int;
}

let default_config =
  {
    l1d_bytes = 32 * 1024;
    l1d_ways = 8;
    l1d_mshrs = 8;
    l1i_bytes = 32 * 1024;
    l1i_ways = 8;
    l2_bytes = 1024 * 1024;
    l2_ways = 16;
    l2_mshrs = 16;
    l2_latency = 16;
    l2_banks = 1;
    mesi = false;
    mem_latency = 120;
    mem_inflight = 24;
  }

type t = {
  dcaches : L1_dcache.t array;
  icaches : L1_icache.t array;
  banks : L2_cache.t array;
  drams : Dram.t array;
  bank_of : int64 -> int;
  xbar_rules : Cmd.Rule.t list;
}

let create clk pmem cfg ~ncores ~fetch_width ~stats =
  let nbanks = cfg.l2_banks in
  if nbanks < 1 || nbanks land (nbanks - 1) <> 0 then
    invalid_arg "Mem_sys.create: l2_banks must be a power of two";
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  let bank_bits = log2 nbanks in
  let nchildren = 2 * ncores in
  (* Each bank gets an equal slice of the L2 capacity and MSHRs and its own
     DRAM channel (interleaving multiplies memory-level parallelism, as
     banking is meant to). A single bank reproduces the seed machine
     exactly: uncore cluster, "l2"/"dram" names, unbanked address split. *)
  let banks_drams =
    Array.init nbanks (fun b ->
        let build () =
          let name = if nbanks = 1 then "l2" else Printf.sprintf "l2b%d" b in
          let dram_name = if nbanks = 1 then "dram" else Printf.sprintf "dramb%d" b in
          let dram = Dram.create ~name:dram_name clk pmem ~latency:cfg.mem_latency ~max_inflight:cfg.mem_inflight in
          let l2 =
            L2_cache.create ~name ~bank:(b, bank_bits) clk
              ~nchildren
              ~geom:(Cache_geom.v ~size_bytes:(cfg.l2_bytes / nbanks) ~ways:cfg.l2_ways)
              ~mshrs:(max 1 (cfg.l2_mshrs / nbanks))
              ~latency:cfg.l2_latency ~mesi:cfg.mesi ~dram ~stats ()
          in
          (l2, dram)
        in
        if nbanks = 1 then build ()
        else Cmd.Partition.scoped (ncores + 1 + b) build)
  in
  let banks = Array.map fst banks_drams in
  let drams = Array.map snd banks_drams in
  let bank_of laddr =
    Int64.to_int (Int64.shift_right_logical laddr Cache_geom.line_bits) land (nbanks - 1)
  in
  (* L1s are private to their core, so they are built — queues, signals and
     tick rule alike — inside that core's cluster; the crossbar stays in
     the ambient (uncore) cluster, and each L2 bank (with its DRAM channel)
     gets a cluster of its own when banked: [ncores + 1 + b]. *)
  let dcaches =
    Array.init ncores (fun i ->
        Cmd.Partition.scoped (i + 1) (fun () ->
            L1_dcache.create ~name:(Printf.sprintf "c%d.l1d" i) clk
              ~child_id:(2 * i)
              ~geom:(Cache_geom.v ~size_bytes:cfg.l1d_bytes ~ways:cfg.l1d_ways)
              ~mshrs:cfg.l1d_mshrs ~stats ()))
  in
  let icaches =
    Array.init ncores (fun i ->
        Cmd.Partition.scoped (i + 1) (fun () ->
            L1_icache.create ~name:(Printf.sprintf "c%d.l1i" i) clk
              ~child_id:((2 * i) + 1)
              ~geom:(Cache_geom.v ~size_bytes:cfg.l1i_bytes ~ways:cfg.l1i_ways)
              ~fetch_width ~stats ()))
  in
  let endpoints =
    Array.init nchildren (fun c ->
        if c land 1 = 0 then
          let d = dcaches.(c / 2) in
          {
            Crossbar.creq = L1_dcache.creq_out d;
            cresp = L1_dcache.cresp_out d;
            preq = L1_dcache.preq_in d;
            presp = L1_dcache.presp_in d;
          }
        else
          let i = icaches.(c / 2) in
          {
            Crossbar.creq = L1_icache.creq_out i;
            cresp = L1_icache.cresp_out i;
            preq = L1_icache.preq_in i;
            presp = L1_icache.presp_in i;
          })
  in
  {
    dcaches;
    icaches;
    banks;
    drams;
    bank_of;
    xbar_rules = Crossbar.rules endpoints ~banks ~bank_of;
  }

let dcache t i = t.dcaches.(i)
let icache t i = t.icaches.(i)
let l2 t = t.banks.(0)
let l2_banks t = t.banks
let dram t = t.drams.(0)
let drams t = t.drams
let bank_of t = t.bank_of

let rules t =
  t.xbar_rules
  @ List.concat_map L2_cache.rules (Array.to_list t.banks)
  @ Array.to_list (Array.map L1_dcache.rules t.dcaches |> Array.map List.hd)
  @ Array.to_list (Array.map L1_icache.rules t.icaches |> Array.map List.hd)
