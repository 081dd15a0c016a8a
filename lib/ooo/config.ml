type mem_model = TSO | WMM

type t = {
  name : string;
  width : int;
  rob_size : int;
  n_alu : int;
  iq_size : int;
  lq_size : int;
  sq_size : int;
  sb_size : int;
  n_phys_regs : int;
      (* physical-register-file entries (>= 33; 32 architectural + the
         free window rename draws on). The classic sizing is
         32 + rob_size + 8, which [phys_regs_for] computes; the
         config-space explorer varies it independently to find the point
         where the PRF, not the ROB, bounds the in-flight window. *)
  n_spec_tags : int;
  muldiv_latency : int;
  mem_model : mem_model;
  tlb : Tlb.Tlb_sys.config;
  mem : Mem.Mem_sys.config;
  btb_entries : int;
  ras_entries : int;
  bypass : bool;  (* ablation: disable the ALU result bypass network *)
  predictor : Branch.Dir_pred.kind;
  st_prefetch : bool; (* TSO store prefetching (paper Sec. V-B, unimplemented there) *)
  bug_ld_bypass_sq : bool;
      (* fault injection for the obligation checker: load issue skips the
         store-queue age/overlap scan, so loads sail past older stores *)
}

let phys_regs_for ~rob_size = 32 + rob_size + 8

let riscyoo_b =
  {
    name = "RiscyOO-B";
    width = 2;
    rob_size = 64;
    n_alu = 2;
    iq_size = 16;
    lq_size = 24;
    sq_size = 14;
    sb_size = 4;
    n_phys_regs = phys_regs_for ~rob_size:64;
    n_spec_tags = 8;
    muldiv_latency = 4;
    mem_model = WMM;
    tlb = Tlb.Tlb_sys.blocking_config;
    mem = Mem.Mem_sys.default_config;
    btb_entries = 256;
    ras_entries = 8;
    bypass = true;
    predictor = Branch.Dir_pred.Tournament;
    st_prefetch = false;
    bug_ld_bypass_sq = false;
  }

let riscyoo_cminus =
  {
    riscyoo_b with
    name = "RiscyOO-C-";
    mem = { Mem.Mem_sys.default_config with l1d_bytes = 16 * 1024; l1i_bytes = 16 * 1024; l2_bytes = 256 * 1024 };
  }

let riscyoo_tplus = { riscyoo_b with name = "RiscyOO-T+"; tlb = Tlb.Tlb_sys.nonblocking_config }
let riscyoo_tplus_rplus =
  { riscyoo_tplus with name = "RiscyOO-T+R+"; rob_size = 80; n_phys_regs = phys_regs_for ~rob_size:80 }

let a57_proxy =
  {
    riscyoo_tplus with
    name = "a57-proxy";
    width = 3;
    n_alu = 3;
    rob_size = 128;
    n_phys_regs = phys_regs_for ~rob_size:128;
    lq_size = 32;
    sq_size = 20;
    mem =
      {
        Mem.Mem_sys.default_config with
        l1d_bytes = 32 * 1024;
        l1i_bytes = 48 * 1024;
        l1i_ways = 12 (* 64 sets: the geometry needs a power of two *);
        l2_bytes = 2 * 1024 * 1024;
      };
  }

let denver_proxy =
  {
    a57_proxy with
    name = "denver-proxy";
    width = 7;
    n_alu = 4;
    rob_size = 192;
    n_phys_regs = phys_regs_for ~rob_size:192;
    iq_size = 24;
    lq_size = 48;
    sq_size = 32;
    mem =
      { Mem.Mem_sys.default_config with l1d_bytes = 64 * 1024; l1i_bytes = 128 * 1024; l2_bytes = 2 * 1024 * 1024 };
  }

let multicore mm =
  {
    riscyoo_tplus with
    name = (match mm with TSO -> "quad-TSO" | WMM -> "quad-WMM");
    rob_size = 48;
    n_phys_regs = phys_regs_for ~rob_size:48;
    lq_size = 16;
    sq_size = 10;
    mem_model = mm;
  }

let multicore16 mm =
  {
    (multicore mm) with
    name = (match mm with TSO -> "sixteen-TSO" | WMM -> "sixteen-WMM");
    mem =
      {
        Mem.Mem_sys.default_config with
        l1d_bytes = 16 * 1024;
        l1i_bytes = 16 * 1024;
        l2_bytes = 2 * 1024 * 1024;
        l2_mshrs = 32;
        l2_banks = 4;
        mem_inflight = 48;
      };
  }

let pp fmt t =
  Format.fprintf fmt
    "%s: %d-wide, ROB %d, %d ALU pipes, IQ %d, LQ/SQ %d/%d, SB %d, %s, L1D %dKB, L2 %dKB, mem %d cyc"
    t.name t.width t.rob_size t.n_alu t.iq_size t.lq_size t.sq_size t.sb_size
    (match t.mem_model with TSO -> "TSO" | WMM -> "WMM")
    (t.mem.Mem.Mem_sys.l1d_bytes / 1024)
    (t.mem.Mem.Mem_sys.l2_bytes / 1024)
    t.mem.Mem.Mem_sys.mem_latency

let named =
  [
    ("b", riscyoo_b, 1);
    ("cminus", riscyoo_cminus, 1);
    ("tplus", riscyoo_tplus, 1);
    ("tplus-rplus", riscyoo_tplus_rplus, 1);
    ("a57-proxy", a57_proxy, 1);
    ("denver-proxy", denver_proxy, 1);
    ("quad-tso", multicore TSO, 4);
    ("quad-wmm", multicore WMM, 4);
    ("sixteen-tso", multicore16 TSO, 16);
    ("sixteen-wmm", multicore16 WMM, 16);
  ]

let of_name name = List.find_map (fun (n, c, k) -> if n = name then Some (c, k) else None) named
