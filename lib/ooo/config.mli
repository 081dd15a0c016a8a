(** RiscyOO processor configurations (paper, Figs. 12 and 14).

    Everything the evaluation varies is a field here: superscalar width,
    ROB/IQ/LSQ sizes, speculation depth, memory model, TLB personality and
    cache geometry. *)

type mem_model = TSO | WMM

type t = {
  name : string;
  width : int;  (** fetch/decode/rename/commit width *)
  rob_size : int;
  n_alu : int;  (** ALU pipelines, each with its own IQ *)
  iq_size : int;  (** per-pipeline issue queue entries *)
  lq_size : int;
  sq_size : int;
  sb_size : int;  (** store buffer entries (WMM only) *)
  n_phys_regs : int;
      (** physical-register-file entries (>= 33: the 32 architectural
          registers plus the free window rename draws on). Classically sized
          as [phys_regs_for ~rob_size]; the config-space explorer varies it
          independently. *)
  n_spec_tags : int;  (** branch speculation tags / bit-mask width *)
  muldiv_latency : int;
  mem_model : mem_model;
  tlb : Tlb.Tlb_sys.config;
  mem : Mem.Mem_sys.config;
  btb_entries : int;
  ras_entries : int;
  bypass : bool;  (** ablation: ALU-result bypass network on/off *)
  predictor : Branch.Dir_pred.kind;  (** direction predictor to instantiate *)
  st_prefetch : bool;
      (** issue store-prefetch (acquire-M) requests for queued stores — the
          feature the paper describes but had not implemented *)
  bug_ld_bypass_sq : bool;
      (** fault injection for {!Mcheck.Obligation} testing: load issue skips
          the store-queue age/overlap scan, letting loads bypass older
          overlapping stores. The [ooo.lsq/ld-issue] obligation catches the
          first load that reaches the cache past such a store. *)
}

(** The classic PRF sizing: 32 architectural + ROB window + 8 slack. *)
val phys_regs_for : rob_size:int -> int

(** RiscyOO-B: the paper's baseline (Fig. 12): 2-wide, 64-entry ROB, 2 ALU +
    1 MEM pipelines, 16-entry IQs, 24/14-entry LQ/SQ, blocking TLBs, 32 KB
    L1s, 1 MB L2, 120-cycle memory. *)
val riscyoo_b : t

(** RiscyOO-C-: RiscyOO-B with 16 KB L1s and a 256 KB L2 (Fig. 14). *)
val riscyoo_cminus : t

(** RiscyOO-T+: RiscyOO-B with non-blocking TLBs and the translation walk
    cache (Fig. 14). *)
val riscyoo_tplus : t

(** RiscyOO-T+R+: RiscyOO-T+ with an 80-entry ROB (Fig. 14). *)
val riscyoo_tplus_rplus : t

(** Width/cache-scaled stand-ins for the commercial cores of Fig. 13. *)
val a57_proxy : t

val denver_proxy : t

(** Quad-core configuration used for PARSEC (Sec. VI-B): 48-entry ROB,
    reduced buffers, TSO or WMM. *)
val multicore : mem_model -> t

(** Sixteen-core scale-up of {!multicore}: smaller private L1s, a 2 MB L2
    interleaved across 4 banks (each bank its own DRAM channel),
    deeper MSHR/memory parallelism. Built for [Machine.create ~ncores:16]. *)
val multicore16 : mem_model -> t

(** The named configurations, in listing order, each with its default
    core count: the one table behind [riscyoo list], [synth] and
    [run --config], the farm's fault sweeps and the explorer's [base]. *)
val named : (string * t * int) list

(** [of_name n] is [n]'s configuration and default core count. *)
val of_name : string -> (t * int) option

val pp : Format.formatter -> t -> unit
