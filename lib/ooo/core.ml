open Cmd
open Isa

type schedule = [ `Aggressive | `Conservative ]

(* fetch in-flight slot *)
type fstate = FFree | FWaitTlb | FReady of int64 | FWaitMem

type fslot = {
  mutable fst : fstate;
  mutable vpc : int64;
  mutable flen : int;
  mutable fpred : int64;
  mutable fepoch : int;
  mutable fcyc : int; (* cycle the fetch was issued; only kept when tracing *)
}

type fgroup = {
  gpc : int64;
  gwords : int array;
  gpred : int64;
  gepoch : int;
  gfcyc : int;
}

type dec = {
  dpc : int64;
  dinstr : Instr.t;
  dpred : int64;
  dghist : Branch.Dir_pred.snapshot option;
  dras : Branch.Ras.snapshot;
  dtid : int; (* observability trace id, -1 when tracing is off *)
}

type t = {
  name : string;
  cfg : Config.t;
  clk : Clock.t;
  hart_id : int;
  ic : Mem.L1_icache.t;
  dc : Mem.L1_dcache.t;
  tlbs : Tlb.Tlb_sys.t;
  mmio : Mmio.t;
  cosim : Golden.t option;
  (* front-end *)
  btb : Branch.Btb.t;
  tour : Branch.Dir_pred.t;
  ras : Branch.Ras.t;
  mutable fpc : int64;
  mutable epoch : int;
  redirect_sg : Wakeup.signal; (* touched whenever [epoch] changes *)
  fslots : fslot array;
  mutable f_alloc : int;
  mutable f_mem : int;
  f2d : fgroup Fifo.t;
  d2r : dec Fifo.t;
  (* rename *)
  rat : Rename_table.t;
  fl : Free_list.t;
  spec : Spec_manager.t;
  fl_snaps : Free_list.snapshot array; (* free-list snapshot per tag *)
  prf : Prf.t;
  mutable seq_ctr : int;
  (* execution engine *)
  rob : Rob.t;
  alu_iqs : Issue_queue.t array;
  md_iq : Issue_queue.t;
  mem_iq : Issue_queue.t;
  alu_rr : Uop.t Stage.t array;
  alu_ex : (Uop.t * int64 * int64) Stage.t array;
  alu_wb : (Uop.t * int64) Stage.t array;
  md_rr : Uop.t Stage.t;
  md_ex : (Uop.t * int64 * int64 * int) Stage.t;
  md_wb : (Uop.t * int64) Stage.t;
  mem_rr : Uop.t Stage.t;
  byp : Bypass.t;
  (* load-store unit *)
  lsq : Lsq.t;
  sb : Store_buffer.t;
  tlb_pending : Uop.t option array;
  forward_q : (int * int64) Fifo.t;
  mutable reservation : int64 option;
  mutable atomic_busy : bool;
  mutable halted_f : bool;
  mutable n_instret : int;
  mutable commit_hook : (Kernel.ctx -> Uop.t -> unit) option;
  (* observability *)
  pipe : Obs.Pipe.t;
  (* statistics *)
  c_cycles : Stats.counter;
  c_instrs : Stats.counter;
  c_mispred : Stats.counter;
  c_branches : Stats.counter;
  c_ld_kill_flush : Stats.counter;
  c_tso_kills : Stats.counter;
  c_rob_occ : Stats.counter;
  c_rob_full : Stats.counter;
  c_iq_occ : Stats.counter;
  c_iq_full : Stats.counter;
}

exception Cosim_mismatch of string

let create ?(name = "ooo") ?cosim ?(pipe = Obs.Pipe.null) clk (cfg : Config.t) ~hart_id ~icache
    ~dcache ~tlb ~mmio ~stats () =
  (* Everything a core builds — pipeline FIFOs, stages, bypass wires — is
     private to it, so the whole construction runs in the core's cluster
     (hart 0 -> cluster 1; cluster 0 is the uncore). *)
  Partition.scoped (hart_id + 1) @@ fun () ->
  let nregs = cfg.n_phys_regs in
  let dead_u (u : Uop.t) = u.killed in
  let dead_2 ((u : Uop.t), _) = u.killed in
  let dead_3 ((u : Uop.t), _, _) = u.killed in
  let dead_4 ((u : Uop.t), _, _, _) = u.killed in
  let fl = Free_list.create ~nregs in
  let t =
  {
    name;
    cfg;
    clk;
    hart_id;
    ic = icache;
    dc = dcache;
    tlbs = tlb;
    mmio;
    cosim;
    btb = Branch.Btb.create ~entries:cfg.btb_entries ();
    tour = Branch.Dir_pred.create cfg.predictor;
    ras = Branch.Ras.create ~entries:cfg.ras_entries ~stats ~name:(name ^ ".ras") ();
    fpc = Addr_map.dram_base;
    epoch = 0;
    redirect_sg = Wakeup.make ();
    fslots =
      Array.init 8 (fun _ -> { fst = FFree; vpc = 0L; flen = 0; fpred = 0L; fepoch = 0; fcyc = 0 });
    f_alloc = 0;
    f_mem = 0;
    f2d = Fifo.cf ~name:(name ^ ".f2d") clk ~capacity:4 ();
    d2r = Fifo.cf ~name:(name ^ ".d2r") clk ~capacity:(2 * cfg.width + 2) ();
    rat = Rename_table.create ~n_tags:cfg.n_spec_tags;
    fl;
    spec = Spec_manager.create ~n_tags:cfg.n_spec_tags;
    fl_snaps = Array.make cfg.n_spec_tags (Free_list.snapshot fl);
    prf = Prf.create ~name:(name ^ ".prf") ~nregs ();
    seq_ctr = 0;
    rob = Rob.create ~size:cfg.rob_size;
    alu_iqs =
      Array.init cfg.n_alu (fun i ->
          Issue_queue.create ~name:(Printf.sprintf "%s.iq.alu%d" name i) ~size:cfg.iq_size);
    md_iq = Issue_queue.create ~name:(name ^ ".iq.md") ~size:cfg.iq_size;
    mem_iq = Issue_queue.create ~name:(name ^ ".iq.mem") ~size:cfg.iq_size;
    alu_rr = Array.init cfg.n_alu (fun i -> Stage.create ~name:(Printf.sprintf "%s.alu%d.rr" name i) ~dead:dead_u);
    alu_ex = Array.init cfg.n_alu (fun i -> Stage.create ~name:(Printf.sprintf "%s.alu%d.ex" name i) ~dead:dead_3);
    alu_wb = Array.init cfg.n_alu (fun i -> Stage.create ~name:(Printf.sprintf "%s.alu%d.wb" name i) ~dead:dead_2);
    md_rr = Stage.create ~name:(name ^ ".md.rr") ~dead:dead_u;
    md_ex = Stage.create ~name:(name ^ ".md.ex") ~dead:dead_4;
    md_wb = Stage.create ~name:(name ^ ".md.wb") ~dead:dead_2;
    mem_rr = Stage.create ~name:(name ^ ".mem.rr") ~dead:dead_u;
    byp = Bypass.create clk ~n_wires:(2 * cfg.n_alu);
    lsq = Lsq.create cfg;
    sb = Store_buffer.create ~size:cfg.sb_size;
    tlb_pending = Array.make 4 None;
    forward_q = Fifo.cf ~name:(name ^ ".fwd") clk ~capacity:8 ();
    reservation = None;
    atomic_busy = false;
    halted_f = false;
    n_instret = 0;
    commit_hook = None;
    pipe;
    c_cycles = Stats.counter stats (name ^ ".cycles");
    c_instrs = Stats.counter stats (name ^ ".instrs");
    c_mispred = Stats.counter stats (name ^ ".mispredicts");
    c_branches = Stats.counter stats (name ^ ".branches");
    c_ld_kill_flush = Stats.counter stats (name ^ ".ldKillFlushes");
    c_tso_kills = Stats.counter stats (name ^ ".tsoKills");
    c_rob_occ = Stats.counter stats (name ^ ".robOccSum");
    c_rob_full = Stats.counter stats (name ^ ".robFullCycles");
    c_iq_occ = Stats.counter stats (name ^ ".iqOccSum");
    c_iq_full = Stats.counter stats (name ^ ".iqFullCycles");
  }
  in
  (* Free and architecturally-live registers must be disjoint: a register
     the RRAT maps (committed state) that also sits on the free list would
     be overwritten by the next rename. *)
  (* The cycle counter used to be bumped inside the (always-firing) commit
     rule's body; counting at the clock edge instead lets the commit rule
     carry a [can_fire] predicate and be skipped on idle cycles. Structure
     occupancies are sampled here too: the hook runs between cycles, so
     untracked increments are rollback-free, and sampling at the edge sees
     the settled state. *)
  Clock.on_cycle_end clk (fun () ->
      Stats.incr t.c_cycles;
      let rc = Rob.count t.rob in
      if rc > 0 then Stats.incr ~by:rc t.c_rob_occ;
      if not (Rob.can_enq t.rob) then Stats.incr t.c_rob_full;
      let occ = ref (Issue_queue.count t.md_iq + Issue_queue.count t.mem_iq) in
      Array.iter (fun q -> occ := !occ + Issue_queue.count q) t.alu_iqs;
      if !occ > 0 then Stats.incr ~by:!occ t.c_iq_occ;
      if (not (Issue_queue.can_enter t.md_iq))
         || (not (Issue_queue.can_enter t.mem_iq))
         || Array.exists (fun q -> not (Issue_queue.can_enter q)) t.alu_iqs
      then Stats.incr t.c_iq_full);
  Verif.Invariant.register ~name:"rename.partition" (fun () ->
      let live = Array.make nregs false in
      Array.iter (fun p -> if p >= 0 then live.(p) <- true) (Rename_table.rrat t.rat);
      Free_list.iter_free t.fl (fun p ->
          if p >= 0 && p < nregs && live.(p) then
            Verif.Invariant.fail "rename.partition"
              "%s: physical register %d is on the free list and live in the RRAT" name p));
  (* Raw (non-EHR) core state; the sub-modules built above registered
     their own entries. [commit_hook] and the stats counters are not
     state: hooks are re-attached by the machine builder, counters
     register through [Stats]. *)
  State.field ~name:(name ^ ".core")
    (fun () ->
      ( (t.fpc, t.epoch, t.f_alloc, t.f_mem, t.seq_ctr),
        (t.reservation, t.atomic_busy, t.halted_f, t.n_instret),
        t.fslots,
        t.fl_snaps,
        t.tlb_pending ))
    (fun ( (fpc, epoch, f_alloc, f_mem, seq_ctr),
           (reservation, atomic_busy, halted_f, n_instret),
           fslots,
           fl_snaps,
           tlb_pending ) ->
      t.fpc <- fpc;
      t.epoch <- epoch;
      t.f_alloc <- f_alloc;
      t.f_mem <- f_mem;
      t.seq_ctr <- seq_ctr;
      t.reservation <- reservation;
      t.atomic_busy <- atomic_busy;
      t.halted_f <- halted_f;
      t.n_instret <- n_instret;
      Array.blit fslots 0 t.fslots 0 (Array.length t.fslots);
      Array.blit fl_snaps 0 t.fl_snaps 0 (Array.length t.fl_snaps);
      Array.blit tlb_pending 0 t.tlb_pending 0 (Array.length t.tlb_pending));
  t

let set_pc t pc = t.fpc <- pc
let set_commit_hook t f = t.commit_hook <- Some f

(* Observability emission. A uop whose [tid] is -1 was decoded while tracing
   was off; the [tid >= 0] check is the whole disabled-path cost. *)
let emit_stage ctx t tid code =
  if tid >= 0 then Obs.Pipe.stage ctx t.pipe tid code ~at:(Clock.now t.clk)

let emit_retire ctx t tid ~flushed =
  if tid >= 0 then Obs.Pipe.retire ctx t.pipe tid ~flushed ~at:(Clock.now t.clk)
let halted t = t.halted_f
let instret t = t.n_instret

let set_reg t r v =
  if r <> 0 then begin
    let p = Rename_table.lookup t.rat r in
    (* pre-run initialization: registers p1..p31 back x1..x31 *)
    if p >= 0 then begin
      let ctx = Kernel.make_ctx t.clk in
      Prf.write ctx t.prf p v
    end
  end

let reg t r = if r = 0 then 0L else Prf.read t.prf (Rename_table.rrat t.rat).(r)

(* ------------------------------------------------------------------ *)
(* Fetch                                                               *)
(* ------------------------------------------------------------------ *)

let step_fetch_issue ctx t =
  Kernel.guard ctx (not t.halted_f) "halted";
  let slot = t.fslots.(t.f_alloc mod 8) in
  Kernel.guard ctx (slot.fst = FFree) "fetch slots full";
  let avail = min t.cfg.width ((Mem.Cache_geom.line_bytes - Mem.Cache_geom.offset t.fpc) / 4) in
  let rec scan k =
    if k >= avail then (avail, Int64.add t.fpc (Int64.of_int (4 * avail)))
    else
      match Branch.Btb.predict t.btb (Int64.add t.fpc (Int64.of_int (4 * k))) with
      | Some tgt -> (k + 1, tgt)
      | None -> scan (k + 1)
  in
  let len, pred = scan 0 in
  Tlb.Tlb_sys.itlb_req ctx t.tlbs ~tag:(t.f_alloc mod 8) t.fpc;
  Mut.field ctx slot ~get:(fun o -> o.fst) ~set:(fun o v -> o.fst <- v) FWaitTlb;
  Mut.field ctx slot ~get:(fun o -> o.vpc) ~set:(fun o v -> o.vpc <- v) t.fpc;
  Mut.field ctx slot ~get:(fun o -> o.flen) ~set:(fun o v -> o.flen <- v) len;
  Mut.field ctx slot ~get:(fun o -> o.fpred) ~set:(fun o v -> o.fpred <- v) pred;
  Mut.field ctx slot ~get:(fun o -> o.fepoch) ~set:(fun o v -> o.fepoch <- v) t.epoch;
  if Obs.Pipe.is_active t.pipe then
    Mut.field ctx slot ~get:(fun o -> o.fcyc) ~set:(fun o v -> o.fcyc <- v) (Clock.now t.clk);
  Mut.field ctx t ~get:(fun o -> o.f_alloc) ~set:(fun o v -> o.f_alloc <- v) (t.f_alloc + 1);
  Mut.field ctx t ~get:(fun o -> o.fpc) ~set:(fun o v -> o.fpc <- v) pred

let step_fetch_tlb ctx t =
  let tag, res = Tlb.Tlb_sys.itlb_resp ctx t.tlbs in
  let slot = t.fslots.(tag) in
  match res with
  | Tlb.Tlb_sys.Hit pa ->
    Mut.field ctx slot ~get:(fun o -> o.fst) ~set:(fun o v -> o.fst <- v) (FReady pa)
  | Tlb.Tlb_sys.Fault -> failwith (t.name ^ ": instruction page fault")

(* dispatch I$ requests in fetch order even when I-TLB responses reorder *)
let step_fetch_dispatch ctx t =
  let idx = t.f_mem mod 8 in
  let slot = t.fslots.(idx) in
  match slot.fst with
  | FReady pa ->
    if slot.fepoch <> t.epoch then begin
      Mut.field ctx slot ~get:(fun o -> o.fst) ~set:(fun o v -> o.fst <- v) FFree;
      Mut.field ctx t ~get:(fun o -> o.f_mem) ~set:(fun o v -> o.f_mem <- v) (t.f_mem + 1)
    end
    else begin
      Mem.L1_icache.req ctx t.ic ~tag:idx pa;
      Mut.field ctx slot ~get:(fun o -> o.fst) ~set:(fun o v -> o.fst <- v) FWaitMem;
      Mut.field ctx t ~get:(fun o -> o.f_mem) ~set:(fun o v -> o.f_mem <- v) (t.f_mem + 1)
    end
  | FFree | FWaitTlb | FWaitMem -> raise (Kernel.Guard_fail "no slot ready for i$")

let step_fetch_mem ctx t =
  let tag, _pa, words = Mem.L1_icache.resp ctx t.ic in
  let slot = t.fslots.(tag) in
  if slot.fepoch = t.epoch then begin
    let n = min slot.flen (Array.length words) in
    Fifo.enq ctx t.f2d
      {
        gpc = slot.vpc;
        gwords = Array.sub words 0 n;
        gpred = (if n = slot.flen then slot.fpred else Int64.add slot.vpc (Int64.of_int (4 * n)));
        gepoch = slot.fepoch;
        gfcyc = slot.fcyc;
      }
  end;
  Mut.field ctx slot ~get:(fun o -> o.fst) ~set:(fun o v -> o.fst <- v) FFree

(* ------------------------------------------------------------------ *)
(* Decode                                                              *)
(* ------------------------------------------------------------------ *)

let redirect_front ctx t target =
  Mut.field ctx t ~get:(fun o -> o.fpc) ~set:(fun o v -> o.fpc <- v) target;
  Mut.field ctx t ~get:(fun o -> o.epoch) ~set:(fun o v -> o.epoch <- v) (t.epoch + 1);
  Wakeup.touch t.redirect_sg

let step_decode ctx t =
  let g = Fifo.deq ctx t.f2d in
  if g.gepoch = t.epoch then begin
    let n = Array.length g.gwords in
    let stop = ref false in
    for k = 0 to n - 1 do
      if not !stop then begin
        let pc = Int64.add g.gpc (Int64.of_int (4 * k)) in
        let i = Decode.decode g.gwords.(k) in
        let my_pred = if k = n - 1 then g.gpred else Int64.add pc 4L in
        let fallthrough = Int64.add pc 4L in
        let ghist = ref None in
        let pred =
          match i.op with
          | Instr.Br _ ->
            let taken, snap = Branch.Dir_pred.predict ctx t.tour pc in
            ghist := Some snap;
            if taken then Int64.add pc i.imm else fallthrough
          | Instr.Jal ->
            if i.rd = Reg_name.ra then Branch.Ras.push ctx t.ras fallthrough;
            Int64.add pc i.imm
          | Instr.Jalr ->
            if i.rd = 0 && i.rs1 = Reg_name.ra then Branch.Ras.pop ctx t.ras
            else begin
              if i.rd = Reg_name.ra then Branch.Ras.push ctx t.ras fallthrough;
              fallthrough
            end
          | _ -> fallthrough
        in
        let ras_snap = Branch.Ras.snapshot t.ras in
        (* Trace ids are born at decode: the first point where an
           instruction exists as such. The fetch stage is backdated to the
           cycle recorded at fetch-issue; wrong-path fetch groups that never
           decode stay invisible. *)
        let dtid =
          if Obs.Pipe.is_active t.pipe then begin
            let tid = Obs.Pipe.start ctx t.pipe ~pc ~at:g.gfcyc in
            Obs.Pipe.set_text t.pipe tid (Instr.to_string i);
            Obs.Pipe.stage ctx t.pipe tid Obs.Pipe.s_decode ~at:(Clock.now t.clk);
            tid
          end
          else -1
        in
        Fifo.enq ctx t.d2r
          { dpc = pc; dinstr = i; dpred = pred; dghist = !ghist; dras = ras_snap; dtid };
        if pred <> my_pred then begin
          redirect_front ctx t pred;
          stop := true
        end
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* Rename                                                              *)
(* ------------------------------------------------------------------ *)

let pipe_of (i : Instr.t) =
  match Instr.exec_class i with
  | Instr.EC_alu | Instr.EC_branch -> `Alu
  | Instr.EC_muldiv -> `Md
  | Instr.EC_mem -> (
    match i.op with Instr.Fence | Instr.FenceI -> `System | _ -> `Mem)
  | Instr.EC_system -> `System

let needs_tag (i : Instr.t) = match i.op with Instr.Br _ | Instr.Jalr -> true | _ -> false

let wakeup_all ctx t preg =
  Array.iter (fun q -> Issue_queue.wakeup ctx q preg) t.alu_iqs;
  Issue_queue.wakeup ctx t.md_iq preg;
  Issue_queue.wakeup ctx t.mem_iq preg

let rename_one ctx t =
  let de = Fifo.first ctx t.d2r in
  let i = de.dinstr in
  Kernel.guard ctx (Rob.can_enq t.rob) "rob full";
  let pipe = pipe_of i in
  (* pick the least-occupied ALU IQ *)
  let target_iq =
    match pipe with
    | `Alu ->
      let best = ref t.alu_iqs.(0) in
      Array.iter (fun q -> if Issue_queue.count q < Issue_queue.count !best then best := q) t.alu_iqs;
      Some !best
    | `Md -> Some t.md_iq
    | `Mem -> Some t.mem_iq
    | `System -> None
  in
  (match target_iq with
  | Some q -> Kernel.guard ctx (Issue_queue.can_enter q) "iq full"
  | None -> ());
  let seq = t.seq_ctr in
  Mut.field ctx t ~get:(fun o -> o.seq_ctr) ~set:(fun o v -> o.seq_ctr <- v) (seq + 1);
  let prs1 = if Instr.uses_rs1 i && i.rs1 <> 0 then Rename_table.lookup t.rat i.rs1 else -1 in
  let prs2 = if Instr.uses_rs2 i && i.rs2 <> 0 then Rename_table.lookup t.rat i.rs2 else -1 in
  let writes = Instr.writes_rd i in
  let prd = if writes then Free_list.alloc ctx t.fl else -1 in
  let prd_old = if writes then Rename_table.lookup t.rat i.rd else -1 in
  let tag = if needs_tag i then Spec_manager.alloc ctx t.spec else -1 in
  let mask = Spec_manager.active_mask t.spec land lnot (if tag >= 0 then 1 lsl tag else 0) in
  let lsq_slot =
    match i.op with
    | Instr.Ld _ | Instr.Lr _ -> Uop.LQ (Lsq.reserve_ld ctx t.lsq)
    | Instr.St _ | Instr.Sc _ | Instr.Amo _ -> Uop.SQ (Lsq.reserve_st ctx t.lsq)
    | _ -> Uop.LNone
  in
  let u : Uop.t =
    {
      seq;
      pc = de.dpc;
      instr = i;
      rob_idx = Rob.next_idx t.rob;
      prd;
      prs1;
      prs2;
      prd_old;
      spec_tag = tag;
      lsq = lsq_slot;
      pred_next = de.dpred;
      ras_sp = de.dras;
      ghist = de.dghist;
      spec_mask = mask;
      killed = false;
      completed = false;
      ld_kill = false;
      fault = false;
      mmio = false;
      translated = false;
      paddr = 0L;
      st_data = 0L;
      result = 0L;
      actual_next = Int64.add de.dpc 4L;
      tid = de.dtid;
    }
  in
  ignore (Rob.enq ctx t.rob u);
  (match lsq_slot with
  | Uop.LQ idx -> Lsq.fill_ld ctx t.lsq idx u
  | Uop.SQ idx -> Lsq.fill_st ctx t.lsq idx u
  | Uop.LNone -> ());
  if writes then begin
    Rename_table.set ctx t.rat i.rd prd;
    Prf.alloc_clear ctx t.prf prd
  end;
  if tag >= 0 then begin
    Rename_table.snapshot ctx t.rat ~tag;
    Mut.set_arr ctx t.fl_snaps tag (Free_list.snapshot t.fl)
  end;
  (match target_iq with
  | Some q ->
    Issue_queue.enter ctx q u ~rdy1:(Prf.sb_ready t.prf prs1) ~rdy2:(Prf.sb_ready t.prf prs2)
  | None -> ());
  (match i.op with
  | Instr.Fence | Instr.FenceI -> Lsq.add_fence ctx t.lsq u
  | _ -> ());
  emit_stage ctx t u.Uop.tid Obs.Pipe.s_rename;
  if target_iq <> None then emit_stage ctx t u.Uop.tid Obs.Pipe.s_dispatch;
  ignore (Fifo.deq ctx t.d2r)

(* Peek-only ready test for [rename_one] ([Kernel.attempt_if]): false means
   it would abort. *)
let rename_ready t = Fifo.peek_size t.d2r > 0 && Rob.can_enq t.rob

(* Up to [width] renames. An aborted rename would abort again on the
   rolled-back state, so the group ends at the first; with none, the rule
   fails its guard. [rename] is [rename_one] for this core, built once. *)
let step_rename ctx t rename =
  let k = ref 0 in
  while !k < t.cfg.width && Option.is_some (Kernel.attempt_if ctx (rename_ready t) rename) do
    incr k
  done;
  Kernel.require_effect ctx

(* ------------------------------------------------------------------ *)
(* Speculation events                                                  *)
(* ------------------------------------------------------------------ *)

let squash_everything ctx t =
  Array.iter (fun q -> Issue_queue.squash ctx q) t.alu_iqs;
  Issue_queue.squash ctx t.md_iq;
  Issue_queue.squash ctx t.mem_iq;
  Array.iter (fun s -> Stage.squash ctx s) t.alu_rr;
  Array.iter (fun s -> Stage.squash ctx s) t.alu_ex;
  Array.iter (fun s -> Stage.squash ctx s) t.alu_wb;
  Stage.squash ctx t.md_rr;
  Stage.squash ctx t.md_ex;
  Stage.squash ctx t.md_wb;
  Stage.squash ctx t.mem_rr;
  Lsq.kill_suffix ctx t.lsq

let do_correct ctx t tag =
  Spec_manager.correct ctx t.spec tag;
  let bit = 1 lsl tag in
  Rob.iter_live t.rob (fun u ->
      if u.Uop.spec_mask land bit <> 0 then Uop.mk_set_mask ctx u (u.Uop.spec_mask land lnot bit))

let do_mispredict ctx t (u : Uop.t) actual =
  Stats.incr ~ctx t.c_mispred;
  (match u.ghist with
  | Some snap -> Branch.Dir_pred.restore ctx t.tour ~snap ~taken:(actual <> Int64.add u.pc 4L)
  | None -> ());
  Branch.Ras.restore ctx t.ras u.ras_sp;
  redirect_front ctx t actual;
  Fifo.clear ctx t.d2r;
  let dead = Spec_manager.wrong ctx t.spec u.spec_tag in
  let dead_mask = Spec_manager.mask_of dead in
  Rob.iter_live t.rob (fun v ->
      if v.Uop.spec_mask land dead_mask <> 0 then begin
        Uop.mk_set_killed ctx v true;
        emit_retire ctx t v.Uop.tid ~flushed:true
      end);
  ignore (Rob.truncate_after ctx t.rob u.rob_idx);
  squash_everything ctx t;
  Rename_table.restore ctx t.rat ~tag:u.spec_tag;
  Free_list.restore ctx t.fl t.fl_snaps.(u.spec_tag)

(* commit-time flush: load-speculation kill (or any deferred event) *)
let commit_flush ctx t (u : Uop.t) =
  Stats.incr ~ctx t.c_ld_kill_flush;
  redirect_front ctx t u.pc;
  Fifo.clear ctx t.d2r;
  (* every in-flight uop (including the head itself) is squashed and will
     re-enter the pipeline under a fresh trace id *)
  Rob.iter_live t.rob (fun v -> emit_retire ctx t v.Uop.tid ~flushed:true);
  Rob.flush ctx t.rob;
  squash_everything ctx t;
  Lsq.flush ctx t.lsq;
  Spec_manager.reset ctx t.spec;
  Rename_table.restore_from_rrat ctx t.rat;
  let live = Rename_table.rrat t.rat in
  Free_list.reset ctx t.fl ~live;
  Prf.reset_presence ctx t.prf ~live

(* ------------------------------------------------------------------ *)
(* ALU pipelines                                                       *)
(* ------------------------------------------------------------------ *)

let step_issue_alu ctx t i =
  let q = t.alu_iqs.(i) in
  Kernel.guard ctx (Stage.can_put ctx t.alu_rr.(i)) "rr busy";
  let u = Issue_queue.issue ctx q in
  emit_stage ctx t u.Uop.tid Obs.Pipe.s_issue;
  Stage.put ctx t.alu_rr.(i) u;
  (* single-cycle result: optimistic scoreboard wakeup at issue *)
  if u.Uop.prd >= 0 then begin
    Prf.set_sb ctx t.prf u.Uop.prd;
    wakeup_all ctx t u.Uop.prd
  end

let read_operand ctx t preg =
  if preg < 0 then Some 0L
  else if Prf.present t.prf preg then Some (Prf.read t.prf preg)
  else if t.cfg.bypass then Bypass.get ctx t.byp preg
  else None

let operands ctx t (u : Uop.t) =
  let v1 = read_operand ctx t u.prs1 in
  let v2 =
    match u.instr.op with
    | Instr.OpA { imm = true; _ } -> Some u.instr.imm
    | _ -> read_operand ctx t u.prs2
  in
  match v1, v2 with
  | Some a, Some b -> (a, b)
  | _ -> raise (Kernel.Guard_fail "operand not ready")

let step_regread_alu ctx t i =
  let u = Stage.peek ctx t.alu_rr.(i) in
  Kernel.guard ctx (Stage.can_put ctx t.alu_ex.(i)) "ex busy";
  let v1, v2 = operands ctx t u in
  ignore (Stage.take ctx t.alu_rr.(i));
  Stage.put ctx t.alu_ex.(i) (u, v1, v2)

let exec_alu (u : Uop.t) v1 v2 =
  let pc = u.pc in
  let fallthrough = Int64.add pc 4L in
  match u.instr.op with
  | Instr.Lui -> (u.instr.imm, fallthrough)
  | Instr.Auipc -> (Int64.add pc u.instr.imm, fallthrough)
  | Instr.OpA { alu; word; _ } -> (Exec_unit.alu alu ~word v1 v2, fallthrough)
  | Instr.Jal -> (fallthrough, Int64.add pc u.instr.imm)
  | Instr.Jalr -> (fallthrough, Int64.logand (Int64.add v1 u.instr.imm) (Int64.lognot 1L))
  | Instr.Br c -> (0L, if Exec_unit.branch_taken c v1 v2 then Int64.add pc u.instr.imm else fallthrough)
  | _ -> assert false

let step_exec_alu ctx t i =
  let u, v1, v2 = Stage.peek ctx t.alu_ex.(i) in
  Kernel.guard ctx (Stage.can_put ctx t.alu_wb.(i)) "wb busy";
  let result, actual = exec_alu u v1 v2 in
  ignore (Stage.take ctx t.alu_ex.(i));
  emit_stage ctx t u.Uop.tid Obs.Pipe.s_exec;
  Uop.mk_set_result ctx u result;
  Uop.mk_set_actual_next ctx u actual;
  if u.Uop.prd >= 0 then Bypass.set ctx t.byp (2 * i) u.Uop.prd result;
  Stage.put ctx t.alu_wb.(i) (u, result);
  if Instr.is_branch u.instr then begin
    Stats.incr ~ctx t.c_branches;
    let taken = actual <> Int64.add u.pc 4L in
    (match u.ghist with
    | Some snap -> Branch.Dir_pred.update ctx t.tour ~pc:u.pc ~taken ~snap
    | None -> ());
    if taken || u.pred_next <> actual then Branch.Btb.update ctx t.btb ~pc:u.pc ~target:actual ~taken;
    if u.spec_tag >= 0 then
      if actual <> u.pred_next then do_mispredict ctx t u actual else do_correct ctx t u.spec_tag
  end

let step_wb_alu ctx t i =
  let u, result = Stage.take ctx t.alu_wb.(i) in
  emit_stage ctx t u.Uop.tid Obs.Pipe.s_writeback;
  if u.Uop.prd >= 0 then begin
    Prf.write ctx t.prf u.Uop.prd result;
    Bypass.set ctx t.byp ((2 * i) + 1) u.Uop.prd result
  end;
  Uop.mk_set_completed ctx u true

(* ------------------------------------------------------------------ *)
(* MULDIV pipeline                                                     *)
(* ------------------------------------------------------------------ *)

let step_issue_md ctx t =
  Kernel.guard ctx (Stage.can_put ctx t.md_rr) "md rr busy";
  let u = Issue_queue.issue ctx t.md_iq in
  emit_stage ctx t u.Uop.tid Obs.Pipe.s_issue;
  Stage.put ctx t.md_rr u

let step_regread_md ctx t =
  let u = Stage.peek ctx t.md_rr in
  Kernel.guard ctx (Stage.can_put ctx t.md_ex) "md ex busy";
  let v1, v2 = operands ctx t u in
  ignore (Stage.take ctx t.md_rr);
  Stage.put ctx t.md_ex (u, v1, v2, Clock.now t.clk + t.cfg.muldiv_latency)

let step_exec_md ctx t =
  let u, v1, v2, ready = Stage.peek ctx t.md_ex in
  Kernel.guard ctx (Clock.now t.clk >= ready) "md busy";
  Kernel.guard ctx (Stage.can_put ctx t.md_wb) "md wb busy";
  let result =
    match u.Uop.instr.op with
    | Instr.MulDiv { op; word } -> Exec_unit.muldiv op ~word v1 v2
    | _ -> assert false
  in
  ignore (Stage.take ctx t.md_ex);
  emit_stage ctx t u.Uop.tid Obs.Pipe.s_exec;
  Uop.mk_set_result ctx u result;
  Stage.put ctx t.md_wb (u, result);
  if u.Uop.prd >= 0 then begin
    Prf.set_sb ctx t.prf u.Uop.prd;
    wakeup_all ctx t u.Uop.prd
  end

let step_wb_md ctx t =
  let u, result = Stage.take ctx t.md_wb in
  emit_stage ctx t u.Uop.tid Obs.Pipe.s_writeback;
  if u.Uop.prd >= 0 then Prf.write ctx t.prf u.Uop.prd result;
  Uop.mk_set_completed ctx u true

(* ------------------------------------------------------------------ *)
(* Memory pipeline                                                     *)
(* ------------------------------------------------------------------ *)

let step_issue_mem ctx t =
  Kernel.guard ctx (Stage.can_put ctx t.mem_rr) "mem rr busy";
  let u = Issue_queue.issue ctx t.mem_iq in
  emit_stage ctx t u.Uop.tid Obs.Pipe.s_issue;
  Stage.put ctx t.mem_rr u

let step_regread_mem ctx t =
  let u = Stage.peek ctx t.mem_rr in
  let free = ref (-1) in
  Array.iteri (fun k s -> if s = None && !free < 0 then free := k) t.tlb_pending;
  Kernel.guard ctx (!free >= 0) "tlb pending full";
  let v1, v2 = operands ctx t u in
  let va = Int64.add v1 u.Uop.instr.imm in
  Tlb.Tlb_sys.dtlb_req ctx t.tlbs ~tag:!free va;
  Uop.mk_set_st_data ctx u v2;
  Mut.set_arr ctx t.tlb_pending !free (Some u);
  emit_stage ctx t u.Uop.tid Obs.Pipe.s_exec;
  ignore (Stage.take ctx t.mem_rr)

let step_update_lsq ctx t =
  let tag, res = Tlb.Tlb_sys.dtlb_resp ctx t.tlbs in
  let u = match t.tlb_pending.(tag) with Some u -> u | None -> failwith "orphan dtlb resp" in
  Mut.set_arr ctx t.tlb_pending tag None;
  if not u.Uop.killed then begin
    emit_stage ctx t u.Uop.tid Obs.Pipe.s_mem;
    match res with
    | Tlb.Tlb_sys.Fault ->
      Uop.mk_set_fault ctx u true;
      Uop.mk_set_completed ctx u true
    | Tlb.Tlb_sys.Hit pa ->
      Uop.mk_set_paddr ctx u pa;
      Uop.mk_set_translated ctx u true;
      if Addr_map.is_mmio pa then Uop.mk_set_mmio ctx u true
      else begin
        match u.Uop.instr.op with
        | Instr.Ld _ -> Lsq.update_ld ctx t.lsq u
        | Instr.Lr _ -> Lsq.update_ld ctx t.lsq u
        | Instr.St _ ->
          Lsq.update_st ctx t.lsq u;
          Uop.mk_set_completed ctx u true
        | Instr.Sc _ | Instr.Amo _ -> Lsq.update_st ctx t.lsq u
        | _ -> assert false
      end
  end

let ld_params (u : Uop.t) =
  match u.instr.op with
  | Instr.Ld { width; unsigned } -> (Instr.bytes_of_width width, unsigned)
  | Instr.Lr width -> (Instr.bytes_of_width width, false)
  | _ -> (8, false)

let step_issue_ld ctx t =
  let idx, u = Lsq.get_issue_ld ctx t.lsq in
  let bytes, unsigned = ld_params u in
  let sb_search =
    if t.cfg.mem_model = Config.WMM then Store_buffer.search t.sb ~addr:u.paddr ~bytes
    else Store_buffer.NoMatch
  in
  match Lsq.issue_ld ctx t.lsq idx u ~sb_search with
  | Lsq.Forward (v, tag) -> Fifo.enq ctx t.forward_q (tag, v)
  | Lsq.ToCache tag ->
    Mem.L1_dcache.req ctx t.dc (Mem.L1_dcache.Ld { tag; addr = u.paddr; bytes; unsigned })
  | Lsq.Stalled -> ()

let handle_ld_resp ctx t tag v =
  match Lsq.resp_ld ctx t.lsq tag v with
  | `WrongPath -> ()
  | `Ok u ->
    emit_stage ctx t u.Uop.tid Obs.Pipe.s_writeback;
    if u.Uop.prd >= 0 then begin
      Prf.write ctx t.prf u.Uop.prd v;
      wakeup_all ctx t u.Uop.prd
    end;
    Uop.mk_set_completed ctx u true

let step_resp_ld_cache ctx t =
  let tag, v = Mem.L1_dcache.resp_ld ctx t.dc in
  handle_ld_resp ctx t tag v

let step_resp_ld_fwd ctx t =
  let tag, v = Fifo.deq ctx t.forward_q in
  handle_ld_resp ctx t tag v

let store_bytes (u : Uop.t) =
  match u.instr.op with
  | Instr.St w | Instr.Sc w -> Instr.bytes_of_width w
  | Instr.Amo { width; _ } -> Instr.bytes_of_width width
  | _ -> 8

let step_st_prefetch ctx t =
  match Lsq.prefetch_candidate t.lsq with
  | Some (idx, u) ->
    Mem.L1_dcache.req ctx t.dc (Mem.L1_dcache.Pf { line = Mem.Cache_geom.line_addr u.paddr });
    Lsq.mark_prefetched ctx t.lsq idx
  | None -> raise (Kernel.Guard_fail "nothing to prefetch")

(* TSO: issue the oldest committed store to the cache; dequeue on hit *)
let step_issue_st_tso ctx t =
  Kernel.guard ctx (not (Lsq.sq_head_issued t.lsq)) "store already issued";
  match Lsq.committed_store_head t.lsq with
  | Some (idx, u) ->
    Mem.L1_dcache.req ctx t.dc (Mem.L1_dcache.St { tag = idx; line = Mem.Cache_geom.line_addr u.paddr });
    Lsq.mark_store_issued ctx t.lsq idx
  | None -> raise (Kernel.Guard_fail "no committed store")

let line_write_of (u : Uop.t) =
  let bytes = store_bytes u in
  let line = Mem.Cache_geom.line_addr u.paddr in
  let off = Mem.Cache_geom.offset u.paddr in
  let data = Bytes.make Mem.Cache_geom.line_bytes '\000' in
  for k = 0 to bytes - 1 do
    Bytes.set data (off + k) (Char.chr (Int64.to_int (Int64.shift_right_logical u.st_data (8 * k)) land 0xFF))
  done;
  (line, data, Int64.shift_left (Int64.sub (Int64.shift_left 1L bytes) 1L) off)

let step_resp_st_tso ctx t =
  let tag = Mem.L1_dcache.resp_st ctx t.dc in
  match Lsq.committed_store_head t.lsq with
  | Some (idx, u) when idx = tag ->
    let line, data, mask = line_write_of u in
    Mem.L1_dcache.write_data ctx t.dc ~line ~data ~mask;
    Lsq.deq_st ctx t.lsq
  | _ -> failwith "tso: store response does not match SQ head"

(* WMM: committed stores drain into the store buffer *)
let step_deq_st_wmm ctx t =
  match Lsq.committed_store_head t.lsq with
  | Some (_, u) ->
    Kernel.guard ctx (Store_buffer.can_enq t.sb ~addr:u.paddr) "sb full";
    Store_buffer.enq ctx t.sb ~addr:u.paddr ~bytes:(store_bytes u) u.st_data;
    Lsq.deq_st ctx t.lsq
  | None -> raise (Kernel.Guard_fail "no committed store")

let step_sb_issue ctx t =
  let idx, line = Store_buffer.issue ctx t.sb in
  Mem.L1_dcache.req ctx t.dc (Mem.L1_dcache.St { tag = idx; line })

let step_resp_st_wmm ctx t =
  let tag = Mem.L1_dcache.resp_st ctx t.dc in
  let line, data, mask = Store_buffer.deq ctx t.sb tag in
  Mem.L1_dcache.write_data ctx t.dc ~line ~data ~mask;
  Lsq.wakeup_by_sb_deq ctx t.lsq tag

(* ------------------------------------------------------------------ *)
(* Commit                                                              *)
(* ------------------------------------------------------------------ *)

let csr_read t addr =
  if addr = Csr.mhartid then Int64.of_int t.hart_id
  else if addr = Csr.satp then Tlb.Tlb_sys.satp t.tlbs
  else if addr = Csr.cycle || addr = Csr.time then Int64.of_int (Clock.now t.clk)
  else if addr = Csr.instret then Int64.of_int t.n_instret
  else 0L

let cosim_check _ctx t (u : Uop.t) =
  match t.cosim with
  | None -> ()
  | Some g -> (
    let gpc = Golden.pc g ~hart:t.hart_id in
    if gpc <> u.pc then
      raise
        (Cosim_mismatch
           (Printf.sprintf "%s: pc mismatch: core %Lx golden %Lx (%s)" t.name u.pc gpc
              (Instr.to_string u.instr)));
    match Golden.step g ~hart:t.hart_id with
    | None -> raise (Cosim_mismatch (t.name ^ ": golden halted early"))
    | Some c -> (
      match c.Golden.rd_write with
      | Some (rd, gv) -> (
        match u.instr.op with
        | Instr.Csr _ ->
          (* cycle/time values legitimately differ: adopt the core's *)
          Golden.set_reg g ~hart:t.hart_id rd u.result
        | _ ->
          if gv <> u.result then
            raise
              (Cosim_mismatch
                 (Printf.sprintf "%s: value mismatch at %Lx (%s): core %Lx golden %Lx" t.name u.pc
                    (Instr.to_string u.instr) u.result gv)))
      | None -> ()))

let commit_common ctx t (u : Uop.t) =
  (* the uop's LSQ slot is released first (fallible guards live there); the
     golden-model step comes last so an aborted attempt never desyncs it *)
  (match u.instr.op with
  | Instr.Ld _ when not u.mmio -> Lsq.deq_ld ctx t.lsq
  | Instr.St _ when not u.mmio -> Lsq.set_at_commit ctx t.lsq u
  | Instr.Ld _ -> Lsq.deq_ld ctx t.lsq
  | Instr.St _ -> Lsq.deq_st ctx t.lsq
  | Instr.Lr _ -> Lsq.deq_ld ctx t.lsq
  | Instr.Sc _ | Instr.Amo _ -> Lsq.deq_st ctx t.lsq
  | _ -> ());
  if Instr.writes_rd u.instr then begin
    if u.prd_old >= 0 then Free_list.free ctx t.fl u.prd_old;
    Rename_table.rrat_set ctx t.rat u.instr.rd u.prd
  end;
  Mut.field ctx t ~get:(fun o -> o.n_instret) ~set:(fun o v -> o.n_instret <- v) (t.n_instret + 1);
  Stats.incr ~ctx t.c_instrs;
  Rob.deq ctx t.rob;
  emit_retire ctx t u.tid ~flushed:false;
  (match t.commit_hook with Some f -> f ctx u | None -> ());
  cosim_check ctx t u

let atomic_f t (u : Uop.t) =
  match u.instr.op with
  | Instr.Lr _ -> fun old -> (None, old)
  | Instr.Sc _ ->
    fun _old ->
      if t.reservation = Some (Mem.Cache_geom.line_addr u.paddr) then (Some u.st_data, 0L)
      else (None, 1L)
  | Instr.Amo { op; width } ->
    fun old -> (Some (Exec_unit.amo op width ~old ~src:u.st_data), old)
  | _ -> assert false

let sb_empty t = Store_buffer.is_empty t.sb
let quiesced t = sb_empty t && Lsq.sq_quiesced t.lsq

let commit_one ctx t =
  Kernel.guard ctx (not t.halted_f) "halted";
  match Rob.head t.rob with
  | None -> raise (Kernel.Guard_fail "rob empty")
  | Some u ->
    if u.fault then failwith (Printf.sprintf "%s: page fault at pc=%Lx" t.name u.pc);
    if u.ld_kill then begin
      commit_flush ctx t u;
      `Stop
    end
    else begin
      try
      (match u.instr.op with
      | Instr.Ld _ when not u.mmio ->
        Kernel.guard ctx u.completed "load not done";
        commit_common ctx t u
      | Instr.St _ when not u.mmio ->
        Kernel.guard ctx u.completed "store not translated";
        commit_common ctx t u
      | Instr.Ld _ (* mmio *) ->
        Kernel.guard ctx u.translated "mmio load not translated";
        Kernel.guard ctx (Lsq.no_older_stores t.lsq u.seq && sb_empty t) "mmio load: stores pending";
        let v = Mmio.load t.mmio ~hart:t.hart_id u.paddr in
        if u.prd >= 0 then begin
          Prf.write ctx t.prf u.prd v;
          wakeup_all ctx t u.prd
        end;
        Uop.mk_set_result ctx u v;
        commit_common ctx t u
      | Instr.St _ (* mmio *) ->
        Kernel.guard ctx u.translated "mmio store not translated";
        Kernel.guard ctx (Lsq.sq_head_is t.lsq u && sb_empty t) "mmio store: stores pending";
        ignore (Mmio.store t.mmio ~hart:t.hart_id u.paddr u.st_data);
        if u.paddr = Addr_map.mmio_exit then
          Mut.field ctx t ~get:(fun o -> o.halted_f) ~set:(fun o v -> o.halted_f <- v) true;
        commit_common ctx t u
      | Instr.Lr _ | Instr.Sc _ | Instr.Amo _ ->
        if not u.completed then begin
          Kernel.guard ctx u.translated "atomic not translated";
          Kernel.guard ctx (not u.mmio) "mmio atomics unsupported";
          (match u.instr.op with
          | Instr.Lr _ ->
            Kernel.guard ctx (Lsq.no_older_stores t.lsq u.seq && sb_empty t) "lr: stores pending"
          | _ -> Kernel.guard ctx (Lsq.sq_head_is t.lsq u && sb_empty t) "atomic: stores pending");
          Kernel.guard ctx (not t.atomic_busy) "atomic in flight";
          Kernel.guard ctx (Mem.L1_dcache.can_req ctx t.dc) "d$ req full";
          let bytes =
            match u.instr.op with
            | Instr.Lr w | Instr.Sc w -> Instr.bytes_of_width w
            | Instr.Amo { width; _ } -> Instr.bytes_of_width width
            | _ -> assert false
          in
          Mem.L1_dcache.req ctx t.dc (Mem.L1_dcache.At { tag = 0; addr = u.paddr; bytes; f = atomic_f t u });
          (match u.instr.op with
          | Instr.Lr _ ->
            Mut.field ctx t ~get:(fun o -> o.reservation) ~set:(fun o v -> o.reservation <- v)
              (Some (Mem.Cache_geom.line_addr u.paddr))
          | Instr.Sc _ -> ()
          | _ -> ());
          Mut.field ctx t ~get:(fun o -> o.atomic_busy) ~set:(fun o v -> o.atomic_busy <- v) true;
          (* issued: the effects must commit, but the group stops here *)
          raise Exit
        end
        else begin
          commit_common ctx t u;
          (match u.instr.op with
          | Instr.Sc _ ->
            Mut.field ctx t ~get:(fun o -> o.reservation) ~set:(fun o v -> o.reservation <- v) None
          | _ -> ())
        end
      | Instr.Fence | Instr.FenceI ->
        Kernel.guard ctx (Lsq.no_older_stores t.lsq u.seq && sb_empty t) "fence: stores pending";
        Lsq.remove_fence ctx t.lsq u;
        Uop.mk_set_completed ctx u true;
        commit_common ctx t u
      | Instr.Csr { op; imm } ->
        let addr = Int64.to_int u.instr.imm in
        let old = csr_read t addr in
        ignore (op, imm);
        if u.prd >= 0 then begin
          Prf.write ctx t.prf u.prd old;
          wakeup_all ctx t u.prd
        end;
        Uop.mk_set_result ctx u old;
        Uop.mk_set_completed ctx u true;
        commit_common ctx t u
      | Instr.Ecall ->
        let a7 = Prf.read t.prf (Rename_table.rrat t.rat).(Reg_name.a7) in
        let a0 = Prf.read t.prf (Rename_table.rrat t.rat).(Reg_name.a0) in
        if a7 = 93L then begin
          ignore (Mmio.store t.mmio ~hart:t.hart_id Addr_map.mmio_exit a0);
          Mut.field ctx t ~get:(fun o -> o.halted_f) ~set:(fun o v -> o.halted_f <- v) true
        end
        else failwith (t.name ^ ": unknown ecall");
        Uop.mk_set_completed ctx u true;
        commit_common ctx t u
      | Instr.Ebreak | Instr.Illegal _ -> failwith (t.name ^ ": illegal instruction committed")
      | _ ->
        (* ALU / branch / muldiv *)
        Kernel.guard ctx u.completed "not done";
        commit_common ctx t u);
      `Ok
      with Exit -> `Stop
    end

let atomic_ready t (u : Uop.t) = u.translated && (not u.mmio) && (not t.atomic_busy) && sb_empty t

(* Peek-only ready test for [commit_one] ([Kernel.attempt_if]): false means
   it would abort. The ROB head must be complete, killed or faulted, or be
   an instruction that completes at commit once its ordering conditions
   hold: the store drain for MMIO, fences and atomics, and no atomic in
   flight. Queue capacity is left to the step's own guards. *)
let commit_ready t =
  (not t.halted_f)
  &&
  match Rob.head t.rob with
  | None -> false
  | Some u -> (
    u.fault || u.ld_kill
    ||
    match u.instr.op with
    | (Instr.Ld _ | Instr.St _) when not u.mmio -> u.completed
    | Instr.Ld _ -> u.translated && Lsq.no_older_stores t.lsq u.seq && sb_empty t
    | Instr.St _ -> u.translated && Lsq.sq_head_is t.lsq u && sb_empty t
    | Instr.Lr _ -> u.completed || (atomic_ready t u && Lsq.no_older_stores t.lsq u.seq)
    | Instr.Sc _ | Instr.Amo _ -> u.completed || (atomic_ready t u && Lsq.sq_head_is t.lsq u)
    | Instr.Fence | Instr.FenceI -> Lsq.no_older_stores t.lsq u.seq && sb_empty t
    | Instr.Csr _ | Instr.Ecall | Instr.Ebreak | Instr.Illegal _ -> true
    | _ -> u.completed)

(* Up to [width] commits, ending at the first that aborts or stops the
   group; with no effect at all, the rule fails its guard. [commit] is
   [commit_one] for this core, built once. *)
let step_commit ctx t commit =
  let stop = ref false and k = ref 0 in
  while (not !stop) && !k < t.cfg.width do
    incr k;
    match Kernel.attempt_if ctx (commit_ready t) commit with
    | Some `Ok -> ()
    | Some `Stop | None -> stop := true
  done;
  Kernel.require_effect ctx

let step_resp_at ctx t =
  let _tag, result = Mem.L1_dcache.resp_at ctx t.dc in
  match Rob.head t.rob with
  | Some u when t.atomic_busy ->
    let result =
      match u.instr.op with
      | Instr.Lr Instr.W | Instr.Amo { width = Instr.W; _ } -> Xlen.sext ~bits:32 result
      | _ -> result
    in
    emit_stage ctx t u.tid Obs.Pipe.s_writeback;
    if u.prd >= 0 then begin
      Prf.write ctx t.prf u.prd result;
      wakeup_all ctx t u.prd
    end;
    Uop.mk_set_result ctx u result;
    Uop.mk_set_completed ctx u true;
    Mut.field ctx t ~get:(fun o -> o.atomic_busy) ~set:(fun o v -> o.atomic_busy <- v) false
  | _ -> failwith (t.name ^ ": orphan atomic response")

(* ------------------------------------------------------------------ *)
(* Rule list                                                           *)
(* ------------------------------------------------------------------ *)

(* [can_fire] and [watches] follow the one-sided contract documented in
   {!Cmd.Rule}: the predicate may be conservatively true, but must never be
   false when the body could fire. *)

let rules ?(schedule = `Aggressive) t =
  Partition.scoped (t.hart_id + 1) @@ fun () ->
  (* eviction hook: TSO load kills + LR/SC reservation *)
  Mem.L1_dcache.set_evict_hook t.dc (fun ctx line ->
      (match t.reservation with
      | Some l when l = line ->
        Mut.field ctx t ~get:(fun o -> o.reservation) ~set:(fun o v -> o.reservation <- v) None
      | _ -> ());
      if t.cfg.mem_model = Config.TSO then begin
        Stats.incr ~ctx t.c_tso_kills;
        Lsq.cache_evict ctx t.lsq ~read:(Mem.L1_dcache.queued_ld_tags t.dc) line
      end);
  let n = t.name in
  (* predicate/watch helpers *)
  let stage s = (Some (fun () -> Stage.occupied s), Some [ Stage.signal s ]) in
  let fifo q = (Some (fun () -> Fifo.peek_size q > 0), Some [ Fifo.signal q ]) in
  let mk_stage s name f =
    let can_fire, watches = stage s in
    Rule.make ?can_fire ?watches name f
  in
  let mk_fifo q name f =
    let can_fire, watches = fifo q in
    Rule.make ?can_fire ?watches name f
  in
  let commit =
    (* the predicate is the first step's ready test: with it false the
       body could only fail its guard. It reads plain mutable state (ROB
       head, LSQ, store buffer), so the rule is watchless (predicate
       re-checked every cycle). *)
    Rule.make
      ~can_fire:(fun () -> commit_ready t)
      (n ^ ".commit")
      (let commit ctx = commit_one ctx t in
       fun ctx -> step_commit ctx t commit)
  in
  let resp_at =
    Rule.make
      ~can_fire:(fun () -> Mem.L1_dcache.resp_at_ready t.dc)
      ~watches:[ Mem.L1_dcache.resp_at_signal t.dc ]
      (n ^ ".respAt")
      (fun ctx -> step_resp_at ctx t)
  in
  let wb_alu =
    List.init t.cfg.n_alu (fun i ->
        mk_stage t.alu_wb.(i)
          (Printf.sprintf "%s.alu%d.wb" n i)
          (fun ctx -> step_wb_alu ctx t i))
  in
  let ex_alu =
    List.init t.cfg.n_alu (fun i ->
        mk_stage t.alu_ex.(i)
          (Printf.sprintf "%s.alu%d.ex" n i)
          (fun ctx -> step_exec_alu ctx t i))
  in
  let md =
    [
      mk_stage t.md_wb (n ^ ".md.wb") (fun ctx -> step_wb_md ctx t);
      (* the multiplier's completion-time guard is ignored by the predicate:
         an occupied-but-not-ready stage attempts and guard-fails, as before *)
      mk_stage t.md_ex
        (n ^ ".md.ex")
        (fun ctx -> step_exec_md ctx t);
    ]
  in
  let resp_ld =
    [
      Rule.make
        ~can_fire:(fun () -> Mem.L1_dcache.resp_ld_ready t.dc)
        ~watches:[ Mem.L1_dcache.resp_ld_signal t.dc ]
        (n ^ ".respLd")
        (fun ctx -> step_resp_ld_cache ctx t);
      mk_fifo t.forward_q (n ^ ".respLdFwd")
        (fun ctx -> step_resp_ld_fwd ctx t);
    ]
  in
  let rr_alu =
    List.init t.cfg.n_alu (fun i ->
        mk_stage t.alu_rr.(i)
          (Printf.sprintf "%s.alu%d.rr" n i)
          (fun ctx -> step_regread_alu ctx t i))
  in
  let rr_md =
    [
      mk_stage t.md_rr
        (n ^ ".md.rr")
        (fun ctx -> step_regread_md ctx t);
    ]
  in
  let rr_mem =
    [
      mk_stage t.mem_rr
        (n ^ ".mem.rr")
        (fun ctx -> step_regread_mem ctx t);
    ]
  in
  let update_lsq =
    [
      Rule.make
        ~can_fire:(fun () -> Tlb.Tlb_sys.dtlb_resp_ready t.tlbs)
        ~watches:[ Tlb.Tlb_sys.dtlb_resp_signal t.tlbs ]
        (n ^ ".updateLsq")
        (fun ctx -> step_update_lsq ctx t);
    ]
  in
  let lsu =
    (* LSQ/store-buffer occupancy is plain mutable state: these predicates
       are watchless scans, mirroring the guards of the corresponding step *)
    [
      Rule.make
        ~can_fire:(fun () -> Lsq.has_issue_ld t.lsq)
        (n ^ ".issueLd")
        (fun ctx -> step_issue_ld ctx t);
    ]
    @ (if t.cfg.st_prefetch then
         [
           Rule.make
             ~can_fire:(fun () -> Lsq.prefetch_candidate t.lsq <> None)
             (n ^ ".stPrefetch")
             (fun ctx -> step_st_prefetch ctx t);
         ]
       else [])
    @ (match t.cfg.mem_model with
      | Config.TSO ->
        [
          Rule.make
            ~can_fire:(fun () -> Mem.L1_dcache.resp_st_ready t.dc)
            ~watches:[ Mem.L1_dcache.resp_st_signal t.dc ]
            (n ^ ".respSt")
            (fun ctx -> step_resp_st_tso ctx t);
          Rule.make
            ~can_fire:(fun () ->
              (not (Lsq.sq_head_issued t.lsq)) && Lsq.committed_store_head t.lsq <> None)
            (n ^ ".issueSt")
            (fun ctx -> step_issue_st_tso ctx t);
        ]
      | Config.WMM ->
        [
          Rule.make
            ~can_fire:(fun () -> Mem.L1_dcache.resp_st_ready t.dc)
            ~watches:[ Mem.L1_dcache.resp_st_signal t.dc ]
            (n ^ ".respSt")
            (fun ctx -> step_resp_st_wmm ctx t);
          Rule.make
            ~can_fire:(fun () -> Store_buffer.has_unissued t.sb) (n ^ ".sbIssue")
            (fun ctx -> step_sb_issue ctx t);
          (* SB/LSQ bookkeeping only — touches no EHR-backed state at all *)
          Rule.make
            ~can_fire:(fun () -> Lsq.committed_store_head t.lsq <> None) (n ^ ".deqSt")
            (fun ctx -> step_deq_st_wmm ctx t);
        ])
  in
  let issue =
    List.init t.cfg.n_alu (fun i ->
        Rule.make
          ~can_fire:(fun () -> Issue_queue.has_ready t.alu_iqs.(i))
          (Printf.sprintf "%s.alu%d.issue" n i)
          (fun ctx -> step_issue_alu ctx t i))
    @ [
        Rule.make
          ~can_fire:(fun () -> Issue_queue.has_ready t.md_iq)
          (n ^ ".md.issue")
          (fun ctx -> step_issue_md ctx t);
        Rule.make
          ~can_fire:(fun () -> Issue_queue.has_ready t.mem_iq)
          (n ^ ".mem.issue")
          (fun ctx -> step_issue_mem ctx t);
      ]
  in
  (* Front-end predicates test the queue downstream too: a group from the
     current epoch needs room for at least one decoded instruction (or
     fetch group) before the rule can commit, while a stale one is only
     dropped. Staleness changes only with [epoch], hence the redirect
     signal in the watch sets. *)
  let stale epoch = epoch <> t.epoch in
  let decode =
    [
      Rule.make
        ~can_fire:(fun () ->
          Fifo.peek_size t.f2d > 0
          && (stale (Fifo.peek_first t.f2d).gepoch || Fifo.peek_can_enq t.d2r))
        ~watches:[ Fifo.signal t.f2d; Fifo.signal t.d2r; t.redirect_sg ]
        (n ^ ".decode")
        (fun ctx -> step_decode ctx t);
    ]
  in
  let rename =
    [
      Rule.make
        ~can_fire:(fun () -> rename_ready t)
        ~watches:[ Fifo.signal t.d2r; Rob.signal t.rob ]
        (n ^ ".rename")
        (let rename ctx = rename_one ctx t in
         fun ctx -> step_rename ctx t rename);
    ]
  in
  let fetch =
    [
      Rule.make
        ~can_fire:(fun () ->
          Mem.L1_icache.resp_ready t.ic
          && (stale t.fslots.(Mem.L1_icache.resp_tag t.ic).fepoch || Fifo.peek_can_enq t.f2d))
        ~watches:[ Mem.L1_icache.resp_signal t.ic; Fifo.signal t.f2d; t.redirect_sg ]
        (n ^ ".fetch.mem")
        (fun ctx -> step_fetch_mem ctx t);
      Rule.make
        ~can_fire:(fun () ->
          let slot = t.fslots.(t.f_mem mod 8) in
          match slot.fst with
          | FReady _ -> stale slot.fepoch || Mem.L1_icache.req_room t.ic
          | FFree | FWaitTlb | FWaitMem -> false)
        (n ^ ".fetch.dispatch")
        (fun ctx -> step_fetch_dispatch ctx t);
      Rule.make
        ~can_fire:(fun () -> Tlb.Tlb_sys.itlb_resp_ready t.tlbs)
        ~watches:[ Tlb.Tlb_sys.itlb_resp_signal t.tlbs ]
        (n ^ ".fetch.tlb")
        (fun ctx -> step_fetch_tlb ctx t);
      Rule.make
        ~can_fire:(fun () -> (not t.halted_f) && t.fslots.(t.f_alloc mod 8).fst = FFree)
        (n ^ ".fetch.issue")
        (fun ctx -> step_fetch_issue ctx t);
    ]
  in
  match schedule with
  | `Aggressive ->
    (commit :: resp_at :: wb_alu)
    @ ex_alu @ md @ resp_ld @ rr_alu @ rr_md @ rr_mem @ update_lsq @ lsu @ issue @ decode @ rename
    @ fetch
  | `Conservative ->
    (commit :: resp_at :: wb_alu)
    @ ex_alu @ md @ resp_ld @ rr_alu @ rr_md @ rr_mem @ update_lsq @ lsu @ decode @ rename @ issue
    @ fetch

let pp_debug fmt t =
  Format.fprintf fmt "pc=%Lx epoch=%d rob=%d halted=%b atomic_busy=%b sb=%d spec=%x fl=%d@."
    t.fpc t.epoch (Rob.count t.rob) t.halted_f t.atomic_busy (Store_buffer.count t.sb)
    (Spec_manager.active_mask t.spec) (Free_list.free_count t.fl);
  (match Rob.head t.rob with
  | Some u ->
    Format.fprintf fmt "rob head: %a completed=%b translated=%b mmio=%b ldkill=%b@." Uop.pp u
      u.Uop.completed u.Uop.translated u.Uop.mmio u.Uop.ld_kill
  | None -> Format.fprintf fmt "rob empty@.");
  Format.fprintf fmt "%a" Lsq.pp_debug t.lsq;
  Array.iter (fun q -> Format.fprintf fmt "%s=%d " (Issue_queue.name q) (Issue_queue.count q)) t.alu_iqs;
  Format.fprintf fmt "md=%d mem=%d d2r=%d f2d=%d@." (Issue_queue.count t.md_iq)
    (Issue_queue.count t.mem_iq) (Fifo.peek_size t.d2r) (Fifo.peek_size t.f2d)
