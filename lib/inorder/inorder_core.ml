open Cmd
open Isa

(* Fetch in-flight table entry: one per outstanding fetch. *)
type fslot = {
  mutable fvalid : bool;
  mutable vpc : int64;
  mutable fepoch : int;
  mutable pred_next : int64;
  mutable fcyc : int; (* cycle the fetch was issued; only kept when tracing *)
}

type xstate =
  | XIdle
  | XDtlb of Instr.t * int64 * int (* decoded mem instr, pc, trace id *)
  | XAt of Instr.t * int (* waiting for atomic response (instr, trace id) *)

type t = {
  name : string;
  clk : Clock.t;
  hart_id : int;
  ic : Mem.L1_icache.t;
  dc : Mem.L1_dcache.t;
  tlb : Tlb.Tlb_sys.t;
  mmio : Mmio.t;
  regs : int64 array;
  mutable pc : int64; (* next pc to fetch *)
  mutable epoch : int;
  btb : Branch.Btb.t;
  fslots : fslot array;
  mutable next_fslot : int;
  f2x : (int64 * int * int64 * int) Fifo.t; (* pc, word, predicted next pc, fetch cycle *)
  mutable xst : xstate;
  mutable pending_load : (int * int) option; (* rd, tag *)
  mutable load_tag : int;
  mutable pending_store : (int64 * Bytes.t * int64) option; (* line, data, mask *)
  mutable reservation : int64 option;
  mutable halted_f : bool;
  mutable n_instret : int;
  pipe : Obs.Pipe.t;
  c_cycles : Stats.counter;
  c_instrs : Stats.counter;
  c_mispred : Stats.counter;
}

let create ?(name = "inorder") ?(pipe = Obs.Pipe.null) clk ~hart_id ~icache ~dcache ~tlb ~mmio
    ~stats () =
  (* Core-private state is built in the core's partition (hart 0 ->
     partition 1; partition 0 is the uncore). *)
  Partition.scoped (hart_id + 1) @@ fun () ->
  {
    name;
    clk;
    hart_id;
    ic = icache;
    dc = dcache;
    tlb;
    mmio;
    regs = Array.make 32 0L;
    pc = Addr_map.dram_base;
    epoch = 0;
    btb = Branch.Btb.create ();
    fslots =
      Array.init 8 (fun _ -> { fvalid = false; vpc = 0L; fepoch = 0; pred_next = 0L; fcyc = 0 });
    next_fslot = 0;
    f2x = Fifo.cf ~name:(name ^ ".f2x") clk ~capacity:4 ();
    xst = XIdle;
    pending_load = None;
    load_tag = 0;
    pending_store = None;
    reservation = None;
    halted_f = false;
    n_instret = 0;
    pipe;
    c_cycles = Stats.counter stats (name ^ ".cycles");
    c_instrs = Stats.counter stats (name ^ ".instrs");
    c_mispred = Stats.counter stats (name ^ ".mispredicts");
  }
  |> fun t ->
  (* counted at the clock edge rather than in the execute rule's body, so
     that rule can carry a can_fire predicate and be skipped when idle *)
  Clock.on_cycle_end clk (fun () -> Stats.incr t.c_cycles);
  State.field ~name:(name ^ ".core")
    (fun () ->
      ( (t.regs, t.pc, t.epoch, t.fslots, t.next_fslot),
        (t.xst, t.pending_load, t.load_tag, t.pending_store),
        (t.reservation, t.halted_f, t.n_instret) ))
    (fun ( (regs, pc, epoch, fslots, next_fslot),
           (xst, pending_load, load_tag, pending_store),
           (reservation, halted_f, n_instret) ) ->
      Array.blit regs 0 t.regs 0 32;
      t.pc <- pc;
      t.epoch <- epoch;
      Array.blit fslots 0 t.fslots 0 (Array.length t.fslots);
      t.next_fslot <- next_fslot;
      t.xst <- xst;
      t.pending_load <- pending_load;
      t.load_tag <- load_tag;
      t.pending_store <- pending_store;
      t.reservation <- reservation;
      t.halted_f <- halted_f;
      t.n_instret <- n_instret);
  (* a remote store invalidating (or the cache evicting) the reserved line
     must fail a later SC — same discipline as the out-of-order core *)
  Mem.L1_dcache.set_evict_hook t.dc (fun ctx line ->
      match t.reservation with
      | Some l when l = line ->
        Mut.field ctx t ~get:(fun o -> o.reservation) ~set:(fun o v -> o.reservation <- v) None
      | _ -> ());
  t

let set_pc t pc = t.pc <- pc
let set_reg t r v = if r <> 0 then t.regs.(r) <- v
let reg t r = t.regs.(r)
let halted t = t.halted_f
let instret t = t.n_instret

(* --- fetch pipeline ------------------------------------------------------ *)

let step_fetch_issue ctx t =
  Kernel.guard ctx (not t.halted_f) "halted";
  let slot = t.fslots.(t.next_fslot) in
  Kernel.guard ctx (not slot.fvalid) "fetch slots full";
  Tlb.Tlb_sys.itlb_req ctx t.tlb ~tag:t.next_fslot t.pc;
  let pred = match Branch.Btb.predict t.btb t.pc with Some tgt -> tgt | None -> Int64.add t.pc 4L in
  Mut.field ctx slot ~get:(fun o -> o.fvalid) ~set:(fun o v -> o.fvalid <- v) true;
  Mut.field ctx slot ~get:(fun o -> o.vpc) ~set:(fun o v -> o.vpc <- v) t.pc;
  Mut.field ctx slot ~get:(fun o -> o.fepoch) ~set:(fun o v -> o.fepoch <- v) t.epoch;
  Mut.field ctx slot ~get:(fun o -> o.pred_next) ~set:(fun o v -> o.pred_next <- v) pred;
  if Obs.Pipe.is_active t.pipe then
    Mut.field ctx slot ~get:(fun o -> o.fcyc) ~set:(fun o v -> o.fcyc <- v) (Clock.now t.clk);
  Mut.field ctx t ~get:(fun o -> o.next_fslot) ~set:(fun o v -> o.next_fslot <- v)
    ((t.next_fslot + 1) mod Array.length t.fslots);
  Mut.field ctx t ~get:(fun o -> o.pc) ~set:(fun o v -> o.pc <- v) pred

let step_fetch_tlb ctx t =
  let tag, res = Tlb.Tlb_sys.itlb_resp ctx t.tlb in
  let slot = t.fslots.(tag) in
  if not slot.fvalid then failwith (t.name ^ ": orphan itlb resp");
  if slot.fepoch <> t.epoch then
    Mut.field ctx slot ~get:(fun o -> o.fvalid) ~set:(fun o v -> o.fvalid <- v) false
  else
    match res with
    | Tlb.Tlb_sys.Hit pa -> Mem.L1_icache.req ctx t.ic ~tag pa
    | Tlb.Tlb_sys.Fault -> failwith (t.name ^ ": instruction page fault")

let step_fetch_mem ctx t =
  let tag, _pa, words = Mem.L1_icache.resp ctx t.ic in
  let slot = t.fslots.(tag) in
  if slot.fvalid && slot.fepoch = t.epoch then
    Fifo.enq ctx t.f2x (slot.vpc, words.(0), slot.pred_next, slot.fcyc);
  Mut.field ctx slot ~get:(fun o -> o.fvalid) ~set:(fun o v -> o.fvalid <- v) false

(* --- execute -------------------------------------------------------------- *)

let redirect ctx t target =
  Mut.field ctx t ~get:(fun o -> o.pc) ~set:(fun o v -> o.pc <- v) target;
  Mut.field ctx t ~get:(fun o -> o.epoch) ~set:(fun o v -> o.epoch <- v) (t.epoch + 1);
  Fifo.clear ctx t.f2x

(* hazards against the single outstanding load *)
let load_hazard t (i : Instr.t) =
  match t.pending_load with
  | None -> false
  | Some (rd, _) ->
    (Instr.uses_rs1 i && i.rs1 = rd) || (Instr.uses_rs2 i && i.rs2 = rd) || (Instr.writes_rd i && i.rd = rd)

let retire ?(tid = -1) ctx t =
  Mut.field ctx t ~get:(fun o -> o.n_instret) ~set:(fun o v -> o.n_instret <- v) (t.n_instret + 1);
  Stats.incr ~ctx t.c_instrs;
  (* the in-order core never retires down a wrong path, so a traced
     instruction always ends with a clean (non-flush) retire *)
  if tid >= 0 then Obs.Pipe.retire ctx t.pipe tid ~flushed:false ~at:(Clock.now t.clk)

let store_mask_data addr bytes v =
  let line = Mem.Cache_geom.line_addr addr in
  let off = Mem.Cache_geom.offset addr in
  let data = Bytes.make Mem.Cache_geom.line_bytes '\000' in
  for k = 0 to bytes - 1 do
    Bytes.set data (off + k) (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF))
  done;
  let mask = Int64.shift_left (Int64.sub (Int64.shift_left 1L bytes) 1L) off in
  (line, data, mask)

let exec_nonmem ctx t (i : Instr.t) pc pred_next ~tid =
  let rs1 = t.regs.(i.rs1) and rs2 = t.regs.(i.rs2) in
  let next = Int64.add pc 4L in
  let wr v = if i.rd <> 0 then Mut.set_arr ctx t.regs i.rd v in
  let actual_next = ref next in
  (match i.op with
  | Instr.Lui -> wr i.imm
  | Instr.Auipc -> wr (Int64.add pc i.imm)
  | Instr.Jal ->
    wr next;
    actual_next := Int64.add pc i.imm
  | Instr.Jalr ->
    wr next;
    actual_next := Int64.logand (Int64.add rs1 i.imm) (Int64.lognot 1L)
  | Instr.Br c -> if Exec_unit.branch_taken c rs1 rs2 then actual_next := Int64.add pc i.imm
  | Instr.OpA { alu; word; imm } -> wr (Exec_unit.alu alu ~word rs1 (if imm then i.imm else rs2))
  | Instr.MulDiv { op; word } -> wr (Exec_unit.muldiv op ~word rs1 rs2)
  | Instr.Ecall ->
    if t.regs.(17) = 93L then begin
      ignore (Mmio.store t.mmio ~hart:t.hart_id Addr_map.mmio_exit t.regs.(10));
      Mut.field ctx t ~get:(fun o -> o.halted_f) ~set:(fun o v -> o.halted_f <- v) true
    end
    else failwith (t.name ^ ": unknown ecall")
  | Instr.Csr { op; imm } ->
    let addr = Int64.to_int i.imm in
    let old =
      if addr = Csr.mhartid then Int64.of_int t.hart_id
      else if addr = Csr.satp then Tlb.Tlb_sys.satp t.tlb
      else if addr = Csr.cycle || addr = Csr.time then Int64.of_int (Clock.now t.clk)
      else if addr = Csr.instret then Int64.of_int t.n_instret
      else 0L
    in
    ignore (op, imm);
    wr old
  | Instr.Ebreak | Instr.Illegal _ -> failwith (t.name ^ ": illegal/ebreak")
  | Instr.Ld _ | Instr.St _ | Instr.Lr _ | Instr.Sc _ | Instr.Amo _ | Instr.Fence | Instr.FenceI ->
    assert false);
  retire ~tid ctx t;
  if Instr.is_branch i then begin
    Branch.Btb.update ctx t.btb ~pc ~target:!actual_next ~taken:(!actual_next <> next)
  end;
  if !actual_next <> pred_next && not t.halted_f then begin
    Stats.incr ~ctx t.c_mispred;
    redirect ctx t !actual_next
  end

let step_execute ctx t =
  Kernel.guard ctx (not t.halted_f) "halted";
  match t.xst with
  | XIdle ->
    let pc, word, pred_next, fcyc = Fifo.first ctx t.f2x in
    let i = Decode.decode word in
    Kernel.guard ctx (not (load_hazard t i)) "load-use hazard";
    (* Trace ids are born here — the single execute stage is the first (and
       only) point where the instruction exists as such. The fetch stage is
       backdated to the recorded fetch-issue cycle; an aborted attempt
       (e.g. a busy-guard below) rolls the id back. *)
    let tid =
      if Obs.Pipe.is_active t.pipe then begin
        let tid = Obs.Pipe.start ctx t.pipe ~pc ~at:fcyc in
        Obs.Pipe.set_text t.pipe tid (Instr.to_string i);
        Obs.Pipe.stage ctx t.pipe tid Obs.Pipe.s_exec ~at:(Clock.now t.clk);
        tid
      end
      else -1
    in
    (* dequeue before executing: a redirect clears the queue, and the clear
       must be ordered after this dequeue *)
    if Instr.is_mem i then begin
      (match i.op with
      | Instr.Fence | Instr.FenceI ->
        (* drain outstanding memory ops *)
        Kernel.guard ctx (t.pending_load = None && t.pending_store = None) "fence drain";
        ignore (Fifo.deq ctx t.f2x);
        retire ~tid ctx t;
        if Int64.add pc 4L <> pred_next then redirect ctx t (Int64.add pc 4L)
      | _ ->
        (* at most one load and one store outstanding; atomics drain both *)
        (match i.op with
        | Instr.Ld _ | Instr.Lr _ -> Kernel.guard ctx (t.pending_load = None) "load busy"
        | Instr.St _ -> Kernel.guard ctx (t.pending_store = None) "store busy"
        | _ -> Kernel.guard ctx (t.pending_load = None && t.pending_store = None) "atomic drain");
        let va = Int64.add t.regs.(i.rs1) i.imm in
        Tlb.Tlb_sys.dtlb_req ctx t.tlb ~tag:0 va;
        ignore (Fifo.deq ctx t.f2x);
        Mut.field ctx t ~get:(fun o -> o.xst) ~set:(fun o v -> o.xst <- v) (XDtlb (i, pc, tid));
        (* mem instructions never redirect; verify the fetch prediction *)
        if Int64.add pc 4L <> pred_next then redirect ctx t (Int64.add pc 4L))
    end
    else begin
      (* ecall is serializing: it samples a0/a7 straight from the register
         file (no rs1/rs2 fields, so [load_hazard] can't see them) and may
         halt the hart, after which an in-flight load's writeback would be
         lost — drain both memory slots first *)
      (match i.op with
      | Instr.Ecall ->
        Kernel.guard ctx (t.pending_load = None && t.pending_store = None) "ecall drain"
      | _ -> ());
      ignore (Fifo.deq ctx t.f2x);
      exec_nonmem ctx t i pc pred_next ~tid
    end
  | XDtlb (i, _pc, tid) ->
    let _tag, res = Tlb.Tlb_sys.dtlb_resp ctx t.tlb in
    let pa = match res with Tlb.Tlb_sys.Hit pa -> pa | Tlb.Tlb_sys.Fault -> failwith "data page fault" in
    let rs2 = t.regs.(i.rs2) in
    if tid >= 0 then Obs.Pipe.stage ctx t.pipe tid Obs.Pipe.s_mem ~at:(Clock.now t.clk);
    (match i.op with
    | Instr.Ld { width; unsigned } ->
      if Addr_map.is_mmio pa then begin
        if i.rd <> 0 then Mut.set_arr ctx t.regs i.rd (Mmio.load t.mmio ~hart:t.hart_id pa);
        retire ~tid ctx t;
        Mut.field ctx t ~get:(fun o -> o.xst) ~set:(fun o v -> o.xst <- v) XIdle
      end
      else begin
        let tag = t.load_tag in
        Mem.L1_dcache.req ctx t.dc
          (Mem.L1_dcache.Ld { tag; addr = pa; bytes = Instr.bytes_of_width width; unsigned });
        Mut.field ctx t ~get:(fun o -> o.load_tag) ~set:(fun o v -> o.load_tag <- v) (tag + 1);
        Mut.field ctx t ~get:(fun o -> o.pending_load) ~set:(fun o v -> o.pending_load <- v)
          (Some (i.rd, tag));
        retire ~tid ctx t;
        Mut.field ctx t ~get:(fun o -> o.xst) ~set:(fun o v -> o.xst <- v) XIdle
      end
    | Instr.St width ->
      if Addr_map.is_mmio pa then begin
        ignore (Mmio.store t.mmio ~hart:t.hart_id pa rs2);
        if pa = Addr_map.mmio_exit then
          Mut.field ctx t ~get:(fun o -> o.halted_f) ~set:(fun o v -> o.halted_f <- v) true;
        retire ~tid ctx t;
        Mut.field ctx t ~get:(fun o -> o.xst) ~set:(fun o v -> o.xst <- v) XIdle
      end
      else begin
        let line, data, mask = store_mask_data pa (Instr.bytes_of_width width) rs2 in
        Mem.L1_dcache.req ctx t.dc (Mem.L1_dcache.St { tag = 0; line });
        Mut.field ctx t ~get:(fun o -> o.pending_store) ~set:(fun o v -> o.pending_store <- v)
          (Some (line, data, mask));
        (match t.reservation with
        | Some l when l = line ->
          Mut.field ctx t ~get:(fun o -> o.reservation) ~set:(fun o v -> o.reservation <- v) None
        | _ -> ());
        retire ~tid ctx t;
        Mut.field ctx t ~get:(fun o -> o.xst) ~set:(fun o v -> o.xst <- v) XIdle
      end
    | Instr.Lr width ->
      let bytes = Instr.bytes_of_width width in
      let f old = (None, old) in
      Mem.L1_dcache.req ctx t.dc (Mem.L1_dcache.At { tag = 0; addr = pa; bytes; f });
      Mut.field ctx t ~get:(fun o -> o.reservation) ~set:(fun o v -> o.reservation <- v)
        (Some (Mem.Cache_geom.line_addr pa));
      Mut.field ctx t ~get:(fun o -> o.xst) ~set:(fun o v -> o.xst <- v) (XAt (i, tid))
    | Instr.Sc width ->
      let bytes = Instr.bytes_of_width width in
      let line = Mem.Cache_geom.line_addr pa in
      (* the reservation is checked when the store-conditional performs at
         the cache (line exclusive), not at issue: a remote write between
         issue and drain clears it through the eviction hook and must fail
         this SC. Consumed at completion (XAt), success or not. *)
      let f _old = if t.reservation = Some line then (Some rs2, 0L) else (None, 1L) in
      Mem.L1_dcache.req ctx t.dc (Mem.L1_dcache.At { tag = 0; addr = pa; bytes; f });
      Mut.field ctx t ~get:(fun o -> o.xst) ~set:(fun o v -> o.xst <- v) (XAt (i, tid))
    | Instr.Amo { op; width } ->
      let bytes = Instr.bytes_of_width width in
      let f old = (Some (Exec_unit.amo op width ~old ~src:rs2), old) in
      Mem.L1_dcache.req ctx t.dc (Mem.L1_dcache.At { tag = 0; addr = pa; bytes; f });
      Mut.field ctx t ~get:(fun o -> o.xst) ~set:(fun o v -> o.xst <- v) (XAt (i, tid))
    | _ -> assert false)
  | XAt (i, tid) ->
    let _tag, result = Mem.L1_dcache.resp_at ctx t.dc in
    let result =
      match i.op with
      | Instr.Lr Instr.W | Instr.Amo { width = Instr.W; _ } -> Xlen.sext ~bits:32 result
      | _ -> result
    in
    (match i.op with
    | Instr.Sc _ ->
      Mut.field ctx t ~get:(fun o -> o.reservation) ~set:(fun o v -> o.reservation <- v) None
    | _ -> ());
    if i.rd <> 0 then Mut.set_arr ctx t.regs i.rd result;
    retire ~tid ctx t;
    Mut.field ctx t ~get:(fun o -> o.xst) ~set:(fun o v -> o.xst <- v) XIdle

let step_load_resp ctx t =
  let tag, v = Mem.L1_dcache.resp_ld ctx t.dc in
  match t.pending_load with
  | Some (rd, ptag) when ptag = tag ->
    if rd <> 0 then Mut.set_arr ctx t.regs rd v;
    Mut.field ctx t ~get:(fun o -> o.pending_load) ~set:(fun o v -> o.pending_load <- v) None
  | _ -> failwith (t.name ^ ": orphan load resp")

let step_store_resp ctx t =
  let _tag = Mem.L1_dcache.resp_st ctx t.dc in
  match t.pending_store with
  | Some (line, data, mask) ->
    Mem.L1_dcache.write_data ctx t.dc ~line ~data ~mask;
    Mut.field ctx t ~get:(fun o -> o.pending_store) ~set:(fun o v -> o.pending_store <- v) None
  | None -> failwith (t.name ^ ": orphan store resp")

let rules t =
  Partition.scoped (t.hart_id + 1) @@ fun () ->
  [
    Rule.make (t.name ^ ".loadResp")
      ~can_fire:(fun () -> Mem.L1_dcache.resp_ld_ready t.dc)
      ~watches:[ Mem.L1_dcache.resp_ld_signal t.dc ]
      ~fp:(Mem.L1_dcache.fp_resp_ld t.dc) ~vacuous:true
      (fun ctx -> step_load_resp ctx t);
    Rule.make (t.name ^ ".storeResp")
      ~can_fire:(fun () -> Mem.L1_dcache.resp_st_ready t.dc)
      ~watches:[ Mem.L1_dcache.resp_st_signal t.dc ]
      ~fp:(Mem.L1_dcache.fp_resp_st t.dc) ~vacuous:true
      (fun ctx -> step_store_resp ctx t);
    (* [xst] and [halted_f] are mutated only by this rule itself, so while
       parked (necessarily [XIdle] with [f2x] empty) the predicate can only
       flip true via an [f2x] enqueue — which touches the watched signal. *)
    Rule.make (t.name ^ ".execute")
      ~can_fire:(fun () -> (not t.halted_f) && (t.xst <> XIdle || Fifo.peek_size t.f2x > 0))
      ~watches:[ Fifo.signal t.f2x ]
      ~fp:
        ([ Fifo.fp_first t.f2x; Fifo.fp_deq t.f2x; Fifo.fp_clear t.f2x ]
        @ Tlb.Tlb_sys.fp_dtlb_req t.tlb @ Tlb.Tlb_sys.fp_dtlb_resp t.tlb
        @ Mem.L1_dcache.fp_req t.dc @ Mem.L1_dcache.fp_resp_at t.dc)
      ~vacuous:true
      (fun ctx -> step_execute ctx t);
    (* fetch slots are mutated only by this rule; the other work sources
       (I$ and I-TLB responses) are watched queues *)
    Rule.make (t.name ^ ".fetch")
      ~can_fire:(fun () ->
        Mem.L1_icache.resp_ready t.ic
        || Tlb.Tlb_sys.itlb_resp_ready t.tlb
        || ((not t.halted_f) && not t.fslots.(t.next_fslot).fvalid))
      ~watches:[ Mem.L1_icache.resp_signal t.ic; Tlb.Tlb_sys.itlb_resp_signal t.tlb ]
      ~fp:
        (Mem.L1_icache.fp_resp t.ic
        @ [ Fifo.fp_enq t.f2x ]
        @ Tlb.Tlb_sys.fp_itlb_resp t.tlb
        @ Mem.L1_icache.fp_req t.ic @ Tlb.Tlb_sys.fp_itlb_req t.tlb)
      ~vacuous:true
      (* three steps behind peek-only ready tests, as in the out-of-order
         core; the steps are built once, so a skip allocates nothing *)
      (let fetch_mem ctx = step_fetch_mem ctx t
       and fetch_tlb ctx = step_fetch_tlb ctx t
       and fetch_issue ctx = step_fetch_issue ctx t in
       fun ctx ->
         ignore (Kernel.attempt_if ctx (Mem.L1_icache.resp_ready t.ic) fetch_mem);
         ignore (Kernel.attempt_if ctx (Tlb.Tlb_sys.itlb_resp_ready t.tlb) fetch_tlb);
         ignore
           (Kernel.attempt_if ctx
              ((not t.halted_f) && not t.fslots.(t.next_fslot).fvalid)
              fetch_issue));
  ]
