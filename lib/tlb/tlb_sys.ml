open Cmd

type result = Hit of int64 | Fault

type config = {
  itlb_entries : int;
  itlb_misses : int;
  dtlb_entries : int;
  dtlb_misses : int;
  l2_sets : int;
  l2_ways : int;
  l2_misses : int;
  walk_cache_entries : int option;
}

let blocking_config =
  {
    itlb_entries = 32;
    itlb_misses = 1;
    dtlb_entries = 32;
    dtlb_misses = 1;
    l2_sets = 512;
    l2_ways = 4;
    l2_misses = 1;
    walk_cache_entries = None;
  }

let nonblocking_config =
  { blocking_config with dtlb_misses = 4; itlb_misses = 2; l2_misses = 2; walk_cache_entries = Some 24 }

(* Translation tables are flat int columns: entry [k] maps page [vpn.(k)]
   to frame [ppn.(k)], and a free entry holds vpn [-1]. A vpn is a 64-bit
   address shifted right by 12 and a ppn a PTE shifted right by 10, so
   both fit an OCaml int exactly. The tables hold no pointers, and their
   tracked writes allocate nothing. The L2 TLB's columns are allocated at
   its first fill: a machine that never translates (satp 0, as in every
   litmus job) builds none. *)
let no_vpn = -1

type l1_miss = {
  mutable mvalid : bool;
  mutable mvpn : int64;
  mutable waiters : (int * int64) list; (* tag, full va *)
}

(* A walk in progress = an L2 TLB miss slot. *)
type walk = {
  mutable wvalid : bool;
  mutable wvpn : int64;
  mutable wva : int64;
  mutable level : int; (* level of the table [base] addresses *)
  mutable base : int64;
  mutable outstanding : bool; (* memory read in flight *)
  mutable result : result option; (* completed, to be published *)
}

type side = {
  vpn : int array;
  ppn : int array;
  misses : l1_miss array;
  req_q : (int * int64) Fifo.t;
  resp_q : (int * result) Fifo.t;
  mutable rotor : int;
  c_access : Stats.counter;
  c_miss : Stats.counter;
}

type t = {
  name : string;
  cfg : config;
  mutable satp_v : int64;
  i : side;
  d : side;
  (* set s holds entries [s * l2_ways, (s + 1) * l2_ways); [||] until the
     first fill *)
  mutable l2_vpn : int array;
  mutable l2_ppn : int array;
  mutable l2_rotor : int;
  walks : walk array;
  wcache : Walk_cache.t option;
  wreq : (int * int64) Fifo.t;
  wresp : (int * int64) Fifo.t;
  part : int; (* cluster this TLB was built in (its core's) *)
  c_l2_access : Stats.counter;
  c_l2_miss : Stats.counter;
  c_walk_cycles : Stats.counter;
}

let mk_side clk name n misses stats =
  {
    vpn = Array.make n no_vpn;
    ppn = Array.make n 0;
    misses = Array.init misses (fun _ -> { mvalid = false; mvpn = 0L; waiters = [] });
    req_q = Fifo.cf ~name:(name ^ ".req") clk ~capacity:4 ();
    resp_q = Fifo.cf ~name:(name ^ ".resp") clk ~capacity:8 ();
    rotor = 0;
    c_access = Stats.counter stats (name ^ ".accesses");
    c_miss = Stats.counter stats (name ^ ".misses");
  }

let create ?(name = "tlb") clk cfg ~stats () =
  let t =
  {
    name;
    cfg;
    satp_v = 0L;
    i = mk_side clk (name ^ ".i") cfg.itlb_entries cfg.itlb_misses stats;
    d = mk_side clk (name ^ ".d") cfg.dtlb_entries cfg.dtlb_misses stats;
    l2_vpn = [||];
    l2_ppn = [||];
    l2_rotor = 0;
    walks =
      Array.init cfg.l2_misses (fun _ ->
          { wvalid = false; wvpn = 0L; wva = 0L; level = 2; base = 0L; outstanding = false; result = None });
    wcache = Option.map (fun n -> Walk_cache.create ~entries_per_level:n) cfg.walk_cache_entries;
    (* The walk queues straddle the core/uncore boundary (walker crossbar
       on the far side). *)
    wreq = Fifo.cf ~name:(name ^ ".wreq") clk ~capacity:4 ();
    wresp = Fifo.cf ~name:(name ^ ".wresp") clk ~capacity:4 ();
    part = Partition.ambient ();
    c_l2_access = Stats.counter stats (name ^ ".l2.accesses");
    c_l2_miss = Stats.counter stats (name ^ ".l2.misses");
    c_walk_cycles = Stats.counter stats (name ^ ".walkCycles");
  }
  in
  (* cycles with at least one page walk in flight, sampled at the clock
     edge (between cycles: untracked increments are safe) *)
  Clock.on_cycle_end clk (fun () ->
      if Array.exists (fun w -> w.wvalid) t.walks then Stats.incr t.c_walk_cycles);
  let side_save s = (s.vpn, s.ppn, s.misses, s.rotor) in
  let side_load s (vpn, ppn, misses, rotor) =
    Array.blit vpn 0 s.vpn 0 (Array.length s.vpn);
    Array.blit ppn 0 s.ppn 0 (Array.length s.ppn);
    Array.blit misses 0 s.misses 0 (Array.length s.misses);
    s.rotor <- rotor
  in
  State.field ~name:(name ^ ".arrays")
    (fun () -> (t.satp_v, side_save t.i, side_save t.d, t.l2_vpn, t.l2_ppn, t.l2_rotor, t.walks))
    (fun (satp_v, si, sd, l2_vpn, l2_ppn, l2_rotor, walks) ->
      t.satp_v <- satp_v;
      side_load t.i si;
      side_load t.d sd;
      t.l2_vpn <- l2_vpn;
      t.l2_ppn <- l2_ppn;
      t.l2_rotor <- l2_rotor;
      Array.blit walks 0 t.walks 0 (Array.length t.walks));
  t

let set_satp t v = t.satp_v <- v
let satp t = t.satp_v

let vpn_of va = Int64.to_int (Int64.shift_right_logical va 12)
let pa_of ppn va = Int64.logor (Int64.shift_left (Int64.of_int ppn) 12) (Int64.logand va 0xFFFL)

(* The highest entry of [vpns] in [lo, i] that holds [vpn], or -1. A
   top-level recursion over explicit arguments: the lookups run on every
   TLB access (and in ready tests) and allocate nothing. *)
let rec find vpns vpn lo i =
  if i < lo then -1 else if Array.unsafe_get vpns i = vpn then i else find vpns vpn lo (i - 1)

let l1_find side vpn = find side.vpn vpn 0 (Array.length side.vpn - 1)

let l1_fill ctx side vpn ppn =
  if l1_find side vpn < 0 then begin
    let k = side.rotor mod Array.length side.vpn in
    Mut.field ctx side ~get:(fun o -> o.rotor) ~set:(fun o v -> o.rotor <- v) (side.rotor + 1);
    Mut.set_arr ctx side.vpn k vpn;
    Mut.set_arr ctx side.ppn k ppn
  end

let l2_base t vpn = (vpn land (t.cfg.l2_sets - 1)) * t.cfg.l2_ways

let l2_find t vpn =
  if Array.length t.l2_vpn = 0 then -1
  else
    let lo = l2_base t vpn in
    find t.l2_vpn vpn lo (lo + t.cfg.l2_ways - 1)

let l2_fill ctx t vpn ppn =
  if l2_find t vpn < 0 then begin
    if Array.length t.l2_vpn = 0 then begin
      (* an abort keeps the empty tables: they hold what no tables do *)
      t.l2_vpn <- Array.make (t.cfg.l2_sets * t.cfg.l2_ways) no_vpn;
      t.l2_ppn <- Array.make (t.cfg.l2_sets * t.cfg.l2_ways) 0
    end;
    let k = l2_base t vpn + (t.l2_rotor mod t.cfg.l2_ways) in
    Mut.field ctx t ~get:(fun o -> o.l2_rotor) ~set:(fun o v -> o.l2_rotor <- v) (t.l2_rotor + 1);
    Mut.set_arr ctx t.l2_vpn k vpn;
    Mut.set_arr ctx t.l2_ppn k ppn
  end

(* --- steps --------------------------------------------------------------- *)

(* Consume one L1 request: hit -> respond; miss -> merge into or allocate a
   miss slot (stall if none free: this is what makes the blocking config
   block). *)
let step_l1_req ctx t side =
  (* blocking configuration (one miss slot): no hit-under-miss — any
     outstanding miss blocks the whole TLB, as in RiscyOO-B *)
  Kernel.guard ctx
    (Array.length side.misses > 1 || not side.misses.(0).mvalid)
    "blocking tlb: miss outstanding";
  let tag, va = Fifo.first ctx side.req_q in
  Stats.incr ~ctx side.c_access;
  if t.satp_v = 0L then Fifo.enq ctx side.resp_q (tag, Hit va)
  else begin
    let vpn = vpn_of va in
    let k = l1_find side vpn in
    if k >= 0 then Fifo.enq ctx side.resp_q (tag, Hit (pa_of side.ppn.(k) va))
    else begin
      Stats.incr ~ctx side.c_miss;
      let vpn = Int64.of_int vpn in
      let existing = Array.fold_left (fun a m -> if m.mvalid && m.mvpn = vpn then Some m else a) None side.misses in
      match existing with
      | Some m ->
        Mut.field ctx m ~get:(fun o -> o.waiters) ~set:(fun o v -> o.waiters <- v)
          (m.waiters @ [ (tag, va) ])
      | None -> (
        let free = Array.fold_left (fun a m -> if m.mvalid then a else Some m) None side.misses in
        match free with
        | None -> raise (Kernel.Guard_fail "l1 tlb miss slots full")
        | Some m ->
          Mut.field ctx m ~get:(fun o -> o.mvalid) ~set:(fun o v -> o.mvalid <- v) true;
          Mut.field ctx m ~get:(fun o -> o.mvpn) ~set:(fun o v -> o.mvpn <- v) vpn;
          Mut.field ctx m ~get:(fun o -> o.waiters) ~set:(fun o v -> o.waiters <- v) [ (tag, va) ])
    end
  end;
  ignore (Fifo.deq ctx side.req_q)

(* Try to satisfy one L1 miss slot from the L2 TLB, or ensure a walk is in
   flight. Responding needs resp_q space for every waiter. *)
let step_l1_miss ctx t side m =
  Kernel.guard ctx m.mvalid "idle miss slot";
  let vpn = Int64.to_int m.mvpn in
  let k = l2_find t vpn in
  if k >= 0 then begin
    let ppn = t.l2_ppn.(k) in
    l1_fill ctx side vpn ppn;
    List.iter (fun (tag, va) -> Fifo.enq ctx side.resp_q (tag, Hit (pa_of ppn va))) m.waiters;
    Mut.field ctx m ~get:(fun o -> o.mvalid) ~set:(fun o v -> o.mvalid <- v) false
  end
  else
    (* check whether a walk finished with a fault for this vpn *)
    let faulted =
      Array.exists (fun w -> w.wvalid && w.wvpn = m.mvpn && w.result = Some Fault) t.walks
    in
    if faulted then begin
      List.iter (fun (tag, _) -> Fifo.enq ctx side.resp_q (tag, Fault)) m.waiters;
      Mut.field ctx m ~get:(fun o -> o.mvalid) ~set:(fun o v -> o.mvalid <- v) false
    end
    else begin
      let walking = Array.exists (fun w -> w.wvalid && w.wvpn = m.mvpn) t.walks in
      if not walking then begin
        let free = Array.fold_left (fun a w -> if w.wvalid then a else Some w) None t.walks in
        match free with
        | None -> raise (Kernel.Guard_fail "no walk slot")
        | Some w ->
          Stats.incr ~ctx t.c_l2_access;
          Stats.incr ~ctx t.c_l2_miss;
          let va = Int64.shift_left m.mvpn 12 in
          let level, base =
            match t.wcache with
            | Some wc -> Walk_cache.lookup wc ~root:t.satp_v va
            | None -> (2, t.satp_v)
          in
          Mut.field ctx w ~get:(fun o -> o.wvalid) ~set:(fun o v -> o.wvalid <- v) true;
          Mut.field ctx w ~get:(fun o -> o.wvpn) ~set:(fun o v -> o.wvpn <- v) m.mvpn;
          Mut.field ctx w ~get:(fun o -> o.wva) ~set:(fun o v -> o.wva <- v) va;
          Mut.field ctx w ~get:(fun o -> o.level) ~set:(fun o v -> o.level <- v) level;
          Mut.field ctx w ~get:(fun o -> o.base) ~set:(fun o v -> o.base <- v) base;
          Mut.field ctx w ~get:(fun o -> o.outstanding) ~set:(fun o v -> o.outstanding <- v) false;
          Mut.field ctx w ~get:(fun o -> o.result) ~set:(fun o v -> o.result <- v) None
      end
      else raise (Kernel.Guard_fail "walk pending")
    end

(* Issue the next PTE read of a walk. *)
let step_walk_issue ctx t idx (w : walk) =
  Kernel.guard ctx (w.wvalid && (not w.outstanding) && w.result = None) "no read to issue";
  let vpn_slice = Int64.logand (Int64.shift_right_logical w.wva (12 + (9 * w.level))) 0x1FFL in
  let pte_addr = Int64.add w.base (Int64.mul vpn_slice 8L) in
  Fifo.enq ctx t.wreq (idx, pte_addr);
  Mut.field ctx w ~get:(fun o -> o.outstanding) ~set:(fun o v -> o.outstanding <- v) true

(* Consume one PTE read response and advance that walk. *)
let step_walk_resp ctx t =
  let idx, pte = Fifo.deq ctx t.wresp in
  let w = t.walks.(idx) in
  if not (w.wvalid && w.outstanding) then failwith (t.name ^ ": orphan walk response");
  Mut.field ctx w ~get:(fun o -> o.outstanding) ~set:(fun o v -> o.outstanding <- v) false;
  let valid = Int64.logand pte 1L = 1L in
  let leaf = valid && Int64.logand pte 0xEL <> 0L in
  let ppn = Int64.shift_right_logical pte 10 in
  if not valid then
    Mut.field ctx w ~get:(fun o -> o.result) ~set:(fun o v -> o.result <- v) (Some Fault)
  else if leaf then begin
    (* a leaf above level 0 is a superpage: the low VPN slices pass through,
       and the TLBs cache the derived 4 KB-granularity translation *)
    let low = Int64.logand w.wvpn (Int64.sub (Int64.shift_left 1L (9 * w.level)) 1L) in
    let ppn = Int64.add ppn low in
    Mut.field ctx w ~get:(fun o -> o.result) ~set:(fun o v -> o.result <- v) (Some (Hit ppn));
    l2_fill ctx t (Int64.to_int w.wvpn) (Int64.to_int ppn)
  end
  else begin
    let next_base = Int64.shift_left ppn 12 in
    let next_level = w.level - 1 in
    if next_level < 0 then
      Mut.field ctx w ~get:(fun o -> o.result) ~set:(fun o v -> o.result <- v) (Some Fault)
    else begin
      (match t.wcache with
      | Some wc -> Walk_cache.insert ctx wc w.wva ~level:next_level ~base:next_base
      | None -> ());
      Mut.field ctx w ~get:(fun o -> o.level) ~set:(fun o v -> o.level <- v) next_level;
      Mut.field ctx w ~get:(fun o -> o.base) ~set:(fun o v -> o.base <- v) next_base
    end
  end

(* Retire completed walks once no L1 miss slot still needs them. *)
let step_walk_retire ctx t (w : walk) =
  Kernel.guard ctx (w.wvalid && w.result <> None) "walk not done";
  let needed side = Array.exists (fun m -> m.mvalid && m.mvpn = w.wvpn) side.misses in
  Kernel.guard ctx (not (needed t.i || needed t.d)) "walk result still needed";
  Mut.field ctx w ~get:(fun o -> o.wvalid) ~set:(fun o v -> o.wvalid <- v) false

(* --- ready tests ----------------------------------------------------------

   Peek-only, one-sided tests in front of each step ([Kernel.attempt_if]):
   false means the step would abort on the current state. They read plain
   fields and queue occupancies only, and allocate nothing: scans are
   top-level recursions over explicit arguments, as a local [go] closing
   over them would allocate its closure on every test. *)
let l2_has t vpn = l2_find t (Int64.to_int vpn) >= 0

let rec walk_unfinished walks vpn i =
  i < Array.length walks
  && (let w = walks.(i) in
      (w.wvalid && w.wvpn = vpn && Option.is_none w.result) || walk_unfinished walks vpn (i + 1))

(* A miss slot waiting on an unfinished walk for its page aborts ("walk
   pending") unless the L2 TLB already holds the page; one the L2 TLB can
   answer needs room for a response. *)
let miss_ready t side m =
  m.mvalid
  &&
  if l2_has t m.mvpn then Fifo.peek_can_enq side.resp_q
  else not (walk_unfinished t.walks m.mvpn 0)

let req_ready side =
  Fifo.peek_size side.req_q > 0 && (Array.length side.misses > 1 || not side.misses.(0).mvalid)

let issue_ready t w =
  w.wvalid && (not w.outstanding) && Option.is_none w.result && Fifo.peek_can_enq t.wreq
let retire_ready w = w.wvalid && Option.is_some w.result

let side_steps ctx t side misses req =
  for k = 0 to Array.length side.misses - 1 do
    ignore (Kernel.attempt_if ctx (miss_ready t side side.misses.(k)) misses.(k))
  done;
  ignore (Kernel.attempt_if ctx (req_ready side) req)

let tick t =
  (* Walk slots and miss slots are mutated only by this rule's own sub-steps,
     so while parked they cannot change; any in-flight walk or miss keeps the
     predicate true. Parking therefore only happens fully drained, and the
     only wakeups are enqueues on the two request queues (core side) or the
     walk-memory response queue (crossbar side) — all watched. *)
  let can_fire () =
    Fifo.peek_size t.wresp > 0
    || Array.exists (fun w -> w.wvalid) t.walks
    || Array.exists (fun m -> m.mvalid) t.i.misses
    || Array.exists (fun m -> m.mvalid) t.d.misses
    || Fifo.peek_size t.i.req_q > 0
    || Fifo.peek_size t.d.req_q > 0
  in
  let watches = [ Fifo.signal t.wresp; Fifo.signal t.i.req_q; Fifo.signal t.d.req_q ] in
  (* The steps, built once: a skipped step allocates no closure. They index
     the slot arrays when run, as a snapshot restore replaces the slots. *)
  let walk_resp ctx = step_walk_resp ctx t in
  let per_walk f = Array.init (Array.length t.walks) (fun i ctx -> f ctx i t.walks.(i)) in
  let walk_issue = per_walk (fun ctx i w -> step_walk_issue ctx t i w) in
  let misses side =
    Array.init (Array.length side.misses) (fun k ctx -> step_l1_miss ctx t side side.misses.(k))
  in
  let d_misses = misses t.d and i_misses = misses t.i in
  let d_req ctx = step_l1_req ctx t t.d and i_req ctx = step_l1_req ctx t t.i in
  let walk_retire = per_walk (fun ctx _ w -> step_walk_retire ctx t w) in
  Rule.make ~can_fire ~watches (t.name ^ ".tick") (fun ctx ->
      ignore (Kernel.attempt_if ctx (Fifo.peek_size t.wresp > 0) walk_resp);
      for i = 0 to Array.length t.walks - 1 do
        ignore (Kernel.attempt_if ctx (issue_ready t t.walks.(i)) walk_issue.(i))
      done;
      side_steps ctx t t.d d_misses d_req;
      side_steps ctx t t.i i_misses i_req;
      for i = 0 to Array.length t.walks - 1 do
        ignore (Kernel.attempt_if ctx (retire_ready t.walks.(i)) walk_retire.(i))
      done;
      Kernel.require_effect ctx)

let rules t = Partition.scoped t.part (fun () -> [ tick t ])

let itlb_req ctx t ~tag va = Fifo.enq ctx t.i.req_q (tag, va)
let can_itlb_req ctx t = Fifo.can_enq ctx t.i.req_q
let itlb_resp ctx t = Fifo.deq ctx t.i.resp_q
let can_itlb_resp ctx t = Fifo.can_deq ctx t.i.resp_q
let dtlb_req ctx t ~tag va = Fifo.enq ctx t.d.req_q (tag, va)
let can_dtlb_req ctx t = Fifo.can_enq ctx t.d.req_q
let dtlb_resp ctx t = Fifo.deq ctx t.d.resp_q
let can_dtlb_resp ctx t = Fifo.can_deq ctx t.d.resp_q
let walk_mem_req t = t.wreq
let walk_mem_resp t = t.wresp
let itlb_resp_ready t = Fifo.peek_size t.i.resp_q > 0
let dtlb_resp_ready t = Fifo.peek_size t.d.resp_q > 0
let itlb_resp_signal t = Fifo.signal t.i.resp_q
let dtlb_resp_signal t = Fifo.signal t.d.resp_q

(* debug *)
let pp_debug fmt t =
  Format.fprintf fmt "satp=%Lx@." t.satp_v;
  Array.iteri
    (fun i w ->
      Format.fprintf fmt "walk%d: valid=%b vpn=%Lx level=%d base=%Lx out=%b result=%s@." i w.wvalid
        w.wvpn w.level w.base w.outstanding
        (match w.result with None -> "-" | Some Fault -> "F" | Some (Hit p) -> Printf.sprintf "H%Lx" p))
    t.walks;
  List.iter
    (fun (nm, side) ->
      Array.iteri
        (fun i m ->
          Format.fprintf fmt "%s miss%d: valid=%b vpn=%Lx waiters=%d@." nm i m.mvalid m.mvpn
            (List.length m.waiters))
        side.misses;
      Format.fprintf fmt "%s reqq=%d respq=%d@." nm (Cmd.Fifo.peek_size side.req_q)
        (Cmd.Fifo.peek_size side.resp_q))
    [ ("i", t.i); ("d", t.d) ];
  Format.fprintf fmt "wreq=%d wresp=%d@." (Cmd.Fifo.peek_size t.wreq) (Cmd.Fifo.peek_size t.wresp)
