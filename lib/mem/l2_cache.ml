open Cmd

type line = {
  mutable tag : int64;
  mutable valid : bool;
  mutable dirty : bool;
  data : Bytes.t;
  dir : Msg.state array;
  mutable busy : bool;
}

type kind = Child of { child : int; want : Msg.state } | Walker of { tag : int; addr : int64 }

type mshr = {
  mutable valid : bool;
  mutable mline : int64;
  mutable kind : kind;
  mutable way : int; (* -1 until a way is owned *)
  mutable victim : int64 option; (* line being recalled out of the way *)
  mutable victim_preq_sent : bool array;
  mutable fetch_sent : bool;
  mutable dg_sent : bool array;
}

type t = {
  name : string;
  nchildren : int;
  geom : Cache_geom.t;
  lines : line array array;
  mshrs : mshr array;
  dram : Dram.t;
  creq_q : Msg.creq Fifo.t;
  cresp_q : Msg.cresp Fifo.t;
  preq_o : (int * Msg.preq) Fifo.t;
  presp_o : (int * Msg.presp) Fifo.t;
  walk_req_q : (int * int64) Fifo.t;
  walk_resp_q : (int * int64) Fifo.t;
  (* responses sit in delay queues for [latency] cycles: the L2's access
     time, which DRAM latency does not include *)
  clk : Clock.t;
  latency : int;
  mesi : bool;
  (* Address-interleaved banking: this instance serves only line addresses
     whose [bank_bits]-wide field just above the line offset equals
     [bank_id]; set index and tag skip that field so every set is usable.
     [(0, 0)] — the default single bank — degenerates to the unbanked
     address split. *)
  bank_id : int;
  bank_bits : int;
  part : int; (* cluster this bank was built in (uncore for the unbanked L2) *)
  presp_delay : (int * int * Msg.presp) Fifo.t; (* ready, child, grant *)
  preq_delay : (int * int * Msg.preq) Fifo.t; (* ready, child, demand *)
  walk_delay : (int * int * int64) Fifo.t; (* ready, tag, data *)
  mutable rotor : int;
  c_hit : Stats.counter;
  c_miss : Stats.counter;
  c_recalls : Stats.counter;
  c_mshr_occ : Stats.counter;
  ob_grant : Mcheck.Obligation.monitor;
}

let create ?(name = "l2") ?(bank = (0, 0)) clk ~nchildren ~geom
    ~mshrs ?(latency = 0) ?(mesi = false) ~dram ~stats () =
  let bank_id, bank_bits = bank in
  let mk_line () =
    {
      tag = -1L;
      valid = false;
      dirty = false;
      data = Bytes.make Cache_geom.line_bytes '\000';
      dir = Array.make nchildren Msg.I;
      busy = false;
    }
  in
  let mk_mshr () =
    {
      valid = false;
      mline = 0L;
      kind = Walker { tag = 0; addr = 0L };
      way = -1;
      victim = None;
      victim_preq_sent = Array.make nchildren false;
      fetch_sent = false;
      dg_sent = Array.make nchildren false;
    }
  in
  let t =
  {
    name;
    nchildren;
    geom;
    lines = Array.init geom.Cache_geom.sets (fun _ -> Array.init geom.Cache_geom.ways (fun _ -> mk_line ()));
    mshrs = Array.init mshrs (fun _ -> mk_mshr ());
    dram;
    (* Capacities clamp to the cf FIFO's 56-slot ceiling at high core
       counts; the tick rule enqueues at most once per cycle, so a delay
       queue never holds more than [latency + 1] entries anyway, and input
       queues just backpressure through their guards. *)
    creq_q = Fifo.cf ~name:(name ^ ".creq") clk ~capacity:(min 56 (4 * nchildren)) ();
    cresp_q = Fifo.cf ~name:(name ^ ".cresp") clk ~capacity:(min 56 (4 * nchildren)) ();
    preq_o = Fifo.cf ~name:(name ^ ".preq") clk ~capacity:(min 56 (4 * nchildren)) ();
    presp_o = Fifo.cf ~name:(name ^ ".presp") clk ~capacity:(min 56 (4 * nchildren)) ();
    walk_req_q = Fifo.cf ~name:(name ^ ".walkreq") clk ~capacity:4 ();
    walk_resp_q = Fifo.cf ~name:(name ^ ".walkresp") clk ~capacity:4 ();
    clk;
    latency;
    mesi;
    bank_id;
    bank_bits;
    part = Partition.ambient ();
    presp_delay = Fifo.cf ~name:(name ^ ".presp.delay") clk ~capacity:(min 56 (4 * nchildren)) ();
    preq_delay = Fifo.cf ~name:(name ^ ".preq.delay") clk ~capacity:(min 56 (4 * nchildren)) ();
    walk_delay = Fifo.cf ~name:(name ^ ".walk.delay") clk ~capacity:8 ();
    rotor = 0;
    c_hit = Stats.counter stats (name ^ ".hits");
    c_miss = Stats.counter stats (name ^ ".misses");
    c_recalls = Stats.counter stats (name ^ ".recalls");
    c_mshr_occ = Stats.counter stats (name ^ ".mshrOccSum");
    ob_grant =
      Mcheck.Obligation.declare ~module_:"mem.l2" ~interface:"grant"
        ~doc:
          "a grant message may only leave the parent when the directory is \
           compatible with the granted state (exclusive implies every other \
           child invalid, shared implies no other owner)"
        ();
  }
  in
  State.field ~name:(name ^ ".arrays")
    (fun () -> (t.lines, t.mshrs, t.rotor))
    (fun (lines, mshrs, rotor) ->
      Array.iteri (fun s ways -> Array.blit ways 0 t.lines.(s) 0 (Array.length ways)) lines;
      Array.blit mshrs 0 t.mshrs 0 (Array.length t.mshrs);
      t.rotor <- rotor);
  (* MSHR occupancy sampled at the clock edge; divide by cycles for the
     average. The hook runs at the cycle close, between rules. *)
  Clock.on_cycle_end clk (fun () ->
      let n = Array.fold_left (fun a (m : mshr) -> if m.valid then a + 1 else a) 0 t.mshrs in
      if n > 0 then Stats.incr ~by:n t.c_mshr_occ);
  (* Directory exclusivity (paper Sec. VI): a line owned M (or E under
     MESI) by one child must be I in every other child — the parent only
     grants after downgrading everyone else, so two owners at a cycle
     boundary means the protocol state itself was corrupted. *)
  Verif.Invariant.register ~name:"l2.dir-exclusive" (fun () ->
      Array.iteri
        (fun set_idx ways ->
          Array.iter
            (fun (ln : line) ->
              if ln.valid then begin
                let owner = ref (-1) in
                Array.iteri
                  (fun c st -> if st = Msg.M || st = Msg.E then owner := c)
                  ln.dir;
                if !owner >= 0 then
                  Array.iteri
                    (fun c st ->
                      if c <> !owner && st <> Msg.I then
                        Verif.Invariant.fail "l2.dir-exclusive"
                          "%s set %d tag 0x%Lx: child %d owns the line but child %d is not I"
                          name set_idx ln.tag !owner c)
                    ln.dir
              end)
            ways)
        t.lines);
  t

(* Address split with the bank-select field skipped: |tag|set|bank|line|. *)
let index t laddr =
  Int64.to_int (Int64.shift_right_logical laddr (Cache_geom.line_bits + t.bank_bits))
  land (t.geom.Cache_geom.sets - 1)

let tag_of t laddr =
  Int64.shift_right_logical laddr (Cache_geom.line_bits + t.bank_bits + t.geom.Cache_geom.set_bits)

let line_addr_of t set_idx (ln : line) =
  Int64.logor
    (Int64.shift_left ln.tag (Cache_geom.line_bits + t.bank_bits + t.geom.Cache_geom.set_bits))
    (Int64.of_int
       ((set_idx lsl (Cache_geom.line_bits + t.bank_bits)) lor (t.bank_id lsl Cache_geom.line_bits)))

let lookup t laddr =
  let ways = t.lines.(index t laddr) in
  let tg = tag_of t laddr in
  let rec go i =
    if i >= Array.length ways then None
    else if ways.(i).valid && ways.(i).tag = tg then Some (i, ways.(i))
    else go (i + 1)
  in
  go 0

let find_mshr t laddr =
  let rec go i =
    if i >= Array.length t.mshrs then None
    else if t.mshrs.(i).valid && t.mshrs.(i).mline = laddr then Some t.mshrs.(i)
    else go (i + 1)
  in
  go 0

let free_mshr t =
  let rec go i =
    if i >= Array.length t.mshrs then None else if not t.mshrs.(i).valid then Some t.mshrs.(i) else go (i + 1)
  in
  go 0

(* Directory compatibility for a grant of [want] to [child] (the walker
   asks for S). An E holder may silently have become M, so it blocks shared
   grants exactly like an M holder. A loop over locals: the ready tests call
   it every cycle, and it allocates nothing. *)
let dir_allows (ln : line) child want =
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length ln.dir do
    let s = ln.dir.(!i) in
    (ok :=
       match want with
       | Msg.M | Msg.E -> !i = child || s = Msg.I
       | Msg.S -> Msg.state_leq s Msg.S
       | Msg.I -> true);
    incr i
  done;
  !ok

let dir_ok (ln : line) kind =
  match kind with
  | Child { child; want } -> dir_allows ln child want
  | Walker _ -> dir_allows ln (-1) Msg.S

(* Whether child [i] must be downgraded before [kind] is granted. *)
let needs_dg (ln : line) kind i =
  match kind with
  | Child { child; want = Msg.M | Msg.E } -> i <> child && ln.dir.(i) <> Msg.I
  | Child { child; want = Msg.S } -> i <> child && not (Msg.state_leq ln.dir.(i) Msg.S)
  | Walker _ -> not (Msg.state_leq ln.dir.(i) Msg.S)
  | Child { want = Msg.I; _ } -> false

(* Which children must be downgraded, and to what, before [kind] is granted. *)
let downgrades_needed (ln : line) kind =
  let to_s = match kind with Child { want = Msg.M | Msg.E; _ } -> Msg.I | _ -> Msg.S in
  List.filter_map
    (fun i -> if needs_dg ln kind i then Some (i, to_s) else None)
    (List.init (Array.length ln.dir) Fun.id)

let do_grant ctx t laddr (ln : line) kind =
  let ready = Clock.now t.clk + t.latency in
  Mcheck.Obligation.check ctx t.ob_grant (fun () ->
      if dir_ok ln kind then None
      else
        Some
          (Printf.sprintf "%s: grant for line 0x%Lx with incompatible directory [%s]" t.name laddr
             (String.concat ";" (Array.to_list (Array.map Msg.state_to_string ln.dir)))));
  match kind with
  | Child { child; want } ->
    (* MESI: a shared request with no other sharers is granted
       exclusive-clean, so the child's first store needs no upgrade *)
    let granted = if t.mesi && want = Msg.S && dir_allows ln child Msg.M then Msg.E else want in
    Fifo.enq ctx t.presp_delay
      (ready, child, { Msg.line = laddr; granted; data = Bytes.copy ln.data });
    Mut.set_arr ctx ln.dir child granted
  | Walker { tag; addr } ->
    let off = Cache_geom.offset addr in
    Fifo.enq ctx t.walk_delay (ready, tag, Bytes.get_int64_le ln.data (off land lnot 7))

(* --- steps -------------------------------------------------------------- *)

let step_cresp ctx t =
  let (r : Msg.cresp) = Fifo.deq ctx t.cresp_q in
  match lookup t r.Msg.line with
  | Some (_, ln) ->
    (match r.Msg.data with
    | Some d ->
      Mut.blit ctx ~src:d ~src_pos:0 ~dst:ln.data ~dst_pos:0 ~len:Cache_geom.line_bytes;
      Mut.field ctx ln ~get:(fun o -> o.dirty) ~set:(fun o v -> o.dirty <- v) true
    | None -> ());
    (* the response reports the child's state now; never an upgrade *)
    if Msg.state_leq r.Msg.to_s ln.dir.(r.Msg.child) then Mut.set_arr ctx ln.dir r.Msg.child r.Msg.to_s
  | None ->
    (* stale response for a line we already evicted; carries no data *)
    assert (r.Msg.data = None)

let step_dram_resp ctx t =
  let laddr, data = Dram.resp ctx t.dram in
  match find_mshr t laddr with
  | Some m when m.way >= 0 ->
    let ln = t.lines.(index t laddr).(m.way) in
    Mut.blit ctx ~src:data ~src_pos:0 ~dst:ln.data ~dst_pos:0 ~len:Cache_geom.line_bytes;
    Mut.field ctx ln ~get:(fun o -> o.tag) ~set:(fun o v -> o.tag <- v) (tag_of t laddr);
    Mut.field ctx ln ~get:(fun o -> o.valid) ~set:(fun o v -> o.valid <- v) true;
    Mut.field ctx ln ~get:(fun o -> o.dirty) ~set:(fun o v -> o.dirty <- v) false;
    Array.iteri (fun i _ -> Mut.set_arr ctx ln.dir i Msg.I) ln.dir
  | Some _ | None -> failwith (t.name ^ ": dram resp without mshr/way")

let alloc_mshr ctx t laddr kind =
  match free_mshr t with
  | None -> raise (Kernel.Guard_fail (t.name ^ ": mshrs full"))
  | Some m ->
    Mut.field ctx m ~get:(fun o -> o.valid) ~set:(fun o v -> o.valid <- v) true;
    Mut.field ctx m ~get:(fun o -> o.mline) ~set:(fun o v -> o.mline <- v) laddr;
    Mut.field ctx m ~get:(fun o -> o.kind) ~set:(fun o v -> o.kind <- v) kind;
    Mut.field ctx m ~get:(fun o -> o.way) ~set:(fun o v -> o.way <- v) (-1);
    Mut.field ctx m ~get:(fun o -> o.victim) ~set:(fun o v -> o.victim <- v) None;
    Mut.field ctx m ~get:(fun o -> o.fetch_sent) ~set:(fun o v -> o.fetch_sent <- v) false;
    Array.iteri (fun i _ -> Mut.set_arr ctx m.victim_preq_sent i false) m.victim_preq_sent;
    Array.iteri (fun i _ -> Mut.set_arr ctx m.dg_sent i false) m.dg_sent;
    (match lookup t laddr with
    | Some (w, ln) ->
      Mut.field ctx m ~get:(fun o -> o.way) ~set:(fun o v -> o.way <- v) w;
      Mut.field ctx ln ~get:(fun o -> o.busy) ~set:(fun o v -> o.busy <- v) true
    | None -> ());
    Stats.incr ~ctx t.c_miss

(* Fast path: the line is resident, unclaimed and the directory already
   permits the grant. *)
let try_fast ctx t laddr kind =
  match lookup t laddr with
  | Some (_, ln) when (not ln.busy) && dir_ok ln kind && find_mshr t laddr = None ->
    do_grant ctx t laddr ln kind;
    Stats.incr ~ctx t.c_hit;
    true
  | _ -> false

let step_creq ctx t =
  let (r : Msg.creq) = Fifo.first ctx t.creq_q in
  let kind = Child { child = r.Msg.child; want = r.Msg.want } in
  if not (try_fast ctx t r.Msg.line kind) then begin
    Kernel.guard ctx (find_mshr t r.Msg.line = None) "line transaction in flight";
    (match lookup t r.Msg.line with
    | Some (_, ln) -> Kernel.guard ctx (not ln.busy) "line busy"
    | None -> ());
    alloc_mshr ctx t r.Msg.line kind
  end;
  ignore (Fifo.deq ctx t.creq_q)

let step_walk_req ctx t =
  let tag, addr = Fifo.first ctx t.walk_req_q in
  let laddr = Cache_geom.line_addr addr in
  let kind = Walker { tag; addr } in
  if not (try_fast ctx t laddr kind) then begin
    Kernel.guard ctx (find_mshr t laddr = None) "line transaction in flight";
    (match lookup t laddr with
    | Some (_, ln) -> Kernel.guard ctx (not ln.busy) "line busy"
    | None -> ());
    alloc_mshr ctx t laddr kind
  end;
  ignore (Fifo.deq ctx t.walk_req_q)

(* Advance one MSHR's transaction as far as it can go this cycle. Partial
   progress must commit (e.g. a DRAM fetch already sent), so stages end by
   raising [Stop] — caught below, not a transaction abort — instead of a
   failing guard. *)
exception Stop

let step_mshr ctx t (m : mshr) =
  let stop () = raise Stop in
  try
    if not m.valid then stop ();
    let set_idx = index t m.mline in
    if m.way < 0 then begin
      (* acquire a way: a free one, or recall a victim *)
      let ways = t.lines.(set_idx) in
      let n = Array.length ways in
      let rec free i =
        if i >= n then None
        else if (not ways.(i).valid) && not ways.(i).busy then Some i
        else free (i + 1)
      in
      match free 0 with
      | Some w ->
        Mut.field ctx m ~get:(fun o -> o.way) ~set:(fun o v -> o.way <- v) w;
        Mut.field ctx ways.(w) ~get:(fun o -> o.busy) ~set:(fun o v -> o.busy <- v) true
      | None ->
        (* choose a victim: prefer clean lines with no children *)
        let score i =
          let ln = ways.(i) in
          if ln.busy then -1
          else if Array.for_all (fun s -> s = Msg.I) ln.dir then if ln.dirty then 2 else 3
          else 1
        in
        let best = ref (-1) and best_s = ref 0 in
        for i = 0 to n - 1 do
          let cand = (t.rotor + i) mod n in
          if score cand > !best_s then begin
            best := cand;
            best_s := score cand
          end
        done;
        if !best < 0 then stop ();
        Mut.field ctx t ~get:(fun o -> o.rotor) ~set:(fun o v -> o.rotor <- v) (t.rotor + 1);
        let w = !best in
        let ln = ways.(w) in
        Mut.field ctx ln ~get:(fun o -> o.busy) ~set:(fun o v -> o.busy <- v) true;
        Mut.field ctx m ~get:(fun o -> o.victim) ~set:(fun o v -> o.victim <- v)
          (Some (line_addr_of t set_idx ln));
        Mut.field ctx m ~get:(fun o -> o.way) ~set:(fun o v -> o.way <- v) w;
        Array.iteri (fun i _ -> Mut.set_arr ctx m.victim_preq_sent i false) m.victim_preq_sent;
        Stats.incr ~ctx t.c_recalls
    end;
    if m.way < 0 then stop ();
    let ln = t.lines.(set_idx).(m.way) in
    (* victim recall in progress? *)
    (match m.victim with
    | Some vaddr ->
      (* demand I from every child still holding the victim *)
      Array.iteri
        (fun i s ->
          if s <> Msg.I && (not m.victim_preq_sent.(i)) && Fifo.can_enq ctx t.preq_o then begin
            Fifo.enq ctx t.preq_o (i, { Msg.line = vaddr; to_s = Msg.I });
            Mut.set_arr ctx m.victim_preq_sent i true
          end)
        ln.dir;
      if not (Array.for_all (fun s -> s = Msg.I) ln.dir) then stop ();
      if ln.dirty then Dram.req_write ctx t.dram vaddr ln.data;
      Mut.field ctx ln ~get:(fun o -> o.valid) ~set:(fun o v -> o.valid <- v) false;
      Mut.field ctx ln ~get:(fun o -> o.dirty) ~set:(fun o v -> o.dirty <- v) false;
      Mut.field ctx m ~get:(fun o -> o.victim) ~set:(fun o v -> o.victim <- v) None
    | None -> ());
    (* fetch from DRAM if the line is absent *)
    let present = ln.valid && ln.tag = tag_of t m.mline in
    if not present then begin
      if (not m.fetch_sent)
         && Kernel.attempt ctx (fun ctx -> Dram.req_read ctx t.dram m.mline) <> None
      then Mut.field ctx m ~get:(fun o -> o.fetch_sent) ~set:(fun o v -> o.fetch_sent <- v) true;
      stop ()
    end;
    (* downgrade children that block the grant *)
    List.iter
      (fun (child, to_s) ->
        if (not m.dg_sent.(child)) && Fifo.can_enq ctx t.preq_delay then begin
          Fifo.enq ctx t.preq_delay (Clock.now t.clk + t.latency, child, { Msg.line = m.mline; to_s });
          Mut.set_arr ctx m.dg_sent child true
        end)
      (downgrades_needed ln m.kind);
    if not (dir_ok ln m.kind) then stop ();
    if not (Fifo.can_enq ctx t.presp_o) then stop ();
    do_grant ctx t m.mline ln m.kind;
    Mut.field ctx ln ~get:(fun o -> o.busy) ~set:(fun o v -> o.busy <- v) false;
    Mut.field ctx m ~get:(fun o -> o.valid) ~set:(fun o v -> o.valid <- v) false
  with Stop -> ()

let step_delay t src dst ctx =
  let ready, a, b = Fifo.first ctx src in
  Kernel.guard ctx (ready <= Clock.now t.clk) "not ready";
  ignore (Fifo.deq ctx src);
  Fifo.enq ctx dst (a, b)

(* --- ready tests ---------------------------------------------------------

   Peek-only, one-sided tests in front of each step ([Kernel.attempt_if]):
   false means the step would abort, or return having done nothing, on the
   current state. Scans are loops or top-level recursions, so a test
   allocates nothing. *)

let delay_ready t src dst =
  Fifo.peek_size src > 0
  && Fifo.peek_can_enq dst
  &&
  let ready, _, _ = Fifo.peek_first src in
  ready <= Clock.now t.clk

let rec mshr_from (mshrs : mshr array) laddr i =
  i < Array.length mshrs
  && ((mshrs.(i).valid && mshrs.(i).mline = laddr) || mshr_from mshrs laddr (i + 1))

let rec free_from (mshrs : mshr array) i =
  i < Array.length mshrs && ((not mshrs.(i).valid) || free_from mshrs (i + 1))

(* The way [lookup] finds, or -1. *)
let find_way t laddr =
  let ways = t.lines.(index t laddr) in
  let tg = tag_of t laddr in
  let i = ref 0 and found = ref (-1) in
  while !found < 0 && !i < Array.length ways do
    if ways.(!i).valid && ways.(!i).tag = tg then found := !i;
    incr i
  done;
  !found

(* A request for [laddr] ([step_creq], [step_walk_req]) aborts while the
   line has a transaction in flight or is busy; otherwise it is granted at
   once when the directory allows, which needs room in [delay], or takes a
   free MSHR. *)
let request_ready t laddr child want delay =
  (not (mshr_from t.mshrs laddr 0))
  &&
  let w = find_way t laddr in
  if w < 0 then free_from t.mshrs 0
  else
    let ln = t.lines.(index t laddr).(w) in
    (not ln.busy)
    && if dir_allows ln child want then Fifo.peek_can_enq delay else free_from t.mshrs 0

let creq_ready t =
  Fifo.peek_size t.creq_q > 0
  &&
  let (r : Msg.creq) = Fifo.peek_first t.creq_q in
  request_ready t r.Msg.line r.Msg.child r.Msg.want t.presp_delay

let walk_req_ready t =
  Fifo.peek_size t.walk_req_q > 0
  &&
  let _, addr = Fifo.peek_first t.walk_req_q in
  request_ready t (Cache_geom.line_addr addr) (-1) Msg.S t.walk_delay

let rec dg_unsent (ln : line) (m : mshr) i =
  i < Array.length ln.dir
  && ((needs_dg ln m.kind i && not m.dg_sent.(i)) || dg_unsent ln m (i + 1))

(* [step_mshr] returns having done nothing while its line's fetch is in
   flight, and while the grant waits on downgrades it has already sent. *)
let mshr_ready t (m : mshr) =
  m.valid
  && (m.way < 0 || Option.is_some m.victim
     ||
     let ln = t.lines.(index t m.mline).(m.way) in
     if not (ln.valid && ln.tag = tag_of t m.mline) then not m.fetch_sent
     else dir_ok ln m.kind || dg_unsent ln m 0)

let rec drain_delay ctx t src dst step =
  match Kernel.attempt_if ctx (delay_ready t src dst) step with
  | Some () -> drain_delay ctx t src dst step
  | None -> ()

let tick t =
  (* Delay queues, the DRAM pipe and the MSHR array are mutated only by this
     rule's own sub-steps, and their time guards ripen by clock advance alone
     — but any such in-flight work keeps the predicate true, so the rule only
     parks when the L2 is completely drained. Then the only possible wakeups
     are enqueues on the three input queues, whose signals we watch. *)
  let can_fire () =
    Fifo.peek_size t.presp_delay > 0
    || Fifo.peek_size t.preq_delay > 0
    || Fifo.peek_size t.walk_delay > 0
    || Fifo.peek_size t.cresp_q > 0
    || Dram.busy t.dram
    || Array.exists (fun (m : mshr) -> m.valid) t.mshrs
    || Fifo.peek_size t.creq_q > 0
    || Fifo.peek_size t.walk_req_q > 0
  in
  let watches = [ Fifo.signal t.cresp_q; Fifo.signal t.creq_q; Fifo.signal t.walk_req_q ] in
  (* The steps, built once: a skipped step allocates no closure. An MSHR
     step indexes the MSHR array when run, as a snapshot restore replaces
     the MSHRs. *)
  let presp_delay = step_delay t t.presp_delay t.presp_o
  and preq_delay = step_delay t t.preq_delay t.preq_o
  and walk_delay = step_delay t t.walk_delay t.walk_resp_q in
  let cresp ctx = step_cresp ctx t and dram_resp ctx = step_dram_resp ctx t in
  let mshr = Array.init (Array.length t.mshrs) (fun i ctx -> step_mshr ctx t t.mshrs.(i)) in
  let creq ctx = step_creq ctx t and walk_req ctx = step_walk_req ctx t in
  Rule.make ~can_fire ~watches (t.name ^ ".tick") (fun ctx ->
      drain_delay ctx t t.presp_delay t.presp_o presp_delay;
      drain_delay ctx t t.preq_delay t.preq_o preq_delay;
      drain_delay ctx t t.walk_delay t.walk_resp_q walk_delay;
      (* responses first, unconditionally, all of them *)
      while Option.is_some (Kernel.attempt_if ctx (Fifo.peek_size t.cresp_q > 0) cresp) do
        ()
      done;
      while Option.is_some (Kernel.attempt_if ctx (Dram.resp_ready t.dram) dram_resp) do
        ()
      done;
      for i = 0 to Array.length t.mshrs - 1 do
        ignore (Kernel.attempt_if ctx (mshr_ready t t.mshrs.(i)) mshr.(i))
      done;
      ignore (Kernel.attempt_if ctx (creq_ready t) creq);
      ignore (Kernel.attempt_if ctx (walk_req_ready t) walk_req);
      Kernel.require_effect ctx)

let rules t = Partition.scoped t.part (fun () -> [ tick t ])

let creq_in t = t.creq_q
let cresp_in t = t.cresp_q
let preq_out t = t.preq_o
let presp_out t = t.presp_o
let walk_req ctx t ~tag addr = Fifo.enq ctx t.walk_req_q (tag, addr)
let can_walk_req ctx t = Fifo.can_enq ctx t.walk_req_q
let walk_resp ctx t = Fifo.deq ctx t.walk_resp_q
let can_walk_resp ctx t = Fifo.can_deq ctx t.walk_resp_q
let walk_resp_ready t = Fifo.peek_size t.walk_resp_q > 0
let walk_resp_signal t = Fifo.signal t.walk_resp_q
let walk_req_room t = Fifo.peek_can_enq t.walk_req_q
let walk_resp_head t = Fifo.peek_first t.walk_resp_q
