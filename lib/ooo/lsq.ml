open Cmd

type ld_state = LdIdle | LdIssued | LdDone
type stall = SNone | SSq of int (* blocking store's seq *) | SSb of int (* store buffer idx *)

type lq_entry = {
  mutable lu : Uop.t option;
  mutable lidx : int; (* absolute index of current occupant *)
  mutable lstate : ld_state;
  mutable lstall : stall;
  mutable laddr_ok : bool;
  mutable wrong_path : bool; (* stale response still owed to this slot *)
}

type sq_entry = {
  mutable su : Uop.t option;
  mutable saddr_ok : bool;
  mutable scommitted : bool;
  mutable sissued : bool;
  mutable sprefetched : bool;
}

type t = {
  lq : lq_entry array;
  sq : sq_entry array;
  mutable l_head : int;
  mutable l_tail : int;
  mutable s_head : int;
  mutable s_tail : int;
  mutable fences : Uop.t list;
  tso : bool;
  mutable tag_ctr : int; (* unique tags for in-flight load requests *)
  outstanding : (int, int) Hashtbl.t; (* tag -> absolute LQ index *)
  ob_ld : Mcheck.Obligation.monitor;
  bug_bypass_sq : bool;
}

type issue_result = Forward of int64 * int | ToCache of int | Stalled

let wp_sets = ref 0
let wp_clears = ref 0

(* Age ordering: occupied LQ/SQ slots hold strictly increasing sequence
   numbers from head to tail (the LQ tolerates holes — a killed load's slot
   is vacated while a stale response is still owed), and committed SQ
   entries form a prefix: a store can only commit after every older store
   committed, and a committed store may never be dropped before issue. *)
let check_age_order t () =
  let fail fmt = Verif.Invariant.fail "lsq.age-order" fmt in
  let lq_n = t.l_tail - t.l_head and lq_cap = Array.length t.lq in
  if lq_n < 0 || lq_n > lq_cap then
    fail "LQ window [%d,%d) outside capacity %d" t.l_head t.l_tail lq_cap;
  let sq_n = t.s_tail - t.s_head and sq_cap = Array.length t.sq in
  if sq_n < 0 || sq_n > sq_cap then
    fail "SQ window [%d,%d) outside capacity %d" t.s_head t.s_tail sq_cap;
  let last = ref min_int in
  for i = t.l_head to t.l_tail - 1 do
    let e = t.lq.(i mod lq_cap) in
    match e.lu with
    | Some u when e.lidx = i ->
      if u.Uop.seq <= !last then
        fail "LQ slot %d seq %d not younger than predecessor seq %d" i u.Uop.seq !last;
      last := u.Uop.seq
    | _ -> ()
  done;
  let last = ref min_int in
  let uncommitted_seen = ref false in
  for i = t.s_head to t.s_tail - 1 do
    let e = t.sq.(i mod sq_cap) in
    match e.su with
    | Some u ->
      if u.Uop.seq <= !last then
        fail "SQ slot %d seq %d not younger than predecessor seq %d" i u.Uop.seq !last;
      last := u.Uop.seq;
      if e.scommitted then begin
        if !uncommitted_seen then
          fail "SQ slot %d committed after an uncommitted older store" i
      end
      else uncommitted_seen := true
    | None -> if e.scommitted then fail "SQ slot %d committed store lost (empty slot)" i
  done

let create (cfg : Config.t) =
  let t =
  {
    lq =
      Array.init cfg.Config.lq_size (fun _ ->
          { lu = None; lidx = -1; lstate = LdIdle; lstall = SNone; laddr_ok = false; wrong_path = false });
    sq =
      Array.init cfg.Config.sq_size (fun _ ->
          { su = None; saddr_ok = false; scommitted = false; sissued = false; sprefetched = false });
    l_head = 0;
    l_tail = 0;
    s_head = 0;
    s_tail = 0;
    fences = [];
    tso = cfg.Config.mem_model = Config.TSO;
    tag_ctr = 0;
    outstanding = Hashtbl.create 64;
    ob_ld =
      Mcheck.Obligation.declare ~module_:"ooo.lsq" ~interface:"ld-issue"
        ~doc:
          "a load request leaving the LSQ must not bypass an older overlapping \
           store whose address is already known"
        ();
    bug_bypass_sq = cfg.Config.bug_ld_bypass_sq;
  }
  in
  Verif.Invariant.register ~name:"lsq.age-order" (check_age_order t);
  State.field ~name:"lsq"
    (fun () ->
      ( t.lq,
        t.sq,
        t.l_head,
        t.l_tail,
        t.s_head,
        t.s_tail,
        t.fences,
        t.tag_ctr,
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.outstanding [] ))
    (fun (lq, sq, l_head, l_tail, s_head, s_tail, fences, tag_ctr, outstanding) ->
      Array.blit lq 0 t.lq 0 (Array.length t.lq);
      Array.blit sq 0 t.sq 0 (Array.length t.sq);
      t.l_head <- l_head;
      t.l_tail <- l_tail;
      t.s_head <- s_head;
      t.s_tail <- s_tail;
      t.fences <- fences;
      t.tag_ctr <- tag_ctr;
      Hashtbl.reset t.outstanding;
      List.iter (fun (k, v) -> Hashtbl.replace t.outstanding k v) outstanding);
  t

let lslot t i = t.lq.(i mod Array.length t.lq)
let sslot t i = t.sq.(i mod Array.length t.sq)
let can_enq_ld t = t.l_tail - t.l_head < Array.length t.lq
let can_enq_st t = t.s_tail - t.s_head < Array.length t.sq

let bytes_of (u : Uop.t) =
  match u.instr.op with
  | Isa.Instr.Ld { width; _ } | Isa.Instr.St width | Isa.Instr.Lr width | Isa.Instr.Sc width
  | Isa.Instr.Amo { width; _ } ->
    Isa.Instr.bytes_of_width width
  | _ -> 8

let overlap a1 b1 a2 b2 =
  (* [a1, a1+b1) intersects [a2, a2+b2) *)
  Int64.compare a1 (Int64.add a2 (Int64.of_int b2)) < 0
  && Int64.compare a2 (Int64.add a1 (Int64.of_int b1)) < 0

let covers sa sb la lb =
  Int64.compare sa la <= 0 && Int64.compare (Int64.add la (Int64.of_int lb)) (Int64.add sa (Int64.of_int sb)) <= 0

(* --- rename side ---------------------------------------------------------- *)

let reserve_ld ctx t =
  Kernel.guard ctx (can_enq_ld t) "lq full";
  let idx = t.l_tail in
  Mut.field ctx t ~get:(fun o -> o.l_tail) ~set:(fun o v -> o.l_tail <- v) (t.l_tail + 1);
  idx

let fill_ld ctx t idx u =
  let e = lslot t idx in
  Mut.field ctx e ~get:(fun o -> o.lu) ~set:(fun o v -> o.lu <- v) (Some u);
  Mut.field ctx e ~get:(fun o -> o.lidx) ~set:(fun o v -> o.lidx <- v) idx;
  Mut.field ctx e ~get:(fun o -> o.lstate) ~set:(fun o v -> o.lstate <- v) LdIdle;
  Mut.field ctx e ~get:(fun o -> o.lstall) ~set:(fun o v -> o.lstall <- v) SNone;
  Mut.field ctx e ~get:(fun o -> o.laddr_ok) ~set:(fun o v -> o.laddr_ok <- v) false

let reserve_st ctx t =
  Kernel.guard ctx (can_enq_st t) "sq full";
  let idx = t.s_tail in
  Mut.field ctx t ~get:(fun o -> o.s_tail) ~set:(fun o v -> o.s_tail <- v) (t.s_tail + 1);
  idx

let fill_st ctx t idx u =
  let e = sslot t idx in
  Mut.field ctx e ~get:(fun o -> o.su) ~set:(fun o v -> o.su <- v) (Some u);
  Mut.field ctx e ~get:(fun o -> o.saddr_ok) ~set:(fun o v -> o.saddr_ok <- v) false;
  Mut.field ctx e ~get:(fun o -> o.scommitted) ~set:(fun o v -> o.scommitted <- v) false;
  Mut.field ctx e ~get:(fun o -> o.sissued) ~set:(fun o v -> o.sissued <- v) false;
  Mut.field ctx e ~get:(fun o -> o.sprefetched) ~set:(fun o v -> o.sprefetched <- v) false

let add_fence ctx t u =
  Mut.field ctx t ~get:(fun o -> o.fences) ~set:(fun o v -> o.fences <- v) (u :: t.fences)

let remove_fence ctx t u =
  Mut.field ctx t ~get:(fun o -> o.fences) ~set:(fun o v -> o.fences <- v)
    (List.filter (fun (f : Uop.t) -> f.seq <> u.Uop.seq) t.fences)

(* --- update --------------------------------------------------------------- *)

let update_ld ctx t (u : Uop.t) =
  match u.lsq with
  | Uop.LQ idx ->
    let e = lslot t idx in
    if e.lidx = idx && e.lu <> None then
      Mut.field ctx e ~get:(fun o -> o.laddr_ok) ~set:(fun o v -> o.laddr_ok <- v) true
  | Uop.SQ _ | Uop.LNone -> ()

let update_st ctx t (u : Uop.t) =
  (match u.lsq with
  | Uop.SQ idx ->
    let e = sslot t idx in
    (match e.su with
    | Some x when x.Uop.seq = u.seq ->
      Mut.field ctx e ~get:(fun o -> o.saddr_ok) ~set:(fun o v -> o.saddr_ok <- v) true
    | Some _ | None -> ())
  | Uop.LQ _ | Uop.LNone -> ());
  (* kill search: younger loads that already read data overlapping us *)
  let sb = bytes_of u in
  for i = t.l_head to t.l_tail - 1 do
    let e = lslot t i in
    if e.lidx = i then
      match e.lu with
      | Some lu
        when lu.Uop.seq > u.seq && e.laddr_ok
             && (e.lstate = LdIssued || e.lstate = LdDone)
             && (not lu.killed)
             && overlap u.paddr sb lu.paddr (bytes_of lu) ->
        Uop.mk_set_ld_kill ctx lu true
      | _ -> ()
  done

(* --- load issue ------------------------------------------------------------ *)

let fence_blocks t (u : Uop.t) = List.exists (fun (f : Uop.t) -> f.seq < u.seq) t.fences

let has_issue_ld t =
  let found = ref false in
  for i = t.l_head to t.l_tail - 1 do
    if not !found then begin
      let e = lslot t i in
      if e.lidx = i && (not e.wrong_path) && e.laddr_ok && e.lstate = LdIdle && e.lstall = SNone then
        match e.lu with
        | Some u
          when (not u.killed) && (not u.mmio) && (not u.fault)
               && (match u.instr.op with Isa.Instr.Ld _ -> true | _ -> false)
               && not (fence_blocks t u) ->
          found := true
        | _ -> ()
    end
  done;
  !found

let get_issue_ld _ctx t =
  let found = ref None in
  for i = t.l_head to t.l_tail - 1 do
    if !found = None then begin
      let e = lslot t i in
      if e.lidx = i && (not e.wrong_path) && e.laddr_ok && e.lstate = LdIdle && e.lstall = SNone then
        match e.lu with
        | Some u
          when (not u.killed) && (not u.mmio) && (not u.fault)
               && (match u.instr.op with Isa.Instr.Ld _ -> true | _ -> false)
               && not (fence_blocks t u) ->
          found := Some (i, u)
        | _ -> ()
    end
  done;
  match !found with
  | Some r -> r
  | None -> raise (Kernel.Guard_fail "no issuable load")

let extract_store_data (st : Uop.t) la lb =
  let shift = Int64.to_int (Int64.sub la st.paddr) in
  (Int64.shift_right_logical st.st_data (8 * shift), lb)

let load_extend (u : Uop.t) raw lb =
  match u.instr.op with
  | Isa.Instr.Ld { unsigned; _ } ->
    if unsigned then Isa.Xlen.zext ~bits:(lb * 8) raw else Isa.Xlen.sext ~bits:(lb * 8) raw
  | _ -> raw

let issue_ld ctx t idx (u : Uop.t) ~sb_search =
  let e = lslot t idx in
  let lb = bytes_of u in
  (* youngest overlapping older store with a known address *)
  let honest = ref None in
  for i = t.s_head to t.s_tail - 1 do
    let s = sslot t i in
    match s.su with
    | Some su
      when su.Uop.seq < u.seq && s.saddr_ok && (not su.killed)
           && overlap su.paddr (bytes_of su) u.paddr lb ->
      (match !honest with
      | Some (bu : Uop.t) when bu.seq > su.Uop.seq -> ()
      | _ -> honest := Some su)
    | _ -> ()
  done;
  (* the injected bug drops the scan result on the floor; the obligation
     below still judges the issued request against the honest scan *)
  let best = if t.bug_bypass_sq then ref None else honest in
  let check_no_bypass () =
    Mcheck.Obligation.check ctx t.ob_ld (fun () ->
        match !honest with
        | Some su ->
          Some
            (Printf.sprintf
               "load seq %d (paddr 0x%Lx) issued past older overlapping store seq %d (paddr 0x%Lx)"
               u.seq u.paddr su.Uop.seq su.paddr)
        | None -> None)
  in
  let set_state st = Mut.field ctx e ~get:(fun o -> o.lstate) ~set:(fun o v -> o.lstate <- v) st in
  let set_stall s = Mut.field ctx e ~get:(fun o -> o.lstall) ~set:(fun o v -> o.lstall <- v) s in
  let new_tag () =
    let tag = t.tag_ctr in
    Mut.field ctx t ~get:(fun o -> o.tag_ctr) ~set:(fun o v -> o.tag_ctr <- v) (tag + 1);
    Hashtbl.replace t.outstanding tag idx;
    Kernel.on_abort ctx (fun () -> Hashtbl.remove t.outstanding tag);
    tag
  in
  match !best with
  | Some su when (match su.instr.op with Isa.Instr.St _ -> true | _ -> false)
                 && covers su.paddr (bytes_of su) u.paddr lb ->
    let raw, _ = extract_store_data su u.paddr lb in
    set_state LdIssued;
    Forward (load_extend u raw lb, new_tag ())
  | Some su ->
    (* partial overlap, or an atomic (SC/AMO) whose result isn't forwardable
       before commit: stall until it leaves the SQ *)
    set_stall (SSq su.Uop.seq);
    Stalled
  | None -> (
    match sb_search with
    | Store_buffer.Full raw ->
      check_no_bypass ();
      set_state LdIssued;
      Forward (load_extend u raw lb, new_tag ())
    | Store_buffer.Partial sbidx ->
      set_stall (SSb sbidx);
      Stalled
    | Store_buffer.NoMatch ->
      check_no_bypass ();
      set_state LdIssued;
      ToCache (new_tag ()))

let resp_ld ctx t tag value =
  let idx =
    match Hashtbl.find_opt t.outstanding tag with
    | Some i -> i
    | None -> failwith "lsq: response with unknown tag"
  in
  Hashtbl.remove t.outstanding tag;
  Kernel.on_abort ctx (fun () -> Hashtbl.replace t.outstanding tag idx);
  let e = lslot t idx in
  if e.lidx <> idx || e.lu = None || e.lstate <> LdIssued then begin
    (* stale response: the load it belonged to was killed *)
    if e.wrong_path then incr wp_clears;
    Mut.field ctx e ~get:(fun o -> o.wrong_path) ~set:(fun o v -> o.wrong_path <- v) false;
    `WrongPath
  end
  else
    match e.lu with
    | Some u when not u.killed ->
      Mut.field ctx e ~get:(fun o -> o.lstate) ~set:(fun o v -> o.lstate <- v) LdDone;
      Uop.mk_set_result ctx u value;
      `Ok u
    | _ ->
      (* killed but not yet collected: the slot owes no further response *)
      if e.wrong_path then incr wp_clears;
      Mut.field ctx e ~get:(fun o -> o.wrong_path) ~set:(fun o v -> o.wrong_path <- v) false;
      Mut.field ctx e ~get:(fun o -> o.lu) ~set:(fun o v -> o.lu <- v) None;
      Mut.field ctx e ~get:(fun o -> o.lstate) ~set:(fun o v -> o.lstate <- v) LdIdle;
      `WrongPath

(* --- store commit side ------------------------------------------------------ *)

let set_at_commit ctx t (u : Uop.t) =
  match u.lsq with
  | Uop.SQ idx ->
    let e = sslot t idx in
    Mut.field ctx e ~get:(fun o -> o.scommitted) ~set:(fun o v -> o.scommitted <- v) true
  | Uop.LQ _ | Uop.LNone -> ()

let is_normal_store (u : Uop.t) = match u.instr.op with Isa.Instr.St _ -> true | _ -> false

let oldest_committed_store t =
  let r = ref None in
  for i = t.s_tail - 1 downto t.s_head do
    let e = sslot t i in
    match e.su with
    | Some u when e.scommitted && (not e.sissued) && is_normal_store u && not u.mmio -> r := Some (i, u)
    | _ -> ()
  done;
  !r

let mark_store_issued ctx t idx =
  let e = sslot t idx in
  Mut.field ctx e ~get:(fun o -> o.sissued) ~set:(fun o v -> o.sissued <- v) true

(* A translated store that has not been prefetched yet (paper: "SQ can
   issue as many store-prefetch requests as it wants"). *)
let prefetch_candidate t =
  let r = ref None in
  for i = t.s_tail - 1 downto t.s_head do
    let e = sslot t i in
    match e.su with
    | Some u
      when e.saddr_ok && (not e.sissued) && (not e.sprefetched) && (not u.killed)
           && is_normal_store u && not u.mmio ->
      r := Some (i, u)
    | _ -> ()
  done;
  !r

let mark_prefetched ctx t idx =
  let e = sslot t idx in
  Mut.field ctx e ~get:(fun o -> o.sprefetched) ~set:(fun o v -> o.sprefetched <- v) true

let committed_store_head t =
  if t.s_tail - t.s_head > 0 then begin
    let e = sslot t t.s_head in
    match e.su with
    | Some u when e.scommitted && is_normal_store u && not u.mmio -> Some (t.s_head, u)
    | _ -> None
  end
  else None

let clear_sq_stalls ctx t seq =
  for i = t.l_head to t.l_tail - 1 do
    let e = lslot t i in
    match e.lstall with
    | SSq s when s = seq ->
      Mut.field ctx e ~get:(fun o -> o.lstall) ~set:(fun o v -> o.lstall <- v) SNone
    | _ -> ()
  done

let deq_st ctx t =
  Kernel.guard ctx (t.s_tail - t.s_head > 0) "sq empty";
  let e = sslot t t.s_head in
  (match e.su with Some u -> clear_sq_stalls ctx t u.Uop.seq | None -> ());
  Mut.field ctx e ~get:(fun o -> o.su) ~set:(fun o v -> o.su <- v) None;
  Mut.field ctx e ~get:(fun o -> o.scommitted) ~set:(fun o v -> o.scommitted <- v) false;
  Mut.field ctx e ~get:(fun o -> o.sissued) ~set:(fun o v -> o.sissued <- v) false;
  Mut.field ctx t ~get:(fun o -> o.s_head) ~set:(fun o v -> o.s_head <- v) (t.s_head + 1)

let sq_head_is t (u : Uop.t) =
  t.s_tail - t.s_head > 0
  && match (sslot t t.s_head).su with Some x -> x.Uop.seq = u.seq | None -> false

let sq_head_issued t = t.s_tail - t.s_head > 0 && (sslot t t.s_head).sissued
let sq_empty t = t.s_tail = t.s_head

(* No committed store still waiting to reach memory. Speculative entries
   (e.g. wrong-path stores fetched past a halting ecall) don't count: they
   can never issue. *)
let sq_quiesced t =
  let ok = ref true in
  for i = t.s_head to t.s_tail - 1 do
    if (sslot t i).scommitted then ok := false
  done;
  !ok

(* stores older than [seq] still pending? (the SQ head is the oldest) *)
let no_older_stores t seq =
  t.s_tail = t.s_head
  || match (sslot t t.s_head).su with Some u -> u.Uop.seq > seq | None -> true

let wakeup_by_sb_deq ctx t sbidx =
  for i = t.l_head to t.l_tail - 1 do
    let e = lslot t i in
    match e.lstall with
    | SSb s when s = sbidx ->
      Mut.field ctx e ~get:(fun o -> o.lstall) ~set:(fun o v -> o.lstall <- v) SNone
    | _ -> ()
  done

(* --- commit / speculation ---------------------------------------------------- *)

let deq_ld ctx t =
  Kernel.guard ctx (t.l_tail - t.l_head > 0) "lq empty";
  let e = lslot t t.l_head in
  Mut.field ctx e ~get:(fun o -> o.lu) ~set:(fun o v -> o.lu <- v) None;
  Mut.field ctx e ~get:(fun o -> o.laddr_ok) ~set:(fun o v -> o.laddr_ok <- v) false;
  Mut.field ctx e ~get:(fun o -> o.lstate) ~set:(fun o v -> o.lstate <- v) LdIdle;
  Mut.field ctx e ~get:(fun o -> o.lstall) ~set:(fun o v -> o.lstall <- v) SNone;
  Mut.field ctx t ~get:(fun o -> o.l_head) ~set:(fun o v -> o.l_head <- v) (t.l_head + 1)

let cache_evict ctx t line =
  if t.tso then
    for i = t.l_head to t.l_tail - 1 do
      let e = lslot t i in
      if e.lidx = i && e.lstate = LdDone then
        match e.lu with
        | Some u
          when (not u.killed) && (not u.ld_kill)
               && Mem.Cache_geom.line_addr u.paddr = line ->
          Uop.mk_set_ld_kill ctx u true
        | _ -> ()
    done

let release_lq_slot ctx e =
  (match e.lstate with
  | LdIssued ->
    incr wp_sets;
    Mut.field ctx e ~get:(fun o -> o.wrong_path) ~set:(fun o v -> o.wrong_path <- v) true
  | LdIdle | LdDone -> ());
  Mut.field ctx e ~get:(fun o -> o.lu) ~set:(fun o v -> o.lu <- v) None;
  Mut.field ctx e ~get:(fun o -> o.laddr_ok) ~set:(fun o v -> o.laddr_ok <- v) false;
  Mut.field ctx e ~get:(fun o -> o.lstate) ~set:(fun o v -> o.lstate <- v) LdIdle;
  Mut.field ctx e ~get:(fun o -> o.lstall) ~set:(fun o v -> o.lstall <- v) SNone

let kill_suffix ctx t =
  let continue = ref true in
  while !continue && t.l_tail > t.l_head do
    let e = lslot t (t.l_tail - 1) in
    match e.lu with
    | Some u when u.Uop.killed ->
      release_lq_slot ctx e;
      Mut.field ctx t ~get:(fun o -> o.l_tail) ~set:(fun o v -> o.l_tail <- v) (t.l_tail - 1)
    | _ -> continue := false
  done;
  let continue = ref true in
  while !continue && t.s_tail > t.s_head do
    let e = sslot t (t.s_tail - 1) in
    match e.su with
    | Some u when u.Uop.killed ->
      Mut.field ctx e ~get:(fun o -> o.su) ~set:(fun o v -> o.su <- v) None;
      Mut.field ctx e ~get:(fun o -> o.saddr_ok) ~set:(fun o v -> o.saddr_ok <- v) false;
      Mut.field ctx t ~get:(fun o -> o.s_tail) ~set:(fun o v -> o.s_tail <- v) (t.s_tail - 1)
    | _ -> continue := false
  done;
  (* killed fences *)
  Mut.field ctx t ~get:(fun o -> o.fences) ~set:(fun o v -> o.fences <- v)
    (List.filter (fun (f : Uop.t) -> not f.killed) t.fences)

let flush ctx t =
  for i = t.l_head to t.l_tail - 1 do
    let e = lslot t i in
    if e.lu <> None then release_lq_slot ctx e
  done;
  Mut.field ctx t ~get:(fun o -> o.l_tail) ~set:(fun o v -> o.l_tail <- v) t.l_head;
  (* Careful: l_head must keep advancing monotonically so absolute indices
     stay unique; collapse both pointers to the max instead. *)
  let m = max t.l_head t.l_tail in
  Mut.field ctx t ~get:(fun o -> o.l_head) ~set:(fun o v -> o.l_head <- v) m;
  Mut.field ctx t ~get:(fun o -> o.l_tail) ~set:(fun o v -> o.l_tail <- v) m;
  for i = t.s_head to t.s_tail - 1 do
    let e = sslot t i in
    (* committed stores must survive a flush: they are architecturally done *)
    if not e.scommitted then begin
      Mut.field ctx e ~get:(fun o -> o.su) ~set:(fun o v -> o.su <- v) None;
      Mut.field ctx e ~get:(fun o -> o.saddr_ok) ~set:(fun o v -> o.saddr_ok <- v) false
    end
  done;
  (* drop the uncommitted suffix *)
  let new_tail = ref t.s_head in
  for i = t.s_head to t.s_tail - 1 do
    if (sslot t i).scommitted then new_tail := i + 1
  done;
  Mut.field ctx t ~get:(fun o -> o.s_tail) ~set:(fun o v -> o.s_tail <- v) !new_tail;
  Mut.field ctx t ~get:(fun o -> o.fences) ~set:(fun o v -> o.fences <- v) []

let pp_debug fmt t =
  Format.fprintf fmt "LQ[%d,%d) SQ[%d,%d) fences=%d@." t.l_head t.l_tail t.s_head t.s_tail
    (List.length t.fences);
  for i = t.l_head to t.l_tail - 1 do
    let e = lslot t i in
    Format.fprintf fmt "  LQ%d: lidx=%d wp=%b addr_ok=%b state=%s stall=%s u=%s@." i e.lidx
      e.wrong_path e.laddr_ok
      (match e.lstate with LdIdle -> "idle" | LdIssued -> "iss" | LdDone -> "done")
      (match e.lstall with SNone -> "-" | SSq s -> Printf.sprintf "sq%d" s | SSb s -> Printf.sprintf "sb%d" s)
      (match e.lu with Some u -> Format.asprintf "%a" Uop.pp u | None -> "-")
  done;
  for i = t.s_head to t.s_tail - 1 do
    let e = sslot t i in
    Format.fprintf fmt "  SQ%d: addr_ok=%b committed=%b issued=%b u=%s@." i e.saddr_ok e.scommitted
      e.sissued
      (match e.su with Some u -> Format.asprintf "%a" Uop.pp u | None -> "-")
  done
