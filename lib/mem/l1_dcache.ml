open Cmd

type waiter =
  | WLd of { tag : int; addr : int64; bytes : int; unsigned : bool }
  | WSt of { tag : int }
  | WAt of { tag : int; addr : int64; bytes : int; f : int64 -> int64 option * int64 }
  | WPf (* prefetch: bringing the line in M was the whole job *)

type req =
  | Ld of { tag : int; addr : int64; bytes : int; unsigned : bool }
  | St of { tag : int; line : int64 }
  | At of { tag : int; addr : int64; bytes : int; f : int64 -> int64 option * int64 }
  | Pf of { line : int64 }  (* store prefetch: acquire M, respond to no one *)

type line = {
  mutable tag : int64;
  mutable st : Msg.state;
  data : Bytes.t;
  mutable locked : bool;
  mutable pending : bool; (* way reserved by an MSHR awaiting its grant *)
}

type mshr = {
  mutable valid : bool;
  mutable mline : int64;
  mutable way : int;
  mutable want : Msg.state;
  mutable filled : bool;
  mutable waiters : waiter list; (* oldest first *)
}

type t = {
  name : string;
  geom : Cache_geom.t;
  lines : line array array;
  mshrs : mshr array;
  req_q : req Fifo.t;
  resp_ld_q : (int * int64) Fifo.t;
  resp_st_q : int Fifo.t;
  resp_at_q : (int * int64) Fifo.t;
  creq_o : Msg.creq Fifo.t;
  cresp_o : Msg.cresp Fifo.t;
  preq_i : Msg.preq Fifo.t;
  presp_i : Msg.presp Fifo.t;
  child_id : int;
  part : int; (* partition this cache was built in (its core's) *)
  mutable evict_hook : Kernel.ctx -> int64 -> unit;
  mutable rotor : int;
  c_hit : Stats.counter;
  c_miss : Stats.counter;
  c_wb : Stats.counter;
}

let create ?(name = "l1d") ?boundary_lookahead clk ~child_id ~geom ~mshrs ~stats () =
  let mk_line () =
    { tag = -1L; st = Msg.I; data = Bytes.make Cache_geom.line_bytes '\000'; locked = false; pending = false }
  in
  let mk_mshr () = { valid = false; mline = 0L; way = 0; want = Msg.I; filled = false; waiters = [] } in
  let t =
  {
    name;
    geom;
    lines = Array.init geom.Cache_geom.sets (fun _ -> Array.init geom.Cache_geom.ways (fun _ -> mk_line ()));
    mshrs = Array.init mshrs (fun _ -> mk_mshr ());
    req_q = Fifo.cf ~name:(name ^ ".req") clk ~capacity:4 ();
    resp_ld_q = Fifo.cf ~name:(name ^ ".respLd") clk ~capacity:8 ();
    resp_st_q = Fifo.cf ~name:(name ^ ".respSt") clk ~capacity:2 ();
    resp_at_q = Fifo.cf ~name:(name ^ ".respAt") clk ~capacity:2 ();
    (* The four crossbar-facing queues straddle the core/uncore partition
       boundary; [boundary_lookahead] declares their epoch lookahead. *)
    creq_o = Fifo.cf ~name:(name ^ ".creq") ?lookahead:boundary_lookahead clk ~capacity:4 ();
    cresp_o = Fifo.cf ~name:(name ^ ".cresp") ?lookahead:boundary_lookahead clk ~capacity:4 ();
    preq_i = Fifo.cf ~name:(name ^ ".preq") ?lookahead:boundary_lookahead clk ~capacity:4 ();
    presp_i = Fifo.cf ~name:(name ^ ".presp") ?lookahead:boundary_lookahead clk ~capacity:4 ();
    child_id;
    part = Partition.ambient ();
    evict_hook = (fun _ _ -> ());
    rotor = 0;
    c_hit = Stats.counter stats (name ^ ".hits");
    c_miss = Stats.counter stats (name ^ ".misses");
    c_wb = Stats.counter stats (name ^ ".writebacks");
  }
  in
  (* MSHR waiter lists carry atomic-op closures (WAt) — the reason the
     snapshot codec marshals with [Closures]. The FIFOs are EHR-backed and
     register themselves; [evict_hook] is wiring, not state. *)
  State.field ~name:(name ^ ".arrays")
    (fun () -> (t.lines, t.mshrs, t.rotor))
    (fun (lines, mshrs, rotor) ->
      Array.iteri (fun s ways -> Array.blit ways 0 t.lines.(s) 0 (Array.length ways)) lines;
      Array.blit mshrs 0 t.mshrs 0 (Array.length t.mshrs);
      t.rotor <- rotor);
  t

(* --- helpers ----------------------------------------------------------- *)

let set_of t line = Cache_geom.index t.geom line
let tag_of t line = Cache_geom.tag t.geom line

let lookup t laddr =
  let ways = t.lines.(set_of t laddr) in
  let tg = tag_of t laddr in
  let rec go i =
    if i >= Array.length ways then None
    else if ways.(i).tag = tg && (ways.(i).st <> Msg.I || ways.(i).pending) then Some (i, ways.(i))
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

let read_val ln addr bytes unsigned =
  let off = Cache_geom.offset addr in
  let v = ref 0L in
  for k = bytes - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get ln.data (off + k))))
  done;
  if unsigned then !v else Isa.Xlen.sext ~bits:(bytes * 8) !v

let write_val ctx ln addr bytes v =
  let off = Cache_geom.offset addr in
  let src = Bytes.create bytes in
  for k = 0 to bytes - 1 do
    Bytes.set src k (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF))
  done;
  Mut.blit ctx ~src ~src_pos:0 ~dst:ln.data ~dst_pos:off ~len:bytes

(* MESI: an exclusive-clean line may be written without asking the parent *)
let writable ctx ln =
  if ln.st = Msg.E then Mut.field ctx ln ~get:(fun o -> o.st) ~set:(fun o v -> o.st <- v) Msg.M;
  ln.st = Msg.M

(* Evict [ln] (state S or M): emit the voluntary downgrade and fire the
   eviction hook. The caller reuses the way afterwards. *)
let evict ctx t set_idx ln =
  let laddr =
    Int64.logor
      (Int64.shift_left ln.tag (Cache_geom.line_bits + t.geom.Cache_geom.set_bits))
      (Int64.of_int (set_idx lsl Cache_geom.line_bits))
  in
  (match ln.st with
  | Msg.M ->
    Fifo.enq ctx t.cresp_o
      { Msg.child = t.child_id; line = laddr; to_s = Msg.I; data = Some (Bytes.copy ln.data) };
    Stats.incr ~ctx t.c_wb
  | Msg.S | Msg.E ->
    Fifo.enq ctx t.cresp_o { Msg.child = t.child_id; line = laddr; to_s = Msg.I; data = None }
  | Msg.I -> ());
  if ln.st <> Msg.I then t.evict_hook ctx laddr;
  Mut.field ctx ln ~get:(fun o -> o.st) ~set:(fun o v -> o.st <- v) Msg.I;
  Mut.field ctx ln ~get:(fun o -> o.tag) ~set:(fun o v -> o.tag <- v) (-1L)

(* Choose a victim way in [set]: invalid first, else rotate among ways that
   are not pending and not locked. Guard-fails if none is available. *)
let victim ctx t set_idx =
  let ways = t.lines.(set_idx) in
  let n = Array.length ways in
  let rec find_invalid i =
    if i >= n then None
    else if ways.(i).st = Msg.I && not ways.(i).pending then Some i
    else find_invalid (i + 1)
  in
  match find_invalid 0 with
  | Some i -> i
  | None ->
    (* a way still referenced by a valid MSHR (filling or draining) is off
       limits: its waiters would read freed storage *)
    let in_mshr i =
      Array.exists
        (fun m -> m.valid && set_of t m.mline = set_idx && m.way = i)
        t.mshrs
    in
    let rec rot k =
      if k >= n then None
      else
        let i = (t.rotor + k) mod n in
        if (not ways.(i).pending) && (not ways.(i).locked) && not (in_mshr i) then Some i
        else rot (k + 1)
    in
    (match rot 0 with
    | Some i ->
      Mut.field ctx t ~get:(fun o -> o.rotor) ~set:(fun o v -> o.rotor <- v) ((t.rotor + 1) mod n);
      evict ctx t set_idx ways.(i);
      i
    | None -> raise (Kernel.Guard_fail (t.name ^ ": no victim way")))

let alloc_mshr ctx t laddr want first_waiter =
  match free_mshr t with
  | None -> raise (Kernel.Guard_fail (t.name ^ ": mshrs full"))
  | Some m ->
    let set_idx = set_of t laddr in
    (* S->M upgrade keeps the way it already owns *)
    let way =
      match lookup t laddr with
      | Some (w, ln) when ln.st = Msg.S -> w
      | Some _ | None -> victim ctx t set_idx
    in
    let ln = t.lines.(set_idx).(way) in
    Mut.field ctx ln ~get:(fun o -> o.tag) ~set:(fun o v -> o.tag <- v) (tag_of t laddr);
    Mut.field ctx ln ~get:(fun o -> o.pending) ~set:(fun o v -> o.pending <- v) true;
    Fifo.enq ctx t.creq_o { Msg.child = t.child_id; line = laddr; want };
    Mut.field ctx m ~get:(fun o -> o.valid) ~set:(fun o v -> o.valid <- v) true;
    Mut.field ctx m ~get:(fun o -> o.mline) ~set:(fun o v -> o.mline <- v) laddr;
    Mut.field ctx m ~get:(fun o -> o.way) ~set:(fun o v -> o.way <- v) way;
    Mut.field ctx m ~get:(fun o -> o.want) ~set:(fun o v -> o.want <- v) want;
    Mut.field ctx m ~get:(fun o -> o.filled) ~set:(fun o v -> o.filled <- v) false;
    Mut.field ctx m ~get:(fun o -> o.waiters) ~set:(fun o v -> o.waiters <- v) [ first_waiter ];
    Stats.incr ~ctx t.c_miss

(* --- internal rule steps ----------------------------------------------- *)

let step_presp ctx t =
  let (g : Msg.presp) = Fifo.deq ctx t.presp_i in
  match find_mshr t g.Msg.line with
  | None -> failwith (t.name ^ ": grant without mshr")
  | Some m ->
    let ln = t.lines.(set_of t g.Msg.line).(m.way) in
    Mut.blit ctx ~src:g.Msg.data ~src_pos:0 ~dst:ln.data ~dst_pos:0 ~len:Cache_geom.line_bytes;
    Mut.field ctx ln ~get:(fun o -> o.st) ~set:(fun o v -> o.st <- v) g.Msg.granted;
    Mut.field ctx ln ~get:(fun o -> o.pending) ~set:(fun o v -> o.pending <- v) false;
    Mut.field ctx m ~get:(fun o -> o.filled) ~set:(fun o v -> o.filled <- v) true

let step_drain ctx t m =
  Kernel.guard ctx (m.valid && m.filled) "mshr not draining";
  let ln = t.lines.(set_of t m.mline).(m.way) in
  let rec drain ws =
    match ws with
    | [] -> []
    | WLd { tag; addr; bytes; unsigned } :: rest ->
      if Fifo.can_enq ctx t.resp_ld_q then begin
        Fifo.enq ctx t.resp_ld_q (tag, read_val ln addr bytes unsigned);
        drain rest
      end
      else ws
    | WSt { tag } :: rest ->
      if (not ln.locked) && Msg.state_leq Msg.E ln.st && writable ctx ln
         && Fifo.can_enq ctx t.resp_st_q
      then begin
        Mut.field ctx ln ~get:(fun o -> o.locked) ~set:(fun o v -> o.locked <- v) true;
        Fifo.enq ctx t.resp_st_q tag;
        drain rest
      end
      else ws
    | WPf :: rest -> drain rest
    | WAt { tag; addr; bytes; f } :: rest ->
      if (not ln.locked) && Msg.state_leq Msg.E ln.st && writable ctx ln
         && Fifo.can_enq ctx t.resp_at_q
      then begin
        let old = read_val ln addr bytes false in
        let stv, result = f old in
        (match stv with Some v -> write_val ctx ln addr bytes v | None -> ());
        Fifo.enq ctx t.resp_at_q (tag, result);
        drain rest
      end
      else ws
  in
  let before = m.waiters in
  let after = drain before in
  Kernel.guard ctx (after != before) "no waiter progress";
  Mut.field ctx m ~get:(fun o -> o.waiters) ~set:(fun o v -> o.waiters <- v) after;
  if after = [] then Mut.field ctx m ~get:(fun o -> o.valid) ~set:(fun o v -> o.valid <- v) false

let step_preq ctx t =
  let (d : Msg.preq) = Fifo.first ctx t.preq_i in
  let respond st data =
    Fifo.enq ctx t.cresp_o { Msg.child = t.child_id; line = d.Msg.line; to_s = st; data }
  in
  (match lookup t d.Msg.line with
  | Some (_, ln) ->
    Kernel.guard ctx (not ln.locked) "line locked";
    (* stall while an MSHR is draining waiters against this line; grants
       always beat later downgrades (presp drains unconditionally), so a
       filled MSHR means the demand postdates our grant *)
    (match find_mshr t d.Msg.line with
    | Some m when m.filled -> raise (Kernel.Guard_fail "draining; retry downgrade")
    | Some _ | None -> ());
    if Msg.state_leq ln.st d.Msg.to_s then respond ln.st None
    else begin
      let data = if ln.st = Msg.M then Some (Bytes.copy ln.data) else None in
      respond d.Msg.to_s data;
      if d.Msg.to_s = Msg.I then t.evict_hook ctx d.Msg.line;
      Mut.field ctx ln ~get:(fun o -> o.st) ~set:(fun o v -> o.st <- v) d.Msg.to_s;
      (* keep the tag when the way is reserved for a pending fill *)
      if d.Msg.to_s = Msg.I && not ln.pending then
        Mut.field ctx ln ~get:(fun o -> o.tag) ~set:(fun o v -> o.tag <- v) (-1L)
    end
  | None -> respond Msg.I None);
  ignore (Fifo.deq ctx t.preq_i)

let step_req ctx t =
  let r = Fifo.first ctx t.req_q in
  (match r with
  | Ld { tag; addr; bytes; unsigned } -> (
    let laddr = Cache_geom.line_addr addr in
    match lookup t laddr with
    | Some (_, ln) when Msg.state_leq Msg.S ln.st && not ln.pending ->
      Fifo.enq ctx t.resp_ld_q (tag, read_val ln addr bytes unsigned);
      Stats.incr ~ctx t.c_hit
    | _ -> (
      match find_mshr t laddr with
      | Some m when not m.filled ->
        Mut.field ctx m ~get:(fun o -> o.waiters) ~set:(fun o v -> o.waiters <- v)
          (m.waiters @ [ WLd { tag; addr; bytes; unsigned } ])
      | Some _ -> raise (Kernel.Guard_fail "mshr draining; retry")
      | None -> alloc_mshr ctx t laddr Msg.S (WLd { tag; addr; bytes; unsigned })))
  | St { tag; line = laddr } -> (
    match lookup t laddr with
    | Some (_, ln) when (not ln.pending) && Msg.state_leq Msg.E ln.st && writable ctx ln ->
      Kernel.guard ctx (not ln.locked) "line locked";
      Mut.field ctx ln ~get:(fun o -> o.locked) ~set:(fun o v -> o.locked <- v) true;
      Fifo.enq ctx t.resp_st_q tag;
      Stats.incr ~ctx t.c_hit
    | _ -> (
      match find_mshr t laddr with
      | Some m when (not m.filled) && m.want = Msg.M ->
        Mut.field ctx m ~get:(fun o -> o.waiters) ~set:(fun o v -> o.waiters <- v)
          (m.waiters @ [ WSt { tag } ])
      | Some _ -> raise (Kernel.Guard_fail "incompatible mshr; retry")
      | None -> alloc_mshr ctx t laddr Msg.M (WSt { tag })))
  | At { tag; addr; bytes; f } -> (
    let laddr = Cache_geom.line_addr addr in
    match lookup t laddr with
    | Some (_, ln) when (not ln.pending) && Msg.state_leq Msg.E ln.st && writable ctx ln ->
      Kernel.guard ctx (not ln.locked) "line locked";
      let old = read_val ln addr bytes false in
      let stv, result = f old in
      (match stv with Some v -> write_val ctx ln addr bytes v | None -> ());
      Fifo.enq ctx t.resp_at_q (tag, result);
      Stats.incr ~ctx t.c_hit
    | _ -> (
      match find_mshr t laddr with
      | Some m when (not m.filled) && m.want = Msg.M ->
        Mut.field ctx m ~get:(fun o -> o.waiters) ~set:(fun o v -> o.waiters <- v)
          (m.waiters @ [ WAt { tag; addr; bytes; f } ])
      | Some _ -> raise (Kernel.Guard_fail "incompatible mshr; retry")
      | None -> alloc_mshr ctx t laddr Msg.M (WAt { tag; addr; bytes; f })))
  | Pf { line = laddr } -> (
    match lookup t laddr with
    | Some (_, ln) when Msg.state_leq Msg.E ln.st && not ln.pending -> () (* already exclusive *)
    | _ -> (
      match find_mshr t laddr with
      | Some _ -> () (* a real request is already in flight *)
      | None ->
        (* best effort: if no way or MSHR is free, the hint is dropped *)
        ignore (Kernel.attempt ctx (fun ctx -> alloc_mshr ctx t laddr Msg.M WPf)))));
  ignore (Fifo.deq ctx t.req_q)

(* --- ready tests --------------------------------------------------------

   Peek-only, one-sided tests in front of each step ([Kernel.attempt_if]):
   false means the step would abort on the current state. *)

(* A filled MSHR drains its waiters in order and stops at the first that
   cannot go, so it makes progress exactly when its first waiter can. *)
let drain_ready t m =
  m.valid && m.filled
  &&
  let ln = t.lines.(set_of t m.mline).(m.way) in
  match m.waiters with
  | [] -> false
  | WLd _ :: _ -> Fifo.peek_can_enq t.resp_ld_q
  | WSt _ :: _ -> (not ln.locked) && Msg.state_leq Msg.E ln.st && Fifo.peek_can_enq t.resp_st_q
  | WAt _ :: _ -> (not ln.locked) && Msg.state_leq Msg.E ln.st && Fifo.peek_can_enq t.resp_at_q
  | WPf :: _ -> true

let tick t =
  (* Work only ever arrives on the three input queues or sits in a filled
     MSHR; MSHR state is mutated exclusively by this rule's own sub-steps,
     so parking on the input-queue signals cannot miss a wakeup. (A drain
     stalled on a core-held line lock keeps [m.filled] set, which keeps the
     predicate true — no parking in that state.) *)
  let can_fire () =
    Fifo.peek_size t.presp_i > 0
    || Fifo.peek_size t.preq_i > 0
    || Fifo.peek_size t.req_q > 0
    || Array.exists (fun m -> m.valid && m.filled) t.mshrs
  in
  let watches = [ Fifo.signal t.presp_i; Fifo.signal t.preq_i; Fifo.signal t.req_q ] in
  (* Declared boundary: the four child-side queues shared with the crossbar
     (this cache drives creq/cresp enq and preq/presp deq; the crossbar
     drives the opposite sides). Everything else the tick touches is
     core-private. *)
  let touches =
    [
      Fifo.enq_token t.creq_o;
      Fifo.enq_token t.cresp_o;
      Fifo.deq_token t.preq_i;
      Fifo.deq_token t.presp_i;
    ]
  in
  (* Tracked footprint: the core-side request/response queues plus the four
     crossbar-side queues. Lines, MSHRs and the rotor are raw [Mut] state
     private to this rule. *)
  let fp =
    [
      Fifo.fp_first t.req_q;
      Fifo.fp_deq t.req_q;
      Fifo.fp_can_enq t.resp_ld_q;
      Fifo.fp_enq t.resp_ld_q;
      Fifo.fp_can_enq t.resp_st_q;
      Fifo.fp_enq t.resp_st_q;
      Fifo.fp_can_enq t.resp_at_q;
      Fifo.fp_enq t.resp_at_q;
      Fifo.fp_enq t.creq_o;
      Fifo.fp_enq t.cresp_o;
      Fifo.fp_first t.preq_i;
      Fifo.fp_deq t.preq_i;
      Fifo.fp_deq t.presp_i;
    ]
  in
  (* The steps, built once: a skipped step allocates no closure. A drain
     indexes the MSHR array when run, as a snapshot restore replaces the
     MSHRs. *)
  let presp ctx = step_presp ctx t and preq ctx = step_preq ctx t and req ctx = step_req ctx t in
  let drain = Array.init (Array.length t.mshrs) (fun i ctx -> step_drain ctx t t.mshrs.(i)) in
  Rule.make ~can_fire ~watches ~touches ~fp ~vacuous:true (t.name ^ ".tick") (fun ctx ->
      ignore (Kernel.attempt_if ctx (Fifo.peek_size t.presp_i > 0) presp);
      for i = 0 to Array.length t.mshrs - 1 do
        ignore (Kernel.attempt_if ctx (drain_ready t t.mshrs.(i)) drain.(i))
      done;
      ignore
        (Kernel.attempt_if ctx (Fifo.peek_size t.preq_i > 0 && Fifo.peek_can_enq t.cresp_o) preq);
      ignore (Kernel.attempt_if ctx (Fifo.peek_size t.req_q > 0) req))

let rules t = Partition.scoped t.part (fun () -> [ tick t ])

(* --- interface methods -------------------------------------------------- *)

let req ctx t r = Fifo.enq ctx t.req_q r
let can_req ctx t = Fifo.can_enq ctx t.req_q
let resp_ld ctx t = Fifo.deq ctx t.resp_ld_q
let can_resp_ld ctx t = Fifo.can_deq ctx t.resp_ld_q
let resp_st ctx t = Fifo.deq ctx t.resp_st_q
let can_resp_st ctx t = Fifo.can_deq ctx t.resp_st_q
let resp_at ctx t = Fifo.deq ctx t.resp_at_q
let can_resp_at ctx t = Fifo.can_deq ctx t.resp_at_q

(* footprint atoms for the core rules calling the methods above; [write_data]
   mutates only raw line state and needs no atoms *)
let fp_req t = [ Fifo.fp_can_enq t.req_q; Fifo.fp_enq t.req_q ]
let fp_resp_ld t = [ Fifo.fp_can_deq t.resp_ld_q; Fifo.fp_deq t.resp_ld_q ]
let fp_resp_st t = [ Fifo.fp_can_deq t.resp_st_q; Fifo.fp_deq t.resp_st_q ]
let fp_resp_at t = [ Fifo.fp_can_deq t.resp_at_q; Fifo.fp_deq t.resp_at_q ]

(* untracked response-availability probes + signals, for core-rule can_fire *)
let resp_ld_ready t = Fifo.peek_size t.resp_ld_q > 0
let resp_st_ready t = Fifo.peek_size t.resp_st_q > 0
let resp_at_ready t = Fifo.peek_size t.resp_at_q > 0
let resp_ld_signal t = Fifo.signal t.resp_ld_q
let queued_ld_tags t = List.map fst (Fifo.peek_list t.resp_ld_q)
let resp_st_signal t = Fifo.signal t.resp_st_q
let resp_at_signal t = Fifo.signal t.resp_at_q

let write_data ctx t ~line ~data ~mask =
  match lookup t line with
  | Some (_, ln) when ln.st = Msg.M && ln.locked ->
    Kernel.log_bytes ctx ln.data 0 Cache_geom.line_bytes;
    for i = 0 to Cache_geom.line_bytes - 1 do
      if Int64.logand (Int64.shift_right_logical mask i) 1L = 1L then
        Bytes.set ln.data i (Bytes.get data i)
    done;
    Mut.field ctx ln ~get:(fun o -> o.locked) ~set:(fun o v -> o.locked <- v) false
  | _ -> failwith (t.name ^ ": write_data without locked M line")

let set_evict_hook t f = t.evict_hook <- f

let creq_out t = t.creq_o
let cresp_out t = t.cresp_o
let preq_in t = t.preq_i
let presp_in t = t.presp_i

let peek_state t addr =
  match lookup t (Cache_geom.line_addr addr) with
  | Some (_, ln) when not ln.pending -> ln.st
  | _ -> Msg.I
