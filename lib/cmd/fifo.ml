type 'a t = {
  nm : string;
  cap : int;
  sg : Wakeup.signal; (* touched whenever occupancy may have changed *)
  enq_f : Kernel.ctx -> 'a -> unit;
  deq_f : Kernel.ctx -> 'a;
  first_f : Kernel.ctx -> 'a;
  can_enq_f : Kernel.ctx -> bool;
  can_deq_f : Kernel.ctx -> bool;
  clear_f : Kernel.ctx -> unit;
  size_f : unit -> int;
  room_f : unit -> bool;
  peek_first_f : unit -> 'a;
  list_f : unit -> 'a list;
}

(* Slots hold the value itself, not [Some v], so an enq allocates nothing.
   A free slot holds [hole], a zero-size atom: no value of a client type is
   one, and it stays physically equal across a snapshot round trip. So a
   read of a free slot — only a corrupted counter (fault injection) makes
   one — still fails cleanly. Slots are not fault-injection targets: a
   payload's representation belongs to the client (a constant constructor
   flipped out of range is undefined behaviour), and a free slot holds no
   state. *)
let hole = Obj.new_block Obj.abstract_tag 0
let free () : 'a = Obj.obj hole

let get_slot nm v =
  if Obj.repr v == hole then invalid_arg (nm ^ ": empty slot read (internal invariant broken)");
  v

let ring_list slots head count cap =
  List.init count (fun i -> get_slot "fifo" (Ehr.peek slots.((head + i) mod cap)))

let make_slots nm cap =
  Array.init cap (fun i ->
      Ehr.create ~name:(Printf.sprintf "%s.slot%d" nm i) ~inject:false (free ()))

(* Pipeline and bypass FIFOs share a ring-buffer skeleton; only the port
   assignment differs. [dp] is the port of the deq side, [ep] of the enq
   side: pipeline = (deq 0, enq 1), bypass = (enq 0, deq 1). Port 2 is
   reserved for [clear]. *)
let ring ~nm ~cap ~dp ~ep =
  let count = Ehr.create ~name:(nm ^ ".count") 0 in
  let head = Ehr.create ~name:(nm ^ ".head") 0 in
  let tail = Ehr.create ~name:(nm ^ ".tail") 0 in
  let slots = make_slots nm cap in
  let sg = Wakeup.make () in
  (* guard messages are built once: the concatenation was a per-call
     allocation on the hottest kernel operations *)
  let m_full = nm ^ " full" and m_empty = nm ^ " empty" in
  let enq_f ctx v =
    let c = Ehr.read ctx count ep in
    Kernel.guard ctx (c < cap) m_full;
    let t = Ehr.read ctx tail ep in
    Ehr.write ctx slots.(t) ep v;
    Ehr.write ctx tail ep ((t + 1) mod cap);
    Ehr.write ctx count ep (c + 1);
    Wakeup.touch sg
  in
  let first_f ctx =
    let c = Ehr.read ctx count dp in
    Kernel.guard ctx (c > 0) m_empty;
    let h = Ehr.read ctx head dp in
    get_slot nm (Ehr.read ctx slots.(h) dp)
  in
  let deq_f ctx =
    let c = Ehr.read ctx count dp in
    Kernel.guard ctx (c > 0) m_empty;
    let h = Ehr.read ctx head dp in
    let v = get_slot nm (Ehr.read ctx slots.(h) dp) in
    Ehr.write ctx slots.(h) dp (free ());
    Ehr.write ctx head dp ((h + 1) mod cap);
    Ehr.write ctx count dp (c - 1);
    Wakeup.touch sg;
    v
  in
  let can_enq_f ctx = Ehr.read ctx count ep < cap in
  let can_deq_f ctx = Ehr.read ctx count dp > 0 in
  let clear_f ctx =
    Ehr.write ctx count 2 0;
    Ehr.write ctx head 2 0;
    Ehr.write ctx tail 2 0;
    Array.iter (fun s -> Ehr.write ctx s 2 (free ())) slots;
    Wakeup.touch sg
  in
  let size_f () = Ehr.peek count in
  let room_f () = Ehr.peek count < cap in
  let peek_first_f () = get_slot nm (Ehr.peek slots.(Ehr.peek head)) in
  let list_f () = ring_list slots (Ehr.peek head) (Ehr.peek count) cap in
  { nm; cap; sg; enq_f; deq_f; first_f; can_enq_f; can_deq_f; clear_f; size_f; room_f;
    peek_first_f; list_f }

let pipeline ?name ~capacity () =
  let nm = match name with Some n -> n | None -> "pfifo" in
  ring ~nm ~cap:capacity ~dp:0 ~ep:1

let bypass ?name ~capacity () =
  let nm = match name with Some n -> n | None -> "bfifo" in
  ring ~nm ~cap:capacity ~dp:1 ~ep:0

(* Conflict-free FIFO: the enq side and the deq side touch disjoint cells;
   each side's guard compares its own (tracked) total against a cycle-start
   snapshot of the other side's, so guards are conservative by up to one
   cycle — exactly BSV's mkCFFifo. Each side is multi-ported: the k-th enq
   (or deq) of a cycle uses EHR port k, so any number of same-cycle enqs and
   deqs compose, within one rule or across rules (enq_k < enq_{k+1}). *)
let cf ?name clk ~capacity () =
  let nm = match name with Some n -> n | None -> "cffifo" in
  let cap = capacity in
  assert (cap <= 56);
  let clear_port = 60 in
  let enq_total = Ehr.create ~name:(nm ^ ".enqTotal") 0 in
  let deq_total = Ehr.create ~name:(nm ^ ".deqTotal") 0 in
  let slots = make_slots nm cap in
  let enq_snap = ref 0 (* enq_total at cycle start *)
  and deq_snap = ref 0 (* deq_total at cycle start *)
  and eport = ref 0
  and dport = ref 0 in
  let sg = Wakeup.make () in
  (* The guards compare against cycle-start snapshots, so a parked observer
     whose view depends on them must also be woken when the snapshots
     advance at the cycle boundary. *)
  let refresh_snaps () =
    let e = Ehr.peek enq_total and d = Ehr.peek deq_total in
    if e <> !enq_snap || d <> !deq_snap then Wakeup.touch sg;
    enq_snap := e;
    deq_snap := d;
    eport := 0;
    dport := 0
  in
  Clock.on_cycle_end clk refresh_snaps;
  (* The totals and slots are EHR-backed (registered there); the
     cycle-start snapshots are raw refs and need their own entry. The
     per-cycle port counters are 0 at every cycle boundary — where
     snapshots are taken — but ride along for completeness. *)
  State.field ~name:(nm ^ ".cf")
    (fun () -> (!enq_snap, !deq_snap, !eport, !dport))
    (fun (e, d, ep, dp) ->
      enq_snap := e;
      deq_snap := d;
      eport := ep;
      dport := dp);
  let bump ctx r =
    let old = !r in
    Mut.set ctx r (old + 1);
    old
  in
  let m_full = nm ^ " full" and m_empty = nm ^ " empty" in
  let enq_f ctx v =
    let t = Ehr.read ctx enq_total !eport in
    Kernel.guard ctx (t - !deq_snap < cap) m_full;
    let p = bump ctx eport in
    Ehr.write ctx slots.(t mod cap) p v;
    Ehr.write ctx enq_total p (t + 1);
    Wakeup.touch sg
  in
  let first_f ctx =
    let h = Ehr.read ctx deq_total !dport in
    Kernel.guard ctx (h < !enq_snap) m_empty;
    get_slot nm (Ehr.read ctx slots.(h mod cap) !dport)
  in
  let deq_f ctx =
    let h = Ehr.read ctx deq_total !dport in
    Kernel.guard ctx (h < !enq_snap) m_empty;
    let p = bump ctx dport in
    let v = get_slot nm (Ehr.read ctx slots.(h mod cap) p) in
    Ehr.write ctx slots.(h mod cap) p (free ());
    Ehr.write ctx deq_total p (h + 1);
    Wakeup.touch sg;
    v
  in
  let can_enq_f ctx = Ehr.read ctx enq_total !eport - !deq_snap < cap in
  let can_deq_f ctx = Ehr.read ctx deq_total !dport < !enq_snap in
  let clear_f ctx =
    Ehr.write ctx enq_total clear_port 0;
    Ehr.write ctx deq_total clear_port 0;
    Array.iter (fun s -> Ehr.write ctx s clear_port (free ())) slots;
    (* the snapshots must not keep stale occupancy across the flush cycle *)
    Mut.set ctx enq_snap 0;
    Mut.set ctx deq_snap 0;
    Wakeup.touch sg
  in
  let size_f () = Ehr.peek enq_total - Ehr.peek deq_total in
  (* the enq guard's own comparison: a deq made earlier in this cycle does
     not free a slot for the enq side until the snapshot advances *)
  let room_f () = Ehr.peek enq_total - !deq_snap < cap in
  let peek_first_f () = get_slot nm (Ehr.peek slots.(Ehr.peek deq_total mod cap)) in
  let list_f () =
    let h = Ehr.peek deq_total and n = Ehr.peek enq_total - Ehr.peek deq_total in
    List.init n (fun i -> get_slot nm (Ehr.peek slots.((h + i) mod cap)))
  in
  { nm; cap; sg; enq_f; deq_f; first_f; can_enq_f; can_deq_f; clear_f; size_f; room_f;
    peek_first_f; list_f }

let enq ctx t v = t.enq_f ctx v
let deq ctx t = t.deq_f ctx
let first ctx t = t.first_f ctx
let can_enq ctx t = t.can_enq_f ctx
let can_deq ctx t = t.can_deq_f ctx
let clear ctx t = t.clear_f ctx
let capacity t = t.cap
let name t = t.nm
let signal t = t.sg
let peek_size t = t.size_f ()
let peek_first t = t.peek_first_f ()
let peek_can_enq t = t.room_f ()
let peek_list t = t.list_f ()
