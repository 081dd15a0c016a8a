open Cmd

type line = { mutable tag : int64; mutable st : Msg.state; data : Bytes.t; mutable pending : bool }

type t = {
  name : string;
  geom : Cache_geom.t;
  fetch_width : int;
  lines : line array array;
  req_q : (int * int64) Fifo.t;
  resp_q : (int * int64 * int array) Fifo.t;
  creq_o : Msg.creq Fifo.t;
  cresp_o : Msg.cresp Fifo.t;
  preq_i : Msg.preq Fifo.t;
  presp_i : Msg.presp Fifo.t;
  child_id : int;
  part : int; (* cluster this cache was built in (its core's) *)
  (* single blocking miss *)
  mutable miss : (int * int64) option; (* waiting request: tag, pc *)
  mutable miss_way : int;
  mutable rotor : int;
  c_hit : Stats.counter;
  c_miss : Stats.counter;
}

let create ?(name = "l1i") clk ~child_id ~geom ~fetch_width ~stats () =
  let mk () = { tag = -1L; st = Msg.I; data = Bytes.make Cache_geom.line_bytes '\000'; pending = false } in
  let t =
  {
    name;
    geom;
    fetch_width;
    lines = Array.init geom.Cache_geom.sets (fun _ -> Array.init geom.Cache_geom.ways (fun _ -> mk ()));
    req_q = Fifo.cf ~name:(name ^ ".req") clk ~capacity:2 ();
    resp_q = Fifo.cf ~name:(name ^ ".resp") clk ~capacity:2 ();
    (* Crossbar-facing queues: they straddle the core/uncore boundary. *)
    creq_o = Fifo.cf ~name:(name ^ ".creq") clk ~capacity:2 ();
    cresp_o = Fifo.cf ~name:(name ^ ".cresp") clk ~capacity:4 ();
    preq_i = Fifo.cf ~name:(name ^ ".preq") clk ~capacity:4 ();
    presp_i = Fifo.cf ~name:(name ^ ".presp") clk ~capacity:2 ();
    child_id;
    part = Partition.ambient ();
    miss = None;
    miss_way = 0;
    rotor = 0;
    c_hit = Stats.counter stats (name ^ ".hits");
    c_miss = Stats.counter stats (name ^ ".misses");
  }
  in
  State.field ~name:(name ^ ".arrays")
    (fun () -> (t.lines, t.miss, t.miss_way, t.rotor))
    (fun (lines, miss, miss_way, rotor) ->
      Array.iteri (fun s ways -> Array.blit ways 0 t.lines.(s) 0 (Array.length ways)) lines;
      t.miss <- miss;
      t.miss_way <- miss_way;
      t.rotor <- rotor);
  t

let lookup t laddr =
  let ways = t.lines.(Cache_geom.index t.geom laddr) in
  let tg = Cache_geom.tag t.geom laddr in
  let rec go i =
    if i >= Array.length ways then None
    else if ways.(i).tag = tg && ways.(i).st <> Msg.I then Some ways.(i)
    else go (i + 1)
  in
  go 0

let words_from t ln pc =
  let off = Cache_geom.offset pc in
  let n = min t.fetch_width ((Cache_geom.line_bytes - off) / 4) in
  Array.init n (fun k -> Int32.to_int (Bytes.get_int32_le ln.data (off + (k * 4))) land 0xFFFFFFFF)

let respond ctx t tag pc ln =
  Fifo.enq ctx t.resp_q (tag, pc, words_from t ln pc)

let step_req ctx t =
  Kernel.guard ctx (t.miss = None) "icache busy";
  let tag, pc = Fifo.first ctx t.req_q in
  let laddr = Cache_geom.line_addr pc in
  (match lookup t laddr with
  | Some ln when not ln.pending ->
    respond ctx t tag pc ln;
    Stats.incr ~ctx t.c_hit
  | Some _ | None ->
    let set_idx = Cache_geom.index t.geom laddr in
    let ways = t.lines.(set_idx) in
    let way =
      let rec inv i = if i >= Array.length ways then None else if ways.(i).st = Msg.I then Some i else inv (i + 1) in
      match inv 0 with
      | Some i -> i
      | None ->
        let i = t.rotor mod Array.length ways in
        Mut.field ctx t ~get:(fun o -> o.rotor) ~set:(fun o v -> o.rotor <- v) (t.rotor + 1);
        (* voluntary S eviction *)
        let victim = ways.(i) in
        let vaddr =
          Int64.logor
            (Int64.shift_left victim.tag (Cache_geom.line_bits + t.geom.Cache_geom.set_bits))
            (Int64.of_int (set_idx lsl Cache_geom.line_bits))
        in
        Fifo.enq ctx t.cresp_o { Msg.child = t.child_id; line = vaddr; to_s = Msg.I; data = None };
        Mut.field ctx victim ~get:(fun o -> o.st) ~set:(fun o v -> o.st <- v) Msg.I;
        i
    in
    let ln = ways.(way) in
    Mut.field ctx ln ~get:(fun o -> o.tag) ~set:(fun o v -> o.tag <- v)
      (Cache_geom.tag t.geom laddr);
    Mut.field ctx ln ~get:(fun o -> o.pending) ~set:(fun o v -> o.pending <- v) true;
    Fifo.enq ctx t.creq_o { Msg.child = t.child_id; line = laddr; want = Msg.S };
    Mut.field ctx t ~get:(fun o -> o.miss) ~set:(fun o v -> o.miss <- v) (Some (tag, pc));
    Mut.field ctx t ~get:(fun o -> o.miss_way) ~set:(fun o v -> o.miss_way <- v) way;
    Stats.incr ~ctx t.c_miss);
  ignore (Fifo.deq ctx t.req_q)

let step_presp ctx t =
  let (g : Msg.presp) = Fifo.deq ctx t.presp_i in
  match t.miss with
  | Some (tag, pc) when Cache_geom.line_addr pc = g.Msg.line ->
    let ln = t.lines.(Cache_geom.index t.geom g.Msg.line).(t.miss_way) in
    Mut.blit ctx ~src:g.Msg.data ~src_pos:0 ~dst:ln.data ~dst_pos:0 ~len:Cache_geom.line_bytes;
    Mut.field ctx ln ~get:(fun o -> o.st) ~set:(fun o v -> o.st <- v) g.Msg.granted;
    Mut.field ctx ln ~get:(fun o -> o.pending) ~set:(fun o v -> o.pending <- v) false;
    respond ctx t tag pc ln;
    Mut.field ctx t ~get:(fun o -> o.miss) ~set:(fun o v -> o.miss <- v) None
  | _ -> failwith (t.name ^ ": grant without miss")

let step_preq ctx t =
  let (d : Msg.preq) = Fifo.first ctx t.preq_i in
  (match lookup t d.Msg.line with
  | Some ln when (not ln.pending) && not (Msg.state_leq ln.st d.Msg.to_s) ->
    Fifo.enq ctx t.cresp_o { Msg.child = t.child_id; line = d.Msg.line; to_s = d.Msg.to_s; data = None };
    Mut.field ctx ln ~get:(fun o -> o.st) ~set:(fun o v -> o.st <- v) d.Msg.to_s
  | Some _ | None ->
    Fifo.enq ctx t.cresp_o { Msg.child = t.child_id; line = d.Msg.line; to_s = Msg.I; data = None });
  ignore (Fifo.deq ctx t.preq_i)

(* --- ready tests: peek-only, one-sided (see [Kernel.attempt_if]) ------- *)

(* Whether [lookup] finds [pc]'s line resident and not pending. A loop
   over locals, so neither a closure nor a boxed tag is allocated. *)
let hits t pc =
  let laddr = Cache_geom.line_addr pc in
  let ways = t.lines.(Cache_geom.index t.geom laddr) in
  let tg = Cache_geom.tag t.geom laddr in
  let i = ref 0 and found = ref (-1) in
  while !found < 0 && !i < Array.length ways do
    if ways.(!i).tag = tg && ways.(!i).st <> Msg.I then found := !i;
    incr i
  done;
  !found >= 0 && not ways.(!found).pending

(* A request needs the miss slot free, and room for its response on a hit
   or for its line request on a miss. *)
let req_ready t =
  Option.is_none t.miss
  && Fifo.peek_size t.req_q > 0
  &&
  let _, pc = Fifo.peek_first t.req_q in
  if hits t pc then Fifo.peek_can_enq t.resp_q else Fifo.peek_can_enq t.creq_o

(* The steps' ready tests, one per step. *)
let presp_ready t = Fifo.peek_size t.presp_i > 0
let preq_ready t = Fifo.peek_size t.preq_i > 0 && Fifo.peek_can_enq t.cresp_o

let tick t =
  (* The rule's predicate is the disjunction of its steps' ready tests. It
     reads the six queues, watched, plus [t.miss] and the line array, which
     only this rule's own steps mutate, so while parked they cannot change. *)
  let can_fire () = presp_ready t || preq_ready t || req_ready t in
  let watches =
    Fifo.
      [
        signal t.presp_i; signal t.preq_i; signal t.req_q; signal t.resp_q; signal t.creq_o;
        signal t.cresp_o;
      ]
  in
  (* The steps, built once: a skipped step allocates no closure. *)
  let presp ctx = step_presp ctx t and preq ctx = step_preq ctx t and req ctx = step_req ctx t in
  Rule.make ~can_fire ~watches (t.name ^ ".tick") (fun ctx ->
      ignore (Kernel.attempt_if ctx (presp_ready t) presp);
      ignore (Kernel.attempt_if ctx (preq_ready t) preq);
      ignore (Kernel.attempt_if ctx (req_ready t) req);
      Kernel.require_effect ctx)

let rules t = Partition.scoped t.part (fun () -> [ tick t ])
let req ctx t ~tag pc = Fifo.enq ctx t.req_q (tag, pc)
let can_req ctx t = Fifo.can_enq ctx t.req_q
let resp ctx t = Fifo.deq ctx t.resp_q
let can_resp ctx t = Fifo.can_deq ctx t.resp_q
let resp_ready t = Fifo.peek_size t.resp_q > 0
let resp_tag t =
  let tag, _, _ = Fifo.peek_first t.resp_q in
  tag
let req_room t = Fifo.peek_can_enq t.req_q
let resp_signal t = Fifo.signal t.resp_q
let creq_out t = t.creq_o
let cresp_out t = t.cresp_o
let preq_in t = t.preq_i
let presp_in t = t.presp_i
