open Cmd

type t = {
  clk : Clock.t;
  pmem : Isa.Phys_mem.t;
  latency : int;
  pending : (int * int64 * Bytes.t) Fifo.t; (* ready_cycle, line, data *)
  mutable n_reads : int;
  mutable n_writes : int;
}

let create ?(name = "dram") clk pmem ~latency ~max_inflight =
  let t =
    {
      clk;
      pmem;
      latency;
      pending = Fifo.cf ~name:(name ^ ".pending") clk ~capacity:max_inflight ();
      n_reads = 0;
      n_writes = 0;
    }
  in
  State.field ~name
    (fun () -> (t.n_reads, t.n_writes))
    (fun (n_reads, n_writes) ->
      t.n_reads <- n_reads;
      t.n_writes <- n_writes);
  t

let req_read ctx t line =
  let data = Isa.Phys_mem.load_block t.pmem line Cache_geom.line_bytes in
  Fifo.enq ctx t.pending (Clock.now t.clk + t.latency, line, data);
  Mut.field ctx t ~get:(fun o -> o.n_reads) ~set:(fun o v -> o.n_reads <- v) (t.n_reads + 1)

let req_write ctx t line data =
  (* Applied immediately: the L2 serializes traffic per line, so ordering
     relative to subsequent reads of the same line is already enforced. *)
  let old = Isa.Phys_mem.load_block t.pmem line Cache_geom.line_bytes in
  Kernel.on_abort ctx (fun () -> Isa.Phys_mem.store_block t.pmem line old);
  Isa.Phys_mem.store_block t.pmem line (Bytes.copy data);
  Mut.field ctx t ~get:(fun o -> o.n_writes) ~set:(fun o v -> o.n_writes <- v) (t.n_writes + 1)

let can_resp ctx t =
  Fifo.can_deq ctx t.pending
  &&
  let ready, _, _ = Fifo.first ctx t.pending in
  ready <= Clock.now t.clk

let resp ctx t =
  Kernel.guard ctx (can_resp ctx t) "dram: no response ready";
  let _, line, data = Fifo.deq ctx t.pending in
  (line, data)


let busy t = Fifo.peek_size t.pending > 0

let resp_ready t =
  busy t
  &&
  let ready, _, _ = Fifo.peek_first t.pending in
  ready <= Clock.now t.clk
let reads t = t.n_reads
let writes t = t.n_writes
