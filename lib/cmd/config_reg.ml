type 'a t = {
  wcell : Kernel.cell; (* write/write conflicts only; reads are untracked *)
  mutable cur : 'a;
  mutable nxt : 'a option;
}

let create ?name clk init =
  let nm = match name with Some n -> n ^ ".w" | None -> "configreg.w" in
  let t = { wcell = Kernel.make_cell nm; cur = init; nxt = None } in
  Clock.on_cycle_end clk (fun () ->
      (match t.nxt with Some v -> t.cur <- v | None -> ());
      t.nxt <- None);
  State.field ~name:(match name with Some n -> n | None -> "configreg")
    (fun () -> (t.cur, t.nxt))
    (fun (cur, nxt) ->
      t.cur <- cur;
      t.nxt <- nxt);
  t

let read _ctx t = t.cur

let write ctx t v =
  Kernel.record_write ctx t.wcell 0;
  Mut.field ctx t ~get:(fun t -> t.nxt) ~set:(fun t v -> t.nxt <- v) (Some v)

let peek t = match t.nxt with Some v -> v | None -> t.cur
let poke t v = t.cur <- v
