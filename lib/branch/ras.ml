open Cmd

type t = {
  stack : int64 array;
  mutable sp : int;
  c_over : Stats.counter option;
  c_under : Stats.counter option;
}

type snapshot = int

let create ?(entries = 8) ?stats ?(name = "ras") () =
  let mk suffix =
    Option.map (fun s -> Stats.counter s (name ^ suffix)) stats
  in
  let t = { stack = Array.make entries 0L; sp = 0; c_over = mk ".overflows"; c_under = mk ".underflows" } in
  State.field ~name
    (fun () -> (t.stack, t.sp))
    (fun (stack, sp) ->
      Array.blit stack 0 t.stack 0 entries;
      t.sp <- sp);
  t

let snapshot t = t.sp

let push ctx t v =
  let n = Array.length t.stack in
  if t.sp >= n then Option.iter (fun c -> Stats.incr ~ctx c) t.c_over;
  Mut.set_arr ctx t.stack (t.sp mod n) v;
  Mut.field ctx t ~get:(fun o -> o.sp) ~set:(fun o v -> o.sp <- v) (t.sp + 1)

let pop ctx t =
  let n = Array.length t.stack in
  if t.sp = 0 then Option.iter (fun c -> Stats.incr ~ctx c) t.c_under;
  let sp' = if t.sp > 0 then t.sp - 1 else 0 in
  Mut.field ctx t ~get:(fun o -> o.sp) ~set:(fun o v -> o.sp <- v) sp';
  t.stack.(sp' mod n)

let restore ctx t snap = Mut.field ctx t ~get:(fun o -> o.sp) ~set:(fun o v -> o.sp <- v) snap
