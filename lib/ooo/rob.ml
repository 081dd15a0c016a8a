open Cmd

type t = { slots : Uop.t option array; mutable head : int; mutable tail : int; size : int }

let count t = t.tail - t.head

(* Commit order is age order: absolute head/tail stay a well-formed window
   and the occupied slots' global sequence numbers are strictly increasing
   from head to tail. A flipped pointer or swapped slot breaks this. *)
let check_age_order t () =
  let c = count t in
  if c < 0 || c > t.size then
    Verif.Invariant.fail "rob.age-order" "count %d outside [0,%d] (head=%d tail=%d)" c t.size
      t.head t.tail;
  let last = ref min_int in
  for i = t.head to t.tail - 1 do
    match t.slots.(i mod t.size) with
    | Some u ->
      if u.Uop.seq <= !last then
        Verif.Invariant.fail "rob.age-order" "slot %d seq %d not younger than predecessor seq %d"
          i u.Uop.seq !last;
      last := u.Uop.seq
    | None -> ()
  done

let create ~size =
  let t = { slots = Array.make size None; head = 0; tail = 0; size } in
  Verif.Invariant.register ~name:"rob.age-order" (check_age_order t);
  State.field ~name:"rob"
    (fun () -> (t.slots, t.head, t.tail))
    (fun (slots, head, tail) ->
      Array.blit slots 0 t.slots 0 size;
      t.head <- head;
      t.tail <- tail);
  t
let can_enq t = count t < t.size

let enq ctx t u =
  Kernel.guard ctx (can_enq t) "rob full";
  let idx = t.tail in
  Mut.set_arr ctx t.slots (idx mod t.size) (Some u);
  Mut.field ctx t ~get:(fun o -> o.tail) ~set:(fun o v -> o.tail <- v) (t.tail + 1);
  idx

let next_idx t = t.tail
let head t = if count t > 0 then t.slots.(t.head mod t.size) else None
let peek t k = if count t > k then t.slots.((t.head + k) mod t.size) else None

let deq ctx t =
  Kernel.guard ctx (count t > 0) "rob empty";
  Mut.set_arr ctx t.slots (t.head mod t.size) None;
  Mut.field ctx t ~get:(fun o -> o.head) ~set:(fun o v -> o.head <- v) (t.head + 1)

let truncate_after ctx t rob_idx =
  let killed = ref [] in
  for i = t.tail - 1 downto rob_idx + 1 do
    match t.slots.(i mod t.size) with
    | Some u ->
      Uop.mk_set_killed ctx u true;
      killed := u :: !killed;
      Mut.set_arr ctx t.slots (i mod t.size) None
    | None -> ()
  done;
  Mut.field ctx t ~get:(fun o -> o.tail) ~set:(fun o v -> o.tail <- v) (max (rob_idx + 1) t.head);
  !killed

let iter_live t f =
  for i = t.head to t.tail - 1 do
    match t.slots.(i mod t.size) with Some u -> f u | None -> ()
  done

let flush ctx t =
  for i = t.head to t.tail - 1 do
    match t.slots.(i mod t.size) with
    | Some u ->
      Uop.mk_set_killed ctx u true;
      Mut.set_arr ctx t.slots (i mod t.size) None
    | None -> ()
  done;
  Mut.field ctx t ~get:(fun o -> o.tail) ~set:(fun o v -> o.tail <- v) t.head
