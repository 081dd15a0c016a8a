open Cmd

type t = {
  ring : int array;
  mutable alloc_ptr : int; (* absolute *)
  mutable free_ptr : int; (* absolute *)
  nregs : int;
}

type snapshot = int

let free_count t = t.free_ptr - t.alloc_ptr

(* Every entry in the free window is a valid physical register and no
   register appears twice — a double-free would eventually hand the same
   register to two in-flight uops. *)
let check_no_double_free t () =
  let n = free_count t in
  if n < 0 || n > t.nregs then
    Verif.Invariant.fail "freelist.no-double-free" "free count %d outside [0,%d] (alloc=%d free=%d)"
      n t.nregs t.alloc_ptr t.free_ptr;
  let seen = Array.make t.nregs false in
  for i = t.alloc_ptr to t.free_ptr - 1 do
    let r = t.ring.(i mod t.nregs) in
    if r < 0 || r >= t.nregs then
      Verif.Invariant.fail "freelist.no-double-free" "entry %d is not a register: %d" i r;
    if seen.(r) then
      Verif.Invariant.fail "freelist.no-double-free" "register %d is free twice" r;
    seen.(r) <- true
  done

let create ~nregs =
  let n_free = nregs - 32 in
  let ring = Array.make nregs (-1) in
  for i = 0 to n_free - 1 do
    ring.(i) <- 32 + i
  done;
  let t = { ring; alloc_ptr = 0; free_ptr = n_free; nregs } in
  Verif.Invariant.register ~name:"freelist.no-double-free" (check_no_double_free t);
  State.field ~name:"freelist"
    (fun () -> (t.ring, t.alloc_ptr, t.free_ptr))
    (fun (ring, alloc_ptr, free_ptr) ->
      Array.blit ring 0 t.ring 0 nregs;
      t.alloc_ptr <- alloc_ptr;
      t.free_ptr <- free_ptr);
  t

let alloc ctx t =
  Kernel.guard ctx (free_count t > 0) "free list empty";
  let r = t.ring.(t.alloc_ptr mod t.nregs) in
  Mut.field ctx t ~get:(fun o -> o.alloc_ptr) ~set:(fun o v -> o.alloc_ptr <- v) (t.alloc_ptr + 1);
  r

let free ctx t r =
  Mut.set_arr ctx t.ring (t.free_ptr mod t.nregs) r;
  Mut.field ctx t ~get:(fun o -> o.free_ptr) ~set:(fun o v -> o.free_ptr <- v) (t.free_ptr + 1)

let iter_free t f =
  for i = t.alloc_ptr to t.free_ptr - 1 do
    f t.ring.(i mod t.nregs)
  done

let snapshot t = t.alloc_ptr
let restore ctx t snap =
  Mut.field ctx t ~get:(fun o -> o.alloc_ptr) ~set:(fun o v -> o.alloc_ptr <- v) snap

let reset ctx t ~live =
  let is_live = Array.make t.nregs false in
  Array.iter (fun r -> if r >= 0 then is_live.(r) <- true) live;
  let k = ref 0 in
  for r = 0 to t.nregs - 1 do
    if not is_live.(r) then begin
      Mut.set_arr ctx t.ring !k r;
      incr k
    end
  done;
  Mut.field ctx t ~get:(fun o -> o.alloc_ptr) ~set:(fun o v -> o.alloc_ptr <- v) 0;
  Mut.field ctx t ~get:(fun o -> o.free_ptr) ~set:(fun o v -> o.free_ptr <- v) !k
