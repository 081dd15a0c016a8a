open Cmd

type t = {
  n_tags : int;
  mutable active : int;
  alloc_masks : int array; (* mask under which each tag was allocated *)
}

let create ~n_tags =
  let t = { n_tags; active = 0; alloc_masks = Array.make n_tags 0 } in
  State.field ~name:"spec"
    (fun () -> (t.active, t.alloc_masks))
    (fun (active, alloc_masks) ->
      t.active <- active;
      Array.blit alloc_masks 0 t.alloc_masks 0 n_tags);
  t

let active_mask t = t.active
let can_alloc t = t.active <> (1 lsl t.n_tags) - 1

let alloc ctx t =
  Kernel.guard ctx (can_alloc t) "no free speculation tag";
  let rec find i = if t.active land (1 lsl i) = 0 then i else find (i + 1) in
  let tag = find 0 in
  Mut.set_arr ctx t.alloc_masks tag t.active;
  Mut.field ctx t ~get:(fun o -> o.active) ~set:(fun o v -> o.active <- v)
    (t.active lor (1 lsl tag));
  tag

let correct ctx t tag =
  Mut.field ctx t ~get:(fun o -> o.active) ~set:(fun o v -> o.active <- v)
    (t.active land lnot (1 lsl tag));
  (* later tags no longer depend on it *)
  for i = 0 to t.n_tags - 1 do
    if t.alloc_masks.(i) land (1 lsl tag) <> 0 then
      Mut.set_arr ctx t.alloc_masks i (t.alloc_masks.(i) land lnot (1 lsl tag))
  done

let wrong ctx t tag =
  let bit = 1 lsl tag in
  let dead = ref [ tag ] in
  for i = 0 to t.n_tags - 1 do
    if i <> tag && t.active land (1 lsl i) <> 0 && t.alloc_masks.(i) land bit <> 0 then
      dead := i :: !dead
  done;
  let dead_mask = List.fold_left (fun m i -> m lor (1 lsl i)) 0 !dead in
  Mut.field ctx t ~get:(fun o -> o.active) ~set:(fun o v -> o.active <- v)
    (t.active land lnot dead_mask);
  !dead

let mask_of tags = List.fold_left (fun m i -> m lor (1 lsl i)) 0 tags
let reset ctx t = Mut.field ctx t ~get:(fun o -> o.active) ~set:(fun o v -> o.active <- v) 0
