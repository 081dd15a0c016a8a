open Cmd

type t = { rat : int array; rrat_a : int array; snaps : int array array }

let initial () =
  (* x0 maps to the constant-zero pseudo register -1; x1..x31 to p1..p31 *)
  Array.init 32 (fun i -> if i = 0 then -1 else i)

let create ~n_tags =
  let t =
    { rat = initial (); rrat_a = initial (); snaps = Array.init n_tags (fun _ -> Array.make 32 (-1)) }
  in
  State.field ~name:"rat"
    (fun () -> (t.rat, t.rrat_a, t.snaps))
    (fun (rat, rrat_a, snaps) ->
      Array.blit rat 0 t.rat 0 32;
      Array.blit rrat_a 0 t.rrat_a 0 32;
      Array.iteri (fun i s -> Array.blit s 0 t.snaps.(i) 0 32) snaps);
  t

let lookup t r = t.rat.(r)
let set ctx t r p = if r <> 0 then Mut.set_arr ctx t.rat r p

(* Whole-table copies log one bulk entry each, not 32 element writes. *)
let snapshot ctx t ~tag = Mut.blit_ints ctx ~src:t.rat ~dst:t.snaps.(tag)
let restore ctx t ~tag = Mut.blit_ints ctx ~src:t.snaps.(tag) ~dst:t.rat

let rrat_set ctx t r p = if r <> 0 then Mut.set_arr ctx t.rrat_a r p
let rrat t = t.rrat_a

let restore_from_rrat ctx t = Mut.blit_ints ctx ~src:t.rrat_a ~dst:t.rat
