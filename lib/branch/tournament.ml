open Cmd

let local_hist_bits = 10
let local_entries = 1024
let global_entries = 4096

(* The counter tables are byte tables: they hold no pointers, and their
   tracked writes ([Mut.set_u8]) allocate nothing. *)
type t = {
  local_hist : int array; (* per-pc history registers *)
  local_ctr : Bytes.t; (* 3-bit counters indexed by local history *)
  global_ctr : Bytes.t; (* 2-bit counters indexed by global history *)
  choice_ctr : Bytes.t; (* 2-bit: >=2 -> use global *)
  mutable ghist : int;
}

type snapshot = { sghist : int; used_global : bool; pred : bool }

let create () =
  let t =
    {
      local_hist = Array.make local_entries 0;
      local_ctr = Bytes.make (1 lsl local_hist_bits) '\003';
      global_ctr = Bytes.make global_entries '\001';
      choice_ctr = Bytes.make global_entries '\001';
      ghist = 0;
    }
  in
  State.field ~name:"tournament"
    (fun () -> (t.local_hist, t.local_ctr, t.global_ctr, t.choice_ctr, t.ghist))
    (fun (local_hist, local_ctr, global_ctr, choice_ctr, ghist) ->
      Array.blit local_hist 0 t.local_hist 0 (Array.length t.local_hist);
      Bytes.blit local_ctr 0 t.local_ctr 0 (Bytes.length t.local_ctr);
      Bytes.blit global_ctr 0 t.global_ctr 0 (Bytes.length t.global_ctr);
      Bytes.blit choice_ctr 0 t.choice_ctr 0 (Bytes.length t.choice_ctr);
      t.ghist <- ghist);
  t

let li _t pc = (Int64.to_int pc lsr 2) land (local_entries - 1)
let gmask = global_entries - 1

let predict ctx t pc =
  let lh = t.local_hist.(li t pc) in
  let local_taken = Bytes.get_uint8 t.local_ctr lh >= 4 in
  let gi = t.ghist land gmask in
  let global_taken = Bytes.get_uint8 t.global_ctr gi >= 2 in
  let use_global = Bytes.get_uint8 t.choice_ctr gi >= 2 in
  let pred = if use_global then global_taken else local_taken in
  let snap = { sghist = t.ghist; used_global = use_global; pred } in
  (* speculative global history update *)
  Mut.field ctx t ~get:(fun o -> o.ghist) ~set:(fun o v -> o.ghist <- v)
    (((t.ghist lsl 1) lor Bool.to_int pred) land gmask);
  (pred, snap)

let bump ctx tab i taken max =
  let v = Bytes.get_uint8 tab i in
  Mut.set_u8 ctx tab i (if taken then min max (v + 1) else Stdlib.max 0 (v - 1))

let update ctx t ~pc ~taken ~snap =
  let l = li t pc in
  let lh = t.local_hist.(l) in
  let gi = snap.sghist land gmask in
  let local_said = Bytes.get_uint8 t.local_ctr lh >= 4 in
  let global_said = Bytes.get_uint8 t.global_ctr gi >= 2 in
  (* train both predictors *)
  bump ctx t.local_ctr lh taken 7;
  bump ctx t.global_ctr gi taken 3;
  (* train chooser towards whichever component was right, if they disagreed *)
  if local_said <> global_said then bump ctx t.choice_ctr gi (global_said = taken) 3;
  (* local history is updated at retirement *)
  Mut.set_arr ctx t.local_hist l (((lh lsl 1) lor Bool.to_int taken) land ((1 lsl local_hist_bits) - 1))

let restore ctx t ~snap ~taken =
  Mut.field ctx t ~get:(fun o -> o.ghist) ~set:(fun o v -> o.ghist <- v)
    (((snap.sghist lsl 1) lor Bool.to_int taken) land gmask)
