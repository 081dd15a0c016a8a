open Cmd

(* Flat int columns per level, as in [Tlb_sys]: entry [k] of a level maps
   prefix [prefix.(k)] ([-1] when free) to the table at [base.(k)] pages,
   i.e. byte address [base.(k) lsl 12]. A prefix is an address shifted
   right by at least 21 and a table base is page-aligned, so both fit an
   OCaml int exactly. *)
type t = { prefix : int array array; base : int array array; mutable rotor : int }

(* level 0: entries giving the level-1 table (keyed by vpn2);
   level 1: entries giving the level-0 table (keyed by vpn2:vpn1). *)
let create ~entries_per_level =
  let col z = Array.init 2 (fun _ -> Array.make entries_per_level z) in
  let t = { prefix = col (-1); base = col 0; rotor = 0 } in
  State.field ~name:"walkcache"
    (fun () -> (t.prefix, t.base, t.rotor))
    (fun (prefix, base, rotor) ->
      Array.iteri (fun d arr -> Array.blit arr 0 t.prefix.(d) 0 (Array.length arr)) prefix;
      Array.iteri (fun d arr -> Array.blit arr 0 t.base.(d) 0 (Array.length arr)) base;
      t.rotor <- rotor);
  t

let prefix_of va depth =
  (* depth 1: vpn2; depth 2: vpn2:vpn1 *)
  Int64.to_int (Int64.shift_right_logical va (12 + (9 * (3 - depth))))

(* The highest entry holding [p], or -1. *)
let rec find prefixes p i =
  if i < 0 then -1 else if Array.unsafe_get prefixes i = p then i else find prefixes p (i - 1)

let find_at t depth p =
  let prefixes = t.prefix.(depth - 1) in
  find prefixes p (Array.length prefixes - 1)

let base_at t depth k = Int64.shift_left (Int64.of_int t.base.(depth - 1).(k)) 12

let lookup t ~root va =
  let k = find_at t 2 (prefix_of va 2) in
  if k >= 0 then (0, base_at t 2 k) (* can read the leaf PTE directly *)
  else
    let k = find_at t 1 (prefix_of va 1) in
    if k >= 0 then (1, base_at t 1 k) else (2, root)

let insert ctx t va ~level ~base =
  (* [level] is the table level [base] addresses: 1 or 0. *)
  let depth = 2 - level in
  if depth >= 1 && depth <= 2 then begin
    let p = prefix_of va depth in
    if find_at t depth p < 0 then begin
      let prefixes = t.prefix.(depth - 1) in
      let k = t.rotor mod Array.length prefixes in
      Mut.field ctx t ~get:(fun o -> o.rotor) ~set:(fun o v -> o.rotor <- v) (t.rotor + 1);
      Mut.set_arr ctx prefixes k p;
      Mut.set_arr ctx t.base.(depth - 1) k (Int64.to_int (Int64.shift_right_logical base 12))
    end
  end

let flush t = Array.iter (fun arr -> Array.fill arr 0 (Array.length arr) (-1)) t.prefix
