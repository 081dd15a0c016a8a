open Cmd

type entry = { mutable valid : bool; mutable prefix : int64; mutable base : int64 }

type t = { levels : entry array array; mutable rotor : int }

(* levels.(0): entries giving the level-1 table (keyed by vpn2);
   levels.(1): entries giving the level-0 table (keyed by vpn2:vpn1). *)
let create ~entries_per_level =
  let t =
    {
      levels =
        Array.init 2 (fun _ ->
            Array.init entries_per_level (fun _ -> { valid = false; prefix = 0L; base = 0L }));
      rotor = 0;
    }
  in
  State.field ~name:"walkcache"
    (fun () -> (t.levels, t.rotor))
    (fun (levels, rotor) ->
      Array.iteri (fun d arr -> Array.blit arr 0 t.levels.(d) 0 (Array.length arr)) levels;
      t.rotor <- rotor);
  t

let prefix_of va depth =
  (* depth 1: vpn2; depth 2: vpn2:vpn1 *)
  Int64.shift_right_logical va (12 + (9 * (3 - depth)))

let lookup t ~root va =
  let find depth =
    let p = prefix_of va depth in
    Array.fold_left
      (fun acc e -> if e.valid && e.prefix = p then Some e.base else acc)
      None
      t.levels.(depth - 1)
  in
  match find 2 with
  | Some base -> (0, base) (* can read the leaf PTE directly *)
  | None -> (
    match find 1 with
    | Some base -> (1, base)
    | None -> (2, root))

let insert ctx t va ~level ~base =
  (* [level] is the table level [base] addresses: 1 or 0. *)
  let depth = 2 - level in
  if depth >= 1 && depth <= 2 then begin
    let arr = t.levels.(depth - 1) in
    let p = prefix_of va depth in
    if not (Array.exists (fun e -> e.valid && e.prefix = p) arr) then begin
      let slot = arr.(t.rotor mod Array.length arr) in
      Mut.field ctx t ~get:(fun o -> o.rotor) ~set:(fun o v -> o.rotor <- v) (t.rotor + 1);
      Mut.field ctx slot ~get:(fun o -> o.valid) ~set:(fun o v -> o.valid <- v) true;
      Mut.field ctx slot ~get:(fun o -> o.prefix) ~set:(fun o v -> o.prefix <- v) p;
      Mut.field ctx slot ~get:(fun o -> o.base) ~set:(fun o v -> o.base <- v) base
    end
  end

let flush t = Array.iter (fun arr -> Array.iter (fun e -> e.valid <- false) arr) t.levels
