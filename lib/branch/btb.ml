open Cmd

type entry = { mutable valid : bool; mutable epc : int64; mutable target : int64 }

type t = { entries : entry array; mask : int }

let create ?(entries = 256) () =
  let t =
    { entries = Array.init entries (fun _ -> { valid = false; epc = 0L; target = 0L }); mask = entries - 1 }
  in
  State.field ~name:"btb"
    (fun () -> t.entries)
    (fun entries -> Array.blit entries 0 t.entries 0 (Array.length t.entries));
  t

let idx t pc = (Int64.to_int pc lsr 2) land t.mask

let predict t pc =
  let e = t.entries.(idx t pc) in
  if e.valid && e.epc = pc then Some e.target else None

let update ctx t ~pc ~target ~taken =
  let e = t.entries.(idx t pc) in
  Mut.field ctx e ~get:(fun o -> o.valid) ~set:(fun o v -> o.valid <- v) taken;
  Mut.field ctx e ~get:(fun o -> o.epc) ~set:(fun o v -> o.epc <- v) pc;
  Mut.field ctx e ~get:(fun o -> o.target) ~set:(fun o v -> o.target <- v) target
