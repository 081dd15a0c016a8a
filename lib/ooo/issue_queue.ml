open Cmd

type entry = { mutable used : bool; mutable u : Uop.t option; mutable rdy1 : bool; mutable rdy2 : bool }

type t = { nm : string; m_full : string; entries : entry array; mutable n : int }

let create ~name ~size =
  let t =
    { nm = name; m_full = name ^ " full";
      entries = Array.init size (fun _ -> { used = false; u = None; rdy1 = true; rdy2 = true }); n = 0 }
  in
  State.field ~name
    (fun () -> (t.entries, t.n))
    (fun (entries, n) ->
      Array.blit entries 0 t.entries 0 size;
      t.n <- n);
  t

let name t = t.nm
let count t = t.n
let can_enter t = t.n < Array.length t.entries
let set_n ctx t v = Mut.field ctx t ~get:(fun o -> o.n) ~set:(fun o v -> o.n <- v) v

let free_entry ctx e =
  Mut.field ctx e ~get:(fun o -> o.used) ~set:(fun o v -> o.used <- v) false;
  Mut.field ctx e ~get:(fun o -> o.u) ~set:(fun o v -> o.u <- v) None

let enter ctx t u ~rdy1 ~rdy2 =
  Kernel.guard ctx (can_enter t) t.m_full;
  let rec find i = if t.entries.(i).used then find (i + 1) else t.entries.(i) in
  let e = find 0 in
  Mut.field ctx e ~get:(fun o -> o.used) ~set:(fun o v -> o.used <- v) true;
  Mut.field ctx e ~get:(fun o -> o.u) ~set:(fun o v -> o.u <- v) (Some u);
  Mut.field ctx e ~get:(fun o -> o.rdy1) ~set:(fun o v -> o.rdy1 <- v) rdy1;
  Mut.field ctx e ~get:(fun o -> o.rdy2) ~set:(fun o v -> o.rdy2 <- v) rdy2;
  set_n ctx t (t.n + 1)

let wakeup ctx t preg =
  Array.iter
    (fun e ->
      match e.u with
      | Some u when e.used ->
        if (not e.rdy1) && u.Uop.prs1 = preg then
          Mut.field ctx e ~get:(fun o -> o.rdy1) ~set:(fun o v -> o.rdy1 <- v) true;
        if (not e.rdy2) && u.Uop.prs2 = preg then
          Mut.field ctx e ~get:(fun o -> o.rdy2) ~set:(fun o v -> o.rdy2 <- v) true
      | _ -> ())
    t.entries

let has_ready t =
  Array.exists
    (fun e ->
      match e.u with
      | Some u -> e.used && e.rdy1 && e.rdy2 && not u.Uop.killed
      | None -> false)
    t.entries

let issue ctx t =
  let best = ref None in
  Array.iter
    (fun e ->
      match e.u with
      | Some u when e.used && e.rdy1 && e.rdy2 && not u.Uop.killed -> (
        match !best with
        | Some (_, bu) when bu.Uop.seq <= u.Uop.seq -> ()
        | _ -> best := Some (e, u))
      | _ -> ())
    t.entries;
  match !best with
  | None -> raise (Kernel.Guard_fail (t.nm ^ ": nothing ready"))
  | Some (e, u) ->
    free_entry ctx e;
    set_n ctx t (t.n - 1);
    u

let squash ctx t =
  let removed = ref 0 in
  Array.iter
    (fun e ->
      match e.u with
      | Some u when e.used && u.Uop.killed ->
        free_entry ctx e;
        incr removed
      | _ -> ())
    t.entries;
  if !removed > 0 then set_n ctx t (t.n - !removed)
