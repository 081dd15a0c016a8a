open Cmd

type 'a t = {
  slot : 'a option Ehr.t;
  dead : 'a -> bool;
  nm : string;
  m_occupied : string; (* guard messages precomputed: stages sit on the *)
  m_empty : string; (* hottest per-cycle paths *)
}

let create ~name ~dead =
  { slot = Ehr.create ~name None; dead; nm = name;
    m_occupied = name ^ " occupied"; m_empty = name ^ " empty" }

(* ports: take/peek 0, put 1, squash 2 *)

let drop_if_dead ctx t port =
  match Ehr.read ctx t.slot port with
  | Some v when t.dead v ->
    Ehr.write ctx t.slot port None;
    None
  | x -> x

let put ctx t v =
  Kernel.guard ctx (Ehr.read ctx t.slot 1 = None) t.m_occupied;
  Ehr.write ctx t.slot 1 (Some v)

let can_put ctx t = Ehr.read ctx t.slot 1 = None

let peek ctx t =
  match drop_if_dead ctx t 0 with
  | Some v -> v
  | None -> raise (Kernel.Guard_fail t.m_empty)

let take ctx t =
  match drop_if_dead ctx t 0 with
  | Some v ->
    Ehr.write ctx t.slot 0 None;
    v
  | None -> raise (Kernel.Guard_fail t.m_empty)

let squash ctx t =
  match Ehr.read ctx t.slot 2 with
  | Some v when t.dead v -> Ehr.write ctx t.slot 2 None
  | _ -> ()

let peek_opt t = Ehr.peek t.slot
let occupied t = Ehr.peek t.slot <> None
let signal t = Ehr.signal t.slot

