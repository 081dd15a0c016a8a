open Cmd

type kind = Tournament | Gshare | Bimodal

let kind_to_string = function Tournament -> "tournament" | Gshare -> "gshare" | Bimodal -> "bimodal"

(* 2-bit counters in byte tables, written through [Mut.set_u8]. *)
type gshare_t = { gctr : Bytes.t; mutable ghist : int }
type bimodal_t = { bctr : Bytes.t }

type t =
  | T of Tournament.t
  | G of gshare_t
  | B of bimodal_t

type snapshot = ST of Tournament.snapshot | SG of int | SB

let gshare_entries = 8192
let bimodal_entries = 4096

let create = function
  | Tournament -> T (Tournament.create ())
  | Gshare ->
    let g = { gctr = Bytes.make gshare_entries '\001'; ghist = 0 } in
    State.field ~name:"gshare"
      (fun () -> (g.gctr, g.ghist))
      (fun (gctr, ghist) ->
        Bytes.blit gctr 0 g.gctr 0 gshare_entries;
        g.ghist <- ghist);
    G g
  | Bimodal ->
    let b = { bctr = Bytes.make bimodal_entries '\001' } in
    State.field ~name:"bimodal"
      (fun () -> b.bctr)
      (fun bctr -> Bytes.blit bctr 0 b.bctr 0 bimodal_entries);
    B b

let gidx g pc = ((Int64.to_int pc lsr 2) lxor g.ghist) land (gshare_entries - 1)
let bidx pc = (Int64.to_int pc lsr 2) land (bimodal_entries - 1)

let predict ctx t pc =
  match t with
  | T tr ->
    let taken, snap = Tournament.predict ctx tr pc in
    (taken, ST snap)
  | G g ->
    let taken = Bytes.get_uint8 g.gctr (gidx g pc) >= 2 in
    let snap = SG g.ghist in
    Mut.field ctx g ~get:(fun o -> o.ghist) ~set:(fun o v -> o.ghist <- v)
      (((g.ghist lsl 1) lor Bool.to_int taken) land (gshare_entries - 1));
    (taken, snap)
  | B b -> (Bytes.get_uint8 b.bctr (bidx pc) >= 2, SB)

let bump ctx tab i taken =
  let v = Bytes.get_uint8 tab i in
  Mut.set_u8 ctx tab i (if taken then min 3 (v + 1) else max 0 (v - 1))

let update ctx t ~pc ~taken ~snap =
  match t, snap with
  | T tr, ST s -> Tournament.update ctx tr ~pc ~taken ~snap:s
  | G g, SG h ->
    let i = (Int64.to_int pc lsr 2) lxor h land (gshare_entries - 1) in
    bump ctx g.gctr i taken
  | B b, SB ->
    let i = bidx pc in
    bump ctx b.bctr i taken
  | _ -> invalid_arg "Dir_pred.update: snapshot from a different predictor"

let restore ctx t ~snap ~taken =
  match t, snap with
  | T tr, ST s -> Tournament.restore ctx tr ~snap:s ~taken
  | G g, SG h ->
    Mut.field ctx g ~get:(fun o -> o.ghist) ~set:(fun o v -> o.ghist <- v)
      (((h lsl 1) lor Bool.to_int taken) land (gshare_entries - 1))
  | B _, SB -> ()
  | _ -> invalid_arg "Dir_pred.restore: snapshot from a different predictor"
