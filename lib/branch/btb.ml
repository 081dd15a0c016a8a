open Cmd

(* Parallel columns rather than an array of entry records: the valid bits
   are a byte table, and a pc or target column starts as one array of
   pointers to the shared [0L]. *)
type t = { valid : Bytes.t; epc : int64 array; target : int64 array; mask : int }

let create ?(entries = 256) () =
  let t =
    {
      valid = Bytes.make entries '\000';
      epc = Array.make entries 0L;
      target = Array.make entries 0L;
      mask = entries - 1;
    }
  in
  State.field ~name:"btb"
    (fun () -> (t.valid, t.epc, t.target))
    (fun (valid, epc, target) ->
      Bytes.blit valid 0 t.valid 0 entries;
      Array.blit epc 0 t.epc 0 entries;
      Array.blit target 0 t.target 0 entries);
  t

let idx t pc = (Int64.to_int pc lsr 2) land t.mask

let predict t pc =
  let i = idx t pc in
  if Bytes.get_uint8 t.valid i <> 0 && Int64.equal t.epc.(i) pc then Some t.target.(i) else None

let update ctx t ~pc ~target ~taken =
  let i = idx t pc in
  Mut.set_u8 ctx t.valid i (Bool.to_int taken);
  Mut.set_arr ctx t.epc i pc;
  Mut.set_arr ctx t.target i target
