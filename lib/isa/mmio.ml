(* Device state is sharded per hart so commit rules running on different
   simulation domains never touch a shared buffer: each hart appends console
   bytes to its own buffer and records its own exit code. [console] reports
   the concatenation in hart order, which is also what the previous shared
   buffer produced for the deterministic serial schedule (harts drain in
   schedule order within a cycle). A hart's buffer is made at its first
   console byte. *)

let max_harts = 64

type t = { bufs : Buffer.t option array; exits : int64 option array }

let create () = { bufs = Array.make max_harts None; exits = Array.make max_harts None }

let buf t hart =
  match t.bufs.(hart) with
  | Some b -> b
  | None ->
    let b = Buffer.create 16 in
    t.bufs.(hart) <- Some b;
    b

let store t ~hart addr v =
  if addr = Addr_map.mmio_console then begin
    Buffer.add_char (buf t hart) (Char.chr (Int64.to_int v land 0xFF));
    true
  end
  else if addr = Addr_map.mmio_exit then begin
    if t.exits.(hart) = None then t.exits.(hart) <- Some v;
    true
  end
  else Addr_map.is_mmio addr

let load _t ~hart:_ _addr = 0L
let exit_code t ~hart = t.exits.(hart)

(* Snapshot support for the machine state registry. *)
type image = string array * int64 option array

let export t : image =
  (Array.map (function Some b -> Buffer.contents b | None -> "") t.bufs, Array.copy t.exits)

let import t ((bufs, exits) : image) =
  Array.iteri
    (fun i s ->
      match t.bufs.(i) with
      | Some b ->
        Buffer.clear b;
        Buffer.add_string b s
      | None -> if s <> "" then Buffer.add_string (buf t i) s)
    bufs;
  Array.blit exits 0 t.exits 0 (Array.length exits)

let console t =
  let b = Buffer.create 256 in
  Array.iter (Option.iter (Buffer.add_buffer b)) t.bufs;
  Buffer.contents b
