let page_bits = 12
let page_size = 1 lsl page_bits

(* Two-level radix over the page index (no hashing): a fixed root of 2^16
   slots, each pointing at a leaf of 2^12 page slots — covering physical
   addresses up to 2^40 (1 TiB). Lookups on the hot load/store path are two
   array indexes instead of a hash + probe; a missing page is allocated
   zero-filled on first touch. A memory belongs to one machine, which runs
   on one domain. *)
let leaf_bits = 12
let leaf_size = 1 lsl leaf_bits
let root_bits = 16
let root_size = 1 lsl root_bits

type t = { root : Bytes.t option array option array }

let create () = { root = Array.make root_size None }

let bad_addr idx =
  invalid_arg (Printf.sprintf "Phys_mem: address out of range (page %#x)" idx)

let alloc_slow t hi lo =
  let leaf =
    match Array.unsafe_get t.root hi with
    | Some l -> l
    | None ->
      let l = Array.make leaf_size None in
      Array.unsafe_set t.root hi (Some l);
      l
  in
  match Array.unsafe_get leaf lo with
  | Some p -> p
  | None ->
    let p = Bytes.make page_size '\000' in
    Array.unsafe_set leaf lo (Some p);
    p

let page t idx =
  if idx lsr (root_bits + leaf_bits) <> 0 then bad_addr idx;
  let hi = idx lsr leaf_bits in
  let lo = idx land (leaf_size - 1) in
  match Array.unsafe_get t.root hi with
  | Some leaf -> (
    match Array.unsafe_get leaf lo with
    | Some p -> p
    | None -> alloc_slow t hi lo)
  | None -> alloc_slow t hi lo

let load_byte t addr =
  let addr = Int64.to_int addr in
  let p = page t (addr lsr page_bits) in
  Char.code (Bytes.unsafe_get p (addr land (page_size - 1)))

let store_byte t addr v =
  let addr = Int64.to_int addr in
  let p = page t (addr lsr page_bits) in
  Bytes.unsafe_set p (addr land (page_size - 1)) (Char.unsafe_chr (v land 0xFF))

let load t ~bytes addr =
  let a = Int64.to_int addr in
  let off = a land (page_size - 1) in
  if off + bytes <= page_size then begin
    let p = page t (a lsr page_bits) in
    match bytes with
    | 1 -> Int64.of_int (Char.code (Bytes.unsafe_get p off))
    | 2 -> Int64.of_int (Bytes.get_uint16_le p off)
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le p off)) 0xFFFFFFFFL
    | 8 -> Bytes.get_int64_le p off
    | _ -> invalid_arg "Phys_mem.load: bad width"
  end
  else begin
    (* page-straddling slow path *)
    let v = ref 0L in
    for i = bytes - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (load_byte t (Int64.add addr (Int64.of_int i))))
    done;
    !v
  end

let store t ~bytes addr v =
  let a = Int64.to_int addr in
  let off = a land (page_size - 1) in
  if off + bytes <= page_size then begin
    let p = page t (a lsr page_bits) in
    match bytes with
    | 1 -> Bytes.unsafe_set p off (Char.unsafe_chr (Int64.to_int v land 0xFF))
    | 2 -> Bytes.set_uint16_le p off (Int64.to_int v land 0xFFFF)
    | 4 -> Bytes.set_int32_le p off (Int64.to_int32 v)
    | 8 -> Bytes.set_int64_le p off v
    | _ -> invalid_arg "Phys_mem.store: bad width"
  end
  else
    for i = 0 to bytes - 1 do
      store_byte t (Int64.add addr (Int64.of_int i)) (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done

let load_block t addr n =
  let b = Bytes.create n in
  for i = 0 to (n / 8) - 1 do
    Bytes.set_int64_le b (i * 8) (load t ~bytes:8 (Int64.add addr (Int64.of_int (i * 8))))
  done;
  b

let store_block t addr b =
  for i = 0 to (Bytes.length b / 8) - 1 do
    store t ~bytes:8 (Int64.add addr (Int64.of_int (i * 8))) (Bytes.get_int64_le b (i * 8))
  done

(* Iterate allocated pages in index order (the radix is sorted by
   construction). Only used off the hot path: diagnostics and snapshots. *)
let iter_pages t f =
  for hi = 0 to root_size - 1 do
    match Array.unsafe_get t.root hi with
    | None -> ()
    | Some leaf ->
      for lo = 0 to leaf_size - 1 do
        match Array.unsafe_get leaf lo with
        | None -> ()
        | Some p -> f ((hi lsl leaf_bits) lor lo) p
      done
  done

let pages_touched t =
  let n = ref 0 in
  iter_pages t (fun _ _ -> incr n);
  !n

(* Snapshot support for the machine state registry (this library does not
   depend on the CMD kernel, so the registry hands these plain values
   around). Pages come out index-sorted, so two exports of equal memories
   are structurally equal regardless of allocation history. *)
type image = (int * Bytes.t) array

let export t : image =
  let l = ref [] in
  iter_pages t (fun idx p -> l := (idx, Bytes.copy p) :: !l);
  let a = Array.of_list !l in
  Array.sort (fun (a, _) (b, _) -> compare (a : int) b) a;
  a

let set_page t idx p =
  if idx lsr (root_bits + leaf_bits) <> 0 then bad_addr idx;
  let hi = idx lsr leaf_bits in
  let lo = idx land (leaf_size - 1) in
  let leaf =
    match Array.unsafe_get t.root hi with
    | Some l -> l
    | None ->
      let l = Array.make leaf_size None in
      Array.unsafe_set t.root hi (Some l);
      l
  in
  Array.unsafe_set leaf lo (Some p)

let import t (img : image) =
  Array.fill t.root 0 root_size None;
  Array.iter (fun (k, v) -> set_page t k (Bytes.copy v)) img

let copy t =
  let c = create () in
  iter_pages t (fun idx p -> set_page c idx (Bytes.copy p));
  c
