(* Every write logs its old value through the kernel's typed trail, and
   skips the log (and the store) when the new value is physically the old
   one: undoing it would be a no-op. *)

let set_ref r v = r := v

let set ctx r v =
  let old = !r in
  if v != old then begin
    Kernel.log_set ctx set_ref r old;
    r := v
  end

let set_arr ctx a i v =
  let old = a.(i) in
  if v != old then begin
    Kernel.log_arr ctx a i old;
    a.(i) <- v
  end

let set_u8 ctx b i v =
  let old = Bytes.get_uint8 b i in
  if v <> old then begin
    Kernel.log_u8 ctx b i old;
    Bytes.set_uint8 b i v
  end

let[@inline] field ctx o ~get ~set v =
  let old = get o in
  if v != old then begin
    Kernel.log_field ctx set o old;
    set o v
  end

let blit ctx ~src ~src_pos ~dst ~dst_pos ~len =
  Kernel.log_bytes ctx dst dst_pos len;
  Bytes.blit src src_pos dst dst_pos len

let blit_ints ctx ~src ~dst =
  Kernel.log_ints ctx dst;
  Array.blit src 0 dst 0 (Array.length dst)

let set_int64 ctx b off v =
  Kernel.log_bytes ctx b off 8;
  Bytes.set_int64_le b off v
