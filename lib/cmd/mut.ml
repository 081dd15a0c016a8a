let set ctx r v =
  let old = !r in
  Kernel.on_abort ctx (fun () -> r := old);
  r := v

let set_arr ctx a i v =
  let old = a.(i) in
  Kernel.on_abort ctx (fun () -> a.(i) <- old);
  a.(i) <- v

let field ctx ~get ~set v =
  let old = get () in
  Kernel.on_abort ctx (fun () -> set old);
  set v

let blit ctx ~src ~src_pos ~dst ~dst_pos ~len =
  let old = Bytes.sub dst dst_pos len in
  Kernel.on_abort ctx (fun () -> Bytes.blit old 0 dst dst_pos len);
  Bytes.blit src src_pos dst dst_pos len

let set_int64 ctx b off v =
  let old = Bytes.get_int64_le b off in
  Kernel.on_abort ctx (fun () -> Bytes.set_int64_le b off old);
  Bytes.set_int64_le b off v
