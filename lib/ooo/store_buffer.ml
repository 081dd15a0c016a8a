open Cmd

type entry = {
  mutable used : bool;
  mutable line : int64;
  data : Bytes.t;
  mutable mask : int64;
  mutable issued : bool;
}

type t = {
  entries : entry array;
  ob_issue : Mcheck.Obligation.monitor;
  ob_resp : Mcheck.Obligation.monitor;
}

type search = Full of int64 | Partial of int | NoMatch

(* Coalescing keeps at most one unissued entry per line (enq merges into
   it), and a used entry always holds at least one valid byte. Two unissued
   entries for one line would let a load forward from the wrong one. *)
let check_coalescing t () =
  let n = Array.length t.entries in
  for i = 0 to n - 1 do
    let e = t.entries.(i) in
    if e.used then begin
      if e.mask = 0L then
        Verif.Invariant.fail "storebuf.coalesce" "entry %d used with empty byte mask" i;
      if not e.issued then
        for j = i + 1 to n - 1 do
          let f = t.entries.(j) in
          if f.used && (not f.issued) && f.line = e.line then
            Verif.Invariant.fail "storebuf.coalesce"
              "entries %d and %d both unissued for line 0x%Lx" i j e.line
        done
    end
  done

let create ~size =
  let t =
    {
      entries =
        Array.init size (fun _ ->
            { used = false; line = 0L; data = Bytes.make Mem.Cache_geom.line_bytes '\000'; mask = 0L; issued = false });
      ob_issue =
        Mcheck.Obligation.declare ~module_:"ooo.storebuf" ~interface:"issue"
          ~doc:
            "an exclusive-ownership request sent for a buffered line must name the \
             unique unissued entry holding valid bytes for that line"
          ();
      ob_resp =
        Mcheck.Obligation.declare ~module_:"ooo.storebuf" ~interface:"resp"
          ~doc:
            "a store-buffer dequeue triggered by a cache response must hit an \
             entry that is live and was actually issued"
          ();
    }
  in
  Verif.Invariant.register ~name:"storebuf.coalesce" (check_coalescing t);
  State.field ~name:"storebuf"
    (fun () -> t.entries)
    (fun entries -> Array.blit entries 0 t.entries 0 size);
  t

let count t = Array.fold_left (fun n e -> if e.used then n + 1 else n) 0 t.entries
let is_empty t = count t = 0

let find_line t line f =
  let r = ref None in
  Array.iteri (fun i e -> if e.used && e.line = line && f e then r := Some (i, e)) t.entries;
  !r

let write_entry ctx e ~off ~bytes v =
  let src = Bytes.create bytes in
  for k = 0 to bytes - 1 do
    Bytes.set src k (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF))
  done;
  Mut.blit ctx ~src ~src_pos:0 ~dst:e.data ~dst_pos:off ~len:bytes;
  let add = Int64.shift_left (Int64.sub (Int64.shift_left 1L bytes) 1L) off in
  Mut.field ctx e ~get:(fun o -> o.mask) ~set:(fun o v -> o.mask <- v) (Int64.logor e.mask add)

let enq ctx t ~addr ~bytes v =
  let line = Mem.Cache_geom.line_addr addr in
  let off = Mem.Cache_geom.offset addr in
  match find_line t line (fun e -> not e.issued) with
  | Some (_, e) -> write_entry ctx e ~off ~bytes v
  | None -> (
    let free = ref None in
    Array.iter (fun e -> if (not e.used) && !free = None then free := Some e) t.entries;
    match !free with
    | None -> raise (Kernel.Guard_fail "store buffer full")
    | Some e ->
      Mut.field ctx e ~get:(fun o -> o.used) ~set:(fun o v -> o.used <- v) true;
      Mut.field ctx e ~get:(fun o -> o.line) ~set:(fun o v -> o.line <- v) line;
      Mut.field ctx e ~get:(fun o -> o.mask) ~set:(fun o v -> o.mask <- v) 0L;
      Mut.field ctx e ~get:(fun o -> o.issued) ~set:(fun o v -> o.issued <- v) false;
      write_entry ctx e ~off ~bytes v)

let can_enq t ~addr =
  let line = Mem.Cache_geom.line_addr addr in
  find_line t line (fun e -> not e.issued) <> None
  || Array.exists (fun e -> not e.used) t.entries

let has_unissued t = Array.exists (fun e -> e.used && not e.issued) t.entries

let issue ctx t =
  let r = ref None in
  Array.iteri (fun i e -> if e.used && (not e.issued) && !r = None then r := Some (i, e)) t.entries;
  match !r with
  | None -> raise (Kernel.Guard_fail "store buffer: nothing to issue")
  | Some (i, e) ->
    Mcheck.Obligation.check ctx t.ob_issue (fun () ->
        if e.mask = 0L then
          Some (Printf.sprintf "issue of entry %d for line 0x%Lx with no valid bytes" i e.line)
        else
          let dup = ref None in
          Array.iteri
            (fun j f ->
              if j <> i && f.used && (not f.issued) && f.line = e.line then dup := Some j)
            t.entries;
          match !dup with
          | Some j ->
            Some
              (Printf.sprintf "issue of entry %d for line 0x%Lx shadowed by unissued entry %d" i
                 e.line j)
          | None -> None);
    Mut.field ctx e ~get:(fun o -> o.issued) ~set:(fun o v -> o.issued <- v) true;
    (i, e.line)

let deq ctx t idx =
  let e = t.entries.(idx) in
  Mcheck.Obligation.check ctx t.ob_resp (fun () ->
      if not e.used then Some (Printf.sprintf "dequeue of free entry %d" idx)
      else if not e.issued then
        Some (Printf.sprintf "dequeue of entry %d (line 0x%Lx) never issued" idx e.line)
      else None);
  if not e.used then failwith "store buffer: deq of free entry";
  Mut.field ctx e ~get:(fun o -> o.used) ~set:(fun o v -> o.used <- v) false;
  Mut.field ctx e ~get:(fun o -> o.issued) ~set:(fun o v -> o.issued <- v) false;
  (e.line, Bytes.copy e.data, e.mask)

let search t ~addr ~bytes =
  let line = Mem.Cache_geom.line_addr addr in
  let off = Mem.Cache_geom.offset addr in
  let need = Int64.shift_left (Int64.sub (Int64.shift_left 1L bytes) 1L) off in
  (* youngest-match semantics: with coalescing there is at most one entry
     per line unissued, but an issued one may coexist; prefer the unissued
     (younger) entry's bytes — if it fully covers, forward from it. *)
  let consider e acc =
    if e.used && e.line = line && Int64.logand e.mask need <> 0L then Some e else acc
  in
  let unissued = Array.fold_left (fun a e -> if not e.issued then consider e a else a) None t.entries in
  let issued = Array.fold_left (fun a e -> if e.issued then consider e a else a) None t.entries in
  let pick = match unissued with Some e -> Some e | None -> issued in
  match pick with
  | None -> NoMatch
  | Some e ->
    if Int64.logand e.mask need = need
       && (unissued = None || issued = None (* both matching: bytes may be split *))
    then begin
      let v = ref 0L in
      for k = bytes - 1 downto 0 do
        v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get e.data (off + k))))
      done;
      Full !v
    end
    else
      let idx = ref 0 in
      Array.iteri (fun i x -> if x == e then idx := i) t.entries;
      Partial !idx
