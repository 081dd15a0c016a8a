type counter = { name : string; mutable v : int; mutable shards : int array }
type t = { prefix : string; tbl : (string, counter) Hashtbl.t }

let shard_sum c =
  let acc = ref 0 in
  for i = 0 to Array.length c.shards - 1 do
    acc := !acc + c.shards.(i)
  done;
  !acc

let create ?(prefix = "") () =
  let t = { prefix; tbl = Hashtbl.create 64 } in
  (* Snapshot as sorted (name, folded value) pairs: counter records are
     captured by rule closures at build time, so restore writes values back
     into the existing records by name. Taken at a cycle barrier the shards
     are already folded; [set] zeroes them regardless. *)
  State.register ~name:"stats"
    ~save:(fun () ->
      Obj.repr
        (Array.of_list
           (Hashtbl.fold (fun _ c acc -> (c.name, c.v + shard_sum c) :: acc) t.tbl []
           |> List.sort (fun (a, _) (b, _) -> String.compare a b))))
    ~load:(fun o ->
      let pairs : (string * int) array = Obj.obj o in
      Hashtbl.iter
        (fun _ c ->
          c.v <- 0;
          Array.fill c.shards 0 (Array.length c.shards) 0)
        t.tbl;
      Array.iter
        (fun (name, v) ->
          match Hashtbl.find_opt t.tbl name with
          | Some c -> c.v <- v
          | None -> Hashtbl.add t.tbl name { name; v; shards = [||] })
        pairs);
  t

let counter t name =
  let name = t.prefix ^ name in
  match Hashtbl.find_opt t.tbl name with
  | Some c -> c
  | None ->
    let c = { name; v = 0; shards = [||] } in
    Hashtbl.add t.tbl name c;
    c

(* Parallel rule bodies accumulate into a per-partition shard (indexed by
   the ctx's stats_slot) instead of the shared [v]; the scheduler folds the
   shards into [v] at every cycle barrier. Each counter is only ever
   incremented by one parallel partition (its owning core cluster) plus
   possibly the serial uncore, so growing the shard array inside [incr] is
   single-writer and safe; [Sim] pre-sizes every counter anyway so growth
   never happens mid-run in practice. *)
let ensure_shards c n =
  if Array.length c.shards < n then begin
    let bigger = Array.make n 0 in
    Array.blit c.shards 0 bigger 0 (Array.length c.shards);
    c.shards <- bigger
  end

let set_v c v = c.v <- v

let incr ?ctx ?(by = 1) c =
  match ctx with
  | Some ctx ->
    let s = Kernel.stats_slot ctx in
    if s >= 0 then begin
      ensure_shards c (s + 1);
      let old = c.shards.(s) in
      Kernel.log_arr ctx c.shards s old;
      c.shards.(s) <- old + by
    end
    else begin
      let old = c.v in
      Kernel.log_set ctx set_v c old;
      c.v <- old + by
    end
  | None -> c.v <- c.v + by

let get c = c.v + shard_sum c

let set c v =
  c.v <- v;
  Array.fill c.shards 0 (Array.length c.shards) 0

let find t name =
  match Hashtbl.find_opt t.tbl (t.prefix ^ name) with Some c -> get c | None -> 0

let prepare t ~slots = Hashtbl.iter (fun _ c -> ensure_shards c slots) t.tbl

let merge t =
  Hashtbl.iter
    (fun _ c ->
      let sh = c.shards in
      for i = 0 to Array.length sh - 1 do
        let s = Array.unsafe_get sh i in
        if s <> 0 then begin
          c.v <- c.v + s;
          Array.unsafe_set sh i 0
        end
      done)
    t.tbl

let to_list t =
  Hashtbl.fold (fun _ c acc -> (c.name, get c) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  Hashtbl.iter
    (fun _ c ->
      c.v <- 0;
      Array.fill c.shards 0 (Array.length c.shards) 0)
    t.tbl

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter (fun (n, v) -> Format.fprintf fmt "%-32s %d@," n v) (to_list t);
  Format.fprintf fmt "@]"
