type counter = { name : string; mutable v : int }
type t = { prefix : string; tbl : (string, counter) Hashtbl.t }

let create ?(prefix = "") () =
  let t = { prefix; tbl = Hashtbl.create 64 } in
  (* Snapshot as sorted (name, value) pairs: counter records are captured
     by rule closures at build time, so restore writes values back into the
     existing records by name. *)
  State.register ~name:"stats"
    ~save:(fun () ->
      Obj.repr
        (Array.of_list
           (Hashtbl.fold (fun _ c acc -> (c.name, c.v) :: acc) t.tbl []
           |> List.sort (fun (a, _) (b, _) -> String.compare a b))))
    ~load:(fun o ->
      let pairs : (string * int) array = Obj.obj o in
      Hashtbl.iter (fun _ c -> c.v <- 0) t.tbl;
      Array.iter
        (fun (name, v) ->
          match Hashtbl.find_opt t.tbl name with
          | Some c -> c.v <- v
          | None -> Hashtbl.add t.tbl name { name; v })
        pairs);
  t

let counter t name =
  let name = t.prefix ^ name in
  match Hashtbl.find_opt t.tbl name with
  | Some c -> c
  | None ->
    let c = { name; v = 0 } in
    Hashtbl.add t.tbl name c;
    c

let set_v c v = c.v <- v

let incr ?ctx ?(by = 1) c =
  match ctx with
  | Some ctx ->
    let old = c.v in
    Kernel.log_set ctx set_v c old;
    c.v <- old + by
  | None -> c.v <- c.v + by

let get c = c.v
let set c v = c.v <- v

let find t name =
  match Hashtbl.find_opt t.tbl (t.prefix ^ name) with Some c -> get c | None -> 0

let to_list t =
  Hashtbl.fold (fun _ c acc -> (c.name, get c) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t = Hashtbl.iter (fun _ c -> c.v <- 0) t.tbl

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter (fun (n, v) -> Format.fprintf fmt "%-32s %d@," n v) (to_list t);
  Format.fprintf fmt "@]"
