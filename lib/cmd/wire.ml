type 'a t = { v : 'a option Ehr.t; edge : Clock.edge }

(* A set arms the reset; so does a flip, through the EHR. *)
let create ?name clk () =
  let edge = Clock.edge clk ~name:(match name with Some n -> n | None -> "wire") in
  let v = Ehr.create ?name ~edge None in
  Clock.set_work edge (fun () ->
      let held = Ehr.peek v != None in
      Ehr.poke v None;
      held);
  { v; edge }

let set ctx t v =
  Ehr.write ctx t.v 0 (Some v);
  Clock.arm t.edge

let get ctx t = Ehr.read ctx t.v 1

let get_exn ctx t =
  match get ctx t with
  | Some v -> v
  | None -> raise (Kernel.Guard_fail (Kernel.rule_name ctx ^ ": wire " ^ Ehr.name t.v ^ " empty"))

let peek t = Ehr.peek t.v
let signal t = Ehr.signal t.v
