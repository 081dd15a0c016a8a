type 'a t = 'a option Ehr.t

let create ?name clk () =
  let t = Ehr.create ?name None in
  Clock.on_cycle_end clk (fun () -> Ehr.poke t None);
  t

let set ctx t v = Ehr.write ctx t 0 (Some v)
let get ctx t = Ehr.read ctx t 1

let get_exn ctx t =
  match get ctx t with
  | Some v -> v
  | None -> raise (Kernel.Guard_fail (Kernel.rule_name ctx ^ ": wire " ^ Ehr.name t ^ " empty"))

let peek = Ehr.peek
let signal = Ehr.signal
