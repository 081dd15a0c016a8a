exception Violation of string * string * string

type monitor = {
  module_ : string;
  interface : string;
  m_doc : string;
  m_armed : bool;
  mutable events : int;
  mutable pending : string list;
      (* violations committed this cycle; appended under the undo log so an
         aborting rule takes its evidence away with it *)
}

let disarmed =
  { module_ = "-"; interface = "-"; m_doc = ""; m_armed = false; events = 0; pending = [] }

(* Same domain-local collector shape as Verif.Invariant: no scope, no
   retention — [declare] hands back the shared disarmed monitor. *)
let collector : monitor list ref option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let declare ~module_ ~interface ~doc () =
  match !(Domain.DLS.get collector) with
  | Some l ->
      let m =
        { module_; interface; m_doc = doc; m_armed = true; events = 0; pending = [] }
      in
      l := m :: !l;
      m
  | None -> disarmed

let armed m = m.m_armed

let check ctx m f =
  if m.m_armed then begin
    Cmd.Mut.field ctx m ~get:(fun o -> o.events) ~set:(fun o v -> o.events <- v) (m.events + 1);
    match f () with
    | None -> ()
    | Some msg ->
        Cmd.Mut.field ctx m
          ~get:(fun o -> o.pending)
          ~set:(fun o v -> o.pending <- v)
          (msg :: m.pending)
  end

let collecting f =
  let c = Domain.DLS.get collector in
  let saved = !c in
  let l = ref [] in
  c := Some l;
  Fun.protect
    ~finally:(fun () -> c := saved)
    (fun () ->
      let r = f () in
      (r, List.rev !l))

let attach sim monitors =
  if monitors <> [] then
    Cmd.Sim.on_post_cycle sim (fun _cycle ->
        List.iter
          (fun m ->
            match m.pending with
            | [] -> ()
            | msg :: _ -> raise (Violation (m.module_, m.interface, msg)))
          monitors)

let name m = m.module_ ^ "/" ^ m.interface
let doc m = m.m_doc
let events m = m.events
let stats monitors = List.map (fun m -> (name m, m.events)) monitors
