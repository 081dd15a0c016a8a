type t = {
  mutable now : int;
  mutable uid : int;
  mutable hooks : (unit -> unit) list; (* newest-first *)
  mutable cache : (unit -> unit) array option;
}

(* [now] is architectural time: it is snapshotted, and a restore rewinds
   it. [uid] is a process-lifetime cycle identity for the kernel's lazily
   reset per-cycle caches (cell access summaries): it ticks with [now] but
   never goes backward — a restore bumps it instead, so every stamp
   written before the restore is strictly older than the post-restore
   cycle. Keying those caches on [now] would let a stale summary alias a
   later run of the same machine when the rewound clock catches up to the
   cycle the stamp was written at. *)
let create () =
  let t = { now = 0; uid = 0; hooks = []; cache = None } in
  State.field ~name:"clock"
    (fun () -> t.now)
    (fun v ->
      t.now <- v;
      t.uid <- t.uid + 1);
  t

let now t = t.now
let uid t = t.uid

let on_cycle_end t f =
  t.hooks <- f :: t.hooks;
  t.cache <- None

let tick t =
  let hooks =
    match t.cache with
    | Some a -> a
    | None ->
      (* Hooks affect independent primitives, so order is immaterial; we run
         them oldest-first for reproducibility. *)
      let a = Array.of_list (List.rev t.hooks) in
      t.cache <- Some a;
      a
  in
  Array.iter (fun f -> f ()) hooks;
  t.now <- t.now + 1;
  t.uid <- t.uid + 1
