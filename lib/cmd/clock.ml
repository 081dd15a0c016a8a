(* An edge worker: cycle-boundary work that only a touched primitive needs
   (a conflict-free FIFO's snapshot refresh, a wire's reset). [work]
   returns whether it changed any state; [armed] keeps it on the clock's
   armed list at most once per cycle. *)
type edge = {
  owner : t;
  ename : string;
  eid : int;
  mutable work : unit -> bool;
  mutable armed : bool;
}

and t = {
  mutable now : int;
  mutable uid : int;
  mutable hooks : (unit -> unit) list; (* newest-first *)
  mutable cache : (unit -> unit) array option;
  mutable edges : edge array; (* by [eid], for the audit *)
  mutable n_edges : int;
  mutable queue : int array; (* eids armed this cycle, in arming order *)
  mutable n_queued : int;
  mutable audit : (string -> unit) option;
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
  let t =
    {
      now = 0;
      uid = 0;
      hooks = [];
      cache = None;
      edges = [||];
      n_edges = 0;
      queue = [||];
      n_queued = 0;
      audit = None;
    }
  in
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

let edge t ~name =
  let e = { owner = t; ename = name; eid = t.n_edges; work = (fun () -> false); armed = false } in
  if t.n_edges = Array.length t.edges then begin
    (* the queue holds each edge at most once, so it never outgrows [edges] *)
    let n = max 16 (2 * t.n_edges) in
    let grow a z =
      let b = Array.make n z in
      Array.blit a 0 b 0 t.n_edges;
      b
    in
    t.edges <- grow t.edges e;
    t.queue <- grow t.queue 0
  end;
  t.edges.(t.n_edges) <- e;
  t.n_edges <- t.n_edges + 1;
  e

let set_work e f = e.work <- f

let arm e =
  if not e.armed then begin
    e.armed <- true;
    let t = e.owner in
    Array.unsafe_set t.queue t.n_queued e.eid;
    t.n_queued <- t.n_queued + 1
  end

let set_audit t f = t.audit <- f

let tick t =
  let samplers =
    match t.cache with
    | Some a -> a
    | None ->
      (* Samplers affect independent state, so order is immaterial; we run
         them oldest-first for reproducibility. *)
      let a = Array.of_list (List.rev t.hooks) in
      t.cache <- Some a;
      a
  in
  Array.iter (fun f -> f ()) samplers;
  (* Each worker touches only its own primitive, so their order is
     immaterial too. The audit runs every registered worker: one that
     changes state without having been armed is cycle-boundary work the
     fast path skipped. *)
  let unarmed = ref None in
  (match t.audit with
  | None ->
    for i = 0 to t.n_queued - 1 do
      let e = Array.unsafe_get t.edges (Array.unsafe_get t.queue i) in
      e.armed <- false;
      ignore (e.work ())
    done
  | Some _ ->
    for i = 0 to t.n_edges - 1 do
      let e = t.edges.(i) in
      if e.work () && (not e.armed) && Option.is_none !unarmed then unarmed := Some e.ename;
      e.armed <- false
    done);
  t.n_queued <- 0;
  t.now <- t.now + 1;
  t.uid <- t.uid + 1;
  match (!unarmed, t.audit) with Some name, Some fail -> fail name | _ -> ()
