type t = {
  mutable now : int;
  mutable uid : int;
  mutable hooks : (int * (unit -> unit)) list; (* (owning partition, hook) *)
  mutable cache : (unit -> unit) array option;
  mutable split : (unit -> unit) array array option;
}

(* [now] is architectural time: it is snapshotted, and a restore rewinds
   it. [uid] is a process-lifetime cycle identity for the kernel's lazily
   reset per-cycle caches (cell access summaries): it ticks with [now] but
   never goes backward — a restore bumps it instead, so every stamp
   written before the restore is strictly older than the post-restore
   cycle. Keying those caches on [now] would let a stale summary alias a
   later run of the same machine when the rewound clock catches up to the
   cycle the stamp was written at.

   [skew] is a domain-local offset added to both [now] and [uid]: during an
   epoch window (Sim ~epoch) a partition free-running local cycle [k] of
   the window reads architectural time [window_start + k] even though the
   shared clock fields only advance once per window (Sim calls [advance]
   at the window close). Keeping the offset in domain-local storage means
   concurrently free-running partitions each see their own local cycle
   without touching the shared record. Outside epoch mode the skew is 0
   and both reads behave exactly as before. *)
let skew_key = Domain.DLS.new_key (fun () -> ref 0)

let set_skew k = Domain.DLS.get skew_key := k

let create () =
  let t = { now = 0; uid = 0; hooks = []; cache = None; split = None } in
  State.field ~name:"clock"
    (fun () -> t.now)
    (fun v ->
      t.now <- v;
      t.uid <- t.uid + 1);
  t

let now t = t.now + !(Domain.DLS.get skew_key)
let uid t = t.uid + !(Domain.DLS.get skew_key)

let on_cycle_end t f =
  t.hooks <- (Partition.ambient (), f) :: t.hooks;
  t.cache <- None;
  t.split <- None

let tick t =
  let hooks =
    match t.cache with
    | Some a -> a
    | None ->
      (* Hooks affect independent primitives, so order is immaterial; we run
         them oldest-first for reproducibility. *)
      let a = Array.of_list (List.rev_map snd t.hooks) in
      t.cache <- Some a;
      a
  in
  Array.iter (fun f -> f ()) hooks;
  t.now <- t.now + 1;
  t.uid <- t.uid + 1

(* Epoch support: the same hooks, grouped by the partition that registered
   them (oldest-first within a group, as in [tick]). The epoch engine runs
   group [p] after each of partition [p]'s local cycles and group 0 after
   each uncore replay cycle, except the window's last cycle, whose hooks
   all run in the closing [tick]; so every hook still runs exactly once per
   simulated cycle. *)
let hooks_by_partition t =
  match t.split with
  | Some s -> s
  | None ->
    let maxp = List.fold_left (fun m (p, _) -> max m p) 0 t.hooks in
    let s = Array.make (maxp + 1) [] in
    List.iter (fun (p, f) -> s.(p) <- f :: s.(p)) t.hooks;
    let s = Array.map Array.of_list s in
    t.split <- Some s;
    s

(* Advance time without running any hooks: the epoch engine has already run
   each hook group for those cycles. *)
let advance t ~cycles =
  t.now <- t.now + cycles;
  t.uid <- t.uid + cycles
