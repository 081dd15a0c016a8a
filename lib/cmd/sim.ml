type mode = Multi | One_per_cycle | Shuffle of int

exception Audit_fail = Kernel.Audit_fail
exception Partition_error of string

(* ---------------------------------------------------------------------- *)
(* Domain pool                                                            *)
(*                                                                        *)
(* One process-global pool, grown lazily and shared by every Sim so that  *)
(* repeated Machine builds (tests, fault campaigns) do not spawn domains  *)
(* per machine. Workers block on a condition variable between cycles: on  *)
(* few-core hosts a spinning barrier would fight the partitions for the   *)
(* CPU, and a blocked worker costs nothing. The mutex acquire/release     *)
(* around every task grab and completion also provides the happens-before *)
(* edges that make each partition's writes visible to the main domain at  *)
(* the barrier (and the main domain's inter-cycle writes visible to the   *)
(* partitions at dispatch).                                               *)
(* ---------------------------------------------------------------------- *)

module Pool = struct
  type t = {
    m : Mutex.t;
    work_cv : Condition.t;
    done_cv : Condition.t;
    mutable tasks : (unit -> unit) array;
    mutable next : int; (* index of the next unclaimed task *)
    mutable remaining : int; (* tasks not yet completed *)
    mutable max_helpers : int; (* workers allowed to participate this run *)
    mutable shutdown : bool;
    mutable nworkers : int;
    mutable domains : unit Domain.t list;
  }

  let p =
    {
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      tasks = [||];
      next = 0;
      remaining = 0;
      max_helpers = 0;
      shutdown = false;
      nworkers = 0;
      domains = [];
    }

  let finish_task () =
    Mutex.lock p.m;
    p.remaining <- p.remaining - 1;
    if p.remaining = 0 then Condition.signal p.done_cv;
    Mutex.unlock p.m

  (* Tasks trap their own exceptions (see [run_part]); the catch-all here
     only guards against a raising task deadlocking the barrier. The array
     is re-read and bounds-checked because [shutdown] may clear it between
     a worker claiming an index and executing it. *)
  let exec i =
    let ts = p.tasks in
    if i < Array.length ts then try ts.(i) () with _ -> ()

  let rec worker id =
    Mutex.lock p.m;
    while
      (not p.shutdown)
      && (id >= p.max_helpers || p.next >= Array.length p.tasks)
    do
      Condition.wait p.work_cv p.m
    done;
    if p.shutdown then Mutex.unlock p.m
    else begin
      let i = p.next in
      p.next <- i + 1;
      Mutex.unlock p.m;
      exec i;
      finish_task ();
      worker id
    end

  let shutdown_registered = ref false

  (* Idempotent and reentrancy-safe: the CAS makes a second call — from a
     signal handler interrupting the first, from [at_exit] racing an
     explicit call, or from plain double-shutdown — return immediately
     instead of double-joining the domains or deadlocking on [p.m].
     Signal handlers should still prefer setting a flag and letting the
     main loop call this (see [riscyoo farm]): a handler that interrupts
     the pool mid-cycle would block in [Domain.join] until the cycle's
     tasks drain. *)
  let in_shutdown = Atomic.make false

  let shutdown () =
    if Atomic.compare_and_set in_shutdown false true then
      Fun.protect
        ~finally:(fun () -> Atomic.set in_shutdown false)
        (fun () ->
          Mutex.lock p.m;
          p.shutdown <- true;
          (* Drop any queued work with the workers. A shutdown taken between
             runs is the common case and the queue is already empty; but a
             shutdown that interrupts a run (signal handlers) used to leave
             [tasks]/[next]/[remaining] populated, and the first worker of
             the NEXT generation would claim and execute a stale task — a
             cached per-cycle step closure of a machine that may since have
             been mutated or discarded. Clearing the queue here makes a
             restarted pool start from a blank slate; [max_helpers] is
             zeroed so freshly spawned workers stay parked until a run
             hands them work. *)
          p.tasks <- [||];
          p.next <- 0;
          p.remaining <- 0;
          p.max_helpers <- 0;
          Condition.broadcast p.work_cv;
          Mutex.unlock p.m;
          List.iter Domain.join p.domains;
          p.domains <- [];
          p.nworkers <- 0;
          p.shutdown <- false)

  let ensure_workers n =
    if not !shutdown_registered then begin
      shutdown_registered := true;
      at_exit shutdown
    end;
    while p.nworkers < n do
      let id = p.nworkers in
      p.nworkers <- p.nworkers + 1;
      p.domains <- Domain.spawn (fun () -> worker id) :: p.domains
    done

  (* Run every task to completion; the calling (main) domain participates,
     plus at most [helpers] pool workers. *)
  let run ~helpers tasks =
    ensure_workers helpers;
    Mutex.lock p.m;
    p.tasks <- tasks;
    p.next <- 0;
    p.remaining <- Array.length tasks;
    p.max_helpers <- helpers;
    if helpers > 0 then Condition.broadcast p.work_cv;
    Mutex.unlock p.m;
    let continue = ref true in
    while !continue do
      Mutex.lock p.m;
      if p.next < Array.length p.tasks then begin
        let i = p.next in
        p.next <- i + 1;
        Mutex.unlock p.m;
        exec i;
        finish_task ()
      end
      else begin
        while p.remaining > 0 do
          Condition.wait p.done_cv p.m
        done;
        p.tasks <- [||] (* don't pin dead sims via task closures *);
        continue := false;
        Mutex.unlock p.m
      end
    done
end

(* ---------------------------------------------------------------------- *)

(* One group of rules run on a private transaction context (own undo trail,
   stats shard, partition id). A partitioned run has one group per core
   partition plus the uncore group (pid 0); a serial run has only the
   uncore group, holding every rule. *)
type group = {
  pid : int;
  gctx : Kernel.ctx;
  mutable gfired : int; (* partitions: fires this cycle *)
  mutable exn : exn option; (* raised during a partition's phase *)
}

type t = {
  clk : Clock.t;
  rule_list : Rule.t list;
  order : Rule.t array; (* attempt order; permuted in Shuffle mode *)
  mode : mode;
  mutable rng : Random.State.t option; (* mutable for [reseed] and restore *)
  ctx : Kernel.ctx; (* the uncore group's context *)
  jobs : int;
  stats : Stats.t option; (* merged at the cycle close; partitioned runs only *)
  (* The cycle engine (see [cycle_multi]): the partition groups run — on
     the pool when [pool], inline in pid order otherwise — then the uncore
     group runs on the main domain. A serial run has no partition groups. *)
  pool : bool;
  parts : group array; (* partition groups (pid >= 1), ascending *)
  uncore : group;
  porders : Rule.t array array; (* by pid: this cycle's schedule order *)
  fill : int array; (* scratch fill pointers for Shuffle refills *)
  mutable tasks : (unit -> unit) array; (* one per partition, reused *)
  mutable runners : (int -> int) array; (* by rid, see [mk_runner] *)
  fmask : bool array; (* by rid: fired this cycle, while history is on *)
  mutable n_cycles : int;
  mutable fires : int;
  mutable rr : int; (* rotating start offset for One_per_cycle fairness *)
  (* observability (verification layer): a ring buffer of which rules fired
     each cycle, monitors that watch liveness, and post-cycle checks *)
  mutable history : (int * string list) array; (* (cycle, fired rule names) *)
  mutable history_depth : int;
  mutable monitors_rev : (t -> int -> unit) list; (* newest-first *)
  mutable post_cycle_rev : (int -> unit) list; (* newest-first *)
  mutable hooks_cache : (int -> int -> unit) array option;
      (* post-cycle checks then monitors, registration order, as one array *)
  (* rule-level trace sink (observability layer). A flat bool guards every
     call site so the disabled cost is one load+branch per fire; the callback
     runs on whichever domain fired the rule, so a sink must write only
     per-partition state (see lib/obs). Skipped-but-vacuous rules are traced
     exactly like real fires, mirroring the fire-count accounting, so traces
     are bit-identical with the fast path on or off. *)
  mutable rtrace_on : bool;
  mutable rtrace : Rule.t -> int -> unit;
}

(* Static partition checker: prove, from the declared boundary tokens and
   watch sets, that no primitive is reachable from two different partitions.
   Rules declare the boundary primitives they touch ([Rule.make ~touches]);
   partition-private state is implicit and backstopped by the dynamic
   [partition_audit]. A conflict-free FIFO contributes one primitive per
   side, so its enq and deq halves may live in different partitions; a ring
   FIFO is a single primitive and is confined to one partition. *)
let check_partitions rules =
  let owner : (int, int * string * string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (r : Rule.t) ->
      Array.iter
        (fun tk ->
          let prim = Partition.prim tk in
          match Hashtbl.find_opt owner prim with
          | None -> Hashtbl.add owner prim (r.part, r.name, Partition.name tk)
          | Some (p0, r0, tk0) ->
            if p0 <> r.part then
              raise
                (Partition_error
                   (Printf.sprintf
                      "primitive %s is touched from partition %d (rule %s) and partition %d (rule %s, token %s); only the two sides of a conflict-free FIFO may cross a partition boundary"
                      tk0 p0 r0 r.part r.name (Partition.name tk))))
        r.touches)
    rules;
  List.iter
    (fun (r : Rule.t) ->
      if r.part > 0 then
        Array.iter
          (fun s ->
            let o = Wakeup.owner s in
            if o <> r.part && o <> Partition.uncore then
              raise
                (Partition_error
                   (Printf.sprintf
                      "rule %s (partition %d) watches a signal owned by partition %d; parallel rules may only watch their own partition's signals (or the uncore's, which are quiescent during the parallel phase)"
                      r.name r.part o)))
          r.watches)
    rules

(* Refill per-partition order arrays from a (possibly just shuffled) global
   order, one pass, preserving relative order — so the partitioned schedule
   permutes exactly like the serial one. *)
let refill_orders fill (src : Rule.t array) (dst : Rule.t array array) =
  Array.fill fill 0 (Array.length fill) 0;
  for i = 0 to Array.length src - 1 do
    let r = Array.unsafe_get src i in
    let pid = r.Rule.part in
    let k = fill.(pid) in
    dst.(pid).(k) <- r;
    fill.(pid) <- k + 1
  done

(* Fast-path decision: should [r] be skipped without an attempt this cycle?
   Only rules carrying a [can_fire] predicate are ever skipped. A skippable
   rule with a (non-empty) watch set parks: while parked, the per-cycle cost
   is one generation-sum comparison; the predicate is re-evaluated only when
   a watched signal was touched. Watchless rules re-evaluate the predicate
   every cycle (still far cheaper than a transactional attempt). *)
let should_skip (r : Rule.t) =
  match r.Rule.can_fire with
  | None -> false
  | Some p ->
    if r.Rule.parked then
      if Wakeup.sum r.Rule.watches = r.Rule.park_sum then true
      else if p () then begin
        r.Rule.parked <- false;
        false
      end
      else begin
        r.Rule.park_sum <- Wakeup.sum r.Rule.watches;
        true
      end
    else if p () then false
    else begin
      if Array.length r.Rule.watches > 0 then begin
        r.Rule.parked <- true;
        r.Rule.park_sum <- Wakeup.sum r.Rule.watches
      end;
      true
    end

(* The slow oracles, as a wrapper around a rule's body. The partition audit
   tags the context with the rule's partition. The scheduler audit checks
   the one-sided can_fire contract: [false] must imply the body cannot
   commit anything this cycle. *)
let audited_body t (r : Rule.t) ~audit ~paudit ctx =
  if paudit then Kernel.set_partition ctx r.Rule.part;
  let claimed = (not audit) || match r.Rule.can_fire with None -> true | Some p -> p () in
  r.Rule.body ctx;
  if (not claimed) && ((not r.Rule.vacuous) || Kernel.undo_depth ctx > 0) then begin
    Kernel.rollback ctx;
    raise
      (Audit_fail
         (Printf.sprintf "rule %s: can_fire returned false but the rule fired (cycle %d)"
            r.Rule.name t.n_cycles))
  end

let note_fire t (r : Rule.t) fired =
  r.Rule.fired <- r.Rule.fired + 1;
  if t.history_depth > 0 then t.fmask.(r.Rule.rid) <- true;
  if t.rtrace_on then t.rtrace r t.n_cycles;
  fired + 1

(* The one per-rule step: attempt [r] on its group's context and account
   for the outcome, taking and returning the group's fires so far this
   cycle (threaded through the loop rather than stored, so partitions on
   different domains write no shared counter per fire). Built once per rule
   at elaboration: [skip] consults the fast path, and [body] is the rule's
   body or its audited wrapper. A [vacuous] rule that aborts, on a guard or a
   conflict, rolls back and counts as a vacuous fire: exactly what wrapping
   its body in [Kernel.attempt] would produce, without the second
   transaction. *)
let mk_runner t ctx (r : Rule.t) ~skip body =
  fun fired ->
    if skip && should_skip r then begin
      (* Account the pruned attempt exactly as the seed scheduler would
         have: an attempt-wrapped ([vacuous]) body swallows its inner guard
         failure and "fires" vacuously; a bare guarded body fails its
         guard. This keeps fire counts, the history ring and One_per_cycle
         rotation bit-identical with the fast path on or off. *)
      r.Rule.skipped <- r.Rule.skipped + 1;
      if r.Rule.vacuous then note_fire t r fired
      else begin
        r.Rule.guard_failed <- r.Rule.guard_failed + 1;
        fired
      end
    end
    else begin
      Kernel.set_rule_name ctx r.Rule.name;
      match body ctx with
      | () ->
        Kernel.reset_ctx ctx;
        note_fire t r fired
      | exception (Kernel.Guard_fail _ | Kernel.Retry _) when r.Rule.vacuous ->
        Kernel.rollback ctx;
        Kernel.reset_ctx ctx;
        note_fire t r fired
      | exception Kernel.Guard_fail _ ->
        Kernel.rollback ctx;
        Kernel.reset_ctx ctx;
        r.Rule.guard_failed <- r.Rule.guard_failed + 1;
        fired
      | exception Kernel.Retry msg ->
        Kernel.rollback ctx;
        Kernel.reset_ctx ctx;
        (* If nothing fired yet this cycle, the conflict is within the rule
           itself: no schedule can ever admit it. Fail loudly, like the BSV
           compiler rejecting an ill-formed rule. A partition counts only
           its own fires: its cells are touched by it alone. *)
        if fired = 0 then raise (Kernel.Conflict_error msg);
        r.Rule.conflicted <- r.Rule.conflicted + 1;
        fired
    end

let create ?(mode = Multi) ?(fastpath = true) ?(audit = false) ?(jobs = 1)
    ?(partition_audit = false) ?(grouped = false) ?stats clk rules =
  if jobs < 1 then invalid_arg "Sim.create: jobs must be >= 1";
  let rng = match mode with Shuffle seed -> Some (Random.State.make [| seed |]) | Multi | One_per_cycle -> None in
  let max_part = List.fold_left (fun m (r : Rule.t) -> max m r.Rule.part) 0 rules in
  if jobs > 1 || partition_audit then check_partitions rules;
  (* Partitions run as groups of their own when something can actually run
     off-main (or [grouped] asks for the structure at jobs 1) and the
     execution strategy is not inherently serial: One_per_cycle commits a
     single rule per cycle across the whole machine, and the audit modes
     deliberately execute serially so their diagnostics are exact. *)
  let par =
    (jobs > 1 || grouped) && max_part > 0 && mode <> One_per_cycle && (not audit)
    && not partition_audit
  in
  let counts = Array.make (max_part + 1) 0 in
  List.iter (fun (r : Rule.t) -> counts.(r.Rule.part) <- counts.(r.Rule.part) + 1) rules;
  (* Stamp every rule with its index in the canonical (rule_list) order.
     [Obs.Hub] stamps the same indices from the same list, so the two
     agree; the stamps let the snapshot express the current schedule
     permutation as plain indices. *)
  let rules_arr = Array.of_list rules in
  Array.iteri (fun i (r : Rule.t) -> r.Rule.rid <- i) rules_arr;
  let order = Array.copy rules_arr in
  let group pid gctx = { pid; gctx; gfired = 0; exn = None } in
  (* One cell-id table for every group's port log: a boundary FIFO's slots
     are touched by the groups on both of its sides. *)
  let table = Kernel.make_table () in
  let uncore = group Partition.uncore (Kernel.make_ctx ~table clk) in
  let parts =
    if not par then [||]
    else
      Array.of_list
        (List.filter_map
           (fun pid ->
             if counts.(pid) = 0 then None
             else begin
               let pctx = Kernel.make_ctx ~table clk in
               Kernel.set_partition pctx pid;
               Kernel.set_stats_slot pctx pid;
               Some (group pid pctx)
             end)
           (List.init max_part (fun i -> i + 1)))
  in
  (match stats with Some s when par -> Stats.prepare s ~slots:(max_part + 1) | _ -> ());
  (* Per-group schedules. A serial run's single group reads the global
     order itself; partition groups get private arrays, refilled from the
     global order whenever Shuffle permutes it. *)
  let porders =
    if not par then [| order |]
    else Array.init (max_part + 1) (fun pid -> Array.make counts.(pid) order.(0))
  in
  let fill = Array.make (max_part + 1) 0 in
  if par then refill_orders fill order porders;
  let n = Array.length rules_arr in
  let t =
    {
      clk;
      rule_list = rules;
      order;
      mode;
      rng;
      ctx = uncore.gctx;
      jobs;
      stats = (if par then stats else None);
      pool = par && jobs > 1;
      parts;
      uncore;
      porders;
      fill;
      tasks = [||];
      runners = [||];
      fmask = Array.make n false;
      n_cycles = 0;
      fires = 0;
      rr = 0;
      history = [||];
      history_depth = 0;
      monitors_rev = [];
      post_cycle_rev = [];
      hooks_cache = None;
      rtrace_on = false;
      rtrace = (fun _ _ -> ());
    }
  in
  Kernel.set_partition_audit t.ctx partition_audit;
  (* Step ready tests are a fast path too: without it every step runs, and
     the audit checks the tests that would have turned it away. *)
  let ready_audit = audit || not fastpath in
  Kernel.set_ready_audit t.ctx ready_audit;
  Array.iter (fun g -> Kernel.set_ready_audit g.gctx ready_audit) t.parts;
  let ctx_of = Array.make (max_part + 1) uncore.gctx in
  Array.iter (fun g -> ctx_of.(g.pid) <- g.gctx) parts;
  let oracle = audit || partition_audit in
  t.runners <-
    Array.map
      (fun (r : Rule.t) ->
        let body =
          if not oracle then r.Rule.body
          else audited_body t r ~audit ~paudit:partition_audit
        in
        mk_runner t ctx_of.(r.Rule.part) r ~skip:(fastpath && not audit) body)
      rules_arr;
  State.register ~name:"sim.sched"
    ~save:(fun () ->
      let ord = Array.map (fun (r : Rule.t) -> r.Rule.rid) t.order in
      let per_rule =
        Array.map
          (fun (r : Rule.t) ->
            (r.Rule.fired, r.Rule.guard_failed, r.Rule.conflicted, r.Rule.skipped))
          rules_arr
      in
      Obj.repr
        ( t.n_cycles,
          t.fires,
          t.rr,
          ord,
          Option.map Random.State.copy t.rng,
          per_rule,
          (Array.copy t.history, t.history_depth) ))
    ~load:(fun o ->
      let ( n_cycles,
            fires,
            rr,
            (ord : int array),
            (rng : Random.State.t option),
            (per_rule : (int * int * int * int) array),
            ((history : (int * string list) array), history_depth) ) =
        Obj.obj o
      in
      t.n_cycles <- n_cycles;
      t.fires <- fires;
      t.rr <- rr;
      Array.iteri (fun i rid -> t.order.(i) <- rules_arr.(rid)) ord;
      t.rng <- rng;
      Array.iteri
        (fun i (fired, guard_failed, conflicted, skipped) ->
          let r = rules_arr.(i) in
          r.Rule.fired <- fired;
          r.Rule.guard_failed <- guard_failed;
          r.Rule.conflicted <- conflicted;
          r.Rule.skipped <- skipped;
          (* Wakeup generations are not snapshotted: un-parking every rule
             forces predicate re-evaluation, which cannot change fire
             counts (skip accounting depends only on predicate results). *)
          r.Rule.parked <- false;
          r.Rule.park_sum <- 0)
        per_rule;
      t.history <- history;
      t.history_depth <- history_depth);
  t

let clock t = t.clk
let cycles t = t.n_cycles
let total_fires t = t.fires
let rules t = t.rule_list
let jobs t = t.jobs
let parallel t = t.pool
let shutdown_pool () = Pool.shutdown ()
let pool_run ~helpers tasks = Pool.run ~helpers tasks

(* Re-key the Shuffle schedule: reset the attempt order to the canonical
   rule order and replace the RNG, exactly the state a cold machine built
   with [Shuffle seed] starts from. Restoring a cycle-0 snapshot and
   reseeding is therefore schedule-identical to a cold build with that
   seed — the warm-fork path. No-op outside Shuffle mode. *)
let reseed t seed =
  match t.mode with
  | Shuffle _ ->
    List.iteri (fun i r -> t.order.(i) <- r) t.rule_list;
    t.rng <- Some (Random.State.make [| seed |])
  | Multi | One_per_cycle -> ()

let enable_history t ~depth =
  t.history_depth <- depth;
  t.history <- Array.make (max 1 depth) (-1, [])

let history t =
  if t.history_depth = 0 then []
  else
    List.filter
      (fun (c, _) -> c >= 0)
      (List.init t.history_depth (fun i ->
           t.history.((t.n_cycles + i) mod t.history_depth)))

let set_rule_trace t f =
  t.rtrace <- f;
  t.rtrace_on <- true

let clear_rule_trace t =
  t.rtrace_on <- false;
  t.rtrace <- (fun _ _ -> ())

let add_monitor t f =
  t.monitors_rev <- f :: t.monitors_rev;
  t.hooks_cache <- None

let on_post_cycle t f =
  t.post_cycle_rev <- f :: t.post_cycle_rev;
  t.hooks_cache <- None

(* One flat array of end-of-cycle callbacks: post-cycle checks first, then
   monitors, each set in registration order. Built lazily so registering a
   hook is O(1) (it used to be an O(n) list append per registration, and
   [cycle] walked two lists every cycle). *)
let end_hooks t =
  match t.hooks_cache with
  | Some a -> a
  | None ->
    let a =
      Array.of_list
        (List.rev_append
           (List.rev_map (fun f -> fun cyc _fired -> f cyc) (List.rev t.post_cycle_rev))
           (List.rev_map (fun f -> fun _cyc fired -> f t fired) t.monitors_rev))
    in
    t.hooks_cache <- Some a;
    a

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done


(* ---------------------------------------------------------------------- *)
(* The cycle engine                                                       *)
(*                                                                        *)
(* Every cycle runs in three deterministic steps:                         *)
(*                                                                        *)
(*   1. every core partition runs its rules, concurrently across the pool *)
(*      when jobs > 1, inline in pid order under [grouped];               *)
(*   2. after the barrier the uncore group runs on the main domain;       *)
(*   3. the cycle closes: [Clock.tick] runs every clock hook (this also   *)
(*      advances the conflict-free FIFO snapshots, waking parked rules on *)
(*      both sides), the per-partition stats shards merge, and the        *)
(*      history ring and end-of-cycle hooks see the quiescent state.      *)
(*                                                                        *)
(* The only channels between partitions are conflict-free FIFOs, whose    *)
(* guards read the other side as it stood at the start of the cycle: what *)
(* one partition enqueues at cycle c is visible to another at c + 1, so   *)
(* the partitions of one cycle commute and results are bit-identical at   *)
(* any --jobs. A window longer than one cycle would be exact only if      *)
(* every boundary link had a latency of at least its length; a link of    *)
(* latency 1 makes the exact window one cycle (see DESIGN, "Why the       *)
(* window is one cycle"). Serial execution is the same cycle with no      *)
(* partition groups: the uncore group then holds every rule in schedule   *)
(* order.                                                                 *)
(* ---------------------------------------------------------------------- *)

(* Run one cycle of group [g], one runner per rule of its order, starting
   from [fired] fires; returns the fires after the last rule. *)
let run_cycle t g fired =
  let order = t.porders.(g.pid) in
  let runners = t.runners in
  let fired = ref fired in
  for i = 0 to Array.length order - 1 do
    fired := (Array.unsafe_get runners (Array.unsafe_get order i).Rule.rid) !fired
  done;
  !fired

(* Step 1 for one partition; traps its exception for the barrier. *)
let run_part t g = match run_cycle t g 0 with n -> g.gfired <- n | exception e -> g.exn <- Some e

(* Step 3: close a cycle that fired [fired] rules. *)
let close_cycle t fired =
  let cyc = t.n_cycles in
  Clock.tick t.clk;
  (match t.stats with Some s -> Stats.merge s | None -> ());
  if t.history_depth > 0 then begin
    let names = ref [] in
    for i = Array.length t.order - 1 downto 0 do
      let r = Array.unsafe_get t.order i in
      if t.fmask.(r.Rule.rid) then begin
        names := r.Rule.name :: !names;
        t.fmask.(r.Rule.rid) <- false
      end
    done;
    t.history.(cyc mod t.history_depth) <- (cyc, !names)
  end;
  t.n_cycles <- cyc + 1;
  t.fires <- t.fires + fired;
  let hooks = end_hooks t in
  for h = 0 to Array.length hooks - 1 do
    hooks.(h) cyc fired
  done;
  fired

let cycle_multi t =
  (* The main domain owns the RNG: draw the cycle's permutation and split
     it per partition before dispatch. *)
  (match t.rng with
  | Some rng ->
    shuffle rng t.order;
    if Array.length t.parts > 0 then refill_orders t.fill t.order t.porders
  | None -> ());
  let pfired =
    if Array.length t.parts = 0 then 0
    else begin
      if Array.length t.tasks = 0 then t.tasks <- Array.map (fun g () -> run_part t g) t.parts;
      if t.pool then Pool.run ~helpers:(min (t.jobs - 1) (Array.length t.parts - 1)) t.tasks
      else Array.iter (fun task -> task ()) t.tasks;
      (* Barrier passed: every partition's writes are visible. Re-raise the
         lowest partition's exception (deterministic pick). *)
      let first_exn = ref None and n = ref 0 in
      Array.iter
        (fun g ->
          if !first_exn = None then first_exn := g.exn;
          g.exn <- None;
          n := !n + g.gfired)
        t.parts;
      Option.iter raise !first_exn;
      !n
    end
  in
  close_cycle t (run_cycle t t.uncore pfired)

(* One_per_cycle: the reference executor commits at most one rule per
   cycle, trying the rules from a rotating start so none starves. *)
let cycle_one t =
  let n = Array.length t.order in
  let fired = ref 0 and i = ref 0 in
  while !fired = 0 && !i < n do
    fired := t.runners.(t.order.((t.rr + !i) mod n).Rule.rid) !fired;
    incr i
  done;
  if n > 0 then t.rr <- (t.rr + 1) mod n;
  close_cycle t !fired

let cycle t = match t.mode with One_per_cycle -> cycle_one t | Multi | Shuffle _ -> cycle_multi t

let run t n =
  for _ = 1 to n do
    ignore (cycle t)
  done

let run_until ?on_cycle t ~max_cycles pred =
  let start = t.n_cycles in
  let rec go () =
    let n = t.n_cycles - start in
    if pred () then `Done n
    else if n >= max_cycles then `Timeout n
    else begin
      (match on_cycle with Some f -> f n | None -> ());
      ignore (cycle t);
      go ()
    end
  in
  go ()

let pp_stats fmt t =
  Format.fprintf fmt "@[<v>cycles=%d fires=%d (%.2f rules/cycle)@," t.n_cycles t.fires
    (if t.n_cycles = 0 then 0.0 else float_of_int t.fires /. float_of_int t.n_cycles);
  List.iter
    (fun (r : Rule.t) ->
      Format.fprintf fmt "  %-28s fired=%-9d guard_failed=%-9d conflicted=%-6d skipped=%d@," r.name
        r.fired r.guard_failed r.conflicted r.skipped)
    t.rule_list;
  Format.fprintf fmt "@]"
