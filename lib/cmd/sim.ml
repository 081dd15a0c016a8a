type mode = Multi | One_per_cycle | Shuffle of int

exception Audit_fail = Kernel.Audit_fail

(* ---------------------------------------------------------------------- *)
(* Domain pool                                                            *)
(*                                                                        *)
(* The simulation farm's job executor ([pool_run], used by Farm.Sweep):   *)
(* one process-global pool, grown lazily, so repeated sweeps do not spawn *)
(* domains per batch. Every simulator cycle runs on the calling domain;   *)
(* a farm task builds and runs a whole machine of its own. Workers block  *)
(* on a condition variable between batches, and a blocked worker costs   *)
(* nothing. The mutex acquire/release around every task grab and          *)
(* completion also provides the happens-before edges that make a task's   *)
(* writes visible to the caller when [run] returns.                       *)
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

  (* Tasks trap their own exceptions (see [pool_run]); the catch-all here
     only guards against a raising task deadlocking the batch. The array
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
     the pool mid-batch would block in [Domain.join] until the batch's
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
             job closure over state that may since have been mutated or
             discarded. Clearing the queue here makes a
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
        p.tasks <- [||] (* don't pin finished jobs via task closures *);
        continue := false;
        Mutex.unlock p.m
      end
    done
end

(* ---------------------------------------------------------------------- *)

type t = {
  clk : Clock.t;
  rule_list : Rule.t list;
  rules_arr : Rule.t array; (* by rid *)
  order : int array; (* rids in attempt order; permuted in Shuffle mode *)
  mode : mode;
  mutable rng : Random.State.t option; (* mutable for [reseed] and restore *)
  ctx : Kernel.ctx; (* the one transaction context every rule runs on *)
  mutable runners : (int -> int) array; (* by rid, see [mk_runner] *)
  parked : Bytes.t; (* by rid: '\001' while the rule is parked *)
  wake : Bytes.t; (* by rid: the wake board its watches' touches set *)
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
     call site so the disabled cost is one load+branch per fire. A skip is
     never a fire, so the trace is the same with the fast path on or off. *)
  mutable rtrace_on : bool;
  mutable rtrace : Rule.t -> int -> unit;
}

(* Fast-path decision: should [r] be skipped without an attempt this cycle?
   Only rules carrying a [can_fire] predicate are ever skipped. A skippable
   rule with a (non-empty) watch set parks: its watches' touches set its
   byte on the wake board, and the cycle loop passes over it without
   calling its runner while the byte is clear ([step]). So a parked rule
   reaching this point was woken: clear its byte and re-evaluate. Watchless
   rules re-evaluate the predicate every cycle (still far cheaper than a
   transactional attempt). *)
let should_skip t rid p ~watching =
  if Bytes.unsafe_get t.parked rid <> '\000' then begin
    Bytes.unsafe_set t.wake rid '\000';
    if p () then begin
      Bytes.unsafe_set t.parked rid '\000';
      false
    end
    else true
  end
  else if p () then false
  else begin
    if watching then begin
      Bytes.unsafe_set t.parked rid '\001';
      Bytes.unsafe_set t.wake rid '\000'
    end;
    true
  end

(* The slow oracle, as a wrapper around a rule's body: the scheduler audit
   checks the one-sided can_fire contract, [false] must imply the body
   cannot fire this cycle. A body that returns normally fired, so a false
   predicate followed by a normal return is a lie. *)
let audited_body t (r : Rule.t) ctx =
  let claimed = match r.Rule.can_fire with None -> true | Some p -> p () in
  r.Rule.body ctx;
  if not claimed then begin
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

(* A pruned attempt is the guard failure the predicate foresaw, so fire
   counts, the history ring and One_per_cycle rotation are the same with
   the fast path on or off. *)
let note_skip (r : Rule.t) =
  r.Rule.skipped <- r.Rule.skipped + 1;
  r.Rule.guard_failed <- r.Rule.guard_failed + 1

(* The one per-rule step: attempt [r] on the scheduler's context and
   account for the outcome, taking and returning the cycle's fires so far.
   Built once per rule at elaboration: [skip] enables the fast path, and
   [body] is the rule's body or its audited wrapper. One accounting for
   every rule: a body that returns normally fired, [Guard_fail] is a guard
   failure and [Retry] a conflict. *)
let mk_runner t (r : Rule.t) ~skip body =
  let ctx = t.ctx and rid = r.Rule.rid in
  let pred = match r.Rule.can_fire with Some p when skip -> Some p | Some _ | None -> None in
  let watching = Array.length r.Rule.watches > 0 in
  fun fired ->
    if match pred with Some p -> should_skip t rid p ~watching | None -> false then begin
      note_skip r;
      fired
    end
    else begin
      Kernel.set_rule_name ctx r.Rule.name;
      match body ctx with
      | () ->
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
           compiler rejecting an ill-formed rule. *)
        if fired = 0 then raise (Kernel.Conflict_error msg);
        r.Rule.conflicted <- r.Rule.conflicted + 1;
        fired
    end

(* Run rule [rid]: a parked rule that no touch woke is skipped here,
   without entering its runner. *)
let[@inline] step t rid fired =
  if Bytes.unsafe_get t.parked rid <> '\000' && Bytes.unsafe_get t.wake rid = '\000' then begin
    note_skip (Array.unsafe_get t.rules_arr rid);
    fired
  end
  else (Array.unsafe_get t.runners rid) fired

let create ?(mode = Multi) ?(fastpath = true) ?(audit = false) clk rules =
  let rng = match mode with Shuffle seed -> Some (Random.State.make [| seed |]) | Multi | One_per_cycle -> None in
  (* Stamp every rule with its index in the canonical (rule_list) order.
     [Obs.Hub] stamps the same indices from the same list, so the two
     agree; the stamps index the runners, the wake board and the attempt
     order, so the snapshot holds the schedule permutation as is. *)
  let rules_arr = Array.of_list rules in
  Array.iteri (fun i (r : Rule.t) -> r.Rule.rid <- i) rules_arr;
  let n = Array.length rules_arr in
  let t =
    {
      clk;
      rule_list = rules;
      rules_arr;
      order = Array.init n Fun.id;
      mode;
      rng;
      ctx = Kernel.make_ctx clk;
      runners = [||];
      parked = Bytes.make n '\000';
      wake = Bytes.make n '\000';
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
  (* Step ready tests are a fast path too: without it every step runs, and
     the audit checks the tests that would have turned it away. *)
  Kernel.set_ready_audit t.ctx (audit || not fastpath);
  let skip = fastpath && not audit in
  t.runners <-
    Array.map
      (fun (r : Rule.t) ->
        let body = if audit then audited_body t r else r.Rule.body in
        mk_runner t r ~skip body)
      rules_arr;
  if skip then
    Array.iter
      (fun (r : Rule.t) ->
        if Option.is_some r.Rule.can_fire then
          Array.iter (fun s -> Wakeup.subscribe s t.wake r.Rule.rid) r.Rule.watches)
      rules_arr;
  (* The edge half of the audit: every edge worker runs at every tick, and
     one that changes state without having been armed fails the run. *)
  if audit then
    Clock.set_audit clk
      (Some
         (fun name ->
           raise
             (Audit_fail
                (Printf.sprintf "edge worker %s changed state but was not armed (cycle %d)" name
                   t.n_cycles))));
  State.register ~name:"sim.sched"
    ~save:(fun () ->
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
          Array.copy t.order,
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
      Array.blit ord 0 t.order 0 n;
      t.rng <- rng;
      Array.iteri
        (fun i (fired, guard_failed, conflicted, skipped) ->
          let r = rules_arr.(i) in
          r.Rule.fired <- fired;
          r.Rule.guard_failed <- guard_failed;
          r.Rule.conflicted <- conflicted;
          r.Rule.skipped <- skipped)
        per_rule;
      (* Parking is not snapshotted: un-parking every rule forces predicate
         re-evaluation, which cannot change fire counts (skip accounting
         depends only on predicate results). *)
      Bytes.fill t.parked 0 n '\000';
      t.history <- history;
      t.history_depth <- history_depth);
  t

let clock t = t.clk
let cycles t = t.n_cycles
let total_fires t = t.fires
let rules t = t.rule_list
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
    Array.iteri (fun i _ -> t.order.(i) <- i) t.order;
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

let shuffle rng (a : int array) =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done


(* ---------------------------------------------------------------------- *)
(* The cycle loop                                                         *)
(*                                                                        *)
(* Every Multi/Shuffle cycle runs each rule once, in schedule order, on   *)
(* the one context; then the cycle closes: [Clock.tick] runs the clock's  *)
(* samplers and the edge workers armed this cycle (this advances the      *)
(* snapshots of the conflict-free FIFOs that were touched, waking parked  *)
(* rules on both sides), and the history ring and end-of-cycle hooks see  *)
(* the quiescent state. A serial pass over the schedule is the            *)
(* direct software reading of CMD's "a cycle's fired rules are explained  *)
(* by firing them one by one".                                            *)
(* ---------------------------------------------------------------------- *)

(* Close a cycle that fired [fired] rules. *)
let close_cycle t fired =
  let cyc = t.n_cycles in
  Clock.tick t.clk;
  if t.history_depth > 0 then begin
    let names = ref [] in
    for i = Array.length t.order - 1 downto 0 do
      let rid = Array.unsafe_get t.order i in
      if t.fmask.(rid) then begin
        names := t.rules_arr.(rid).Rule.name :: !names;
        t.fmask.(rid) <- false
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
  (match t.rng with Some rng -> shuffle rng t.order | None -> ());
  let order = t.order in
  let fired = ref 0 in
  for i = 0 to Array.length order - 1 do
    fired := step t (Array.unsafe_get order i) !fired
  done;
  close_cycle t !fired

(* One_per_cycle: the reference executor commits at most one rule per
   cycle, trying the rules from a rotating start so none starves. *)
let cycle_one t =
  let n = Array.length t.order in
  let fired = ref 0 and i = ref 0 in
  while !fired = 0 && !i < n do
    fired := step t t.order.((t.rr + !i) mod n) !fired;
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
