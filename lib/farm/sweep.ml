(* The crash-safe simulation farm.

   A sweep is thousands of independent jobs — litmus seeds, fault trials,
   perf configs — drained work-stealing style over the process-global
   worker-domain pool ([Cmd.Sim.pool_run], which exists for this farm):
   the main domain participates, pool workers steal, and each job builds
   and runs its machines on the domain that claimed it (the
   snapshot/injection/invariant registries and the ambient cluster are
   all domain-local, so concurrent builds don't interfere).

   Fault tolerance:
   - a monitor thread enforces a per-attempt wall-clock timeout by setting
     the job's cancel flag, which the job polls from its cycle hook;
   - failed or hung jobs are retried in later rounds with exponential
     backoff between rounds, up to [max_retries];
   - jobs still failing then are quarantined: journaled with the exact
     error and a deterministic replay command instead of poisoning the
     sweep;
   - every terminal record (ok or quarantined) is appended to a
     checksummed, fsync'd journal, so a SIGKILL at any point loses at most
     the in-flight jobs — [resume:true] recovers the journal and re-runs
     only the jobs without a record.

   Canonical results ([results_json]) are sorted by job id and carry no
   volatile fields, so a resumed sweep's results are byte-identical to an
   uninterrupted one. *)

type job = {
  id : string; (* unique, stable: the journal key *)
  kind : string;
  spec : (string * Json.t) list; (* replay parameters, echoed in results *)
  replay : string; (* deterministic replay command *)
  run : should_stop:(unit -> bool) -> Json.t;
}

type config = {
  workers : int; (* pool helper domains (total parallelism = workers + 1) *)
  timeout_s : float; (* per-attempt wall clock; 0 = no timeout *)
  max_retries : int; (* retry rounds after the first attempt *)
  backoff_s : float; (* round r waits backoff_s * 2^(r-1), capped *)
}

let default_config = { workers = 3; timeout_s = 60.; max_retries = 2; backoff_s = 0.05 }

(* Raised inside a job when its cancel flag fires (timeout or shutdown). *)
exception Cancelled

type status = Finished of Json.t | Quarantined of { error : string; replay : string }

type record = {
  job_id : string;
  kind : string;
  spec : (string * Json.t) list;
  status : status;
  attempts : int;
  resumed : bool; (* recovered from the journal, not run this time *)
}

type outcome = {
  records : record list; (* sorted by job id *)
  n_ok : int;
  n_quarantined : int;
  n_resumed : int;
  n_unfinished : int; (* interrupted before every job got a record *)
  interrupted : bool;
}

(* ------------------------------------------------------------------ *)
(* Journal records                                                    *)
(* ------------------------------------------------------------------ *)

let record_to_json r =
  let base =
    [
      ("job", Json.Str r.job_id);
      ("kind", Json.Str r.kind);
      ("attempts", Json.Int r.attempts);
    ]
  in
  match r.status with
  | Finished result -> Json.Obj (base @ [ ("status", Json.Str "ok"); ("result", result) ])
  | Quarantined { error; replay } ->
    Json.Obj
      (base
      @ [
          ("status", Json.Str "quarantined");
          ("error", Json.Str error);
          ("replay", Json.Str replay);
        ])

let record_of_json j =
  match (Json.get_str "job" j, Json.get_str "kind" j, Json.get_str "status" j) with
  | Some job_id, Some kind, Some status -> (
    let attempts = Option.value ~default:1 (Json.get_int "attempts" j) in
    match status with
    | "ok" ->
      Option.map
        (fun result ->
          { job_id; kind; spec = []; status = Finished result; attempts; resumed = true })
        (Json.mem "result" j)
    | "quarantined" ->
      let error = Option.value ~default:"?" (Json.get_str "error" j) in
      let replay = Option.value ~default:"" (Json.get_str "replay" j) in
      Some { job_id; kind; spec = []; status = Quarantined { error; replay }; attempts; resumed = true }
    | _ -> None)
  | _ -> None

(* The manifest digest binds a journal to the job set it was sweeping:
   resuming against a different manifest is refused. Job ids are the
   identity — they encode every parameter of the job. *)
let manifest_digest jobs =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map (fun j -> j.id) jobs)))

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

type slot = {
  sj : job;
  cancel : bool Atomic.t;
  deadline : float Atomic.t; (* 0. = not running; monitor thread reads *)
  mutable attempts : int;
  mutable last_error : string;
  mutable state : [ `Pending | `Done | `Skipped ];
}

let run ?journal ?(resume = false) ?(should_stop = fun () -> false) ?abort_after
    ?(log = fun _ -> ()) config jobs =
  (* job ids are the journal key and the resume identity: enforce uniqueness *)
  let seen = Hashtbl.create 97 in
  List.iter
    (fun j ->
      if Hashtbl.mem seen j.id then invalid_arg ("Farm.Sweep.run: duplicate job id " ^ j.id);
      Hashtbl.add seen j.id ())
    jobs;
  let digest = manifest_digest jobs in
  (* --- resume: recover finished jobs from the journal --- *)
  let recovered = Hashtbl.create 97 in
  (match journal with
  | Some path when resume && Sys.file_exists path ->
    let r = Journal.recover path ~manifest_digest:digest in
    List.iter
      (fun v ->
        match record_of_json v with
        | Some rec_ when Hashtbl.mem seen rec_.job_id ->
          Hashtbl.replace recovered rec_.job_id rec_ (* later records shadow earlier *)
        | _ -> ())
      r.records;
    List.iter (fun msg -> log (Printf.sprintf "journal: skipped %s" msg)) r.bad;
    log
      (Printf.sprintf "resume: %d of %d jobs already journaled" (Hashtbl.length recovered)
         (List.length jobs))
  | _ -> ());
  let jnl =
    match journal with
    | None -> None
    | Some path ->
      if resume && Sys.file_exists path then Some (Journal.reopen path)
      else Some (Journal.create path ~manifest_digest:digest)
  in
  (* --- abort hook (tests): stop scheduling after N appends, as if killed --- *)
  let aborted = Atomic.make false in
  let appended = Atomic.make 0 in
  let journal_record r =
    (match jnl with Some j -> Journal.append j (record_to_json r) | None -> ());
    let n = Atomic.fetch_and_add appended 1 + 1 in
    match abort_after with Some cap when n >= cap -> Atomic.set aborted true | _ -> ()
  in
  let stopping () = Atomic.get aborted || should_stop () in
  (* --- slots for the jobs that still need to run --- *)
  let slots =
    jobs
    |> List.filter (fun j -> not (Hashtbl.mem recovered j.id))
    |> List.map (fun j ->
           {
             sj = j;
             cancel = Atomic.make false;
             deadline = Atomic.make 0.;
             attempts = 0;
             last_error = "";
             state = `Pending;
           })
    |> Array.of_list
  in
  let done_records = ref [] in
  let done_mu = Mutex.create () in
  let finish slot r =
    slot.state <- `Done;
    Mutex.lock done_mu;
    done_records := r :: !done_records;
    Mutex.unlock done_mu;
    journal_record r
  in
  (* --- monitor thread: wall-clock timeouts --- *)
  let farm_live = Atomic.make true in
  let monitor =
    if config.timeout_s > 0. && Array.length slots > 0 then
      Some
        (Thread.create
           (fun () ->
             while Atomic.get farm_live do
               let now = Unix.gettimeofday () in
               Array.iter
                 (fun s ->
                   let d = Atomic.get s.deadline in
                   if d > 0. && now > d then Atomic.set s.cancel true)
                 slots;
               Thread.delay 0.02
             done)
           ())
    else None
  in
  let attempt slot =
    if slot.state = `Pending then begin
      if stopping () then slot.state <- `Skipped
      else begin
        slot.attempts <- slot.attempts + 1;
        Atomic.set slot.cancel false;
        if config.timeout_s > 0. then
          Atomic.set slot.deadline (Unix.gettimeofday () +. config.timeout_s);
        let stop_this () = Atomic.get slot.cancel || stopping () in
        (match slot.sj.run ~should_stop:stop_this with
        | result ->
          finish slot
            {
              job_id = slot.sj.id;
              kind = slot.sj.kind;
              spec = slot.sj.spec;
              status = Finished result;
              attempts = slot.attempts;
              resumed = false;
            }
        | exception Cancelled ->
          if stopping () then slot.state <- `Skipped
            (* shutdown, not the job's fault: leave it unfinished for resume *)
          else
            slot.last_error <-
              Printf.sprintf "timed out (wall-clock limit %gs)" config.timeout_s
        | exception e -> slot.last_error <- Printexc.to_string e);
        Atomic.set slot.deadline 0.
      end
    end
  in
  (* --- retry rounds with exponential backoff --- *)
  let round = ref 0 in
  let pending () =
    Array.exists (fun s -> s.state = `Pending) slots && not (stopping ())
  in
  while !round <= config.max_retries && pending () do
    if !round > 0 then begin
      let wait =
        Float.min 5. (config.backoff_s *. (2. ** float_of_int (!round - 1)))
      in
      log
        (Printf.sprintf "retry round %d: %d jobs, backoff %gs" !round
           (Array.fold_left (fun n s -> if s.state = `Pending then n + 1 else n) 0 slots)
           wait);
      Thread.delay wait
    end;
    let tasks =
      Array.to_seq slots
      |> Seq.filter (fun s -> s.state = `Pending)
      |> Seq.map (fun s () -> attempt s)
      |> Array.of_seq
    in
    Cmd.Sim.pool_run ~helpers:(max 0 config.workers) tasks;
    incr round
  done;
  (* --- quarantine what still fails (not what was merely skipped) --- *)
  Array.iter
    (fun s ->
      if s.state = `Pending && not (stopping ()) then
        finish s
          {
            job_id = s.sj.id;
            kind = s.sj.kind;
            spec = s.sj.spec;
            status = Quarantined { error = s.last_error; replay = s.sj.replay };
            attempts = s.attempts;
            resumed = false;
          })
    slots;
  Atomic.set farm_live false;
  Option.iter Thread.join monitor;
  (match jnl with Some j -> Journal.close j | None -> ());
  (* --- assemble: recovered + fresh, sorted by job id --- *)
  let fresh = !done_records in
  let all =
    Hashtbl.fold (fun _ r acc -> r :: acc) recovered []
    @ fresh
    |> List.map (fun r ->
           (* re-attach specs from the live job list (journal doesn't carry them) *)
           match List.find_opt (fun j -> j.id = r.job_id) jobs with
           | Some j -> { r with spec = j.spec }
           | None -> r)
    |> List.sort (fun a b -> compare a.job_id b.job_id)
  in
  let count f = List.length (List.filter f all) in
  let interrupted = stopping () in
  {
    records = all;
    n_ok = count (fun r -> match r.status with Finished _ -> true | _ -> false);
    n_quarantined = count (fun r -> match r.status with Quarantined _ -> true | _ -> false);
    n_resumed = count (fun r -> r.resumed);
    n_unfinished = List.length jobs - List.length all;
    interrupted;
  }

(* ------------------------------------------------------------------ *)
(* Canonical results                                                  *)
(* ------------------------------------------------------------------ *)

(* Deterministic by construction: sorted by job id, and no volatile fields
   (attempt counts, timings, resume provenance) — so an interrupted sweep,
   resumed to completion, produces the same bytes as an uninterrupted one. *)
let results_json o =
  let job_json r =
    let base = [ ("id", Json.Str r.job_id); ("kind", Json.Str r.kind) ] in
    let spec = match r.spec with [] -> [] | s -> [ ("spec", Json.Obj s) ] in
    match r.status with
    | Finished result ->
      Json.Obj (base @ spec @ [ ("status", Json.Str "ok"); ("result", result) ])
    | Quarantined { error; replay } ->
      Json.Obj
        (base @ spec
        @ [
            ("status", Json.Str "quarantined");
            ("error", Json.Str error);
            ("replay", Json.Str replay);
          ])
  in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str "riscyoo-farm-results-v1");
         ("jobs", Json.Int (List.length o.records));
         ("ok", Json.Int o.n_ok);
         ("quarantined", Json.Int o.n_quarantined);
         ("results", Json.List (List.map job_json o.records));
       ])
  ^ "\n"

let quarantined o =
  List.filter_map
    (fun r ->
      match r.status with
      | Quarantined { error; replay } -> Some (r.job_id, error, replay)
      | Finished _ -> None)
    o.records

(* ------------------------------------------------------------------ *)
(* Cycle-hook adapter                                                 *)
(* ------------------------------------------------------------------ *)

(* Cheap cancellation polling for machine-based jobs: check the flag every
   256 cycles from the machine's [on_cycle] hook and raise out of the run. *)
let cancel_hook ~should_stop =
  fun c -> if c land 255 = 0 && should_stop () then raise Cancelled
