(* Liveness watchdog over a Sim.

   In a CMD design misbehaviour can only surface as a guard that never
   lifts (every rule blocked — the whole design wedges) or as a livelock
   where rules still fire but no instruction ever commits (e.g. a fetch
   loop spinning against a stuck commit). The watchdog watches both: it
   trips when no rule fires, or the progress counter stands still, for
   [limit] consecutive cycles, and its report carries the last cycles of
   rule-firing history plus every rule's guard-fail/conflict counters —
   the scheduler diagnosing its own pathology, as the open-source BSV
   compiler note advocates.

   Both checks are live on the processor models: a rule fires only when
   its body returns normally, and an aggregate rule whose steps all
   decline fails its guard ([Kernel.require_effect]), so a wedged machine
   shows zero fires and an empty history ring. *)

type info = { at_cycle : int; reason : string; report : string }

exception Trip of info

type t = {
  sim : Cmd.Sim.t;
  limit : int;
  progress : (unit -> int) option;
  mutable idle : int; (* consecutive cycles with zero fires *)
  mutable stalled : int; (* consecutive cycles with no progress *)
  mutable last_progress : int;
  mutable trips : int;
}

let reset t =
  t.idle <- 0;
  t.stalled <- 0;
  (match t.progress with Some f -> t.last_progress <- f () | None -> ());
  ()

let trips t = t.trips

(* Rules that want to fire but can't: never fired since the last trip
   window started is approximated by "has guard-failed or conflicted a lot
   recently"; we report the full counter table sorted by starvation. *)
let report_of t reason =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt "@[<v>WATCHDOG: %s at cycle %d@," reason (Cmd.Sim.cycles t.sim);
  let rules =
    List.sort
      (fun (a : Cmd.Rule.t) (b : Cmd.Rule.t) ->
        compare (b.guard_failed + b.conflicted) (a.guard_failed + a.conflicted))
      (Cmd.Sim.rules t.sim)
  in
  Format.fprintf fmt "starved rules (fired / guard-failed / conflicted):@,";
  List.iter
    (fun (r : Cmd.Rule.t) ->
      if r.guard_failed > 0 || r.conflicted > 0 || r.fired = 0 then
        Format.fprintf fmt "  %-32s %9d %9d %9d@," r.name r.fired r.guard_failed r.conflicted)
    rules;
  (match Cmd.Sim.history t.sim with
  | [] -> ()
  | h ->
    Format.fprintf fmt "last %d cycles of rule firings:@," (List.length h);
    List.iter
      (fun (c, names) ->
        Format.fprintf fmt "  cycle %-9d %s@," c
          (if names = [] then "(nothing fired)" else String.concat " " names))
      h);
  Format.fprintf fmt "@]";
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let trip t reason =
  t.trips <- t.trips + 1;
  let info = { at_cycle = Cmd.Sim.cycles t.sim; reason; report = report_of t reason } in
  (* reset the streaks so a caller that catches the trip can keep running
     and will only be re-tripped after another full window *)
  reset t;
  raise (Trip info)

let monitor t _sim fired =
  if fired = 0 then t.idle <- t.idle + 1 else t.idle <- 0;
  (match t.progress with
  | Some f ->
    let p = f () in
    if p <> t.last_progress then begin
      t.last_progress <- p;
      t.stalled <- 0
    end
    else t.stalled <- t.stalled + 1
  | None -> ());
  if t.idle >= t.limit then
    trip t (Printf.sprintf "no rule fired for %d consecutive cycles" t.limit)
  else if t.progress <> None && t.stalled >= t.limit then
    trip t (Printf.sprintf "no instruction committed for %d consecutive cycles" t.limit)

let attach ?(history = 32) ?progress ~limit sim =
  if limit <= 0 then invalid_arg "Watchdog.attach: limit must be positive";
  Cmd.Sim.enable_history sim ~depth:history;
  let t =
    {
      sim;
      limit;
      progress;
      idle = 0;
      stalled = 0;
      last_progress = (match progress with Some f -> f () | None -> 0);
      trips = 0;
    }
  in
  Cmd.Sim.add_monitor sim (monitor t);
  t
