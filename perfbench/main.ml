(* perfbench: the repository's benchmark. See perfbench/README.md for the
   workloads, the metrics and what each layer metric should move.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --self-check

   The parent process measures for [--seconds] by running repetitions,
   each in a fresh child process (this same executable with [--child]).
   A child starts with empty litmus warm-fork and reference-set caches
   (they live in Domain.DLS for a process's lifetime), a fresh heap, no
   worker pool, and its own VmHWM, so no repetition inherits anything from
   an earlier one. The parent reports medians over repetitions; the last
   line of its standard output is the JSON result. *)

let workloads = [ "spec-serial"; "parsec16-epoch"; "litmus-farm" ]

(* name, unit — the same lists as BENCHMARK.json, which --self-check
   verifies *)
let end_to_end =
  [
    ("sim_kips", "kinstr/s");
    ("ipc", "instr/cycle");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("jobs_per_s", "1/s");
    ("job_p50_ms", "ms");
    ("job_p95_ms", "ms");
    ("ok_share", "share");
  ]

let per_layer =
  [
    ("workloads.kernel_gen_s", "s");
    ("workloads.machine_create_s", "s");
    ("cmd.conflict.compile_s", "s");
    ("workloads.machine_run_s", "s");
    ("cmd.sim.step_us_p50", "us");
    ("cmd.sim.step_us_p99", "us");
    ("cmd.sim.compiled_speedup", "x");
    ("cmd.sim.par_speedup", "x");
    ("cmd.state.snapshot_ms", "ms");
    ("cmd.state.restore_ms", "ms");
    ("cmd.state.snapshot_mb", "MB");
    ("litmus.ref_sets_s", "s");
    ("mcheck.dpor.states", "count");
    ("mcheck.dpor.transitions", "count");
    ("farm.busy_share", "share");
    ("ocaml.gc.share", "share");
    ("ocaml.gc.minor_words_pki", "words/kinstr");
    ("ocaml.gc.promoted_words_pki", "words/kinstr");
    ("ocaml.gc.top_heap_mb", "MB");
  ]
  @ List.map (fun g -> (g ^ ".attempts_per_cycle", "attempts/cycle")) Work.groups
  @ [
      ("cmd.sched.skip_share", "share");
      ("cmd.sched.aborts_pkc", "1/kcycle");
      ("branch.mispredicts_pki", "1/kinstr");
      ("mem.l1d.mpki", "1/kinstr");
      ("mem.l2.mpki", "1/kinstr");
      ("tlb.dtlb_mpki", "1/kinstr");
      ("tlb.walk_cycles_pki", "cycles/kinstr");
      ("ooo.rob_full_share", "share");
      ("ooo.ld_kill_pki", "1/kinstr");
      ("trace.overhead_share", "share");
      ("trace.unattributed_share", "share");
    ]

let work_dir = ".perfbench"

(* ------------------------------------------------------------------ *)
(* Child: one repetition                                                *)
(* ------------------------------------------------------------------ *)

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let child ~workload ~seed ~rep ~traced ~short ~corrupt_golden =
  if traced then begin
    Trace.on := true;
    Trace.gc_start ()
  end;
  let root = Trace.start ~parent:(-1) ("rep." ^ workload) in
  let r =
    {
      Work.traced;
      root;
      short;
      corrupt_golden;
      attempted = 0;
      failed = 0;
      out = [];
      job_ms = [];
      counts = Hashtbl.create 64;
      runs = [];
      domains = 1;
      minor = 0.;
      promoted = 0.;
    }
  in
  (match workload with
  | "spec-serial" -> Work.spec_serial r
  | "parsec16-epoch" -> Work.parsec16_epoch r
  | _ -> Work.litmus_farm r ~seed ~rep);
  Trace.stop root;
  Cmd.Sim.shutdown_pool ();
  Work.emit r "peak_rss_mb" (vm_hwm_mb ());
  if traced then begin
    let self = Trace.self_times () in
    let wall = Trace.secs !Trace.spans.(root).start !Trace.spans.(root).stop in
    Work.emit r "trace.unattributed_share" (self.(root) /. wall);
    List.iter (fun (n, t) -> Printf.eprintf "  self %-28s %8.3f s\n" n t) (Trace.self_by_name ());
    Printf.eprintf "  traced wall %.3f s, %d spans, %.1f%% unattributed\n%!" wall !Trace.n_spans
      (100. *. self.(root) /. wall);
    Trace.write (Printf.sprintf "%s/spans-%s-s%d-r%d.jsonl" work_dir workload seed rep)
  end;
  Printf.printf "a %d\nf %d\n" r.attempted r.failed;
  List.iter (fun (n, v) -> Printf.printf "m %s %.17g\n" n v) (List.rev r.out);
  List.iter (fun v -> Printf.printf "l %.17g\n" v) r.job_ms

(* ------------------------------------------------------------------ *)
(* Parent                                                               *)
(* ------------------------------------------------------------------ *)

type rep_result = {
  ok : bool;  (** the child exited 0 *)
  attempted : int;
  failed : int;
  m : (string * float) list;
  lat : float list;
}

let spawn args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let m = ref [] and lat = ref [] and a = ref 0 and f = ref 0 in
  (try
     while true do
       let l = input_line ic in
       match String.split_on_char ' ' l with
       | [ "a"; n ] -> a := int_of_string n
       | [ "f"; n ] -> f := int_of_string n
       | [ "m"; k; v ] -> m := (k, float_of_string v) :: !m
       | [ "l"; v ] -> lat := float_of_string v :: !lat
       | _ -> prerr_endline l
     done
   with End_of_file -> ());
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  { ok; attempted = !a; failed = !f; m = !m; lat = !lat }

let rep_args ~workload ~seed ~rep ~traced ~short ~corrupt_golden =
  [ "--child"; "--workload"; workload; "--seed"; string_of_int seed; "--rep"; string_of_int rep;
    "--trace"; (if traced then "1" else "0") ]
  @ (if short then [ "--short" ] else [])
  @ if corrupt_golden then [ "--corrupt-golden" ] else []

(* Repetitions for about [seconds]: another one starts while it would
   end no more than half a repetition late. At least one runs; a traced
   run alternates untraced and traced repetitions, at least one of each. *)
let measure ?(short = false) ?(corrupt_golden = false) ~workload ~seed ~seconds ~trace () =
  (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.putenv "OCAML_RUNTIME_EVENTS_DIR" work_dir;
  let t0 = Unix.gettimeofday () in
  let rec go rep acc =
    let traced = trace && rep mod 2 = 1 in
    (* a traced repetition replays the previous one's inputs, so their
       simulated results can be compared *)
    let inputs = if traced then rep - 1 else rep in
    let res = spawn (rep_args ~workload ~seed ~rep:inputs ~traced ~short ~corrupt_golden) in
    Printf.eprintf "perfbench: %s rep %d%s: %s\n%!" workload rep
      (if traced then " (traced)" else "")
      (String.concat " "
         (List.filter_map
            (fun (k, v) -> if List.mem_assoc k end_to_end then Some (Printf.sprintf "%s=%.4g" k v) else None)
            (List.rev res.m)));
    let acc = (traced, res) :: acc in
    let elapsed = Unix.gettimeofday () -. t0 in
    let per_rep = elapsed /. float_of_int (rep + 1) in
    let enough = elapsed +. (per_rep /. 2.) >= float_of_int seconds && ((not trace) || rep >= 1) in
    if enough then List.rev acc else go (rep + 1) acc
  in
  go 0 []

let value res k = List.assoc_opt k res.m

let medians reps k =
  match List.filter_map (fun r -> value r k) reps with [] -> None | l -> Some (Work.median l)

(* The result: metrics in BENCHMARK.json order, as (name, unit, value). *)
let summarize ~workload ~trace reps =
  let all = List.map snd reps in
  let untraced = List.filter_map (fun (t, r) -> if t then None else Some r) reps in
  let traced = List.filter_map (fun (t, r) -> if t then Some r else None) reps in
  let attempted = List.fold_left (fun a r -> a + max r.attempted (if r.ok then 0 else 1)) 0 all in
  let failed = List.fold_left (fun a r -> a + if r.ok then r.failed else max 1 r.failed) 0 all in
  (* tracing must not perturb the simulation: each traced repetition's
     ipc equals that of the untraced one whose inputs it replayed *)
  let rec pairs = function
    | (false, u) :: (true, t) :: rest -> (u, t) :: pairs rest
    | _ :: rest -> pairs rest
    | [] -> []
  in
  let perturbed =
    List.filter (fun (u, t) -> value u "ipc" <> value t "ipc") (pairs reps) |> List.length
  in
  if perturbed > 0 then Printf.eprintf "perfbench: FAILED %d traced repetitions changed ipc\n%!" perturbed;
  let attempted = attempted + List.length (pairs reps) and failed = failed + perturbed in
  let lat = Float.Array.of_list (List.concat_map (fun r -> r.lat) untraced) in
  Printf.eprintf "perfbench: %d repetitions, %d job latency samples\n%!" (List.length untraced)
    (Float.Array.length lat);
  let metrics =
    if not trace then
      List.map
        (fun (k, u) ->
          let v =
            match k with
            | "job_p50_ms" -> Some (Work.percentile lat 0.50)
            | "job_p95_ms" -> Some (Work.percentile lat 0.95)
            | "ok_share" -> Some (1. -. (float_of_int failed /. float_of_int (max 1 attempted)))
            | k -> medians untraced k
          in
          (k, u, v))
        end_to_end
    else
      List.map
        (fun (k, u) ->
          let v =
            match k with
            | "trace.overhead_share" ->
              (* throughput lost to tracing, from the untraced repetitions
                 of this same run *)
              let key = if workload = "litmus-farm" then "jobs_per_s" else "sim_kips" in
              Option.bind (medians untraced key) (fun u ->
                  Option.map (fun t -> 1. -. (t /. u)) (medians traced key))
            | k -> medians traced k
          in
          (k, u, v))
        per_layer
  in
  (attempted, failed, List.for_all (fun r -> r.ok) all, metrics)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~attempted ~failed ~ok metrics =
  List.iter
    (fun (k, u, v) ->
      match v with
      | Some v -> Printf.printf "%-34s %14.6g %s\n" k v u
      | None -> Printf.printf "%-34s %14s %s\n" k "missing" u)
    metrics;
  let correct = ok && failed = 0 && List.for_all (fun (_, _, v) -> v <> None) metrics in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.filter_map
          (fun (k, u, v) ->
            Option.map (fun v -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_number v) u) v)
          metrics))

(* ------------------------------------------------------------------ *)
(* Self-check                                                           *)
(* ------------------------------------------------------------------ *)

(* BENCHMARK.json lists exactly the metrics this program prints. *)
let check_manifest () =
  let j = Rjson.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  let names key =
    Option.value ~default:[] (Rjson.get_list key j)
    |> List.filter_map (fun m ->
           match (Rjson.get_str "name" m, Rjson.get_str "unit" m) with
           | Some n, Some u -> Some (n, u)
           | _ -> None)
  in
  let wl = List.filter_map (Rjson.get_str "name") (Option.value ~default:[] (Rjson.get_list "workloads" j)) in
  names "end_to_end" = end_to_end && names "per_layer" = per_layer && wl = workloads

let self_check () =
  let problems = ref [] in
  let expect cond what = if not cond then problems := what :: !problems in
  expect (check_manifest ()) "BENCHMARK.json metric or workload list differs from the program's";
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let reps = measure ~short:true ~workload ~seed:1 ~seconds:0 ~trace () in
          let reps = if trace then reps else List.filteri (fun i _ -> i = 0) reps in
          let attempted, failed, ok, metrics = summarize ~workload ~trace reps in
          let table = if trace then per_layer else end_to_end in
          expect ok (workload ^ ": a repetition exited non-zero");
          expect (attempted > 0 && failed = 0)
            (Printf.sprintf "%s: %d of %d operations failed" workload failed attempted);
          List.iter
            (fun (k, u) ->
              expect
                (List.exists (fun (k', u', v) -> k = k' && u = u' && v <> None) metrics)
                (Printf.sprintf "%s: %s (%s) not printed" workload k u))
            table)
        [ false; true ])
    workloads;
  (* negative case: a wrong expected checksum is a counted failure, and
     the repetition still reports its other numbers *)
  let reps = measure ~short:true ~corrupt_golden:true ~workload:"spec-serial" ~seed:1 ~seconds:0 ~trace:false () in
  let attempted, failed, _, metrics = summarize ~workload:"spec-serial" ~trace:false reps in
  expect (failed >= 1 && failed <= attempted) "a wrong golden checksum was not counted as a failure";
  expect
    (List.exists (fun (k, _, v) -> k = "sim_kips" && v <> None) metrics)
    "a failed checksum lost the repetition's other metrics";
  match !problems with
  | [] ->
    print_endline "perfbench self-check: ok";
    exit 0
  | l ->
    List.iter (fun p -> Printf.printf "perfbench self-check: FAIL %s\n" p) (List.rev l);
    exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (spec-serial|parsec16-epoch|litmus-farm) --seed N --seconds S --trace 0|1\n\
    \       main.exe --self-check";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt k = function
    | k' :: v :: _ when k = k' -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let flag k = List.mem k args in
  let int k d = match opt k args with Some v -> (try int_of_string v with _ -> usage ()) | None -> d in
  if flag "--self-check" then self_check ();
  let workload = match opt "--workload" args with Some w when List.mem w workloads -> w | _ -> usage () in
  let seed = int "--seed" 1 and trace = int "--trace" 0 = 1 in
  if flag "--child" then
    child ~workload ~seed ~rep:(int "--rep" 0) ~traced:trace ~short:(flag "--short")
      ~corrupt_golden:(flag "--corrupt-golden")
  else begin
    let reps = measure ~workload ~seed ~seconds:(int "--seconds" 10) ~trace () in
    let attempted, failed, ok, metrics = summarize ~workload ~trace reps in
    print_result ~attempted ~failed ~ok metrics
  end
