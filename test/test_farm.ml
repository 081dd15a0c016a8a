(* The simulation farm: work-stealing sweep with timeout/retry/quarantine,
   the crash-safe journal, and resume-with-byte-identical-results. Jobs here
   are synthetic (poison-style) so the suite exercises the farm machinery
   itself, not the simulators; litmus/fault integration rides the real
   machines in CI. *)

module Sweep = Farm.Sweep
module Journal = Farm.Journal
module Json = Farm.Json
module Jobs = Farm.Jobs

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("riscyoo-farm-test-" ^ name)
let log (_ : string) = ()

let cfg ?(workers = 2) ?(timeout_s = 10.) ?(max_retries = 2) () =
  { Sweep.workers; timeout_s; max_retries; backoff_s = 0.005 }

(* A deterministic job: succeeds with a value derived from its id. *)
let ok_job id =
  {
    Sweep.id = Printf.sprintf "ok/%04d" id;
    kind = "test";
    spec = [ ("n", Json.Int id) ];
    replay = Printf.sprintf "replay ok/%04d" id;
    run = (fun ~should_stop:_ -> Json.Obj [ ("v", Json.Int (id * 3)) ]);
  }

let failing_job id =
  {
    Sweep.id = Printf.sprintf "bad/%04d" id;
    kind = "test";
    spec = [];
    replay = Printf.sprintf "replay bad/%04d" id;
    run = (fun ~should_stop:_ -> failwith "injected");
  }

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let test_sweep_quarantine () =
  (* 100 jobs, three poisoned: exactly the poisoned ids quarantine, with
     their replay commands; everything else finishes. *)
  let poisoned = [ 13; 47; 88 ] in
  let jobs =
    List.init 100 (fun i -> if List.mem i poisoned then failing_job i else ok_job i)
  in
  let o = Sweep.run ~log (cfg ()) jobs in
  check_int "records" 100 (List.length o.Sweep.records);
  check_int "ok" 97 o.Sweep.n_ok;
  check_int "quarantined" 3 o.Sweep.n_quarantined;
  check_bool "not interrupted" false o.Sweep.interrupted;
  let q = Sweep.quarantined o in
  Alcotest.(check (list string))
    "exactly the poisoned jobs"
    (List.map (Printf.sprintf "bad/%04d") poisoned)
    (List.map (fun (id, _, _) -> id) q);
  List.iter (fun (id, _, replay) -> check_str "replay command" ("replay " ^ id) replay) q;
  (* every failed attempt = 1 + max_retries rounds; successes take one *)
  List.iter
    (fun (r : Sweep.record) ->
      match r.status with
      | Sweep.Quarantined _ -> check_int "attempts" 3 r.attempts
      | Sweep.Finished _ -> check_int "one attempt" 1 r.attempts)
    o.Sweep.records

let test_retry_flaky () =
  (* a job that fails twice then succeeds is retried to success *)
  let tries = Atomic.make 0 in
  let flaky =
    {
      Sweep.id = "flaky/0001";
      kind = "test";
      spec = [];
      replay = "replay flaky";
      run =
        (fun ~should_stop:_ ->
          if Atomic.fetch_and_add tries 1 < 2 then failwith "transient"
          else Json.Obj [ ("v", Json.Int 42) ]);
    }
  in
  let o = Sweep.run ~log (cfg ()) [ flaky ] in
  check_int "ok" 1 o.Sweep.n_ok;
  check_int "quarantined" 0 o.Sweep.n_quarantined;
  (match o.Sweep.records with
  | [ r ] -> check_int "three attempts" 3 r.Sweep.attempts
  | _ -> Alcotest.fail "expected one record");
  (* and with max_retries 1 the same job quarantines *)
  Atomic.set tries 0;
  let o = Sweep.run ~log (cfg ~max_retries:1 ()) [ flaky ] in
  check_int "quarantined under low retry cap" 1 o.Sweep.n_quarantined

let test_timeout_hang () =
  (* a hanging job trips the wall-clock monitor and quarantines; the
     deterministic error message names the configured limit *)
  let hang =
    {
      Sweep.id = "hang/0001";
      kind = "test";
      spec = [];
      replay = "replay hang";
      run =
        (fun ~should_stop ->
          while true do
            if should_stop () then raise Sweep.Cancelled;
            Unix.sleepf 0.001
          done;
          Json.Null);
    }
  in
  let o = Sweep.run ~log (cfg ~timeout_s:0.2 ~max_retries:0 ()) [ hang; ok_job 1 ] in
  check_int "ok" 1 o.Sweep.n_ok;
  check_int "quarantined" 1 o.Sweep.n_quarantined;
  match Sweep.quarantined o with
  | [ (_, err, _) ] -> check_str "timeout message" "timed out (wall-clock limit 0.2s)" err
  | _ -> Alcotest.fail "expected one quarantined job"

let test_duplicate_ids () =
  Alcotest.check_raises "duplicate job ids rejected"
    (Invalid_argument "Farm.Sweep.run: duplicate job id ok/0001")
    (fun () -> ignore (Sweep.run ~log (cfg ()) [ ok_job 1; ok_job 1 ]))

let test_journal_roundtrip () =
  let path = tmp "journal.jsonl" in
  let j = Journal.create path ~manifest_digest:"d00d" in
  Journal.append j (Json.Obj [ ("id", Json.Str "a"); ("v", Json.Int 1) ]);
  Journal.append j (Json.Obj [ ("id", Json.Str "b"); ("v", Json.Int 2) ]);
  Journal.close j;
  let r = Journal.recover path ~manifest_digest:"d00d" in
  check_int "records" 2 (List.length r.Journal.records);
  check_int "bad lines" 0 (List.length r.Journal.bad);
  (* wrong manifest refuses *)
  (try
     ignore (Journal.recover path ~manifest_digest:"beef");
     Alcotest.fail "mismatched manifest accepted"
   with Journal.Corrupt _ -> ());
  Sys.remove path

let test_journal_torn_line () =
  (* a torn tail (partial write at kill time) is confined to its line:
     recovery keeps every intact record before AND after it *)
  let path = tmp "torn.jsonl" in
  let j = Journal.create path ~manifest_digest:"d00d" in
  Journal.append j (Json.Obj [ ("id", Json.Str "a") ]);
  Journal.append j (Json.Obj [ ("id", Json.Str "b") ]);
  Journal.close j;
  (* chop the tail mid-record to simulate the kill *)
  let ic = open_in_bin path in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full - 7));
  close_out oc;
  let r = Journal.recover path ~manifest_digest:"d00d" in
  check_int "intact records survive" 1 (List.length r.Journal.records);
  check_int "torn line reported" 1 (List.length r.Journal.bad);
  (* a resumed run reopens and appends cleanly after the tear *)
  let j = Journal.reopen path in
  Journal.append j (Json.Obj [ ("id", Json.Str "c") ]);
  Journal.close j;
  let r = Journal.recover path ~manifest_digest:"d00d" in
  check_int "post-tear append recovered" 2 (List.length r.Journal.records);
  Sys.remove path

let test_resume_byte_identical () =
  (* kill mid-sweep (abort_after), resume, and demand the final results file
     is byte-identical to an uninterrupted run's *)
  let mk_jobs () = List.init 40 (fun i -> if i = 7 then failing_job i else ok_job i) in
  let path = tmp "resume.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let uninterrupted = Sweep.run ~log (cfg ()) (mk_jobs ()) in
  let o1 = Sweep.run ~log ~journal:path ~abort_after:11 (cfg ()) (mk_jobs ()) in
  check_bool "first run interrupted" true o1.Sweep.interrupted;
  check_bool "some jobs unfinished" true (o1.Sweep.n_unfinished > 0);
  let o2 = Sweep.run ~log ~journal:path ~resume:true (cfg ()) (mk_jobs ()) in
  check_bool "resume completed" false o2.Sweep.interrupted;
  check_bool "resume reused journaled results" true (o2.Sweep.n_resumed > 0);
  check_int "all jobs have records" 40 (List.length o2.Sweep.records);
  check_str "byte-identical results" (Sweep.results_json uninterrupted) (Sweep.results_json o2);
  (* resuming a COMPLETE journal runs nothing *)
  let o3 = Sweep.run ~log ~journal:path ~resume:true (cfg ()) (mk_jobs ()) in
  check_int "fully resumed" 40 o3.Sweep.n_resumed;
  check_str "still byte-identical" (Sweep.results_json uninterrupted) (Sweep.results_json o3);
  Sys.remove path

let test_external_stop () =
  (* the driver's SIGINT path: should_stop flips mid-sweep; in-flight jobs
     cancel, nothing is quarantined for it, and the sweep reports
     interrupted with the journal consistent for resume *)
  let path = tmp "stop.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let done_count = Atomic.make 0 in
  let stop = Atomic.make false in
  let jobs =
    List.init 30 (fun i ->
        {
          Sweep.id = Printf.sprintf "s/%04d" i;
          kind = "test";
          spec = [];
          replay = "replay";
          run =
            (fun ~should_stop ->
              if Atomic.fetch_and_add done_count 1 = 9 then Atomic.set stop true;
              if should_stop () then raise Sweep.Cancelled;
              Json.Obj [ ("v", Json.Int i) ]);
        })
  in
  let o = Sweep.run ~log ~journal:path ~should_stop:(fun () -> Atomic.get stop) (cfg ()) jobs in
  check_bool "interrupted" true o.Sweep.interrupted;
  check_bool "unfinished jobs remain" true (o.Sweep.n_unfinished > 0);
  check_int "nothing quarantined by the stop" 0 o.Sweep.n_quarantined;
  (* resume finishes the rest *)
  Atomic.set stop false;
  let o2 = Sweep.run ~log ~journal:path ~resume:true (cfg ()) jobs in
  check_int "all records" 30 (List.length o2.Sweep.records);
  check_int "all ok" 30 o2.Sweep.n_ok;
  Sys.remove path

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  let s = Json.to_string v in
  check_bool "round trip" true (Json.of_string s = v);
  check_str "canonical reprint" s (Json.to_string (Json.of_string s));
  try
    ignore (Json.of_string "{\"a\": }");
    Alcotest.fail "accepted malformed JSON"
  with Json.Parse_error _ -> ()

let test_manifest () =
  let m =
    Jobs.of_string
      {|{"schema": "riscyoo-farm-manifest-v1",
         "sweeps": [
           {"type": "poison", "jobs": 5, "cycles": 10, "fail": [2], "hang": [], "flaky": [4]},
           {"type": "litmus", "tests": ["sb"], "models": ["tso"], "seeds": 3,
            "stagger": false, "warm": true}
         ]}|}
  in
  let jobs = Jobs.jobs ~manifest_path:"m.json" m in
  check_int "5 poison + 3 litmus jobs" 8 (List.length jobs);
  let ids = List.map (fun (j : Sweep.job) -> j.id) jobs in
  check_bool "poison ids" true (List.mem "poison/job0002" ids);
  check_bool "litmus ids" true (List.mem "litmus/SB/tso/nostagger/seed00003" ids);
  List.iter
    (fun (j : Sweep.job) ->
      check_str "replay command" ("riscyoo farm m.json --only " ^ j.id) j.replay)
    jobs;
  (* schema and type errors are clean Parse_errors *)
  (try
     ignore (Jobs.of_string {|{"schema": "nope", "sweeps": []}|});
     Alcotest.fail "accepted wrong schema"
   with Json.Parse_error _ -> ());
  try
    ignore (Jobs.of_string {|{"schema": "riscyoo-farm-manifest-v1", "sweeps": [{"type": "x"}]}|});
    Alcotest.fail "accepted unknown sweep type"
  with Json.Parse_error _ -> ()

let test_poison_manifest_run () =
  (* the acceptance sweep in miniature: poison manifest through the real
     farm; exactly the poisoned ids quarantine, the flaky one retries *)
  let m =
    Jobs.of_string
      {|{"schema": "riscyoo-farm-manifest-v1",
         "sweeps": [{"type": "poison", "jobs": 30, "cycles": 500,
                     "fail": [3, 17], "flaky": [9]}]}|}
  in
  let o = Sweep.run ~log (cfg ()) (Jobs.jobs m) in
  check_int "ok" 28 o.Sweep.n_ok;
  Alcotest.(check (list string))
    "quarantined ids"
    [ "poison/job0003"; "poison/job0017" ]
    (List.map (fun (id, _, _) -> id) (Sweep.quarantined o));
  List.iter
    (fun (r : Sweep.record) ->
      if r.Sweep.job_id = "poison/job0009" then check_int "flaky retried" 2 r.Sweep.attempts)
    o.Sweep.records

let test_tso_violation_forbidden () =
  (* a TSO MP run whose outcome only WMM admits (the stale-load shape) is
     a TSO violation: the rebuilt report must list it as forbidden and
     fail, and the farm must name its job *)
  let mp = Litmus.Test.mp in
  let tso = Litmus.Ref_model.allowed mp ~model:Litmus.Ref_model.TSO in
  let o =
    List.find
      (fun o -> not (Litmus.Ref_model.is_allowed tso o))
      (Litmus.Ref_model.allowed mp ~model:Litmus.Ref_model.WMM)
  in
  check_str "WMM-only outcome" "WMM-relaxed"
    (Litmus.Run.cls_to_string (Litmus.Run.classify_outcome mp o));
  let r =
    {
      Sweep.job_id = "litmus/MP/tso/nostagger/seed00001";
      kind = "litmus";
      spec =
        [
          ("test", Json.Str "MP");
          ("model", Json.Str "tso");
          ("seed", Json.Int 1);
          ("stagger", Json.Bool false);
          ("obligations", Json.Bool false);
        ];
      status =
        Sweep.Finished
          (Json.Obj
             [
               ("outcome", Json.List (Array.to_list (Array.map (fun v -> Json.Int v) o)));
               ("outcome_str", Json.Str (Litmus.Test.outcome_to_string mp o));
               ("class", Json.Str "WMM-relaxed");
               ("allowed", Json.Bool false);
             ]);
      attempts = 1;
      resumed = false;
    }
  in
  let outcome =
    {
      Sweep.records = [ r ];
      n_ok = 1;
      n_quarantined = 0;
      n_resumed = 0;
      n_unfinished = 0;
      interrupted = false;
    }
  in
  match Jobs.litmus_reports outcome with
  | [ rep ] ->
    check_bool "ok" false (Litmus.Run.ok rep);
    Alcotest.(check (list string))
      "forbidden outcomes"
      [ Litmus.Test.outcome_to_string mp o ]
      (List.map (fun (o, _, _) -> Litmus.Test.outcome_to_string mp o) rep.Litmus.Run.forbidden);
    Alcotest.(check (list string)) "disallowed jobs" [ r.Sweep.job_id ]
      (List.map fst (Jobs.disallowed outcome))
  | reps -> Alcotest.failf "expected one report, got %d" (List.length reps)

let test_farm_hist_matches_sweep () =
  (* the farm's histogram rebuild and [riscyoo litmus --hist] are one fold
     over the same runs: a stagger-free farm sweep serializes byte-equal
     to the sweeps of the same (test, model, seed) product *)
  let tests = Litmus.Test.[ sb; mp; iriw ] and models = Ooo.Config.[ TSO; WMM ] in
  let m =
    Jobs.of_string
      {|{"schema": "riscyoo-farm-manifest-v1",
         "sweeps": [{"type": "litmus", "tests": ["sb", "mp", "iriw"],
                     "models": ["tso", "wmm"], "seeds": 3, "stagger": false}]}|}
  in
  let o = Sweep.run ~log (cfg ~workers:0 ~timeout_s:0. ()) (Jobs.jobs m) in
  check_int "all finished" 18 o.Sweep.n_ok;
  let reports =
    List.concat_map
      (fun model -> List.map (Litmus.Run.sweep ~seeds:3 ~stagger:false ~model) tests)
      models
  in
  match Jobs.litmus_json ~seeds:3 o with
  | Some json ->
    check_str "farm hist = litmus hist" (Litmus.Run.reports_to_json ~seeds:3 reports) json
  | None -> Alcotest.fail "no litmus records"

let suite =
  let t = Alcotest.test_case in
  [
    t "quarantines exactly the poisoned jobs" `Quick test_sweep_quarantine;
    t "retries a flaky job to success" `Quick test_retry_flaky;
    t "wall-clock timeout quarantines a hang" `Quick test_timeout_hang;
    t "rejects duplicate job ids" `Quick test_duplicate_ids;
    t "journal round trip and manifest binding" `Quick test_journal_roundtrip;
    t "journal confines a torn line" `Quick test_journal_torn_line;
    t "resume after mid-sweep kill is byte-identical" `Quick test_resume_byte_identical;
    t "external stop leaves a resumable journal" `Quick test_external_stop;
    t "json canonical round trip" `Quick test_json_roundtrip;
    t "manifest parsing and job expansion" `Quick test_manifest;
    t "poison manifest end to end" `Quick test_poison_manifest_run;
    t "a TSO outcome only WMM admits is forbidden" `Quick test_tso_violation_forbidden;
    t "farm histogram equals the litmus sweep's" `Quick test_farm_hist_matches_sweep;
  ]
