(* Manifest-driven job production: a riscyoo-farm-manifest-v1 JSON names
   sweeps; each sweep expands into independent, individually-replayable
   {!Sweep.job}s.

   Three sweep types:
   - [litmus]: the (tests x models x seeds) product, one machine
     built per seed, via {!Litmus.Run.farm_jobs}.
   - [fault]: the trials of a seeded bit-flip campaign on a workload
     kernel, each trial's RNG independent ({!Verif.Fault.farm_trial}).
     The golden reference and injection horizon are computed once per
     domain (deterministic, so every domain agrees) and cached.
   - [poison]: synthetic jobs for exercising the farm's own fault
     tolerance — selected indices fail deterministically after N
     synthetic cycles, hang until cancelled, or fail once then succeed. *)

let spf = Printf.sprintf

type litmus_sweep = {
  ls_tests : Litmus.Test.t list;
  ls_models : Ooo.Config.mem_model list;
  ls_seeds : int;
  ls_stagger : bool;
  ls_obligations : bool;  (* arm the interface-obligation monitors per run *)
}

type fault_sweep = {
  fs_kernel : string;
  fs_config : string;
  fs_cores : int;
  fs_scale : int;
  fs_trials : int;
  fs_seed : int;
}

type poison_sweep = {
  ps_jobs : int;
  ps_cycles : int;  (* synthetic cycles of busy work per job *)
  ps_fail : int list;  (* indices that fail deterministically -> quarantine *)
  ps_hang : int list;  (* indices that spin until cancelled -> timeout *)
  ps_flaky : int list;  (* indices that fail once, then succeed -> retry *)
}

type sweep =
  | Litmus of litmus_sweep
  | Fault of fault_sweep
  | Poison of poison_sweep
  | Explore of Explore.Space.t

type manifest = { sweeps : sweep list }

let schema = "riscyoo-farm-manifest-v1"

(* ------------------------------ parsing -------------------------------- *)

let bad fmt = Printf.ksprintf (fun s -> raise (Json.Parse_error ("manifest: " ^ s))) fmt

let str_of v = match Json.str v with Some s -> s | None -> bad "expected a string"
let int_of v = match Json.int v with Some i -> i | None -> bad "expected an integer"
let opt_int obj key d = match Json.get_int key obj with Some v -> v | None -> d
let opt_bool obj key d = match Json.get_bool key obj with Some v -> v | None -> d
let opt_str obj key d = match Json.get_str key obj with Some v -> v | None -> d

let opt_int_list obj key =
  match Json.get_list key obj with Some l -> List.map int_of l | None -> []

let model_of_string s =
  match String.lowercase_ascii s with
  | "tso" -> Ooo.Config.TSO
  | "wmm" -> Ooo.Config.WMM
  | m -> bad "unknown memory model %S (want tso or wmm)" m

let test_of_string n =
  match Litmus.Test.find n with
  | Some t -> t
  | None ->
    bad "unknown litmus test %S (have: %s)" n
      (String.concat " " (List.map (fun (t : Litmus.Test.t) -> t.name) Litmus.Test.all))

let parse_sweep j =
  match Json.get_str "type" j with
  | None -> bad "sweep entry lacks a \"type\""
  | Some (("litmus" | "mcheck") as ty) ->
    (* "mcheck" is the litmus product with the interface-obligation
       monitors armed by default — one job id namespace per run mode *)
    let ls_tests =
      match Json.mem "tests" j with
      | None | Some (Json.Str "all") -> Litmus.Test.all
      | Some (Json.List l) -> List.map (fun v -> test_of_string (str_of v)) l
      | Some v -> [ test_of_string (str_of v) ]
    in
    let ls_models =
      match Json.mem "models" j with
      | None -> [ Ooo.Config.TSO; Ooo.Config.WMM ]
      | Some (Json.List l) -> List.map (fun v -> model_of_string (str_of v)) l
      | Some v -> [ model_of_string (str_of v) ]
    in
    Litmus
      {
        ls_tests;
        ls_models;
        ls_seeds = opt_int j "seeds" 20;
        ls_stagger = opt_bool j "stagger" true;
        ls_obligations = opt_bool j "obligations" (ty = "mcheck");
      }
  | Some "fault" ->
    Fault
      {
        fs_kernel = opt_str j "kernel" "gcc";
        fs_config = opt_str j "config" "b";
        fs_cores = opt_int j "cores" 1;
        fs_scale = opt_int j "scale" 1;
        fs_trials = opt_int j "trials" 32;
        fs_seed = opt_int j "seed" 0xFA17;
      }
  | Some "poison" ->
    Poison
      {
        ps_jobs = opt_int j "jobs" 10;
        ps_cycles = opt_int j "cycles" 1000;
        ps_fail = opt_int_list j "fail";
        ps_hang = opt_int_list j "hang";
        ps_flaky = opt_int_list j "flaky";
      }
  | Some "explore" -> (
    (* the sweep object doubles as an explore manifest body: base, grid,
       points, workloads, reference — see {!Explore.Space} *)
    try Explore (Explore.Space.of_json ~check_schema:false j)
    with Explore.Space.Bad_manifest e -> bad "explore sweep: %s" e)
  | Some ty -> bad "unknown sweep type %S (want litmus, mcheck, fault, poison or explore)" ty

let of_json j =
  (match Json.mem "schema" j with
  | Some (Json.Str s) when s = schema -> ()
  | Some (Json.Str s) -> bad "schema %S, want %S" s schema
  | _ -> bad "missing \"schema\" (want %S)" schema);
  match Json.mem "sweeps" j with
  | Some (Json.List l) -> { sweeps = List.map parse_sweep l }
  | _ -> bad "missing \"sweeps\" array"

let of_string s = of_json (Json.of_string s)

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s

(* ---------------------------- litmus jobs ------------------------------ *)

let model_tag m = match m with Ooo.Config.TSO -> "tso" | Ooo.Config.WMM -> "wmm"

let cls_tag = Litmus.Run.cls_to_string

let litmus_job ~replay_of (fj : Litmus.Run.farm_job) =
  let id = Litmus.Run.farm_job_id fj in
  {
    Sweep.id;
    kind = "litmus";
    spec =
      [
        ("test", Json.Str fj.fj_test.Litmus.Test.name);
        ("model", Json.Str (model_tag fj.fj_model));
        ("seed", Json.Int fj.fj_seed);
        ("stagger", Json.Bool fj.fj_stagger);
        ("obligations", Json.Bool fj.fj_obligations);
      ];
    replay = replay_of id;
    run =
      (fun ~should_stop ->
        let on_cycle = Sweep.cancel_hook ~should_stop in
        let o, cls, allowed, obs = Litmus.Run.farm_run ~on_cycle fj in
        Json.Obj
          ([
             ("outcome", Json.List (Array.to_list (Array.map (fun v -> Json.Int v) o)));
             ("outcome_str", Json.Str (Litmus.Test.outcome_to_string fj.fj_test o));
             ("class", Json.Str (cls_tag cls));
             ("allowed", Json.Bool allowed);
           ]
          @
          if obs = [] then []
          else [ ("obligations", Json.Obj (List.map (fun (n, c) -> (n, Json.Int c)) obs)) ]));
  }

(* ----------------------------- fault jobs ------------------------------ *)

(* The campaign prologue ({!Workloads.Machine.fault_harness}) is
   deterministic, so each worker domain computes it once and caches it;
   every domain lands on the same horizon, keeping trial RNG derivation
   identical no matter which domain runs a trial. *)
let fault_env_cache :
    (string, Workloads.Machine.t Verif.Fault.harness * int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let fault_env fs =
  let key = spf "%s/%s/c%d/x%d" fs.fs_kernel fs.fs_config fs.fs_cores fs.fs_scale in
  let cache = Domain.DLS.get fault_env_cache in
  match Hashtbl.find_opt cache key with
  | Some e -> e
  | None ->
    let cfg =
      match Ooo.Config.of_name fs.fs_config with
      | Some (cfg, _) -> cfg
      | None -> bad "unknown fault config %S" fs.fs_config
    in
    let e =
      Workloads.Machine.fault_harness ~ncores:fs.fs_cores (Workloads.Machine.Out_of_order cfg)
        (Workloads.Spec_kernels.find fs.fs_kernel ~scale:fs.fs_scale)
    in
    Hashtbl.add cache key e;
    e

let trial_json (t : Verif.Fault.trial) =
  let outcome, detail =
    match t.outcome with
    | Verif.Fault.Masked -> ("masked", "")
    | Verif.Fault.Detected_divergence d -> ("divergence", d)
    | Verif.Fault.Detected_hang d -> ("hang", d)
  in
  Json.Obj
    [
      ("site", Json.Str t.site);
      ("bit", Json.Int t.bit);
      ("at_cycle", Json.Int t.at_cycle);
      ("applied", Json.Bool t.applied);
      ("outcome", Json.Str outcome);
      ("detail", Json.Str detail);
      ("diagnosed", Json.Bool t.diagnosed);
    ]

let fault_job ~replay_of fs id =
  let job_id =
    spf "fault/%s/%s/c%d/s%d/trial%04d" fs.fs_kernel fs.fs_config fs.fs_cores fs.fs_seed id
  in
  {
    Sweep.id = job_id;
    kind = "fault";
    spec =
      [
        ("kernel", Json.Str fs.fs_kernel);
        ("config", Json.Str fs.fs_config);
        ("cores", Json.Int fs.fs_cores);
        ("seed", Json.Int fs.fs_seed);
        ("trial", Json.Int id);
      ];
    replay = replay_of job_id;
    run =
      (fun ~should_stop ->
        let harness, horizon = fault_env fs in
        let on_cycle = Sweep.cancel_hook ~should_stop in
        let t =
          Verif.Fault.farm_trial ~on_cycle harness ~seed:fs.fs_seed ~trials:fs.fs_trials ~horizon
            ~id
        in
        trial_json t);
  }

(* ----------------------------- poison jobs ----------------------------- *)

let spin ~should_stop cycles =
  for c = 0 to cycles - 1 do
    Sweep.cancel_hook ~should_stop c;
    ignore (Sys.opaque_identity (c * c))
  done

let poison_job ~replay_of ps idx =
  let id = spf "poison/job%04d" idx in
  let mode =
    if List.mem idx ps.ps_fail then `Fail
    else if List.mem idx ps.ps_hang then `Hang
    else if List.mem idx ps.ps_flaky then `Flaky (Atomic.make 0)
    else `Ok
  in
  let mode_tag =
    match mode with `Fail -> "fail" | `Hang -> "hang" | `Flaky _ -> "flaky" | `Ok -> "ok"
  in
  {
    Sweep.id;
    kind = "poison";
    spec = [ ("mode", Json.Str mode_tag); ("cycles", Json.Int ps.ps_cycles) ];
    replay = replay_of id;
    run =
      (fun ~should_stop ->
        let ok () = Json.Obj [ ("value", Json.Int (idx * 7919)) ] in
        match mode with
        | `Ok ->
          spin ~should_stop ps.ps_cycles;
          ok ()
        | `Fail ->
          spin ~should_stop (ps.ps_cycles / 2);
          failwith (spf "poisoned: injected failure after %d cycles" (ps.ps_cycles / 2))
        | `Hang ->
          let c = ref 0 in
          while true do
            if should_stop () then raise Sweep.Cancelled;
            Unix.sleepf 0.001;
            incr c
          done;
          ok ()
        | `Flaky attempts ->
          if Atomic.fetch_and_add attempts 1 = 0 then
            failwith "poisoned: transient failure (first attempt only)"
          else begin
            spin ~should_stop ps.ps_cycles;
            ok ()
          end);
  }

(* ---------------------------- explore jobs ----------------------------- *)

let explore_job ~replay_of (space : Explore.Space.t) (w : Explore.Space.workload)
    (p : Explore.Space.point) =
  let pname = Explore.Space.name_of p in
  let id = spf "explore/%s/x%d/%s" w.Explore.Space.wname w.Explore.Space.scale pname in
  {
    Sweep.id;
    kind = "explore";
    spec =
      [
        ("workload", Json.Str w.Explore.Space.wname);
        ("scale", Json.Int w.Explore.Space.scale);
        ("base", Json.Str space.Explore.Space.base_name);
        ("point", Json.Str pname);
      ];
    replay = replay_of id;
    run =
      (fun ~should_stop ->
        let on_cycle = Sweep.cancel_hook ~should_stop in
        Explore.Measure.to_json (Explore.Measure.run ~on_cycle space p w));
  }

(* ------------------------------ expansion ------------------------------ *)

let jobs ?(replay_cmd = "farm") ?(manifest_path = "manifest.json") m =
  let replay_of id = spf "riscyoo %s %s --only %s" replay_cmd manifest_path id in
  List.concat_map
    (fun sweep ->
      match sweep with
      | Litmus ls ->
        Litmus.Run.farm_jobs ~stagger:ls.ls_stagger ~obligations:ls.ls_obligations
          ~seeds:ls.ls_seeds ~models:ls.ls_models ls.ls_tests
        |> List.map (litmus_job ~replay_of)
      | Fault fs -> List.init fs.fs_trials (fault_job ~replay_of fs)
      | Poison ps -> List.init ps.ps_jobs (poison_job ~replay_of ps)
      | Explore space ->
        List.concat_map
          (fun w -> List.map (explore_job ~replay_of space w) space.Explore.Space.points)
          space.Explore.Space.workloads)
    m.sweeps

(* -------------------- litmus histogram reconstruction ------------------ *)

(* Decode the farm's litmus and mcheck records into per-seed runs, one
   group per (test, model), and fold each group with {!Litmus.Run.report}.
   Groups come in [riscyoo litmus] order (models, then tests in suite
   order), and each group's runs in record order, which is job-id and so
   seed order. *)
let litmus_reports (o : Sweep.outcome) =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (r : Sweep.record) ->
      if r.kind = "litmus" then begin
        let spec = Json.Obj r.spec in
        let field k =
          match Json.get_str k spec with Some s -> s | None -> bad "litmus record lacks a %s" k
        in
        let test = test_of_string (field "test") in
        (* key by suite position, so groups sort into [riscyoo litmus] order *)
        let key =
          ( model_of_string (field "model"),
            Option.get (List.find_index (( == ) test) Litmus.Test.all) )
        in
        let seed = opt_int spec "seed" 0 in
        let run =
          match r.status with
          | Sweep.Quarantined { error; _ } -> Litmus.Run.Failed { seed; error }
          | Sweep.Finished v ->
            let outcome =
              match Json.get_list "outcome" v with
              | Some l -> Array.of_list (List.map int_of l)
              | None -> bad "litmus record lacks an outcome"
            in
            let events =
              match Json.mem "obligations" v with
              | Some (Json.Obj fields) -> List.map (fun (n, c) -> (n, int_of c)) fields
              | _ -> []
            in
            Litmus.Run.Seen { seed; outcome; events }
        in
        Hashtbl.replace groups key (run :: Option.value ~default:[] (Hashtbl.find_opt groups key))
      end)
    o.records;
  Hashtbl.fold (fun k runs acc -> (k, runs) :: acc) groups []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun ((model, i), runs) ->
         Litmus.Run.report ~model (List.nth Litmus.Test.all i) (List.rev runs))

let disallowed (o : Sweep.outcome) =
  List.filter_map
    (fun (r : Sweep.record) ->
      match (r.kind, r.status) with
      | "litmus", Sweep.Finished v when Json.get_bool "allowed" v = Some false ->
        Some (r.job_id, Option.value ~default:"?" (Json.get_str "outcome_str" v))
      | _ -> None)
    o.records

let litmus_json ~seeds o =
  match litmus_reports o with
  | [] -> None
  | reports -> Some (Litmus.Run.reports_to_json ~seeds reports)

(* ---------------------- pareto-front reconstruction -------------------- *)

let explore_samples (o : Sweep.outcome) =
  List.filter_map
    (fun (r : Sweep.record) ->
      match (r.kind, r.status) with
      | "explore", Sweep.Finished v -> Some (Explore.Measure.of_json v)
      | _ -> None)
    o.records

let explore_json ?reference o =
  match explore_samples o with
  | [] -> None
  | samples -> Some (Explore.Pareto.to_json ?reference samples)
