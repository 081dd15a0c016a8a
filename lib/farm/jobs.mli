(** Manifest-driven job production for the simulation farm.

    A [riscyoo-farm-manifest-v1] JSON file names sweeps; each expands
    into independent, individually-replayable {!Sweep.job}s:

    {v
    { "schema": "riscyoo-farm-manifest-v1",
      "sweeps": [
        {"type": "litmus", "tests": ["sb", "mp"], "models": ["tso", "wmm"],
         "seeds": 50, "stagger": false},
        {"type": "fault", "kernel": "gcc", "config": "b", "cores": 1,
         "trials": 64, "seed": 64023},
        {"type": "poison", "jobs": 100, "cycles": 1000,
         "fail": [3, 17], "hang": [5], "flaky": [9]}
      ] }
    v}

    [litmus] runs the (tests x models x seeds) product, building one
    machine per job ([tests] defaults to all, [models] to both). Unknown
    keys are ignored, so an older manifest's ["warm"] still loads.
    [mcheck] is the same product with the interface-obligation monitors
    armed (an [obligations] boolean overrides the default of either
    type); its job ids live under [mcheck/] instead of [litmus/].
    [fault] runs the trials of a seeded bit-flip campaign, each trial's
    RNG independent of the others. [poison] makes synthetic jobs for
    exercising the farm's fault tolerance: [fail] indices raise after
    [cycles/2] synthetic cycles (quarantine), [hang] indices spin until
    cancelled (timeout), [flaky] indices fail once then succeed
    (retry). *)

type litmus_sweep = {
  ls_tests : Litmus.Test.t list;
  ls_models : Ooo.Config.mem_model list;
  ls_seeds : int;
  ls_stagger : bool;
  ls_obligations : bool;
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
  ps_cycles : int;
  ps_fail : int list;
  ps_hang : int list;
  ps_flaky : int list;
}

type sweep =
  | Litmus of litmus_sweep
  | Fault of fault_sweep
  | Poison of poison_sweep
  | Explore of Explore.Space.t
      (** an [{"type": "explore", ...}] sweep whose body is an explore
          manifest (base, grid, points, workloads, reference) — one job per
          workload x point, each returning a {!Explore.Measure} sample *)

type manifest = { sweeps : sweep list }

val schema : string

(** Raise {!Json.Parse_error} on malformed or mis-schema'd manifests. *)
val of_json : Json.t -> manifest

val of_string : string -> manifest
val load : string -> manifest

(** Expand a manifest into jobs. [manifest_path] is echoed into each
    job's replay command ([riscyoo <replay_cmd> <path> --only <id>]);
    [replay_cmd] defaults to ["farm"] — [riscyoo explore] passes its own
    name so replay commands for standalone explore manifests parse. *)
val jobs : ?replay_cmd:string -> ?manifest_path:string -> manifest -> Sweep.job list

(** Rebuild [riscyoo-litmus-v1] sweep reports from the farm's litmus and
    mcheck records: one {!Litmus.Run.report} fold per (test, model), over
    its records in seed order, quarantined jobs folded in as harness
    errors. Reports come in [riscyoo litmus] order (TSO before WMM, tests
    in suite order). A stagger-free sweep's reports serialize byte-equal
    to [riscyoo litmus --no-stagger --hist] on the same tests, models and
    seeds. Ignores non-litmus records. *)
val litmus_reports : Sweep.outcome -> Litmus.Run.report list

(** [(job id, outcome)] of every finished litmus or mcheck record whose
    outcome its model does not admit (the record's ["allowed"] field, set
    by {!Litmus.Run.farm_run}). *)
val disallowed : Sweep.outcome -> (string * string) list

(** [litmus_reports] serialized via {!Litmus.Run.reports_to_json};
    [None] when the outcome holds no litmus records. *)
val litmus_json : seeds:int -> Sweep.outcome -> string option

(** The {!Explore.Measure} samples of every finished explore record
    (quarantined points are simply absent from the front). *)
val explore_samples : Sweep.outcome -> Explore.Measure.sample list

(** [riscyoo-pareto-v1] front of the outcome's explore samples; [None]
    when the outcome holds none. *)
val explore_json : ?reference:string -> Sweep.outcome -> Json.t option
