(** Sweep driver: run a test across shuffled schedules and job counts,
    accumulate outcome histograms, and flag forbidden outcomes.

    Every (seed, jobs) pair is deterministic: the machine runs in
    [Sim.Shuffle seed] mode on a seed-staggered image, so a forbidden run
    can be replayed exactly — which is how {!sweep} attaches a Konata
    pipeline trace to the first forbidden outcome it sees. *)

(** How an observed outcome relates to the three reference sets (which
    nest: SC ⊆ TSO ⊆ WMM). [Forbidden] means outside even the WMM set. *)
type cls = In_sc | Tso_relaxed | Wmm_relaxed | Forbidden

(** The memory configuration every litmus machine runs with: small caches
    and a short memory latency, so a run is a few thousand cycles while the
    drain window stays wide relative to the bodies. *)
val litmus_mem : Mem.Mem_sys.config

val cls_to_string : cls -> string

type run_error =
  | Timed_out of int  (** cycles spent *)
  | Bad_exit of string  (** a hart exited with the wrong code *)
  | Not_quiesced  (** store queues/buffers still held data after exit *)
  | Obligation_violated of string * string * string
      (** module, interface, evidence — an armed {!Mcheck.Obligation}
          monitor fired during the run *)

exception Harness_error of run_error

val error_to_string : run_error -> string

(** Which implementation the sweep drives. [Dut_inorder] runs the litmus
    program on the in-order baseline core and bounds its outcomes by the SC
    set — the tightest meaningful check for a core with no store buffer. *)
type dut = Dut_ooo | Dut_inorder

val dut_to_string : dut -> string

(** One deterministic run; returns the outcome vector. [konata] dumps the
    run's pipeline trace to the given file (used when replaying a failure).
    [on_cycle] is threaded to the machine's cycle hook (the farm's
    cancellation poll). [warm] re-uses a per-domain cached machine by
    restoring its cycle-0 snapshot and reseeding the schedule instead of
    rebuilding — valid only with [stagger:false] (seed-independent images)
    and no tracer; other runs silently take the cold path. [mesi] switches
    the cache hierarchy to the MESI protocol; [obligations] arms the
    per-interface contract monitors (a violation surfaces as
    {!Harness_error}[ (Obligation_violated _)]); [inject_lsq_bug] enables
    the seeded load-issue ordering bug the obligation layer is tested
    against. [on_machine] receives the machine after a successful run (how
    the sweep collects obligation event counts). Raises {!Harness_error} on
    timeout or a harness self-check failure. *)
val run_one :
  ?jobs:int ->
  ?seed:int ->
  ?stagger:bool ->
  ?konata:string ->
  ?on_cycle:(int -> unit) ->
  ?warm:bool ->
  ?dut:dut ->
  ?mesi:bool ->
  ?obligations:bool ->
  ?inject_lsq_bug:bool ->
  ?on_machine:(Workloads.Machine.t -> unit) ->
  model:Ooo.Config.mem_model ->
  Test.t ->
  int array

type report = {
  test : Test.t;
  dut : dut;
  model : Ooo.Config.mem_model;
  total_runs : int;
  hist : (int array * cls * int) list;  (** outcome, class, count; count desc *)
  forbidden : (int array * int * int * string option) list;
      (** outcome, seed, jobs, trace file (first occurrence per outcome) *)
  mismatches : (int * int array * int array) list;
      (** seed, outcome at [jobs_list] head, differing outcome — the
          domain-parallel engine must be bit-identical, so any entry here is
          a simulator bug, not a memory-model bug *)
  errors : string list;
  relaxed_seen : bool;  (** some outcome outside the SC set was observed *)
  wmm_only_seen : bool;  (** some outcome outside the TSO set was observed *)
  enum : (Ref_model.model * Ref_model.enum_stats) list;
      (** DPOR search statistics for the SC/TSO/WMM reference enumerations
          this sweep checked against *)
  obligation_events : (string * int) list;
      (** per-monitor committed boundary events summed over the sweep's
          runs (empty unless [obligations]) *)
}

(** Whether the sweep found no forbidden outcomes, no jobs mismatches and no
    harness errors. *)
val ok : report -> bool

(** [sweep ~seeds ~jobs_list ~model test] — seeds run from 1 to [seeds];
    each seed runs once per entry of [jobs_list] (default [[1; 4]]).
    [trace_dir] enables Konata replay dumps for forbidden outcomes. *)
val sweep :
  ?seeds:int ->
  ?jobs_list:int list ->
  ?stagger:bool ->
  ?trace_dir:string ->
  ?dut:dut ->
  ?mesi:bool ->
  ?obligations:bool ->
  ?inject_lsq_bug:bool ->
  model:Ooo.Config.mem_model ->
  Test.t ->
  report

val pp_report : Format.formatter -> report -> unit

(** Machine-readable sweep summary (schema [riscyoo-litmus-v1]). *)
val reports_to_json : seeds:int -> report list -> string

(** {2 Farm job producers}

    One farm job = one deterministic (test, model, seed) run at [jobs:1];
    the farm layer schedules thousands of them across worker domains. *)

type farm_job = {
  fj_test : Test.t;
  fj_model : Ooo.Config.mem_model;
  fj_seed : int;
  fj_stagger : bool;
  fj_obligations : bool;  (** arm the interface-obligation monitors *)
}

(** Stable unique id encoding every job parameter (the resume key).
    Obligation-armed jobs use the [mcheck/] namespace. *)
val farm_job_id : farm_job -> string

(** The full (test × model × seed) product, seeds numbered from 1. *)
val farm_jobs :
  ?stagger:bool ->
  ?obligations:bool ->
  seeds:int ->
  models:Ooo.Config.mem_model list ->
  Test.t list ->
  farm_job list

(** Classify an outcome against the (cached) reference sets. *)
val classify_outcome : Test.t -> int array -> cls

(** Run one job: outcome vector, its class, whether the model under test
    admits it, and the per-monitor committed obligation-event counts
    (empty unless the job armed the monitors). [warm] uses the per-domain
    warm-fork machine cache. Raises {!Harness_error} on harness
    failures. *)
val farm_run :
  ?on_cycle:(int -> unit) ->
  ?warm:bool ->
  farm_job ->
  int array * cls * bool * (string * int) list
