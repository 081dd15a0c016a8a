(** Sweep driver: run a test across shuffled schedules, accumulate outcome
    histograms, and flag forbidden outcomes.

    Every seed is deterministic: the machine runs in
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
    cancellation poll). Every run builds its machine cold; [warm] is
    ignored, a pin kept for the benchmark harness (like
    [Machine.create ?epoch ?compile ?jobs]). [mesi] switches
    the cache hierarchy to the MESI protocol; [obligations] arms the
    per-interface contract monitors (a violation surfaces as
    {!Harness_error}[ (Obligation_violated _)]); [inject_lsq_bug] enables
    the seeded load-issue ordering bug the obligation layer is tested
    against. [on_machine] receives the machine after a successful run (how
    the sweep collects obligation event counts). Raises {!Harness_error} on
    timeout or a harness self-check failure. *)
val run_one :
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
  forbidden : (int array * int * string option) list;
      (** outcomes outside the set the DUT's model admits (SC for
          [Dut_inorder]): outcome, seed, trace file (first occurrence per
          outcome) *)
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

(** Whether the sweep found no forbidden outcomes and no harness errors. *)
val ok : report -> bool

(** One seed's run of a (test, DUT, model) group: its outcome with the
    run's per-monitor obligation events, or a harness error. *)
type seed_run =
  | Seen of { seed : int; outcome : int array; events : (string * int) list }
  | Failed of { seed : int; error : string }

(** The one fold from per-seed runs to a report, behind both {!sweep} and
    the farm's histogram rebuild. [dut] defaults to [Dut_ooo]. Outcomes are
    counted in the order given; outcomes of equal count keep the order of
    a hash-table fold, so the same runs in the same order give the same
    report. *)
val report : ?dut:dut -> model:Ooo.Config.mem_model -> Test.t -> seed_run list -> report

(** [sweep ~seeds ~model test] — seeds run from 1 to [seeds], each once,
    folded by {!report}. [trace_dir] replays the first run of each
    forbidden outcome with the Konata tracer on and names the trace in the
    report. *)
val sweep :
  ?seeds:int ->
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

    One farm job = one deterministic (test, model, seed) run; the farm
    layer schedules thousands of them across worker domains. *)

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
    (empty unless the job armed the monitors). Raises {!Harness_error} on
    harness failures. *)
val farm_run :
  ?on_cycle:(int -> unit) ->
  farm_job ->
  int array * cls * bool * (string * int) list
