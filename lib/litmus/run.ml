open Workloads

type cls = In_sc | Tso_relaxed | Wmm_relaxed | Forbidden

let cls_to_string = function
  | In_sc -> "SC"
  | Tso_relaxed -> "TSO-relaxed"
  | Wmm_relaxed -> "WMM-relaxed"
  | Forbidden -> "FORBIDDEN"

type run_error =
  | Timed_out of int
  | Bad_exit of string
  | Not_quiesced
  | Obligation_violated of string * string * string

exception Harness_error of run_error

let error_to_string = function
  | Timed_out c -> Printf.sprintf "timed out after %d cycles" c
  | Bad_exit s -> "bad exit codes: " ^ s
  | Not_quiesced -> "stores still buffered after every hart exited"
  | Obligation_violated (m, i, msg) -> Printf.sprintf "obligation %s/%s violated: %s" m i msg

(** Which implementation to sweep: the OOO core under its configured memory
    model, or the in-order baseline (checked against the SC set — it has no
    store buffer, so every outcome it produces must be sequentially
    consistent). *)
type dut = Dut_ooo | Dut_inorder

let dut_to_string = function Dut_ooo -> "ooo" | Dut_inorder -> "inorder"

(* Small caches and short memory latency: misses stay cheap (a litmus run is
   a few thousand cycles) while the drain window — the source of the
   interesting reorderings — stays wide relative to the bodies. *)
let litmus_mem =
  {
    Mem.Mem_sys.l1d_bytes = 2048;
    l1d_ways = 2;
    l1d_mshrs = 4;
    l1i_bytes = 2048;
    l1i_ways = 2;
    l2_bytes = 16384;
    l2_ways = 4;
    l2_mshrs = 8;
    l2_latency = 4;
    mesi = false;
    mem_latency = 24;
    mem_inflight = 8;
    l2_banks = 1;
  }

let max_cycles = 300_000

(* [warm] is ignored: every job builds its machine cold. It stays only
   because the benchmark harness passes it (a pin, like
   [Machine.create ?epoch ?compile ?jobs]). *)
let run_one ?(seed = 1) ?(stagger = true) ?konata ?on_cycle ?warm:_
    ?(dut = Dut_ooo) ?(mesi = false) ?(obligations = false) ?(inject_lsq_bug = false) ?on_machine
    ~model test =
  let prog, meta = Compile.program ~seed ~stagger test in
  let ncores = Test.nharts test in
  let mem = { litmus_mem with Mem.Mem_sys.mesi } in
  let kind =
    match dut with
    | Dut_ooo ->
      Machine.Out_of_order
        {
          (Ooo.Config.multicore model) with
          Ooo.Config.mem;
          bug_ld_bypass_sq = inject_lsq_bug;
        }
    | Dut_inorder -> Machine.In_order { mem; tlb = Tlb.Tlb_sys.blocking_config }
  in
  let obs =
    Option.map
      (fun f ->
        Obs.Hub.create ~konata:f
          ~meta:
            [
              ("litmus", test.Test.name);
              ("dut", dut_to_string dut);
              ("model", Ref_model.model_to_string (Ref_model.of_mem_model model));
              ("seed", string_of_int seed);
            ]
          ~nharts:ncores ())
      konata
  in
  let m = Machine.create ~ncores ~mode:(Cmd.Sim.Shuffle seed) ~obligations ?obs kind prog in
  (* the harness self-checks (exit codes, store drain) follow the run; the
     trace hub is finished before them: a trace of a failing run is the
     most useful trace of all *)
  let o =
    try Machine.run ~max_cycles ?on_cycle m
    with Mcheck.Obligation.Violation (md, itf, msg) ->
      raise (Harness_error (Obligation_violated (md, itf, msg)))
  in
  Option.iter
    (fun hub ->
      Obs.Hub.finish hub ~cycles:o.Machine.cycles ~instrs:(Machine.instrs m)
        ~stats:(Machine.stats m))
    obs;
  if o.Machine.timed_out then raise (Harness_error (Timed_out o.Machine.cycles));
  let expect = Compile.expected_exits meta in
  if o.Machine.exits <> expect then
    raise
      (Harness_error
         (Bad_exit
            (String.concat " " (Array.to_list (Array.map Int64.to_string o.Machine.exits)))));
  if not (Machine.quiesced m) then raise (Harness_error Not_quiesced);
  Option.iter (fun f -> f m) on_machine;
  Compile.read_outcome meta ~reg:(fun ~hart r -> Machine.reg m ~hart r)

type report = {
  test : Test.t;
  dut : dut;
  model : Ooo.Config.mem_model;
  total_runs : int;
  hist : (int array * cls * int) list;
  forbidden : (int array * int * string option) list;
  errors : string list;
  relaxed_seen : bool;
  wmm_only_seen : bool;
  enum : (Ref_model.model * Ref_model.enum_stats) list;
  obligation_events : (string * int) list;
}

let ok r = r.forbidden = [] && r.errors = []

(* The one definition of a forbidden outcome: outside the set the DUT's
   model admits. The in-order core has no store buffer, so everything it
   produces must be SC, whatever memory model its caches were configured
   for. *)
let model_set ~dut ~model (sc, tso, wmm) =
  match dut with
  | Dut_inorder -> sc
  | Dut_ooo -> (
    match Ref_model.of_mem_model model with
    | Ref_model.SC -> sc
    | Ref_model.TSO -> tso
    | Ref_model.WMM -> wmm)

let classify (sc, tso, wmm) o =
  if Ref_model.is_allowed sc o then In_sc
  else if Ref_model.is_allowed tso o then Tso_relaxed
  else if Ref_model.is_allowed wmm o then Wmm_relaxed
  else Forbidden

type seed_run =
  | Seen of { seed : int; outcome : int array; events : (string * int) list }
  | Failed of { seed : int; error : string }

let report ?(dut = Dut_ooo) ~model test runs =
  let sc, sc_st = Ref_model.allowed_stats test ~model:Ref_model.SC in
  let tso, tso_st = Ref_model.allowed_stats test ~model:Ref_model.TSO in
  let wmm, wmm_st = Ref_model.allowed_stats test ~model:Ref_model.WMM in
  let sets = (sc, tso, wmm) in
  let admitted = model_set ~dut ~model sets in
  let counts = Hashtbl.create 32 in
  let forbidden = ref [] in
  let errors = ref [] in
  let ob_events = Hashtbl.create 8 in
  let add tbl k n = Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  List.iter
    (function
      | Seen { seed; outcome; events } ->
        add counts outcome 1;
        List.iter (fun (n, e) -> add ob_events n e) events;
        if
          not
            (Ref_model.is_allowed admitted outcome
            || List.exists (fun (o, _, _) -> o = outcome) !forbidden)
        then forbidden := (outcome, seed, None) :: !forbidden
      | Failed { seed; error } ->
        errors := Printf.sprintf "%s seed=%d: %s" test.Test.name seed error :: !errors)
    runs;
  let hist =
    Hashtbl.fold (fun o n acc -> (o, classify sets o, n) :: acc) counts []
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  let seen p = List.exists (fun (_, c, _) -> p c) hist in
  {
    test;
    dut;
    model;
    total_runs = List.length runs;
    hist;
    forbidden = List.rev !forbidden;
    errors = List.rev !errors;
    relaxed_seen = seen (fun c -> c <> In_sc);
    wmm_only_seen = seen (fun c -> c = Wmm_relaxed || c = Forbidden);
    enum = [ (Ref_model.SC, sc_st); (Ref_model.TSO, tso_st); (Ref_model.WMM, wmm_st) ];
    obligation_events =
      Hashtbl.fold (fun n e acc -> (n, e) :: acc) ob_events [] |> List.sort compare;
  }

let sweep ?(seeds = 20) ?(stagger = true) ?trace_dir ?(dut = Dut_ooo)
    ?(mesi = false) ?(obligations = false) ?(inject_lsq_bug = false) ~model test =
  let run ?konata ?on_machine seed =
    run_one ~seed ~stagger ?konata ~dut ~mesi ~obligations ~inject_lsq_bug ?on_machine ~model
      test
  in
  let runs =
    List.init seeds (fun i ->
        let seed = i + 1 in
        let events = ref [] in
        match run ~on_machine:(fun m -> events := Machine.obligation_stats m) seed with
        | outcome -> Seen { seed; outcome; events = !events }
        | exception Harness_error e -> Failed { seed; error = error_to_string e })
  in
  let r = report ~dut ~model test runs in
  match trace_dir with
  | None -> r
  | Some dir ->
    (* replay each forbidden outcome's first run with the pipeline tracer on *)
    let trace (o, seed, _) =
      let f =
        Filename.concat dir
          (Printf.sprintf "litmus-%s-%s-seed%d.konata" test.Test.name
             (Ref_model.model_to_string (Ref_model.of_mem_model model))
             seed)
      in
      (try ignore (run ~konata:f seed) with Harness_error _ -> ());
      (o, seed, Some f)
    in
    { r with forbidden = List.map trace r.forbidden }

let pp_report fmt r =
  let model = Ref_model.model_to_string (Ref_model.of_mem_model r.model) in
  Format.fprintf fmt "%-10s %-8s %-4s %4d runs  %s@." r.test.Test.name (dut_to_string r.dut)
    model r.total_runs
    (if ok r then "ok" else "FAIL");
  List.iter
    (fun (m, (st : Ref_model.enum_stats)) ->
      Format.fprintf fmt "    enum %-3s %s: %d states, %d transitions, %d prunes, %d races@."
        (Ref_model.model_to_string m) st.Ref_model.backend st.states st.transitions
        st.sleep_prunes st.races)
    r.enum;
  List.iter
    (fun (n, e) -> Format.fprintf fmt "    obligation %-24s %d events@." n e)
    r.obligation_events;
  List.iter
    (fun (o, c, n) ->
      Format.fprintf fmt "    %6d  [%-11s] %s@." n (cls_to_string c)
        (Test.outcome_to_string r.test o))
    r.hist;
  List.iter
    (fun (o, seed, trace) ->
      Format.fprintf fmt "    FORBIDDEN %s (seed %d)%s@."
        (Test.outcome_to_string r.test o)
        seed
        (match trace with Some f -> " trace: " ^ f | None -> ""))
    r.forbidden;
  List.iter (fun e -> Format.fprintf fmt "    ERROR %s@." e) r.errors

(* ---------------------------- farm job producers ----------------------- *)

(* A farm job is one deterministic (test, model, seed) run; the farm layer wraps these into its generic job records. Ids encode every
   parameter, so they double as resume keys and replay specs. *)
type farm_job = {
  fj_test : Test.t;
  fj_model : Ooo.Config.mem_model;
  fj_seed : int;
  fj_stagger : bool;
  fj_obligations : bool;
}

let model_tag m = Ref_model.model_to_string (Ref_model.of_mem_model m)

let farm_job_id fj =
  Printf.sprintf "%s/%s/%s/%sseed%05d"
    (if fj.fj_obligations then "mcheck" else "litmus")
    fj.fj_test.Test.name
    (String.lowercase_ascii (model_tag fj.fj_model))
    (if fj.fj_stagger then "" else "nostagger/")
    fj.fj_seed

let farm_jobs ?(stagger = true) ?(obligations = false) ~seeds ~models tests =
  List.concat_map
    (fun fj_model ->
      List.concat_map
        (fun fj_test ->
          List.init seeds (fun i ->
              {
                fj_test;
                fj_model;
                fj_seed = i + 1;
                fj_stagger = stagger;
                fj_obligations = obligations;
              }))
        tests)
    models

(* Per-domain cache of the reference outcome sets: the operational models
   enumerate interleavings, so pay that once per test per domain rather
   than once per seed. *)
let ref_sets_cache :
    (string, int array list * int array list * int array list) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let ref_sets test =
  let cache = Domain.DLS.get ref_sets_cache in
  match Hashtbl.find_opt cache test.Test.name with
  | Some s -> s
  | None ->
    let s =
      ( Ref_model.allowed test ~model:Ref_model.SC,
        Ref_model.allowed test ~model:Ref_model.TSO,
        Ref_model.allowed test ~model:Ref_model.WMM )
    in
    Hashtbl.add cache test.Test.name s;
    s

let classify_outcome test o = classify (ref_sets test) o

(* Run one farm job. Raises {!Harness_error} (and lets the cancel hook's
   exception through) — the farm retries, then quarantines. *)
let farm_run ?on_cycle fj =
  let obs = ref [] in
  let on_machine m = obs := Workloads.Machine.obligation_stats m in
  let o =
    run_one ~seed:fj.fj_seed ~stagger:fj.fj_stagger ?on_cycle
      ~obligations:fj.fj_obligations ~model:fj.fj_model ~on_machine fj.fj_test
  in
  let cls = classify_outcome fj.fj_test o in
  let admitted = model_set ~dut:Dut_ooo ~model:fj.fj_model (ref_sets fj.fj_test) in
  (o, cls, Ref_model.is_allowed admitted o, !obs)

(* Hand-rolled JSON: values are ints, booleans and printable ASCII names. *)
let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let reports_to_json ~seeds reports =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n  \"schema\": \"riscyoo-litmus-v1\",\n  \"seeds\": %d,\n  \"sweeps\": [\n" seeds;
  List.iteri
    (fun i r ->
      if i > 0 then add ",\n";
      add "    {\"test\": \"%s\", \"dut\": \"%s\", \"model\": \"%s\", \"runs\": %d, \"ok\": %b,\n"
        (json_escape r.test.Test.name)
        (dut_to_string r.dut)
        (Ref_model.model_to_string (Ref_model.of_mem_model r.model))
        r.total_runs (ok r);
      add "     \"relaxed_seen\": %b, \"wmm_only_seen\": %b,\n" r.relaxed_seen r.wmm_only_seen;
      add "     \"enum\": [";
      List.iteri
        (fun j (m, (st : Ref_model.enum_stats)) ->
          if j > 0 then add ", ";
          add
            "{\"model\": \"%s\", \"backend\": \"%s\", \"states\": %d, \"transitions\": %d, \
             \"sleep_prunes\": %d, \"races\": %d}"
            (Ref_model.model_to_string m) st.Ref_model.backend st.states st.transitions
            st.sleep_prunes st.races)
        r.enum;
      add "],\n     \"obligations\": [";
      List.iteri
        (fun j (n, e) ->
          if j > 0 then add ", ";
          add "{\"monitor\": \"%s\", \"events\": %d}" (json_escape n) e)
        r.obligation_events;
      add "],\n";
      add "     \"outcomes\": [";
      List.iteri
        (fun j (o, c, n) ->
          if j > 0 then add ", ";
          add "{\"outcome\": \"%s\", \"class\": \"%s\", \"count\": %d}"
            (json_escape (Test.outcome_to_string r.test o))
            (cls_to_string c) n)
        r.hist;
      add "],\n     \"forbidden\": [";
      List.iteri
        (fun j (o, seed, trace) ->
          if j > 0 then add ", ";
          add "{\"outcome\": \"%s\", \"seed\": %d%s}"
            (json_escape (Test.outcome_to_string r.test o))
            seed
            (match trace with
            | Some f -> Printf.sprintf ", \"trace\": \"%s\"" (json_escape f)
            | None -> ""))
        r.forbidden;
      add "],\n     \"errors\": [";
      List.iteri
        (fun j e ->
          if j > 0 then add ", ";
          add "\"%s\"" (json_escape e))
        r.errors;
      add "]}")
    reports;
  add "\n  ]\n}\n";
  Buffer.contents b
