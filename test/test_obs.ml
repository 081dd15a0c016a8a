(* Observability subsystem tests (lib/obs).

   The load-bearing property is determinism: every exported artifact —
   Konata pipeline trace, Chrome rule trace, stats JSON — must be
   byte-identical with the fast path on and off, in every schedule mode,
   because the exporters read only committed events and sort on
   deterministic keys. The rest checks the exports are well-formed enough
   for their consumers (the Konata viewer, chrome://tracing, jq). *)

open Cmd
open Workloads

let mc_cfg = { (Ooo.Config.multicore Ooo.Config.TSO) with Ooo.Config.mem = Test_multicore.small_mem }

let fresh_hub ~nharts =
  (* Dummy sink paths: requesting all three sinks activates every capture
     layer, but nothing is written because finish is never called — the
     tests read the in-memory renditions instead. *)
  Obs.Hub.create ~konata:"unused.konata" ~chrome:"unused.json" ~stats_json:"unused.json"
    ~meta:[ ("suite", "obs") ] ~nharts ()

let exports hub (o : Machine.outcome) m =
  ( Obs.Hub.konata_string hub,
    Obs.Hub.chrome_string hub,
    Obs.Hub.stats_string hub ~cycles:o.Machine.cycles ~instrs:(Machine.instrs m)
      ~stats:(Machine.stats m) )

(* Quad-core run, returning the three export strings plus instret. *)
let run_mc ?(fastpath = true) ~mode prog =
  let hub = fresh_hub ~nharts:4 in
  let m = Machine.create ~ncores:4 ~fastpath ~mode ~obs:hub (Machine.Out_of_order mc_cfg) prog in
  let o = Machine.run ~max_cycles:2_000_000 m in
  Alcotest.(check bool) "obs quad-core run completes" false o.Machine.timed_out;
  let k, c, s = exports hub o m in
  (k, c, s, Machine.instrs m)

(* Single-core smoke kernel under paging (clusters: core 0 + uncore). *)
let run_smoke ?(fastpath = true) () =
  let prog = Spec_kernels.find "smoke" ~scale:1 in
  let hub = fresh_hub ~nharts:1 in
  let m =
    Machine.create ~paging:true ~fastpath ~obs:hub (Machine.Out_of_order Ooo.Config.riscyoo_b)
      prog
  in
  let o = Machine.run ~max_cycles:1_000_000 m in
  Alcotest.(check bool) "obs smoke run completes" false o.Machine.timed_out;
  let k, c, s = exports hub o m in
  (k, c, s, Machine.instrs m)

let check_identical name (k1, c1, s1, i1) (k2, c2, s2, i2) =
  Alcotest.(check int) (name ^ ": instret identical") i1 i2;
  Alcotest.(check string) (name ^ ": konata byte-identical") k1 k2;
  Alcotest.(check string) (name ^ ": chrome byte-identical") c1 c2;
  Alcotest.(check string) (name ^ ": stats json byte-identical") s1 s2

let test_identity_mc () =
  let prog = Test_multicore.shared_counter_kernel ~harts:4 ~iters:25 in
  List.iter
    (fun (mname, mode) ->
      check_identical ("counter/" ^ mname) (run_mc ~mode prog) (run_mc ~fastpath:false ~mode prog))
    [ ("multi", Sim.Multi); ("shuffle", Sim.Shuffle 20260807) ]

let test_identity_smoke () = check_identical "smoke" (run_smoke ()) (run_smoke ~fastpath:false ())

(* ---------------------------------------------------------------- *)
(* Konata well-formedness                                             *)
(* ---------------------------------------------------------------- *)

type kinstr = {
  mutable kstages : (string * int) list; (* reverse emission order *)
  mutable kretire : (int * int) option; (* (cycle, retire type) *)
}

(* Parse a Kanata-0004 stream, checking line grammar and cycle monotonicity
   as we go; returns id -> record. *)
let parse_konata s =
  let lines = String.split_on_char '\n' s in
  (match lines with
  | hdr :: _ -> Alcotest.(check string) "konata header" "Kanata\t0004" hdr
  | [] -> Alcotest.fail "empty konata stream");
  let tbl : (int, kinstr) Hashtbl.t = Hashtbl.create 256 in
  let find id =
    try Hashtbl.find tbl (int_of_string id)
    with Not_found -> Alcotest.fail ("konata: event for undeclared id " ^ id)
  in
  let cyc = ref 0 in
  let started = ref false in
  List.iteri
    (fun ln line ->
      if ln > 0 && line <> "" then
        match String.split_on_char '\t' line with
        | [ "C="; c ] ->
          cyc := int_of_string c;
          started := true
        | [ "C"; d ] ->
          let d = int_of_string d in
          Alcotest.(check bool) "konata: cycle delta positive" true (d > 0);
          cyc := !cyc + d
        | [ "I"; id; _tid; _hart ] ->
          Alcotest.(check bool) "konata: I after first C=" true !started;
          Hashtbl.replace tbl (int_of_string id) { kstages = []; kretire = None }
        | "L" :: id :: _ -> ignore (find id)
        | [ "S"; id; _lane; stg ] ->
          let r = find id in
          r.kstages <- (stg, !cyc) :: r.kstages
        | [ "R"; id; _retid; typ ] -> (
          let r = find id in
          match r.kretire with
          | Some _ -> Alcotest.fail ("konata: duplicate R for id " ^ id)
          | None -> r.kretire <- Some (!cyc, int_of_string typ))
        | _ -> Alcotest.fail ("konata: unparsable line: " ^ line))
    lines;
  tbl

(* Every id closed; stage cycles non-decreasing; every committed (type-0
   retire) instruction carries the full front-end chain; the number of
   type-0 retires equals the machine's committed instruction count. *)
let check_konata ~instrs s =
  let tbl = parse_konata s in
  let committed = ref 0 in
  Hashtbl.iter
    (fun id r ->
      let stages = List.rev r.kstages in
      Alcotest.(check bool) "konata: instruction has stages" true (stages <> []);
      (match stages with
      | ("F", _) :: _ -> ()
      | (st, _) :: _ -> Alcotest.fail (Printf.sprintf "konata: id %d starts in %s, not F" id st)
      | [] -> ());
      let last =
        List.fold_left
          (fun prev (_, c) ->
            Alcotest.(check bool) "konata: stage cycles non-decreasing" true (c >= prev);
            c)
          min_int stages
      in
      match r.kretire with
      | None -> Alcotest.fail (Printf.sprintf "konata: id %d never closed" id)
      | Some (rc, typ) ->
        Alcotest.(check bool) "konata: retire not before last stage" true (rc >= last);
        if typ = 0 then begin
          incr committed;
          let names = List.map fst stages in
          List.iter
            (fun st ->
              Alcotest.(check bool)
                (Printf.sprintf "konata: committed id %d passed stage %s" id st)
                true (List.mem st names))
            [ "F"; "D"; "Rn" ]
        end)
    tbl;
  Alcotest.(check int) "konata: type-0 retires = committed instrs" instrs !committed

let test_konata_wellformed () =
  let k, _, _, instrs = run_smoke () in
  check_konata ~instrs k;
  let prog = Test_multicore.shared_counter_kernel ~harts:4 ~iters:25 in
  let k, _, _, instrs = run_mc ~mode:Sim.Multi prog in
  check_konata ~instrs k

(* ---------------------------------------------------------------- *)
(* Chrome trace / stats JSON well-formedness                          *)
(* ---------------------------------------------------------------- *)

(* Minimal strict JSON syntax checker (no dependency): fails the test on
   any grammar violation or trailing garbage. *)
let check_json label s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.fail (Printf.sprintf "%s: bad JSON (%s at byte %d)" label msg !pos) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with Some (' ' | '\t' | '\n' | '\r') -> incr pos; skip_ws () | _ -> ()
  in
  let expect c =
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal w =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then pos := !pos + l else fail ("expected " ^ w)
  in
  let string_lit () =
    expect '"';
    let fin = ref false in
    while not !fin do
      if !pos >= n then fail "unterminated string";
      (match s.[!pos] with '"' -> fin := true | '\\' -> incr pos | _ -> ());
      incr pos
    done
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
    do
      incr pos
    done;
    if !pos = start then fail "expected number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      expect '{';
      skip_ws ();
      if peek () = Some '}' then incr pos
      else
        let rec members () =
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; members ()
          | Some '}' -> incr pos
          | _ -> fail "expected ',' or '}'"
        in
        members ()
    | Some '[' ->
      expect '[';
      skip_ws ();
      if peek () = Some ']' then incr pos
      else
        let rec elems () =
          value ();
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; elems ()
          | Some ']' -> incr pos
          | _ -> fail "expected ',' or ']'"
        in
        elems ()
    | Some '"' -> string_lit ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> fail "expected value"
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let count_substr s needle =
  let ln = String.length needle and ls = String.length s in
  let k = ref 0 in
  for i = 0 to ls - ln do
    if String.sub s i ln = needle then incr k
  done;
  !k

let test_chrome_wellformed () =
  let prog = Test_multicore.shared_counter_kernel ~harts:4 ~iters:25 in
  let _, c, _, _ = run_mc ~mode:Sim.Multi prog in
  check_json "chrome" c;
  (* one named track per cluster: uncore + 4 cores *)
  Alcotest.(check int) "chrome: one thread_name track per cluster" 5
    (count_substr c "\"thread_name\"");
  Alcotest.(check bool) "chrome: has rule-firing slices" true (count_substr c "\"ph\":\"X\"" > 0);
  Alcotest.(check bool) "chrome: has per-cluster fire counters" true
    (count_substr c "fires.p" > 0)

(* Slices follow fires: a rule's slice ends at a cycle it did not fire,
   so a quad-core run, where most rules are idle most cycles, has more
   slices than rules. *)
let test_chrome_slices_follow_fires () =
  let hub = fresh_hub ~nharts:4 in
  let m =
    Machine.create ~ncores:4 ~obs:hub (Machine.Out_of_order mc_cfg)
      (Test_multicore.shared_counter_kernel ~harts:4 ~iters:25)
  in
  let o = Machine.run ~max_cycles:2_000_000 m in
  Alcotest.(check bool) "obs quad-core run completes" false o.Machine.timed_out;
  let slices = count_substr (Obs.Hub.chrome_string hub) "\"ph\":\"X\"" in
  let nrules = List.length (Machine.rule_list m) in
  Alcotest.(check bool)
    (Printf.sprintf "chrome: %d slices, more than %d rules" slices nrules)
    true (slices > nrules)

(* Track names follow the machine's clusters: the uncore, one track per
   core, and one per bank of a banked L2 (built in clusters ncores + 1 + b). *)
let test_chrome_track_names () =
  let hub = Obs.Hub.create ~chrome:"unused.json" ~nharts:16 () in
  let m =
    Machine.create ~ncores:16 ~obs:hub
      (Machine.Out_of_order (Test_sched.cfg16 Ooo.Config.TSO))
      (Test_multicore.shared_counter_kernel ~harts:16 ~iters:2)
  in
  let o = Machine.run ~max_cycles:2_000_000 m in
  Alcotest.(check bool) "16-core run completes" false o.Machine.timed_out;
  let c = Obs.Hub.chrome_string hub in
  check_json "chrome" c;
  let names =
    ("uncore" :: List.init 16 (Printf.sprintf "core %d"))
    @ List.init 4 (Printf.sprintf "L2 bank %d")
  in
  Alcotest.(check int) "chrome: 21 tracks" 21 (count_substr c "\"thread_name\"");
  List.iteri
    (fun tid name ->
      let track =
        Printf.sprintf "\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}" tid name
      in
      Alcotest.(check int) ("chrome: track " ^ name) 1 (count_substr c track))
    names;
  Alcotest.(check int) "chrome: no barrier instants" 0 (count_substr c "\"ph\":\"i\"")

let test_stats_json_wellformed () =
  let _, _, s, _ = run_smoke () in
  check_json "stats" s;
  Alcotest.(check bool) "stats: schema tag" true
    (count_substr s "\"schema\": \"riscyoo-stats-v1\"" = 1);
  Alcotest.(check bool) "stats: derived ipc present" true (count_substr s "\"ipc\"" > 0);
  Alcotest.(check bool) "stats: new RAS counters swept" true
    (count_substr s "ras.underflows" > 0)

(* ---------------------------------------------------------------- *)
(* Capture window                                                     *)
(* ---------------------------------------------------------------- *)

let test_window () =
  let prog = Spec_kernels.find "smoke" ~scale:1 in
  let hub =
    (* N.B. the window must land on a phase where the core decodes: smoke
       spends its first few hundred cycles stalled on cold 120-cycle memory
       misses, so a narrow early window would legitimately capture nothing. *)
    Obs.Hub.create ~window:(1000, 3000) ~konata:"unused.konata" ~meta:[ ("suite", "obs") ]
      ~nharts:1 ()
  in
  let m =
    Machine.create ~paging:true ~obs:hub (Machine.Out_of_order Ooo.Config.riscyoo_b) prog
  in
  let o = Machine.run ~max_cycles:1_000_000 m in
  Alcotest.(check bool) "windowed run completes" false o.Machine.timed_out;
  let tbl = parse_konata (Obs.Hub.konata_string hub) in
  let captured = Hashtbl.length tbl in
  Alcotest.(check bool) "window captured something" true (captured > 0);
  Alcotest.(check bool) "window captured a strict subset" true (captured < Machine.instrs m)

(* ---------------------------------------------------------------- *)
(* Commit trace routing (--trace): hart-ordered, deterministic         *)
(* ---------------------------------------------------------------- *)

let test_trace_hart_ordered () =
  let prog = Test_multicore.shared_counter_kernel ~harts:2 ~iters:10 in
  let dump fastpath =
    let buf = Buffer.create 4096 in
    let fmt = Format.formatter_of_buffer buf in
    let m = Machine.create ~ncores:2 ~fastpath (Machine.Out_of_order mc_cfg) prog in
    Machine.trace_commits m fmt;
    let o = Machine.run ~max_cycles:2_000_000 m in
    Alcotest.(check bool) "traced run completes" false o.Machine.timed_out;
    Machine.flush_trace m;
    Format.pp_print_flush fmt ();
    Buffer.contents buf
  in
  let s = dump true in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  Alcotest.(check bool) "trace non-empty" true (lines <> []);
  let seen1 = ref false in
  List.iter
    (fun l ->
      match if String.length l >= 2 then String.sub l 0 2 else "" with
      | "C0" -> Alcotest.(check bool) "all hart-0 lines precede hart 1" false !seen1
      | "C1" -> seen1 := true
      | _ -> Alcotest.fail ("trace line without hart prefix: " ^ l))
    lines;
  Alcotest.(check bool) "hart 1 commits traced" true !seen1;
  Alcotest.(check string) "trace byte-identical with the fast path off" (dump false) s

let test_pool_shutdown () = Sim.shutdown_pool ()

let suite =
  [
    Alcotest.test_case "exports fast path vs stripped (quad-core)" `Quick test_identity_mc;
    Alcotest.test_case "exports fast path vs stripped (smoke)" `Quick test_identity_smoke;
    Alcotest.test_case "konata stream well-formed, chains complete" `Quick test_konata_wellformed;
    Alcotest.test_case "chrome trace well-formed, track per partition" `Quick
      test_chrome_wellformed;
    Alcotest.test_case "chrome track names on a 16-core machine" `Quick test_chrome_track_names;
    Alcotest.test_case "chrome slices follow fires (quad-core)" `Quick
      test_chrome_slices_follow_fires;
    Alcotest.test_case "stats json well-formed" `Quick test_stats_json_wellformed;
    Alcotest.test_case "capture window gates tracing" `Quick test_window;
    Alcotest.test_case "commit trace hart-ordered and deterministic" `Quick
      test_trace_hart_ordered;
    Alcotest.test_case "worker pool shutdown" `Quick test_pool_shutdown;
  ]
