(* The EHR conflict matrix, derived from what the kernel does at run time.

   Every pair of one-access rules over ports 0..2 runs for one cycle in
   both listing orders. Which orders fire both rules gives the pair's
   relation (CF, <, >, C); it must equal the closed form documented in
   [Ehr]. When a read follows a write it must see the write, and when it
   precedes it, the old value. *)

open Cmd

type rel = Cf | Lt | Gt | C

let rel_to_string = function Cf -> "CF" | Lt -> "<" | Gt -> ">" | C -> "C"

(* The matrix of ehr.mli for access [a] listed before access [b]. *)
let closed_form (wa, pa) (wb, pb) =
  match (wa, wb) with
  | false, false -> Cf
  | false, true -> if pa <= pb then Lt else Gt
  | true, false -> if pa < pb then Lt else Gt
  | true, true -> if pa < pb then Lt else if pa > pb then Gt else C

(* Run [first] then [second] for one cycle on a fresh EHR holding 0; writes
   store 1. Returns whether both fired, and what a fired read saw. *)
let run first second =
  let seen = ref None in
  let access (write, port) e ctx =
    if write then Ehr.write ctx e port 1 else seen := Some (Ehr.read ctx e port)
  in
  let clk = Clock.create () in
  let e = Ehr.create 0 in
  let r1 = Rule.make "first" (access first e) and r2 = Rule.make "second" (access second e) in
  ignore (Sim.cycle (Sim.create clk [ r1; r2 ]));
  Alcotest.(check int) "first listed fires" 1 r1.Rule.fired;
  Alcotest.(check int) "second listed fires or conflicts" 1 (r2.Rule.fired + r2.Rule.conflicted);
  (r2.Rule.fired = 1, !seen)

let test_ehr_order () =
  let accesses = List.concat_map (fun p -> [ (false, p); (true, p) ]) [ 0; 1; 2 ] in
  let show (w, p) = Printf.sprintf "%c%d" (if w then 'w' else 'r') p in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let name = show a ^ " " ^ show b in
          let ab, seen_ab = run a b and ba, _ = run b a in
          let got = match (ab, ba) with true, true -> Cf | true, false -> Lt | false, true -> Gt | false, false -> C in
          Alcotest.(check string) name (rel_to_string (closed_form a b)) (rel_to_string got);
          (* a read listed second sees the first rule's write; listed first,
             or after another read, it sees the initial value *)
          if ab && not (fst b) then
            Alcotest.(check (option int)) (name ^ ": read value") (Some (if fst a then 1 else 0)) seen_ab)
        accesses)
    accesses

let suite = [ Alcotest.test_case "EHR port-order algebra" `Quick test_ehr_order ]
