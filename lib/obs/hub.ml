open Cmd

(* Front door of the observability subsystem: owns the sinks, wires them
   into a simulator, and writes the output files.

   Lifecycle:
     let hub = Hub.create ~nharts ~konata:(Some "out.kanata") ... ()
     (* cores are built against Hub.pipe hub ~hart *)
     Hub.attach hub sim;       (* numbers the rules, arms the sinks *)
     ... run ...
     Hub.finish hub ~cycles ~instrs ~stats

   A hub with no sink requested keeps every flag false, so instrumented
   cores pay exactly one load-and-branch per potential event — the same as
   running with no hub at all (cores then hold [Pipe.null]). *)

type t = {
  konata : string option;
  chrome : string option;
  stats_json : string option;
  window : (int * int) option; (* [a, b) capture window, cycles *)
  meta : (string * string) list;
  pipes : Pipe.t array;
  mutable rt : Rule_trace.t option;
  mutable rule_names : string array;
}

let create ?window ?konata ?chrome ?stats_json ?(meta = []) ~nharts () =
  {
    konata;
    chrome;
    stats_json;
    window;
    meta;
    pipes = Array.init (max 1 nharts) (fun h -> Pipe.create ~hart:h);
    rt = None;
    rule_names = [||];
  }

let pipe t ~hart = t.pipes.(hart)

let in_window t cyc =
  match t.window with None -> true | Some (a, b) -> cyc >= a && cyc < b

(* Arm/disarm capture for cycle [cyc]. Gating applies to event *creation*
   (new tids, rule fires); instructions already started keep tracing to
   completion so every Konata chain stays whole. *)
let set_capture t cyc =
  let on = in_window t cyc in
  if t.konata <> None then Array.iter (fun p -> Pipe.set_active p on) t.pipes;
  match t.rt with Some rt -> Rule_trace.set_active rt on | None -> ()

let attach t sim =
  let rules = Sim.rules sim in
  List.iteri (fun i (r : Rule.t) -> r.Rule.rid <- i) rules;
  t.rule_names <- Array.of_list (List.map (fun (r : Rule.t) -> r.Rule.name) rules);
  (if t.chrome <> None then begin
     let nparts =
       1 + List.fold_left (fun m (r : Rule.t) -> max m r.Rule.part) 0 rules
     in
     let rt = Rule_trace.create ~nparts in
     t.rt <- Some rt;
     Sim.set_rule_trace sim (fun r cyc -> Rule_trace.emit rt r cyc)
   end);
  set_capture t 0;
  match t.window with
  | None -> ()
  | Some _ ->
      let clk = Sim.clock sim in
      (* Hooks run at tick, before the cycle number advances: re-evaluate
         the window for the cycle about to start. *)
      Clock.on_cycle_end clk (fun () -> set_capture t (Clock.now clk + 1))

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let konata_string t = Konata.to_string ~pipes:(Array.to_list t.pipes)

let chrome_string t =
  let ncores = Array.length t.pipes in
  match t.rt with
  | None -> Chrome.to_string ~names:[||] ~ncores ~rt:(Rule_trace.create ~nparts:1)
  | Some rt -> Chrome.to_string ~names:t.rule_names ~ncores ~rt

let stats_string t ~cycles ~instrs ~stats =
  Stats_json.to_string ~meta:t.meta ~cycles ~instrs ~stats ()

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let finish t ~cycles ~instrs ~stats =
  Option.iter (fun p -> write_file p (konata_string t)) t.konata;
  Option.iter (fun p -> write_file p (chrome_string t)) t.chrome;
  Option.iter
    (fun p -> write_file p (stats_string t ~cycles ~instrs ~stats))
    t.stats_json
