(* In-memory tracing for the benchmark: spans around the benchmark's calls
   into the simulator's layers, per-step timestamps taken from the
   machine's [on_cycle] hook, and GC phases read back from OCaml's
   [runtime_events] ring. Everything is preallocated or appended under a
   lock and written out once, at the end of a repetition. All times are
   CLOCK_MONOTONIC nanoseconds, the clock [runtime_events] stamps its
   events with, so GC phases line up with the spans they fall inside. *)

let now () = Monotonic_clock.now ()
let secs a b = Int64.to_float (Int64.sub b a) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

type span = {
  name : string;
  start : int64;
  mutable stop : int64;
  parent : int;  (** index of the parent span, -1 for the root *)
  run : int;  (** operation id: kernel index or farm job index, -1 if none *)
}

let on = ref false
let spans : span array ref = ref [||]
let n_spans = ref 0
let lock = Mutex.create ()

(* Indices of the spans that are not GC phases, newest first: the
   candidates a GC phase can nest under. *)
let frames = ref []

(* [start ~parent name] opens a span and returns its index, or -1 when
   tracing is off (every other function treats -1 as "no span"). *)
let start ?(run = -1) ~parent name =
  if not !on then -1
  else begin
    Mutex.lock lock;
    if !n_spans = Array.length !spans then begin
      let grown = Array.make (max 1024 (2 * !n_spans)) { name = ""; start = 0L; stop = 0L; parent = -1; run = -1 } in
      Array.blit !spans 0 grown 0 !n_spans;
      spans := grown
    end;
    let i = !n_spans in
    !spans.(i) <- { name; start = now (); stop = 0L; parent; run };
    incr n_spans;
    if name <> "ocaml.gc" then frames := i :: !frames;
    Mutex.unlock lock;
    i
  end

let stop i = if i >= 0 then !spans.(i).stop <- now ()

(* Record an already finished interval (a GC phase). *)
let add ~parent name a b =
  if !on then begin
    let i = start ~parent name in
    Mutex.lock lock;
    !spans.(i) <- { !spans.(i) with start = a; stop = b };
    Mutex.unlock lock
  end

let with_span ?run ~parent name f =
  let s = start ?run ~parent name in
  Fun.protect ~finally:(fun () -> stop s) (fun () -> f s)

(* Self time of every span: its duration minus the union of its
   children's intervals (children on two domains may overlap). *)
let self_times () =
  let n = !n_spans in
  let kids = Array.make n [] in
  for i = n - 1 downto 0 do
    let p = !spans.(i).parent in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  Array.init n (fun i ->
      let s = !spans.(i) in
      let ivs =
        List.map (fun k -> (max s.start !spans.(k).start, min s.stop !spans.(k).stop)) kids.(i)
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, edge) (a, b) ->
            let a = max a edge in
            if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, edge))
          (0L, s.start) ivs
      in
      Int64.to_float (Int64.sub (Int64.sub s.stop s.start) covered) *. 1e-9)

(* Self seconds summed by span name, largest first. *)
let self_by_name () =
  let self = self_times () in
  let h = Hashtbl.create 16 in
  Array.iteri
    (fun i t ->
      let n = !spans.(i).name in
      Hashtbl.replace h n (t +. Option.value ~default:0. (Hashtbl.find_opt h n)))
    self;
  Hashtbl.fold (fun n t acc -> (n, t) :: acc) h [] |> List.sort (fun (_, a) (_, b) -> compare b a)

(* One JSON object per line: id, name, start/end ns, parent, run, self. *)
let write path =
  let self = self_times () in
  let oc = open_out path in
  for i = 0 to !n_spans - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%d,\"run\":%d,\"self_s\":%.9f}\n"
      i s.name s.start s.stop s.parent s.run self.(i)
  done;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Per-step host time                                                   *)
(* ------------------------------------------------------------------ *)

(* Host time between consecutive [on_cycle] calls (one cycle, or one
   window in epoch mode), per domain. Timestamps go into a preallocated
   per-domain array; [step_end] turns them into step lengths (µs) and
   appends those to one shared unboxed buffer. *)
type stamps = { ts : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t; mutable n : int }

let stamps_key =
  Domain.DLS.new_key (fun () ->
      { ts = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (1 lsl 20); n = 0 })

let step_us = ref (Float.Array.create 0)
let n_step_us = ref 0

let step () =
  let s = Domain.DLS.get stamps_key in
  if s.n < Bigarray.Array1.dim s.ts then begin
    Bigarray.Array1.unsafe_set s.ts s.n (now ());
    s.n <- s.n + 1
  end

let step_end () =
  let s = Domain.DLS.get stamps_key in
  if s.n > 0 then begin
    step ();
    Mutex.lock lock;
    let need = !n_step_us + s.n in
    if need > Float.Array.length !step_us then begin
      let grown = Float.Array.create (max need (2 * Float.Array.length !step_us)) in
      Float.Array.blit !step_us 0 grown 0 !n_step_us;
      step_us := grown
    end;
    for i = 1 to s.n - 1 do
      Float.Array.set !step_us !n_step_us (Int64.to_float (Int64.sub s.ts.{i} s.ts.{i - 1}) *. 1e-3);
      incr n_step_us
    done;
    Mutex.unlock lock;
    s.n <- 0
  end

let step_lengths_us () = Float.Array.sub !step_us 0 !n_step_us

(* ------------------------------------------------------------------ *)
(* GC phases from runtime_events                                        *)
(* ------------------------------------------------------------------ *)

(* Outermost GC phases, per ring (one ring per domain): (begin, end) ns.
   Condition waits and the [Gc.quick_stat] phase are not collection
   work and are left out. *)
let gc_intervals : (int64 * int64) list ref = ref []
let depth = Array.make 128 0
let began = Array.make 128 0L
let lost = ref 0
let cursor = ref None

let counted = function
  | Runtime_events.EV_DOMAIN_CONDITION_WAIT | Runtime_events.EV_EXPLICIT_GC_STAT -> false
  | _ -> true

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun ring ts ph ->
      if counted ph && ring < 128 then begin
        if depth.(ring) = 0 then began.(ring) <- Runtime_events.Timestamp.to_int64 ts;
        depth.(ring) <- depth.(ring) + 1
      end)
    ~runtime_end:(fun ring ts ph ->
      if counted ph && ring < 128 && depth.(ring) > 0 then begin
        depth.(ring) <- depth.(ring) - 1;
        if depth.(ring) = 0 then
          gc_intervals := (began.(ring), Runtime_events.Timestamp.to_int64 ts) :: !gc_intervals
      end)
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let gc_start () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None)

(* The newest span opened after [parent] that encloses [a, b] (still open
   or ended after [b]), else [parent]. *)
let enclosing ~parent a b =
  let encloses i = !spans.(i).start <= a && (!spans.(i).stop = 0L || !spans.(i).stop >= b) in
  let rec find = function
    | i :: rest when i > parent -> if encloses i then i else find rest
    | _ -> parent
  in
  find !frames

(* Drain the ring. Each new GC phase becomes a span under the innermost
   span that encloses it, searched below [parent]; with [~nest:false] it
   goes straight under [parent] (spans of other domains may overlap it in
   time). Safe to call from any domain. *)
let gc_poll ?(nest = true) ~parent () =
  match !cursor with
  | None -> ()
  | Some c ->
    Mutex.lock lock;
    let before = !gc_intervals in
    ignore (Runtime_events.read_poll c callbacks None);
    let rec fresh l = if l == before then [] else match l with x :: r -> x :: fresh r | [] -> [] in
    let added = fresh !gc_intervals in
    let placed = List.map (fun (a, b) -> ((if nest then enclosing ~parent a b else parent), a, b)) added in
    Mutex.unlock lock;
    List.iter (fun (p, a, b) -> add ~parent:p "ocaml.gc" a b) placed

(* GC seconds falling inside the interval [a, b]. *)
let gc_within a b =
  List.fold_left
    (fun acc (x, y) ->
      let x = max x a and y = min y b in
      if y > x then acc +. Int64.to_float (Int64.sub y x) *. 1e-9 else acc)
    0. !gc_intervals
