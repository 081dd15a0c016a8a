type 'a t = {
  cell : Kernel.cell;
  mutable v : 'a;
  nm : string;
  sg : Wakeup.signal;
}

(* Atomic so concurrent machine builds (farm workers) still get unique
   debug names. The snapshot registry entry deliberately uses the stable
   stem instead: counter-suffixed names are not build-deterministic, and
   the State config digest must match across independent builds of the
   same configuration. *)
let counter = Atomic.make 0

(* Fault-injection support: when the Inject registry is armed, every EHR is
   a candidate site. The cell is polymorphic, so a bit can only be flipped
   when the live value is an immediate (int, bool, constant constructor):
   XOR-ing the OCaml-int view preserves the tag bit, so the result is still
   an immediate and the mutation is memory-safe — pattern matches and
   bounds checks downstream turn a nonsense value into a detected fault
   rather than undefined behaviour. Boxed values report [false] (no flip). *)
let inject_width = 8

let flip_immediate t bit =
  if Obj.is_int (Obj.repr t.v) then begin
    t.v <- Obj.magic ((Obj.magic t.v : int) lxor (1 lsl bit));
    Wakeup.touch t.sg;
    true
  end
  else false

let create ?name ?(inject = true) init =
  let nm =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "ehr#%d" (Atomic.fetch_and_add counter 1 + 1)
  in
  let t = { cell = Kernel.make_cell nm; v = init; nm; sg = Wakeup.make () } in
  Inject.register ~name:nm ~width:inject_width
    (if inject then flip_immediate t else fun _ -> false);
  State.register
    ~name:(match name with Some n -> n | None -> "ehr")
    ~save:(fun () -> Obj.repr t.v)
    ~load:(fun o ->
      let v : 'a = Obj.obj o in
      if v != t.v then Wakeup.touch t.sg;
      t.v <- v);
  t

let read ctx t p =
  Kernel.record_read ctx t.cell p;
  t.v

let set_v t v = t.v <- v

(* Log, touch and store only on a physical value change: parked predicates
   observe values through [peek], so writing back the same immediate (the
   common idle case, e.g. wires re-poked to None at every cycle boundary)
   cannot change any predicate's answer and need not wake anyone, and its
   undo would be a no-op. The port access is recorded either way. A
   rolled-back write leaves its touch behind — a spurious wakeup, which is
   harmless. *)
let write ctx t p v =
  Kernel.record_write ctx t.cell p;
  let old = t.v in
  if v != old then begin
    Kernel.log_set ctx set_v t old;
    Wakeup.touch t.sg;
    t.v <- v
  end

let peek t = t.v

let poke t v =
  if v != t.v then Wakeup.touch t.sg;
  t.v <- v

let name t = t.nm
let signal t = t.sg
