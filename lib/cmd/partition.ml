(* Ambient cluster scoping. A cluster is an integer: 0 is the shared
   "uncore", 1.. label cores (and the banks of a banked L2). Rule
   constructors capture the ambient cluster, so a machine builder labels a
   whole subtree (core + private caches + TLB) by wrapping its construction
   in [scoped]; the observability layer groups trace tracks by it. *)

let uncore = 0

(* Domain-local so farm workers can build machines concurrently: each
   domain's ambient cluster is its own. *)
let cur : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref uncore)
let ambient () = !(Domain.DLS.get cur)

let scoped p f =
  if p < 0 || p > 60 then invalid_arg "Partition.scoped: partition out of range";
  let cur = Domain.DLS.get cur in
  let old = !cur in
  cur := p;
  Fun.protect ~finally:(fun () -> cur := old) f
