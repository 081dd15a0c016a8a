(* Registry of cross-partition boundary FIFOs (Fifo.cf), collected at
   elaboration the same way State collects snapshot fields: construction
   code runs inside [collecting], and every conflict-free FIFO built in
   that scope registers an [ops] record via [note]. The epoch engine
   (Sim ~epoch) is the only consumer: the records carry everything it
   needs to derive the lookahead bound and to replay boundary visibility
   cycle-by-cycle without knowing the FIFO's element type. *)

type ops = {
  bo_name : string;
  (* Partition-token prim ids of the two sides. Which partition each side
     lives in is decided by the rules that claim the tokens, so the
     scheduler resolves these against its ownership table at create. *)
  bo_enq_tk : int;
  bo_deq_tk : int;
  bo_ctor_part : int; (* ambient partition at construction: owns the
                         FIFO's cycle-end hook *)
  bo_prim : int;      (* Conflict.prim pid, for partition-audit exemption *)
  bo_lookahead : int option;
      (* declared minimum response latency in cycles; [None] = undeclared
         (contributes the trivial bound of 1 to the epoch length) *)
  bo_enq_total : unit -> int;
  bo_deq_total : unit -> int;
  bo_set_enq_snap : int -> unit;
  bo_set_deq_snap : int -> unit;
  bo_reset_eport : unit -> unit;
  bo_reset_dport : unit -> unit;
  bo_touch : unit -> unit; (* wake rules parked on the FIFO's signal *)
}

(* Domain-local armed collector: [note] is a no-op unless the calling
   domain is inside [collecting]. Machine construction is single-domain,
   so a plain DLS slot suffices (and nested machines each see only their
   own boundaries). *)
let collector : ops list ref option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let note o =
  match !(Domain.DLS.get collector) with
  | None -> ()
  | Some l -> l := o :: !l

let collecting f =
  let slot = Domain.DLS.get collector in
  let saved = !slot in
  let l = ref [] in
  slot := Some l;
  Fun.protect
    ~finally:(fun () -> slot := saved)
    (fun () ->
      let r = f () in
      (r, List.rev !l))

(* The boundaries registered so far in the current [collecting] scope —
   [Sim.create] runs inside machine construction and reads the registry
   before the scope closes. Empty when no collection is armed. *)
let ambient () =
  match !(Domain.DLS.get collector) with None -> [] | Some l -> List.rev !l
