type lsq_slot = LNone | LQ of int | SQ of int

type t = {
  seq : int;
  pc : int64;
  instr : Isa.Instr.t;
  rob_idx : int;
  prd : int;
  prs1 : int;
  prs2 : int;
  prd_old : int;
  spec_tag : int;
  lsq : lsq_slot;
  pred_next : int64;
  ras_sp : Branch.Ras.snapshot;
  ghist : Branch.Dir_pred.snapshot option;
  mutable spec_mask : int;
  mutable killed : bool;
  mutable completed : bool;
  mutable ld_kill : bool;
  mutable fault : bool;
  mutable mmio : bool;
  mutable translated : bool;
  mutable paddr : int64;
  mutable st_data : int64;
  mutable result : int64;
  mutable actual_next : int64;
  tid : int; (* observability trace id, -1 when tracing was off at decode *)
}

(* Tracked field writes: closed accessors, so a write allocates nothing. *)
let mk_set_mask ctx u v =
  Cmd.Mut.field ctx u ~get:(fun u -> u.spec_mask) ~set:(fun u v -> u.spec_mask <- v) v

let mk_set_killed ctx u v =
  Cmd.Mut.field ctx u ~get:(fun u -> u.killed) ~set:(fun u v -> u.killed <- v) v

let mk_set_completed ctx u v =
  Cmd.Mut.field ctx u ~get:(fun u -> u.completed) ~set:(fun u v -> u.completed <- v) v

let mk_set_ld_kill ctx u v =
  Cmd.Mut.field ctx u ~get:(fun u -> u.ld_kill) ~set:(fun u v -> u.ld_kill <- v) v

let mk_set_fault ctx u v =
  Cmd.Mut.field ctx u ~get:(fun u -> u.fault) ~set:(fun u v -> u.fault <- v) v

let mk_set_mmio ctx u v =
  Cmd.Mut.field ctx u ~get:(fun u -> u.mmio) ~set:(fun u v -> u.mmio <- v) v

let mk_set_translated ctx u v =
  Cmd.Mut.field ctx u ~get:(fun u -> u.translated) ~set:(fun u v -> u.translated <- v) v

let mk_set_paddr ctx u v =
  Cmd.Mut.field ctx u ~get:(fun u -> u.paddr) ~set:(fun u v -> u.paddr <- v) v

let mk_set_st_data ctx u v =
  Cmd.Mut.field ctx u ~get:(fun u -> u.st_data) ~set:(fun u v -> u.st_data <- v) v

let mk_set_result ctx u v =
  Cmd.Mut.field ctx u ~get:(fun u -> u.result) ~set:(fun u v -> u.result <- v) v

let mk_set_actual_next ctx u v =
  Cmd.Mut.field ctx u ~get:(fun u -> u.actual_next) ~set:(fun u v -> u.actual_next <- v) v

let pp fmt u =
  Format.fprintf fmt "#%d pc=%Lx %a rob=%d prd=%d mask=%x%s" u.seq u.pc Isa.Instr.pp u.instr
    u.rob_idx u.prd u.spec_mask
    (if u.killed then " KILLED" else "")
