exception Guard_fail of string
exception Retry of string
exception Conflict_error of string
exception Partition_overlap of string
exception Compile_audit_fail of string

type cell = {
  cell_name : string;
  mutable prim : int; (* owning Conflict.prim pid; -1 until adopted *)
  (* Per-cycle access summary, lazily reset via the [stamp] generation. *)
  mutable max_r : int;  (* highest read port this cycle, -1 if none *)
  mutable max_w : int;  (* highest write port this cycle, -1 if none *)
  mutable w_mask : int; (* bitmask of write ports used this cycle *)
  mutable stamp : int;  (* cycle the summary belongs to *)
  (* Partition-audit summary, kept on its own stamp so the hot path stays
     untouched when auditing is off. Masks are never rolled back on abort:
     even an aborted access read the cell concurrently, so it counts. *)
  mutable p_rmask : int; (* partitions that read this cell this cycle *)
  mutable p_wmask : int; (* partitions that wrote this cell this cycle *)
  mutable p_stamp : int;
}

(* Undo entries live in a reusable arena: a growable array of closures with
   a fill pointer. The scheduler keeps one ctx alive across every rule
   attempt of a run, so the steady-state cost of an attempt is writing
   closures into pre-allocated slots instead of consing a fresh list per
   rule per cycle. A "mark" is just a fill-pointer snapshot. *)
type ctx = {
  clk : Clock.t;
  mutable undo : (unit -> unit) array;
  mutable undo_len : int;
  mutable rule : string;
  mutable accesses : int;
  mutable part : int;       (* partition currently executing on this ctx *)
  mutable stats_slot : int; (* shard index for Stats counters; -1 = direct *)
  mutable paudit : bool;    (* record per-partition cell touches *)
  (* Epoch-mode partition audit: [pkey >= 0] keys the audit masks on the
     whole epoch window instead of the cycle, so a cell shared across
     partitions *anywhere* within a window is flagged — free-running
     partitions are only speculation-safe when the window's phases touch
     disjoint state. [pexempt] whitelists the declared boundary-FIFO
     primitives, whose cross-partition protocol the epoch engine itself
     sequences (and the equivalence tests check). *)
  mutable pkey : int;
  mutable pexempt : int -> bool;
  (* Compiled-schedule flag (Sim). [chk] gates the per-cell port
     admissibility bookkeeping: the schedule compiler clears it for rules
     whose every conflict pair is statically admissible, so no access of
     theirs can raise or contribute to a [Retry]. *)
  mutable chk : bool;
  (* Compile-audit instrumentation (cold: stays 0/None in normal runs).
     [retries] counts Retry raises; [fp_check] is called on every tracked
     access with the touched cell. *)
  mutable retries : int;
  mutable fp_check : (cell -> write:bool -> unit) option;
}

let no_undo () = ()

let make_cell name =
  {
    cell_name = name;
    prim = -1;
    max_r = -1;
    max_w = -1;
    w_mask = 0;
    stamp = -1;
    p_rmask = 0;
    p_wmask = 0;
    p_stamp = -1;
  }

let make_ctx clk =
  {
    clk;
    undo = Array.make 64 no_undo;
    undo_len = 0;
    rule = "?";
    accesses = 0;
    part = 0;
    stats_slot = -1;
    paudit = false;
    pkey = -1;
    pexempt = (fun _ -> false);
    chk = true;
    retries = 0;
    fp_check = None;
  }

let clock ctx = ctx.clk
let rule_name ctx = ctx.rule
let set_rule_name ctx n = ctx.rule <- n
let partition ctx = ctx.part
let set_partition ctx p = ctx.part <- p
let stats_slot ctx = ctx.stats_slot
let set_stats_slot ctx s = ctx.stats_slot <- s
let set_partition_audit ctx b = ctx.paudit <- b
let set_audit_key ctx k = ctx.pkey <- k
let set_audit_exempt ctx f = ctx.pexempt <- f
let partition_audit ctx = ctx.paudit

let set_checked ctx b = ctx.chk <- b

let cell_prim c = c.prim
let cell_name c = c.cell_name
let set_cell_prim c pid = c.prim <- pid
let retries ctx = ctx.retries
let set_fp_check ctx f = ctx.fp_check <- f

let overlap_fail ctx c all =
  let parts = ref [] in
  for p = 60 downto 0 do
    if all land (1 lsl p) <> 0 then parts := string_of_int p :: !parts
  done;
  raise
    (Partition_overlap
       (Printf.sprintf
          "cycle %d: cell %s touched by partitions {%s} with a write involved (last access by rule %s)"
          (Clock.now ctx.clk) c.cell_name
          (String.concat "," !parts)
          ctx.rule))

(* Record a cell touch for the partition audit. Read-read sharing across
   partitions is harmless (no order dependence); any sharing that involves
   a write is an overlap the static checker should have excluded. *)
let audit_touch ctx c ~write =
  if ctx.pexempt c.prim then ()
  else begin
  let now = if ctx.pkey >= 0 then ctx.pkey else Clock.uid ctx.clk in
  if c.p_stamp <> now then begin
    c.p_stamp <- now;
    c.p_rmask <- 0;
    c.p_wmask <- 0
  end;
  let bit = 1 lsl ctx.part in
  if write then c.p_wmask <- c.p_wmask lor bit else c.p_rmask <- c.p_rmask lor bit;
  let all = c.p_rmask lor c.p_wmask in
  if c.p_wmask <> 0 && all land (all - 1) <> 0 then overlap_fail ctx c all
  end

let on_abort ctx f =
  let n = ctx.undo_len in
  if n = Array.length ctx.undo then begin
    let bigger = Array.make (2 * n) no_undo in
    Array.blit ctx.undo 0 bigger 0 n;
    ctx.undo <- bigger
  end;
  ctx.undo.(n) <- f;
  ctx.undo_len <- n + 1

let access_count ctx = ctx.accesses
let undo_depth ctx = ctx.undo_len

let reset_ctx ctx =
  (* Forget committed undos without running them; clear the slots so the
     arena does not pin dead closures (and their captured old values). *)
  for i = 0 to ctx.undo_len - 1 do
    ctx.undo.(i) <- no_undo
  done;
  ctx.undo_len <- 0;
  ctx.accesses <- 0

(* Stamps use [Clock.uid], not [Clock.now]: uid never goes backward across
   a snapshot restore, so a summary written by an earlier run of a reused
   machine can never masquerade as this cycle's. *)
let refresh ctx c =
  let now = Clock.uid ctx.clk in
  if c.stamp <> now then begin
    c.stamp <- now;
    c.max_r <- -1;
    c.max_w <- -1;
    c.w_mask <- 0
  end

let retry ctx c kind port =
  ctx.retries <- ctx.retries + 1;
  raise
    (Retry
       (Printf.sprintf "rule %s: %s port %d of %s inadmissible after this cycle's accesses (max_r=%d max_w=%d)"
          ctx.rule kind port c.cell_name c.max_r c.max_w))

(* When [chk] is off (rule statically proven conflict-admissible), an access
   is a plain read/write: no summary refresh, no admissibility test, no
   bookkeeping undo. The summaries other rules consult stay consistent
   because any pair that could ever retry has both endpoints checked. *)
let record_read ctx c port =
  if ctx.chk then begin
    refresh ctx c;
    if ctx.paudit then audit_touch ctx c ~write:false;
    (match ctx.fp_check with Some f -> f c ~write:false | None -> ());
    (* read[port] may follow write[j] only when j < port *)
    if c.max_w >= port then retry ctx c "read" port;
    ctx.accesses <- ctx.accesses + 1;
    if port > c.max_r then begin
      let old = c.max_r in
      c.max_r <- port;
      on_abort ctx (fun () -> c.max_r <- old)
    end
  end

let record_write ctx c port =
  if ctx.chk then begin
    refresh ctx c;
    if ctx.paudit then audit_touch ctx c ~write:true;
    (match ctx.fp_check with Some f -> f c ~write:true | None -> ());
    (* write[port] may follow read[j] when j <= port, write[j] when j < port *)
    if c.max_r > port || c.max_w >= port || c.w_mask land (1 lsl port) <> 0 then
      retry ctx c "write" port;
    ctx.accesses <- ctx.accesses + 1;
    let old_w = c.max_w and old_mask = c.w_mask in
    on_abort ctx (fun () ->
        c.max_w <- old_w;
        c.w_mask <- old_mask);
    c.max_w <- port;
    c.w_mask <- c.w_mask lor (1 lsl port)
  end

(* No rule-name prefix: guards abort on the hot path (every non-firing
   attempted rule pays one), and the two string concatenations per failure
   dominated the abort cost. The rule is always recoverable from the catch
   site via [rule_name]. *)
let guard _ctx ok msg = if not ok then raise (Guard_fail msg)

let rollback_to ctx mark =
  (* Undo entries are newest-first from the top of the arena; applying them
     top-down restores each location through its successive old values. *)
  for i = ctx.undo_len - 1 downto mark do
    ctx.undo.(i) ();
    ctx.undo.(i) <- no_undo
  done;
  ctx.undo_len <- mark

let rollback ctx = rollback_to ctx 0

let attempt ctx f =
  let save = ctx.undo_len in
  match f ctx with
  | r -> Some r
  | exception (Guard_fail _ | Retry _) ->
    rollback_to ctx save;
    None
