exception Guard_fail of string
exception Retry of string
exception Conflict_error of string
exception Audit_fail of string

(* A cell's bookkeeping lives in the cell; what a rule's abort must restore
   is logged in the ctx's port log as plain ints keyed by a cell id. Ids
   index the context's own [table] (one context per scheduler, so one per
   machine): a cell gets its id lazily, on its first checked access through
   that context. Small chunks keep a table cheap: a litmus farm builds a
   scheduler per job, and even a 16-core machine enters about 3,300
   cells. *)
type table = {
  dir : cell array array; (* chunks of [chunk] cells *)
  mutable n : int;
}

and cell = {
  cell_name : string;
  (* Per-cycle access summary, lazily reset via the [stamp] generation. *)
  mutable max_r : int;  (* highest read port this cycle, -1 if none *)
  mutable max_w : int;  (* highest write port this cycle, -1 if none *)
  mutable w_mask : int; (* bitmask of write ports used this cycle *)
  mutable stamp : int;  (* cycle the summary belongs to *)
  mutable ctab : table; (* table [cid] indexes *)
  mutable cid : int;
}

let chunk_bits = 8
let chunk = 1 lsl chunk_bits
let no_table = { dir = [||]; n = 0 }

(* The undo trail. Each entry is a row of parallel columns: a kind tag,
   two ints, and up to three values (the mutated object, its boxed old
   value, a setter). Field and array writes of immediate old values keep
   the old value in an int column, and the setter is a closed function
   (statically allocated), so logging a write allocates nothing. Bulk int
   saves (a whole int array) copy into [istk], an int stack.

   A commit ([reset_ctx]) clears the boxed old values, so the trail never
   keeps a stale value alive past its rule. It clears the object too when
   the row's [drop] bit is set (record fields: an in-flight uop must not
   be pinned); other rows mutate state that lives as long as the machine
   (an EHR, a module's ref or array), which they keep until the row is
   reused. A rule that writes the same locations each cycle then finds its
   objects and setters already in their rows, and skips the write barrier
   that storing them, or clearing them, would cost. *)

(* Row kinds, each with its undo. *)
let k_set = 0 (* fn ob ov *)
let k_set_i = 1 (* fn ob ib *)
let k_arr = 2 (* ob.(ia) <- ov *)
let k_arr_i = 3 (* ob.(ia) <- ib *)
let k_ints = 4 (* blit istk[ia, ia+ib) over ob *)
let k_fun = 5 (* ob () *)
let k_bytes = 6 (* blit ov over ob at ia *)
let drop = 8 (* kind bit: clear [ob] at commit *)

(* Element type of the value columns: a record type, so stores into them
   take the plain write barrier with no float-array check. Values go in and
   out through [Obj.magic]. *)
type any = { any_ : unit } [@@warning "-69"]

let any (v : 'a) : any = Obj.magic v
let nil : any = Obj.magic 0

type ctx = {
  clk : Clock.t;
  tab : table;
  mutable tg : int array;
  mutable ia : int array;
  mutable ib : int array;
  mutable ob : any array;
  mutable ov : any array;
  mutable fn : any array;
  mutable tlen : int;
  mutable istk : int array;
  mutable ilen : int;
  (* Port log: two ints per entry, the cell id packed with its pre-access
     max_r/max_w, then its pre-access w_mask. *)
  mutable pl : int array;
  mutable plen : int;
  mutable rule : string;
  mutable accesses : int;
  (* Ready audit (Sim's audit and no-fastpath modes): run the steps
     {!attempt_if}'s ready test turned away, and fail if one commits. *)
  mutable raudit : bool;
}

let make_cell name =
  {
    cell_name = name;
    max_r = -1;
    max_w = -1;
    w_mask = 0;
    stamp = -1;
    ctab = no_table;
    cid = -1;
  }

let make_ctx clk =
  let n = 64 in
  {
    clk;
    tab = { dir = Array.make 1024 [||]; n = 0 };
    tg = Array.make n 0;
    ia = Array.make n 0;
    ib = Array.make n 0;
    ob = Array.make n nil;
    ov = Array.make n nil;
    fn = Array.make n nil;
    tlen = 0;
    istk = Array.make n 0;
    ilen = 0;
    pl = Array.make n 0;
    plen = 0;
    rule = "?";
    accesses = 0;
    raudit = false;
  }

let clock ctx = ctx.clk
let rule_name ctx = ctx.rule
let set_rule_name ctx n = ctx.rule <- n
let set_ready_audit ctx b = ctx.raudit <- b

(* ---- undo trail ---- *)

let grow_trail ctx =
  let n = Array.length ctx.tg in
  let ext a z =
    let b = Array.make (2 * n) z in
    Array.blit a 0 b 0 n;
    b
  in
  ctx.tg <- ext ctx.tg 0;
  ctx.ia <- ext ctx.ia 0;
  ctx.ib <- ext ctx.ib 0;
  ctx.ob <- ext ctx.ob nil;
  ctx.ov <- ext ctx.ov nil;
  ctx.fn <- ext ctx.fn nil

(* Claim the next trail row, tagged [k], with object [o]. *)
let[@inline] row ctx k o =
  let n = ctx.tlen in
  if n = Array.length ctx.tg then grow_trail ctx;
  ctx.tlen <- n + 1;
  Array.unsafe_set ctx.tg n k;
  if Array.unsafe_get ctx.ob n != o then Array.unsafe_set ctx.ob n o;
  n

(* Setters are closed, so they are static and pin nothing: [fn] is never
   cleared. *)
let[@inline] put_fn ctx n set =
  if Array.unsafe_get ctx.fn n != any set then Array.unsafe_set ctx.fn n (any set)

let[@inline] log_w ctx d (set : 'o -> 'a -> unit) (o : 'o) (old : 'a) =
  if Obj.is_int (Obj.repr old) then begin
    let n = row ctx (k_set_i lor d) (any o) in
    Array.unsafe_set ctx.ib n (Obj.magic old : int);
    put_fn ctx n set
  end
  else begin
    let n = row ctx (k_set lor d) (any o) in
    Array.unsafe_set ctx.ov n (any old);
    put_fn ctx n set
  end

let log_set ctx set o old = log_w ctx 0 set o old
let log_field ctx set o old = log_w ctx drop set o old

let log_arr ctx (a : 'a array) i (old : 'a) =
  if Obj.is_int (Obj.repr old) then begin
    let n = row ctx k_arr_i (any a) in
    Array.unsafe_set ctx.ia n i;
    Array.unsafe_set ctx.ib n (Obj.magic old : int)
  end
  else begin
    let n = row ctx k_arr (any a) in
    Array.unsafe_set ctx.ia n i;
    Array.unsafe_set ctx.ov n (any old)
  end

let log_ints ctx (a : int array) =
  let len = Array.length a in
  let at = ctx.ilen in
  if at + len > Array.length ctx.istk then begin
    let b = Array.make (2 * (at + len)) 0 in
    Array.blit ctx.istk 0 b 0 at;
    ctx.istk <- b
  end;
  Array.blit a 0 ctx.istk at len;
  ctx.ilen <- at + len;
  let n = row ctx k_ints (any a) in
  Array.unsafe_set ctx.ia n at;
  Array.unsafe_set ctx.ib n len

let log_bytes ctx b pos len =
  let n = row ctx k_bytes (any b) in
  Array.unsafe_set ctx.ia n pos;
  Array.unsafe_set ctx.ov n (any (Bytes.sub b pos len))

let on_abort ctx (f : unit -> unit) = ignore (row ctx (k_fun lor drop) (any f))

(* Generic (not [any]-specialised) so a float array is written through the
   runtime's float-array path. *)
let arr_set (a : 'a array) i (v : 'a) = Array.unsafe_set a i v

let undo_row ctx i =
  let o = Array.unsafe_get ctx.ob i in
  let k = Array.unsafe_get ctx.tg i land (drop - 1) in
  if k = k_set then (Obj.magic (Array.unsafe_get ctx.fn i) : any -> any -> unit) o ctx.ov.(i)
  else if k = k_set_i then (Obj.magic (Array.unsafe_get ctx.fn i) : any -> int -> unit) o ctx.ib.(i)
  else if k = k_arr then arr_set (Obj.magic o) ctx.ia.(i) ctx.ov.(i)
  else if k = k_arr_i then arr_set (Obj.magic o) ctx.ia.(i) (any ctx.ib.(i))
  else if k = k_ints then Array.blit ctx.istk ctx.ia.(i) (Obj.magic o : int array) 0 ctx.ib.(i)
  else if k = k_fun then (Obj.magic o : unit -> unit) ()
  else begin
    let saved : Bytes.t = Obj.magic ctx.ov.(i) in
    Bytes.blit saved 0 (Obj.magic o : Bytes.t) ctx.ia.(i) (Bytes.length saved)
  end

(* Drop the boxed old values of rows [from, tlen), and the objects of
   [drop] rows, so they pin nothing. *)
let clear_rows ctx from =
  for i = from to ctx.tlen - 1 do
    let k = Array.unsafe_get ctx.tg i in
    if k land drop <> 0 then Array.unsafe_set ctx.ob i nil;
    let k = k land (drop - 1) in
    if k = k_set || k = k_arr || k = k_bytes then Array.unsafe_set ctx.ov i nil
  done

(* ---- port log ---- *)

let cell_of tab id =
  Array.unsafe_get (Array.unsafe_get tab.dir (id lsr chunk_bits)) (id land (chunk - 1))

let[@inline never] adopt tab c =
  let id = tab.n in
  let k = id lsr chunk_bits in
  if k >= Array.length tab.dir then failwith "Kernel: cell table full";
  if id land (chunk - 1) = 0 then tab.dir.(k) <- Array.make chunk c;
  tab.dir.(k).(id land (chunk - 1)) <- c;
  tab.n <- id + 1;
  c.cid <- id;
  c.ctab <- tab

(* Log [c]'s summary as it is before this access changes it. *)
let log_port ctx c =
  if c.ctab != ctx.tab then adopt ctx.tab c;
  let n = ctx.plen in
  if n + 2 > Array.length ctx.pl then begin
    let b = Array.make (2 * Array.length ctx.pl) 0 in
    Array.blit ctx.pl 0 b 0 n;
    ctx.pl <- b
  end;
  Array.unsafe_set ctx.pl n ((c.cid lsl 16) lor ((c.max_r + 1) lsl 8) lor (c.max_w + 1));
  Array.unsafe_set ctx.pl (n + 1) c.w_mask;
  ctx.plen <- n + 2

let access_count ctx = ctx.accesses
let undo_depth ctx = ctx.tlen + (ctx.plen / 2)

let reset_ctx ctx =
  (* Forget committed undos without running them, clearing the rows so the
     trail does not pin dead values. *)
  clear_rows ctx 0;
  ctx.tlen <- 0;
  ctx.ilen <- 0;
  ctx.plen <- 0;
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
  raise
    (Retry
       (Printf.sprintf "rule %s: %s port %d of %s inadmissible after this cycle's accesses (max_r=%d max_w=%d)"
          ctx.rule kind port c.cell_name c.max_r c.max_w))

let record_read ctx c port =
  refresh ctx c;
  (* read[port] may follow write[j] only when j < port *)
  if c.max_w >= port then retry ctx c "read" port;
  ctx.accesses <- ctx.accesses + 1;
  if port > c.max_r then begin
    log_port ctx c;
    c.max_r <- port
  end

let record_write ctx c port =
  refresh ctx c;
  (* write[port] may follow read[j] when j <= port, write[j] when j < port *)
  if c.max_r > port || c.max_w >= port || c.w_mask land (1 lsl port) <> 0 then
    retry ctx c "write" port;
  ctx.accesses <- ctx.accesses + 1;
  log_port ctx c;
  c.max_w <- port;
  c.w_mask <- c.w_mask lor (1 lsl port)

(* No rule-name prefix: guards abort on the hot path (every non-firing
   attempted rule pays one), and the two string concatenations per failure
   dominated the abort cost. The rule is always recoverable from the catch
   site via [rule_name]. *)
let guard _ctx ok msg = if not ok then raise (Guard_fail msg)

(* Undo back to the marks, newest first on each log: a location written
   twice is restored through its successive old values. The two logs touch
   disjoint state, so their relative order does not matter. *)
let rollback_to ctx ~trail ~ints ~ports =
  for i = ctx.tlen - 1 downto trail do
    undo_row ctx i
  done;
  clear_rows ctx trail;
  ctx.tlen <- trail;
  ctx.ilen <- ints;
  let pl = ctx.pl in
  let j = ref (ctx.plen - 2) in
  while !j >= ports do
    let w = Array.unsafe_get pl !j in
    let c = cell_of ctx.tab (w lsr 16) in
    c.max_r <- ((w lsr 8) land 0xff) - 1;
    c.max_w <- (w land 0xff) - 1;
    c.w_mask <- Array.unsafe_get pl (!j + 1);
    j := !j - 2
  done;
  ctx.plen <- ports

let rollback ctx = rollback_to ctx ~trail:0 ~ints:0 ~ports:0

let attempt ctx f =
  let trail = ctx.tlen and ints = ctx.ilen and ports = ctx.plen in
  match f ctx with
  | r -> Some r
  | exception (Guard_fail _ | Retry _) ->
    rollback_to ctx ~trail ~ints ~ports;
    None

(* The audit's run of a step its ready test turned away: an abort, or a
   return that left nothing on either log, is what the test promised; any
   logged effect (a write, or a read that moved a port summary) is a lie. *)
let[@inline never] audit_unready ctx f =
  let trail = ctx.tlen and ints = ctx.ilen and ports = ctx.plen in
  match f ctx with
  | _ when ctx.tlen = trail && ctx.plen = ports -> None
  | _ ->
    rollback ctx;
    raise
      (Audit_fail
         (Printf.sprintf
            "rule %s: a step's ready test returned false but the step committed (cycle %d)"
            ctx.rule (Clock.now ctx.clk)))
  | exception (Guard_fail _ | Retry _) ->
    rollback_to ctx ~trail ~ints ~ports;
    None

let[@inline] attempt_if ctx ready f =
  if ready then attempt ctx f else if ctx.raudit then audit_unready ctx f else None

(* Preallocated, so an aggregate rule that found nothing to do raises its
   guard failure without allocating. *)
let no_effect = Guard_fail "no step committed"

let require_effect ctx = if undo_depth ctx = 0 then raise_notrace no_effect
