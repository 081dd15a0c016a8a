(* Per-machine snapshot state registry.

   Every primitive that owns live simulation state — an EHR's value, a
   conflict-free FIFO's cycle-start snapshots, the PRF's arrays, a cache's
   line array — registers a (save, load) pair while a machine is being
   built, using the same armed-collector pattern as [Inject] (fault sites)
   and [Verif.Invariant] (checks): registration against the ambient
   collector is a no-op when no machine build is in progress, so ordinary
   primitive construction pays one branch.

   The collector is domain-local so that farm workers can build machines
   concurrently: each domain's build sees only its own registry.

   Serialization marshals ALL saved values as ONE array in a single
   [Marshal.to_string] call. This is load-bearing for bit-identity: a uop
   in flight is typically referenced from several containers at once (ROB
   slot, LSQ entry, issue-queue entry, a stage register), and per-entry
   marshaling would split that shared mutable record into independent
   copies — a later write through one container would no longer be seen
   through the others. One blob preserves the heap sharing, so the restored
   machine has the same object graph shape as the snapshotted one.

   [Marshal.Closures] is required because in-flight atomic-memory requests
   carry their read-modify-write function through cache FIFOs and MSHR
   waiter lists. Closure marshaling only round-trips within the same
   binary, so the image header records a digest of the running executable
   and [load] refuses images from any other build. *)

type entry = { sname : string; save : unit -> Obj.t; load : Obj.t -> unit }
type registry = { entries : entry array }

exception Error of string

let error fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

let collector : entry list ref option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let register ~name ~save ~load =
  match !(Domain.DLS.get collector) with
  | Some l -> l := { sname = name; save; load } :: !l
  | None -> ()

(* Typed convenience wrapper: [get] returns the live value (it is marshaled
   immediately, so returning live structure without copying is fine); [set]
   receives the unmarshaled value and must write it back IN PLACE — rules
   capture the containers, not fresh ones, at build time. *)
let field ~name get set =
  register ~name
    ~save:(fun () -> Obj.repr (get ()))
    ~load:(fun o -> set (Obj.obj o))

let collecting f =
  let c = Domain.DLS.get collector in
  let saved = !c in
  let l = ref [] in
  c := Some l;
  Fun.protect
    ~finally:(fun () -> c := saved)
    (fun () ->
      let r = f () in
      (r, { entries = Array.of_list (List.rev !l) }))

let names t = Array.to_list (Array.map (fun e -> e.sname) t.entries)
let size t = Array.length t.entries

(* ---------------------------------------------------------------------- *)
(* Image codec                                                            *)
(*                                                                        *)
(* magic | exe digest | config digest | payload length | payload digest | *)
(* payload. The payload digest is verified BEFORE unmarshaling: Marshal   *)
(* on corrupted input is undefined behaviour, the digest check turns it   *)
(* into a clean [Error]. The config digest covers the registry's entry    *)
(* names in registration order plus a caller-supplied configuration       *)
(* string, so an image can only be loaded into a machine whose state      *)
(* inventory is structurally identical to the one that wrote it.          *)
(* ---------------------------------------------------------------------- *)

let magic = "riscyoo-snap-v1\n"

(* Not a [lazy]: snapshots are taken concurrently from worker domains and
   forcing a shared lazy from two domains raises [Lazy.Undefined] on the
   loser. A mutex-guarded memo is domain-safe; the digest is computed once,
   by whichever domain snapshots first. *)
let exe_digest_mutex = Mutex.create ()
let exe_digest_memo = ref None

let exe_digest () =
  Mutex.lock exe_digest_mutex;
  let d =
    match !exe_digest_memo with
    | Some d -> d
    | None ->
      let d =
        try Digest.file Sys.executable_name
        with _ -> Digest.string Sys.executable_name
      in
      exe_digest_memo := Some d;
      d
  in
  Mutex.unlock exe_digest_mutex;
  d

let config_digest t ~config =
  Digest.string (String.concat "\x00" (config :: names t))

let header_len = String.length magic + 16 + 16 + 8 + 16

let save t ~config =
  let vals = Array.map (fun e -> e.save ()) t.entries in
  let payload = Marshal.to_string vals [ Marshal.Closures ] in
  let b = Buffer.create (String.length payload + header_len) in
  Buffer.add_string b magic;
  Buffer.add_string b (exe_digest ());
  Buffer.add_string b (config_digest t ~config);
  Buffer.add_int64_be b (Int64.of_int (String.length payload));
  Buffer.add_string b (Digest.string payload);
  Buffer.add_string b payload;
  Buffer.contents b

let load t ~config img =
  let mlen = String.length magic in
  if String.length img < header_len then
    error "snapshot image truncated (%d bytes, header is %d)" (String.length img) header_len;
  if String.sub img 0 mlen <> magic then
    error "bad snapshot magic (not a riscyoo-snap-v1 image)";
  let at = ref mlen in
  let take n =
    let s = String.sub img !at n in
    at := !at + n;
    s
  in
  let exe = take 16 in
  if exe <> exe_digest () then
    error
      "snapshot was written by a different binary (closure marshaling only round-trips within one build)";
  let cfg = take 16 in
  if cfg <> config_digest t ~config then
    error "snapshot configuration mismatch (machine kind/config/state inventory differ)";
  let plen = Int64.to_int (String.get_int64_be img !at) in
  at := !at + 8;
  let pdig = take 16 in
  if plen < 0 || String.length img - !at <> plen then
    error "snapshot payload truncated (%d bytes present, header says %d)"
      (String.length img - !at) plen;
  (* The payload is checked and unmarshaled in place: no copy of it. *)
  if Digest.substring img !at plen <> pdig then
    error "snapshot payload checksum mismatch (corrupted image)";
  let vals : Obj.t array =
    try Marshal.from_string img !at
    with Failure m -> error "snapshot payload does not unmarshal: %s" m
  in
  if Array.length vals <> Array.length t.entries then
    error "snapshot carries %d state entries, machine registers %d" (Array.length vals)
      (Array.length t.entries);
  Array.iteri (fun i e -> e.load vals.(i)) t.entries
