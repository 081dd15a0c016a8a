(* Chrome trace_event export (the JSON array format read by chrome://tracing
   and https://ui.perfetto.dev).

   Layout: one process (pid 0), one thread per cluster (the uncore, each
   core, each L2 bank; see [Partition]). Each rule fire becomes a complete
   ("X") event on its cluster's track, with consecutive-cycle fires of the
   same rule merged into one slice; per-cluster fire counts become counter
   ("C") events. Timestamps are cycles, expressed as microseconds (1 cycle
   = 1 us).

   Everything is computed from [Rule_trace] buffers by deterministic sorts,
   so the bytes are a pure function of the run. *)

let esc s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Merge a cluster's chronological (rid, cycle) fires into slices
   (rid, start, len): consecutive-cycle fires of one rule fuse. *)
let slices fires =
  let open_runs = Hashtbl.create 64 in
  (* rid -> (start, last) *)
  let out = ref [] in
  List.iter
    (fun (rid, cyc) ->
      match Hashtbl.find_opt open_runs rid with
      | Some (st, last) when cyc = last + 1 ->
          Hashtbl.replace open_runs rid (st, cyc)
      | Some (st, last) ->
          out := (rid, st, last - st + 1) :: !out;
          Hashtbl.replace open_runs rid (cyc, cyc)
      | None -> Hashtbl.add open_runs rid (cyc, cyc))
    fires;
  Hashtbl.iter (fun rid (st, last) -> out := (rid, st, last - st + 1) :: !out) open_runs;
  let arr = Array.of_list !out in
  Array.sort
    (fun (r1, s1, l1) (r2, s2, l2) -> compare (s1, r1, l1) (s2, r2, l2))
    arr;
  arr

(* Per-cycle fire counts of one cluster, as a chronological
   (cycle, count) list with explicit drops to 0 after gaps, deduplicated so
   only changes remain. *)
let counts fires =
  let raw = ref [] in
  List.iter
    (fun (_, cyc) ->
      match !raw with
      | (c, n) :: rest when c = cyc -> raw := (c, n + 1) :: rest
      | (c, _) :: _ when cyc > c + 1 -> raw := (cyc, 1) :: (c + 1, 0) :: !raw
      | _ -> raw := (cyc, 1) :: !raw)
    fires;
  List.rev !raw

(* Cluster 0 is the uncore, 1..ncores the cores, and the clusters above
   them the banks of a banked L2 ([Mem_sys] builds bank b in cluster
   ncores + 1 + b). *)
let label ~ncores p =
  if p = 0 then "uncore"
  else if p <= ncores then Printf.sprintf "core %d" (p - 1)
  else Printf.sprintf "L2 bank %d" (p - ncores - 1)

let to_string ~names ~ncores ~rt =
  let np = Rule_trace.nparts rt in
  let b = Buffer.create 65536 in
  Buffer.add_string b "[\n";
  let first = ref true in
  let add s =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b s
  in
  add
    "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"riscyoo sim\"}}";
  for p = 0 to np - 1 do
    add
      (Printf.sprintf
         "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}"
         p (esc (label ~ncores p)))
  done;
  for p = 0 to np - 1 do
    let fires = Rule_trace.fires rt p in
    Array.iter
      (fun (rid, st, len) ->
        add
          (Printf.sprintf
             "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"name\":\"%s\",\"args\":{\"rid\":%d}}"
             p st len
             (esc (if rid < Array.length names then names.(rid) else "?"))
             rid))
      (slices fires);
    List.iter
      (fun (cyc, n) ->
        add
          (Printf.sprintf
             "{\"ph\":\"C\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"name\":\"fires.p%d\",\"args\":{\"fires\":%d}}"
             p cyc p n))
      (counts fires)
  done;
  Buffer.add_string b "\n]\n";
  Buffer.contents b
