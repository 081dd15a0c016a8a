(* Kanata/Konata pipeline-viewer export (format version 0004).

   Everything here is derived from the per-hart [Pipe.irec] arrays by
   sorting on (cycle, hart, tid) keys, so the output is a pure function of
   the recorded event streams. *)

type line = {
  lcyc : int; (* cycle the line belongs to *)
  lid : int; (* file id of the instruction *)
  lkind : int; (* 0 = I, 1 = L, 2 = S, 3 = R — emission order within a cycle *)
  lsub : int; (* tie-break among same-kind lines of one instruction *)
  ltxt : string; (* rendered line, without the leading cycle bookkeeping *)
}

let esc s =
  (* Labels are tab-separated fields on one line; keep them that way. *)
  String.map (fun c -> if c = '\t' || c = '\n' || c = '\r' then ' ' else c) s

let to_string ~pipes =
  let recs =
    List.concat_map (fun p -> Array.to_list (Pipe.records p)) pipes
  in
  (* An instruction still in flight at run end gets a synthetic flush-retire
     at its last recorded cycle, so every id in the file is closed. *)
  let last_cycle (r : Pipe.irec) =
    Array.fold_left (fun a (_, c) -> max a c) r.istart r.istages
  in
  let recs =
    List.map
      (fun (r : Pipe.irec) ->
        if r.iretire >= 0 then r
        else { r with iretire = last_cycle r; iflushed = true })
      recs
  in
  let arr = Array.of_list recs in
  (* File ids: fetch order across harts (start cycle, then hart, then tid —
     tid order within a hart is already fetch order). *)
  Array.sort
    (fun (a : Pipe.irec) b ->
      compare (a.istart, a.ihart, a.itid) (b.istart, b.ihart, b.itid))
    arr;
  let n = Array.length arr in
  (* Retire ids: Konata requires them unique and roughly retirement-ordered. *)
  let ret_order = Array.init n (fun i -> i) in
  Array.sort
    (fun i j ->
      let a = arr.(i) and b = arr.(j) in
      compare (a.iretire, a.ihart, a.itid) (b.iretire, b.ihart, b.itid))
    ret_order;
  let ret_id = Array.make n 0 in
  Array.iteri (fun k i -> ret_id.(i) <- k) ret_order;
  let lines = ref [] in
  let add lcyc lid lkind lsub ltxt =
    lines := { lcyc; lid; lkind; lsub; ltxt } :: !lines
  in
  Array.iteri
    (fun id (r : Pipe.irec) ->
      add r.istart id 0 0 (Printf.sprintf "I\t%d\t%d\t%d" id r.itid r.ihart);
      add r.istart id 1 0
        (Printf.sprintf "L\t%d\t0\t%Lx: %s" id r.ipc (esc r.itext));
      (* The start event is the fetch stage. *)
      add r.istart id 2 0
        (Printf.sprintf "S\t%d\t0\t%s" id (Pipe.stage_name Pipe.s_fetch));
      Array.iteri
        (fun k (code, cyc) ->
          add cyc id 2 (k + 1)
            (Printf.sprintf "S\t%d\t0\t%s" id (Pipe.stage_name code)))
        r.istages;
      add r.iretire id 3 0
        (Printf.sprintf "R\t%d\t%d\t%d" id ret_id.(id)
           (if r.iflushed then 1 else 0)))
    arr;
  let lines = Array.of_list !lines in
  Array.sort
    (fun a b ->
      compare (a.lcyc, a.lid, a.lkind, a.lsub) (b.lcyc, b.lid, b.lkind, b.lsub))
    lines;
  let b = Buffer.create (256 + (64 * Array.length lines)) in
  Buffer.add_string b "Kanata\t0004\n";
  let cur = ref min_int in
  Array.iter
    (fun l ->
      if !cur = min_int then (
        Buffer.add_string b (Printf.sprintf "C=\t%d\n" l.lcyc);
        cur := l.lcyc)
      else if l.lcyc > !cur then (
        Buffer.add_string b (Printf.sprintf "C\t%d\n" (l.lcyc - !cur));
        cur := l.lcyc);
      Buffer.add_string b l.ltxt;
      Buffer.add_char b '\n')
    lines;
  Buffer.contents b

let write ~out ~pipes =
  let oc = open_out out in
  output_string oc (to_string ~pipes);
  close_out oc
