(* The declarative config space: a point is a sparse set of overrides on a
   named base configuration, a manifest is a grid (cartesian product of
   axis values) plus explicit points, and expansion gives every point a
   stable dotted name derived from its overrides — the identity the farm
   journal, the Pareto front and the reference check all key on. *)

exception Bad_manifest of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_manifest s)) fmt

type tlb_kind = Blocking | Nonblocking

type point = {
  pname : string option;  (* explicit name; grid points are named from axes *)
  rob_size : int option;
  iq_size : int option;
  lq_size : int option;
  sq_size : int option;
  n_phys_regs : int option;  (* None = classic 32 + rob + 8 sizing *)
  predictor : Branch.Dir_pred.kind option;
  mesi : bool option;
  tlb : tlb_kind option;
  dtlb_entries : int option;
  ncores : int option;
  l2_banks : int option;
}

let empty_point =
  {
    pname = None;
    rob_size = None;
    iq_size = None;
    lq_size = None;
    sq_size = None;
    n_phys_regs = None;
    predictor = None;
    mesi = None;
    tlb = None;
    dtlb_entries = None;
    ncores = None;
    l2_banks = None;
  }

(* Axis names in canonical manifest/expansion order. *)
let axes =
  [
    "rob_size";
    "iq_size";
    "lq_size";
    "sq_size";
    "n_phys_regs";
    "predictor";
    "mesi";
    "tlb";
    "dtlb_entries";
    "ncores";
    "l2_banks";
  ]

type axis_value = I of int | B of bool | S of string

let set_axis p axis v =
  let int_of = function I n -> n | _ -> bad "axis %s wants an integer" axis in
  let bool_of = function B b -> b | _ -> bad "axis %s wants a boolean" axis in
  let str_of = function S s -> s | _ -> bad "axis %s wants a string" axis in
  match axis with
  | "rob_size" -> { p with rob_size = Some (int_of v) }
  | "iq_size" -> { p with iq_size = Some (int_of v) }
  | "lq_size" -> { p with lq_size = Some (int_of v) }
  | "sq_size" -> { p with sq_size = Some (int_of v) }
  | "n_phys_regs" -> { p with n_phys_regs = Some (int_of v) }
  | "predictor" -> (
    match str_of v with
    | "tournament" -> { p with predictor = Some Branch.Dir_pred.Tournament }
    | "gshare" -> { p with predictor = Some Branch.Dir_pred.Gshare }
    | "bimodal" -> { p with predictor = Some Branch.Dir_pred.Bimodal }
    | s -> bad "unknown predictor %S (tournament/gshare/bimodal)" s)
  | "mesi" -> { p with mesi = Some (bool_of v) }
  | "tlb" -> (
    match str_of v with
    | "blocking" -> { p with tlb = Some Blocking }
    | "nonblocking" -> { p with tlb = Some Nonblocking }
    | s -> bad "unknown tlb kind %S (blocking/nonblocking)" s)
  | "dtlb_entries" -> { p with dtlb_entries = Some (int_of v) }
  | "ncores" -> { p with ncores = Some (int_of v) }
  | "l2_banks" -> { p with l2_banks = Some (int_of v) }
  | a -> bad "unknown axis %S" a

(* Stable name component for one axis setting. *)
let component axis v =
  match (axis, v) with
  | "rob_size", I n -> Printf.sprintf "rob%d" n
  | "iq_size", I n -> Printf.sprintf "iq%d" n
  | "lq_size", I n -> Printf.sprintf "lq%d" n
  | "sq_size", I n -> Printf.sprintf "sq%d" n
  | "n_phys_regs", I n -> Printf.sprintf "prf%d" n
  | "predictor", S s -> s
  | "mesi", B true -> "mesi"
  | "mesi", B false -> "msi"
  | "tlb", S s -> "tlb-" ^ s
  | "dtlb_entries", I n -> Printf.sprintf "dtlb%d" n
  | "ncores", I n -> Printf.sprintf "c%d" n
  | "l2_banks", I n -> Printf.sprintf "banks%d" n
  | a, _ -> bad "axis %S cannot carry that value type" a

let name_of p = match p.pname with Some n -> n | None -> bad "unnamed point"

(* Apply a point to its base Ooo config. The machine-level core count rides
   along since it is not an [Ooo.Config.t] field. *)
let to_config ~base p =
  let get o d = Option.value o ~default:d in
  let rob_size = get p.rob_size base.Ooo.Config.rob_size in
  let cfg =
    {
      base with
      Ooo.Config.name = name_of p;
      rob_size;
      iq_size = get p.iq_size base.Ooo.Config.iq_size;
      lq_size = get p.lq_size base.Ooo.Config.lq_size;
      sq_size = get p.sq_size base.Ooo.Config.sq_size;
      n_phys_regs =
        (match p.n_phys_regs with
        | Some n ->
          if n < 40 then
            bad "point %s: n_phys_regs %d < 40 (needs headroom past the 32 architectural)"
              (name_of p) n;
          n
        | None -> Ooo.Config.phys_regs_for ~rob_size);
      predictor = get p.predictor base.Ooo.Config.predictor;
    }
  in
  let cfg =
    match p.mesi with
    | None -> cfg
    | Some mesi -> { cfg with Ooo.Config.mem = { cfg.Ooo.Config.mem with Mem.Mem_sys.mesi } }
  in
  let cfg =
    match p.l2_banks with
    | None -> cfg
    | Some b ->
      if b < 1 || b land (b - 1) <> 0 then
        bad "point %s: l2_banks %d not a power of two" (name_of p) b;
      { cfg with Ooo.Config.mem = { cfg.Ooo.Config.mem with Mem.Mem_sys.l2_banks = b } }
  in
  let cfg =
    match p.tlb with
    | None -> cfg
    | Some Blocking -> { cfg with Ooo.Config.tlb = Tlb.Tlb_sys.blocking_config }
    | Some Nonblocking -> { cfg with Ooo.Config.tlb = Tlb.Tlb_sys.nonblocking_config }
  in
  let cfg =
    match p.dtlb_entries with
    | None -> cfg
    | Some n ->
      { cfg with Ooo.Config.tlb = { cfg.Ooo.Config.tlb with Tlb.Tlb_sys.dtlb_entries = n } }
  in
  cfg

type workload = { wname : string; scale : int }

type t = {
  base_name : string;
  base : Ooo.Config.t;
  base_ncores : int;
  workloads : workload list;
  points : point list;  (* every one named; grid-expanded then explicit *)
  reference : string option;  (* point name that must sit on the front *)
}

let ncores_of t p = Option.value p.ncores ~default:t.base_ncores

let axis_value_of_json axis = function
  | Rjson.Int n -> I n
  | Rjson.Bool b -> B b
  | Rjson.Str s -> S s
  | _ -> bad "axis %s: values must be ints, bools or strings" axis

(* Cartesian expansion of the grid, axes in canonical order; the point name
   is the dot-join of each axis component in that same order, so the same
   manifest always yields the same names regardless of JSON field order. *)
let expand_grid grid =
  let grid =
    List.filter_map
      (fun axis ->
        match List.assoc_opt axis grid with
        | None -> None
        | Some (Rjson.List vs) ->
          if vs = [] then bad "axis %s: empty value list" axis;
          Some (axis, List.map (axis_value_of_json axis) vs)
        | Some _ -> bad "axis %s: expected a list of values" axis)
      axes
  in
  (match List.find_opt (fun (a, _) -> not (List.mem a axes)) grid with
  | Some (a, _) -> bad "unknown axis %S" a
  | None -> ());
  let rec go acc = function
    | [] -> [ acc ]
    | (axis, vs) :: rest ->
      List.concat_map (fun v -> go ((axis, v) :: acc) rest) vs
  in
  if grid = [] then []
  else
    go [] grid
    |> List.map (fun settings ->
           let settings = List.rev settings in
           let p = List.fold_left (fun p (a, v) -> set_axis p a v) empty_point settings in
           let name = String.concat "." (List.map (fun (a, v) -> component a v) settings) in
           { p with pname = Some name })

let point_of_json = function
  | Rjson.Obj fields ->
    let p =
      List.fold_left
        (fun p (k, v) ->
          match k with
          | "name" -> (
            match v with
            | Rjson.Str s -> { p with pname = Some s }
            | _ -> bad "point name must be a string")
          | k -> set_axis p k (axis_value_of_json k v))
        empty_point fields
    in
    if p.pname = None then bad "explicit points need a \"name\"";
    p
  | _ -> bad "points must be objects"

let workload_of_json = function
  | Rjson.Obj fields as j ->
    let wname =
      match Rjson.mem "name" j with Some (Rjson.Str s) -> s | _ -> bad "workload needs a \"name\""
    in
    let scale = match List.assoc_opt "scale" fields with Some (Rjson.Int n) -> n | _ -> 1 in
    { wname; scale }
  | Rjson.Str s -> { wname = s; scale = 1 }
  | _ -> bad "workloads must be objects or names"

(* [check_schema] is on for standalone manifests and off when the same
   object rides inside a farm manifest sweep (which has its own schema). *)
let of_json ?(check_schema = true) j =
  (if check_schema then
     match Rjson.mem "schema" j with
     | Some (Rjson.Str "riscyoo-explore-manifest-v1") -> ()
     | Some (Rjson.Str s) -> bad "unsupported schema %S" s
     | _ -> bad "missing \"schema\": \"riscyoo-explore-manifest-v1\"");
  let base_name =
    match Rjson.mem "base" j with
    | Some (Rjson.Str s) -> s
    | Some _ -> bad "\"base\" must be a string"
    | None -> "b"
  in
  let base, base_ncores =
    match Ooo.Config.of_name base_name with
    | Some b -> b
    | None -> bad "unknown base config %S" base_name
  in
  let workloads =
    match Rjson.mem "workloads" j with
    | Some (Rjson.List ws) when ws <> [] -> List.map workload_of_json ws
    | _ -> bad "manifest needs a non-empty \"workloads\" list"
  in
  let grid_points =
    match Rjson.mem "grid" j with
    | Some (Rjson.Obj fields) ->
      (match List.find_opt (fun (a, _) -> not (List.mem a axes)) fields with
      | Some (a, _) -> bad "unknown axis %S" a
      | None -> ());
      expand_grid fields
    | Some _ -> bad "\"grid\" must be an object of axis lists"
    | None -> []
  in
  let explicit =
    match Rjson.mem "points" j with
    | Some (Rjson.List ps) -> List.map point_of_json ps
    | Some _ -> bad "\"points\" must be a list"
    | None -> []
  in
  let points = grid_points @ explicit in
  if points = [] then bad "manifest expands to zero points (need a \"grid\" or \"points\")";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let n = name_of p in
      if Hashtbl.mem seen n then bad "duplicate point name %S" n;
      Hashtbl.add seen n ())
    points;
  let reference =
    match Rjson.mem "reference" j with
    | Some (Rjson.Str s) ->
      if not (Hashtbl.mem seen s) then bad "reference point %S is not in the expanded space" s;
      Some s
    | Some _ -> bad "\"reference\" must be a point name"
    | None -> None
  in
  { base_name; base; base_ncores; workloads; points; reference }

let of_string s = of_json (Rjson.of_string s)

let find_point t name = List.find_opt (fun p -> name_of p = name) t.points

(* Clamp every grid axis to its first [per_axis] values, at the JSON level
   so the clamped manifest re-expands with the same stable names — the CI
   smoke switch ([--quick]). Explicit points survive untouched; a reference
   that named a clamped-away grid point is dropped rather than failing. *)
let quick_json ?(per_axis = 2) j =
  let clamp vs = List.filteri (fun i _ -> i < per_axis) vs in
  match j with
  | Rjson.Obj fields ->
    let fields =
      List.map
        (function
          | "grid", Rjson.Obj grid ->
            ( "grid",
              Rjson.Obj
                (List.map
                   (function a, Rjson.List vs -> (a, Rjson.List (clamp vs)) | kv -> kv)
                   grid) )
          | kv -> kv)
        fields
    in
    let j' = Rjson.Obj fields in
    (match Rjson.mem "reference" j' with
    | Some (Rjson.Str _) -> (
      match try Some (of_json ~check_schema:false j') with Bad_manifest _ -> None with
      | Some _ -> j'
      | None -> Rjson.Obj (List.filter (fun (k, _) -> k <> "reference") fields))
    | _ -> j')
  | j -> j

let n_points t = List.length t.points
