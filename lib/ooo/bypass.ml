open Cmd

type t = (int * int64) Wire.t array

let create clk ~n_wires = Array.init n_wires (fun i -> Wire.create ~name:(Printf.sprintf "bypass%d" i) clk ())

let set ctx t i preg v = Wire.set ctx t.(i) (preg, v)

let get ctx t preg =
  Array.fold_left
    (fun acc w ->
      match acc with
      | Some _ -> acc
      | None -> (
        match Wire.get ctx w with Some (p, v) when p = preg -> Some v | _ -> None))
    None t

(* [get] scans every wire, so a reading rule declares all of them *)
