(* Differential fuzzing: random (terminating) RISC-V programs run on the
   out-of-order core with lockstep co-simulation against the golden ISA
   simulator, plus an exit-checksum comparison. Any divergence in renaming,
   speculation, forwarding, or the memory system shows up here. *)

open Isa
open Workloads

let i64 = Alcotest.testable (Fmt.fmt "%Ld") Int64.equal
let data = 0x8010_0000L

(* Generate a straight-line-with-forward-branches program: guaranteed to
   terminate, rich in hazards. Registers x1..x15 are general; x16 (a6) holds
   the data base; x17 (a7) reserved for the exit call. *)
let gen_program rng n_instrs =
  let p = Asm.create () in
  let r () = 1 + Random.State.int rng 15 in
  let open Reg_name in
  Asm.li p a6 data;
  for i = 1 to 15 do
    Asm.li p i (Int64.of_int (Random.State.int rng 1000 - 500))
  done;
  let pending_label = ref None in
  for i = 0 to n_instrs - 1 do
    (match !pending_label with
    | Some (l, at) when at = i ->
      Asm.label p l;
      pending_label := None
    | _ -> ());
    match Random.State.int rng 100 with
    | x when x < 30 ->
      (* reg-reg alu *)
      let ops = [ `Add; `Sub; `Xor; `Or; `And; `Sll; `Srl; `Slt ] in
      let op = List.nth ops (Random.State.int rng (List.length ops)) in
      let rd = r () and rs1 = r () and rs2 = r () in
      (match op with
      | `Add -> Asm.add p rd rs1 rs2
      | `Sub -> Asm.sub p rd rs1 rs2
      | `Xor -> Asm.xor p rd rs1 rs2
      | `Or -> Asm.or_ p rd rs1 rs2
      | `And -> Asm.and_ p rd rs1 rs2
      | `Sll -> Asm.slli p rd rs1 (Random.State.int rng 63)
      | `Srl -> Asm.srli p rd rs1 (Random.State.int rng 63)
      | `Slt -> Asm.slt p rd rs1 rs2)
    | x when x < 45 ->
      Asm.addi p (r ()) (r ()) (Int64.of_int (Random.State.int rng 2000 - 1000))
    | x when x < 55 ->
      (* muldiv *)
      let rd = r () and rs1 = r () and rs2 = r () in
      (match Random.State.int rng 4 with
      | 0 -> Asm.mul p rd rs1 rs2
      | 1 -> Asm.mulh p rd rs1 rs2
      | 2 -> Asm.div p rd rs1 rs2
      | _ -> Asm.remu p rd rs1 rs2)
    | x when x < 70 ->
      (* load from the data region: address = base + (reg & 0xFF8) *)
      let rd = r () and ra = r () in
      Asm.andi p ra ra 0x7F8L;
      Asm.add p ra ra Reg_name.a6;
      (match Random.State.int rng 3 with
      | 0 -> Asm.ld p rd 0L ra
      | 1 -> Asm.lw p rd 0L ra
      | _ -> Asm.lbu p rd 0L ra)
    | x when x < 82 ->
      (* store into the data region *)
      let rv = r () and ra = r () in
      Asm.andi p ra ra 0x7F8L;
      Asm.add p ra ra Reg_name.a6;
      (match Random.State.int rng 3 with
      | 0 -> Asm.sd p rv 0L ra
      | 1 -> Asm.sw p rv 0L ra
      | _ -> Asm.sb p rv 0L ra)
    | x when x < 94 && !pending_label = None && i + 2 < n_instrs ->
      (* forward branch over 1-4 instructions: speculation + kills *)
      let l = Asm.fresh p "fwd" in
      let skip = 1 + Random.State.int rng 4 in
      let c = [ Asm.beq; Asm.bne; Asm.blt; Asm.bgeu ] in
      (List.nth c (Random.State.int rng 4)) p (r ()) (r ()) l;
      pending_label := Some (l, min (n_instrs - 1) (i + 1 + skip))
    | _ -> Asm.fence p
  done;
  (match !pending_label with Some (l, _) -> Asm.label p l | None -> ());
  (* checksum all registers and the data region head *)
  let open Reg_name in
  Asm.li p a0 0L;
  for i = 1 to 15 do
    Asm.add p a0 a0 i
  done;
  Asm.ld p t0 0L a6;
  Asm.add p a0 a0 t0;
  Asm.li p t1 0xFFFFFFL;
  Asm.and_ p a0 a0 t1;
  Asm.li p a7 93L;
  Asm.ecall p;
  Machine.program
    ~init_mem:(fun m -> Kernel_lib.init_random_words m ~base:data ~n:512 ~bound:Int64.max_int ~seed:77)
    p

let tiny_cfg =
  {
    Ooo.Config.riscyoo_b with
    Ooo.Config.rob_size = 16;
    iq_size = 6;
    lq_size = 6;
    sq_size = 5;
    sb_size = 2;
    n_spec_tags = 4;
    mem =
      {
        Mem.Mem_sys.l1d_bytes = 1024;
        l1d_ways = 2;
        l1d_mshrs = 2;
        l1i_bytes = 2048;
        l1i_ways = 2;
        l2_bytes = 8192;
        l2_ways = 2;
        l2_mshrs = 4;
        l2_latency = 4;
        mesi = false;
        mem_latency = 15;
        mem_inflight = 4;
        l2_banks = 1;
      };
  }

let run_one rng i =
  let prog = gen_program rng (50 + Random.State.int rng 250) in
  let g = Machine.create Machine.Golden_only prog in
  let og = Machine.run ~max_cycles:200_000 g in
  Alcotest.(check bool) (Printf.sprintf "prog %d: golden exits" i) false og.Machine.timed_out;
  List.iter
    (fun (nm, cfg) ->
      let m = Machine.create ~cosim:true (Machine.Out_of_order cfg) prog in
      let o = Machine.run ~max_cycles:500_000 m in
      Alcotest.(check bool) (Printf.sprintf "prog %d: %s exits" i nm) false o.Machine.timed_out;
      Alcotest.check i64 (Printf.sprintf "prog %d: %s checksum" i nm) og.Machine.exits.(0)
        o.Machine.exits.(0))
    [
      ("tiny-wmm", tiny_cfg);
      ("tiny-tso", { tiny_cfg with Ooo.Config.mem_model = Ooo.Config.TSO; name = "tiny-tso" });
    ]

let test_fuzz () =
  let rng = Random.State.make [| 0xC0FFEE |] in
  for i = 1 to 25 do
    run_one rng i
  done

let test_fuzz_inorder () =
  let rng = Random.State.make [| 0xF00D |] in
  for i = 1 to 10 do
    let prog = gen_program rng (50 + Random.State.int rng 200) in
    let g = Machine.create Machine.Golden_only prog in
    let og = Machine.run ~max_cycles:200_000 g in
    let m =
      Machine.create
        (Machine.In_order { mem = tiny_cfg.Ooo.Config.mem; tlb = Tlb.Tlb_sys.blocking_config })
        prog
    in
    let o = Machine.run ~max_cycles:1_000_000 m in
    Alcotest.(check bool) (Printf.sprintf "inorder prog %d exits" i) false o.Machine.timed_out;
    Alcotest.check i64 (Printf.sprintf "inorder prog %d checksum" i) og.Machine.exits.(0)
      o.Machine.exits.(0)
  done

let suite =
  let t = Alcotest.test_case in
  [
    t "fuzz: 25 random programs, OOO cosim (WMM+TSO)" `Quick test_fuzz;
    t "fuzz: 10 random programs, in-order" `Quick test_fuzz_inorder;
  ]
