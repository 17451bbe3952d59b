(* Tests for Xentry_isa: registers, flags, condition codes, operands,
   instruction metadata (read/write sets used for fault activation
   tracking), and the assembler. *)

open Xentry_isa

let gpr = Alcotest.testable Reg.pp_gpr ( = )

(* --- Reg ------------------------------------------------------------------ *)

let test_reg_index_roundtrip () =
  Array.iter
    (fun g ->
      Alcotest.check gpr "roundtrip" g (Reg.gpr_of_index (Reg.gpr_index g)))
    Reg.all_gprs

let test_reg_indexes_distinct () =
  let idxs = Array.to_list (Array.map Reg.gpr_index Reg.all_gprs) in
  Alcotest.(check int) "16 distinct indexes" 16
    (List.length (List.sort_uniq compare idxs))

let test_reg_names_roundtrip () =
  Array.iter
    (fun g ->
      match Reg.gpr_of_name (Reg.gpr_name g) with
      | Some g' -> Alcotest.check gpr "name roundtrip" g g'
      | None -> Alcotest.fail "name not found")
    Reg.all_gprs

let test_reg_arch_count () =
  Alcotest.(check int) "18 injectable registers" 18 (Array.length Reg.all_arch)

let test_reg_of_index_invalid () =
  Alcotest.check_raises "index 16 rejected" (Invalid_argument "Reg.gpr_of_index")
    (fun () -> ignore (Reg.gpr_of_index 16))

(* --- Flags ------------------------------------------------------------------ *)

let test_flags_bits_match_x86 () =
  Alcotest.(check int) "CF" 0 (Flags.bit Flags.CF);
  Alcotest.(check int) "PF" 2 (Flags.bit Flags.PF);
  Alcotest.(check int) "ZF" 6 (Flags.bit Flags.ZF);
  Alcotest.(check int) "SF" 7 (Flags.bit Flags.SF);
  Alcotest.(check int) "OF" 11 (Flags.bit Flags.OF)

let test_flags_set_get () =
  let image = 0L in
  Array.iter
    (fun f ->
      let set = Flags.set image f true in
      Alcotest.(check bool) "set then get" true (Flags.get set f);
      let cleared = Flags.set set f false in
      Alcotest.(check bool) "clear then get" false (Flags.get cleared f))
    Flags.all

let test_flags_of_result_zero () =
  let image = Flags.of_result 0L 0L in
  Alcotest.(check bool) "ZF on zero" true (Flags.get image Flags.ZF);
  Alcotest.(check bool) "SF clear on zero" false (Flags.get image Flags.SF)

let test_flags_of_result_negative () =
  let image = Flags.of_result 0L (-5L) in
  Alcotest.(check bool) "SF on negative" true (Flags.get image Flags.SF);
  Alcotest.(check bool) "ZF clear" false (Flags.get image Flags.ZF)

let test_flags_of_result_carry_overflow () =
  let image = Flags.of_result ~carry:true ~overflow:true 0L 1L in
  Alcotest.(check bool) "CF" true (Flags.get image Flags.CF);
  Alcotest.(check bool) "OF" true (Flags.get image Flags.OF)

let test_flags_parity () =
  (* 0x3 has two set bits in the low byte: parity even -> PF set. *)
  let even = Flags.of_result 0L 0x3L in
  Alcotest.(check bool) "PF even" true (Flags.get even Flags.PF);
  let odd = Flags.of_result 0L 0x1L in
  Alcotest.(check bool) "PF odd" false (Flags.get odd Flags.PF)

(* --- Cond -------------------------------------------------------------------- *)

let flags_image ~zf ~sf ~cf ~off =
  let i = Flags.set 0L Flags.ZF zf in
  let i = Flags.set i Flags.SF sf in
  let i = Flags.set i Flags.CF cf in
  Flags.set i Flags.OF off

let test_cond_eval_table () =
  let open Cond in
  let eq = flags_image ~zf:true ~sf:false ~cf:false ~off:false in
  let lt = flags_image ~zf:false ~sf:true ~cf:true ~off:false in
  let gt = flags_image ~zf:false ~sf:false ~cf:false ~off:false in
  Alcotest.(check bool) "E on equal" true (eval E eq);
  Alcotest.(check bool) "NE on equal" false (eval NE eq);
  Alcotest.(check bool) "L on less" true (eval L lt);
  Alcotest.(check bool) "LE on equal" true (eval LE eq);
  Alcotest.(check bool) "G on greater" true (eval G gt);
  Alcotest.(check bool) "GE on greater" true (eval GE gt);
  Alcotest.(check bool) "B on below" true (eval B lt);
  Alcotest.(check bool) "A on above" true (eval A gt);
  Alcotest.(check bool) "AE on equal" true (eval AE eq);
  Alcotest.(check bool) "BE on equal" true (eval BE eq);
  Alcotest.(check bool) "S on sign" true (eval S lt);
  Alcotest.(check bool) "NS on positive" true (eval NS gt)

let test_cond_negate_complement () =
  (* For every condition and every flags image the negation must give
     the complementary verdict. *)
  Array.iter
    (fun c ->
      for mask = 0 to 15 do
        let image =
          flags_image ~zf:(mask land 1 <> 0) ~sf:(mask land 2 <> 0)
            ~cf:(mask land 4 <> 0) ~off:(mask land 8 <> 0)
        in
        Alcotest.(check bool)
          (Printf.sprintf "negate %s mask %d" (Cond.name c) mask)
          (not (Cond.eval c image))
          (Cond.eval (Cond.negate c) image)
      done)
    Cond.all

(* --- Operand ------------------------------------------------------------------ *)

let test_operand_regs_used () =
  let open Reg in
  Alcotest.(check (list string))
    "reg operand" [ "rax" ]
    (List.map Reg.gpr_name (Operand.regs_used (Operand.reg RAX)));
  Alcotest.(check int) "imm uses none" 0
    (List.length (Operand.regs_used (Operand.imm 5L)));
  let m = Operand.mem ~index:RBX ~scale:8 ~disp:16L RSI in
  Alcotest.(check int) "mem uses base+index" 2
    (List.length (Operand.regs_used m))

let test_operand_mem_scale_validation () =
  Alcotest.check_raises "scale 3 rejected"
    (Invalid_argument "Operand.mem: scale must be 1, 2, 4 or 8") (fun () ->
      ignore (Operand.mem ~index:Reg.RBX ~scale:3 Reg.RAX))

let test_operand_is_mem () =
  Alcotest.(check bool) "mem" true (Operand.is_mem (Operand.mem Reg.RAX));
  Alcotest.(check bool) "reg" false (Operand.is_mem (Operand.reg Reg.RAX));
  Alcotest.(check bool) "imm" false (Operand.is_mem (Operand.imm 0L))

(* --- Instr metadata ------------------------------------------------------------ *)

let names regs = List.map Reg.gpr_name regs

let test_instr_mov_read_write () =
  let open Reg in
  let i = Instr.Mov (Operand.reg RAX, Operand.reg RBX) in
  Alcotest.(check (list string)) "reads src" [ "rbx" ] (names (Instr.regs_read i));
  Alcotest.(check (list string)) "writes dst" [ "rax" ]
    (names (Instr.regs_written i))

let test_instr_mov_to_mem_reads_address () =
  let open Reg in
  let i = Instr.Mov (Operand.mem RDI, Operand.reg RAX) in
  let reads = names (Instr.regs_read i) in
  Alcotest.(check bool) "reads rax" true (List.mem "rax" reads);
  Alcotest.(check bool) "reads rdi (address)" true (List.mem "rdi" reads);
  Alcotest.(check int) "writes nothing" 0 (List.length (Instr.regs_written i))

let test_instr_alu_rmw () =
  let open Reg in
  let i = Instr.Alu (Instr.Add, Operand.reg RAX, Operand.imm 1L) in
  Alcotest.(check bool) "add reads dst" true
    (List.mem "rax" (names (Instr.regs_read i)));
  Alcotest.(check bool) "add writes dst" true
    (List.mem "rax" (names (Instr.regs_written i)));
  Alcotest.(check bool) "writes flags" true (Instr.writes_flags i)

let test_instr_push_pop_rsp () =
  let open Reg in
  let push = Instr.Push (Operand.reg RAX) in
  Alcotest.(check bool) "push reads rsp" true
    (List.mem "rsp" (names (Instr.regs_read push)));
  Alcotest.(check bool) "push writes rsp" true
    (List.mem "rsp" (names (Instr.regs_written push)));
  let pop = Instr.Pop (Operand.reg RBX) in
  Alcotest.(check bool) "pop writes dst" true
    (List.mem "rbx" (names (Instr.regs_written pop)))

let test_instr_rep_movsq_sets () =
  let i = Instr.Rep_movsq in
  let reads = names (Instr.regs_read i) in
  List.iter
    (fun r -> Alcotest.(check bool) (r ^ " read") true (List.mem r reads))
    [ "rcx"; "rsi"; "rdi" ]

let test_instr_idiv_implicit () =
  let i = Instr.Idiv (Operand.reg Reg.RBX) in
  Alcotest.(check bool) "reads rax" true
    (List.mem "rax" (names (Instr.regs_read i)));
  let writes = names (Instr.regs_written i) in
  Alcotest.(check bool) "writes rax and rdx" true
    (List.mem "rax" writes && List.mem "rdx" writes)

let test_instr_cpuid_sets () =
  let i = Instr.Cpuid in
  Alcotest.(check (list string)) "reads leaf" [ "rax" ]
    (names (Instr.regs_read i));
  Alcotest.(check int) "writes 4 registers" 4
    (List.length (Instr.regs_written i))

let test_instr_branch_classification () =
  Alcotest.(check bool) "jmp" true (Instr.is_branch (Instr.Jmp "x"));
  Alcotest.(check bool) "jcc" true (Instr.is_branch (Instr.Jcc (Cond.E, "x")));
  Alcotest.(check bool) "call" true (Instr.is_branch (Instr.Call "x"));
  Alcotest.(check bool) "ret" true (Instr.is_branch (Instr.Ret : string Instr.t));
  Alcotest.(check bool) "mov is not" false
    (Instr.is_branch (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 0L) : string Instr.t))

let test_instr_jcc_reads_flags () =
  Alcotest.(check bool) "jcc reads flags" true
    (Instr.reads_flags (Instr.Jcc (Cond.NE, "l")));
  Alcotest.(check bool) "mov does not" false
    (Instr.reads_flags (Instr.Mov (Operand.reg Reg.RAX, Operand.imm 0L) : string Instr.t))

let test_instr_map_label () =
  let i = Instr.Jcc (Cond.E, "target") in
  match Instr.map_label String.length i with
  | Instr.Jcc (Cond.E, 6) -> ()
  | _ -> Alcotest.fail "map_label did not transform"

let test_instr_metadata_packs_lists () =
  (* The packed metadata word must agree field-for-field with the
     list/predicate view of the same instruction, for one instance of
     every constructor the interpreter dispatches on. *)
  let open Reg in
  let samples : string Instr.t list =
    [
      Instr.Nop;
      Instr.Mov (Operand.mem RDI, Operand.reg RAX);
      Instr.Lea (RBX, Operand.mem ~index:RCX ~scale:8 RSI);
      Instr.Alu (Instr.Add, Operand.reg RAX, Operand.mem RSI);
      Instr.Shift (Instr.Shl, Operand.reg RDX, 3);
      Instr.Shift_var (Instr.Sar, Operand.reg RDX, RCX);
      Instr.Bt (Operand.mem RSI, Operand.reg RAX);
      Instr.Bts (Operand.reg RBX, Operand.imm 5L);
      Instr.Btr (Operand.reg RBX, Operand.imm 5L);
      Instr.Cmp (Operand.reg R8, Operand.imm 1L);
      Instr.Test (Operand.reg R9, Operand.reg R10);
      Instr.Inc (Operand.reg R11);
      Instr.Dec (Operand.mem RDI);
      Instr.Neg (Operand.reg R12);
      Instr.Imul (R13, Operand.reg R14);
      Instr.Idiv (Operand.reg R15);
      Instr.Jmp "l";
      Instr.Jcc (Cond.LE, "l");
      Instr.Jmp_table (Operand.reg RAX, [| "a"; "b" |]);
      Instr.Call "l";
      Instr.Ret;
      Instr.Push (Operand.reg RBP);
      Instr.Pop (Operand.reg RBP);
      Instr.Rep_movsq;
      Instr.Rep_stosq;
      Instr.Cpuid;
      Instr.Rdtsc;
      Instr.Hlt;
      Instr.Ud2;
      Instr.Assert
        {
          Instr.assert_id = 1;
          assert_name = "m";
          assert_src = Operand.reg RAX;
          assert_kind = Instr.Assert_nonzero;
        };
      Instr.Vmentry;
    ]
  in
  let mask_of regs =
    List.fold_left (fun acc g -> acc lor (1 lsl Reg.gpr_index g)) 0 regs
  in
  List.iteri
    (fun k i ->
      let ctx msg = Printf.sprintf "sample %d: %s" k msg in
      let m = Instr.metadata i in
      Alcotest.(check int) (ctx "read mask") (mask_of (Instr.regs_read i))
        (m land 0xFFFF);
      Alcotest.(check int) (ctx "read_mask fn agrees") (Instr.read_mask i)
        (m land 0xFFFF);
      Alcotest.(check int) (ctx "write mask")
        (mask_of (Instr.regs_written i))
        ((m lsr Instr.meta_write_shift) land 0xFFFF);
      Alcotest.(check int) (ctx "write_mask fn agrees") (Instr.write_mask i)
        ((m lsr Instr.meta_write_shift) land 0xFFFF);
      Alcotest.(check bool) (ctx "branch bit") (Instr.is_branch i)
        (m land Instr.meta_branch_bit <> 0);
      Alcotest.(check bool) (ctx "reads-flags bit") (Instr.reads_flags i)
        (m land Instr.meta_reads_flags_bit <> 0);
      Alcotest.(check bool) (ctx "writes-flags bit") (Instr.writes_flags i)
        (m land Instr.meta_writes_flags_bit <> 0))
    samples

(* --- Program / Asm -------------------------------------------------------------- *)

let test_asm_label_resolution () =
  let p =
    Program.assemble "loop" (fun b ->
        let open Program.Asm in
        label b "start";
        emit b (Instr.Dec (Operand.reg Reg.RCX));
        emit b (Instr.Jcc (Cond.NE, "start"));
        emit b Instr.Vmentry)
  in
  Alcotest.(check int) "three instructions" 3 (Program.length p);
  (match p.Program.code.(1) with
  | Instr.Jcc (Cond.NE, 0) -> ()
  | _ -> Alcotest.fail "label did not resolve to 0");
  Alcotest.(check (option int)) "label position" (Some 0)
    (Program.label_position p "start")

let test_asm_undefined_label () =
  Alcotest.check_raises "undefined label" (Program.Undefined_label "nowhere")
    (fun () ->
      ignore
        (Program.assemble "bad" (fun b ->
             Program.Asm.emit b (Instr.Jmp "nowhere"))))

let test_asm_duplicate_label () =
  Alcotest.check_raises "duplicate label" (Program.Duplicate_label "x")
    (fun () ->
      ignore
        (Program.assemble "dup" (fun b ->
             Program.Asm.label b "x";
             Program.Asm.emit b (Instr.Nop : string Instr.t);
             Program.Asm.label b "x")))

let test_asm_fresh_labels_unique () =
  let b = Program.Asm.create "f" in
  let l1 = Program.Asm.fresh_label b "loop" in
  let l2 = Program.Asm.fresh_label b "loop" in
  Alcotest.(check bool) "unique" true (l1 <> l2)

let test_asm_forward_reference () =
  let p =
    Program.assemble "fwd" (fun b ->
        let open Program.Asm in
        emit b (Instr.Jmp "end");
        emit b (Instr.Nop : string Instr.t);
        label b "end";
        emit b Instr.Vmentry)
  in
  match p.Program.code.(0) with
  | Instr.Jmp 2 -> ()
  | _ -> Alcotest.fail "forward reference did not resolve"

let test_program_pp_lists_instructions () =
  let p =
    Program.assemble "pp" (fun b ->
        Program.Asm.label b "entry";
        Program.Asm.emit b (Instr.Nop : string Instr.t);
        Program.Asm.emit b Instr.Vmentry)
  in
  let s = Format.asprintf "%a" Program.pp p in
  Alcotest.(check bool) "lists label" true
    (String.length s > 0
    &&
    let rec contains i =
      i + 5 <= String.length s && (String.sub s i 5 = "entry" || contains (i + 1))
    in
    contains 0)

(* --- qcheck ------------------------------------------------------------------ *)

let arb_gpr = QCheck.map Reg.gpr_of_index QCheck.(int_range 0 15)

let prop_written_registers_not_imm =
  QCheck.Test.make ~name:"regs_written of mov reg,imm is exactly dst" ~count:100
    arb_gpr
    (fun g ->
      let i = Instr.Mov (Operand.reg g, Operand.imm 1L) in
      Instr.regs_written i = [ g ])

let prop_read_sets_sorted_unique =
  QCheck.Test.make ~name:"read sets are duplicate-free" ~count:100
    QCheck.(pair arb_gpr arb_gpr)
    (fun (a, b) ->
      let i = Instr.Alu (Instr.Add, Operand.reg a, Operand.reg b) in
      let reads = Instr.regs_read i in
      List.length reads = List.length (List.sort_uniq compare reads))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_written_registers_not_imm; prop_read_sets_sorted_unique ]
  in
  Alcotest.run "xentry_isa"
    [
      ( "reg",
        [
          Alcotest.test_case "index roundtrip" `Quick test_reg_index_roundtrip;
          Alcotest.test_case "indexes distinct" `Quick test_reg_indexes_distinct;
          Alcotest.test_case "name roundtrip" `Quick test_reg_names_roundtrip;
          Alcotest.test_case "arch register count" `Quick test_reg_arch_count;
          Alcotest.test_case "of_index invalid" `Quick test_reg_of_index_invalid;
        ] );
      ( "flags",
        [
          Alcotest.test_case "x86 bit positions" `Quick test_flags_bits_match_x86;
          Alcotest.test_case "set/get" `Quick test_flags_set_get;
          Alcotest.test_case "zero result" `Quick test_flags_of_result_zero;
          Alcotest.test_case "negative result" `Quick test_flags_of_result_negative;
          Alcotest.test_case "carry/overflow" `Quick
            test_flags_of_result_carry_overflow;
          Alcotest.test_case "parity" `Quick test_flags_parity;
        ] );
      ( "cond",
        [
          Alcotest.test_case "truth table" `Quick test_cond_eval_table;
          Alcotest.test_case "negation" `Quick test_cond_negate_complement;
        ] );
      ( "operand",
        [
          Alcotest.test_case "regs used" `Quick test_operand_regs_used;
          Alcotest.test_case "scale validation" `Quick
            test_operand_mem_scale_validation;
          Alcotest.test_case "is_mem" `Quick test_operand_is_mem;
        ] );
      ( "instr",
        [
          Alcotest.test_case "mov read/write" `Quick test_instr_mov_read_write;
          Alcotest.test_case "mov to mem" `Quick test_instr_mov_to_mem_reads_address;
          Alcotest.test_case "alu rmw" `Quick test_instr_alu_rmw;
          Alcotest.test_case "push/pop rsp" `Quick test_instr_push_pop_rsp;
          Alcotest.test_case "rep movsq sets" `Quick test_instr_rep_movsq_sets;
          Alcotest.test_case "idiv implicit" `Quick test_instr_idiv_implicit;
          Alcotest.test_case "cpuid sets" `Quick test_instr_cpuid_sets;
          Alcotest.test_case "branch classification" `Quick
            test_instr_branch_classification;
          Alcotest.test_case "jcc reads flags" `Quick test_instr_jcc_reads_flags;
          Alcotest.test_case "map_label" `Quick test_instr_map_label;
          Alcotest.test_case "metadata packs lists" `Quick
            test_instr_metadata_packs_lists;
        ] );
      ( "program",
        [
          Alcotest.test_case "label resolution" `Quick test_asm_label_resolution;
          Alcotest.test_case "undefined label" `Quick test_asm_undefined_label;
          Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
          Alcotest.test_case "fresh labels" `Quick test_asm_fresh_labels_unique;
          Alcotest.test_case "forward reference" `Quick test_asm_forward_reference;
          Alcotest.test_case "pp listing" `Quick test_program_pp_lists_instructions;
        ] );
      ("properties", qsuite);
    ]
