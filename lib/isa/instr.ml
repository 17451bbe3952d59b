type alu_op = Add | Sub | And | Or | Xor
type shift_op = Shl | Shr | Sar

type assert_kind =
  | Assert_range of int64 * int64
  | Assert_nonzero
  | Assert_zero
  | Assert_equals of int64
  | Assert_aligned of int

type 'lbl t =
  | Nop
  | Mov of Operand.t * Operand.t
  | Lea of Reg.gpr * Operand.t
  | Alu of alu_op * Operand.t * Operand.t
  | Shift of shift_op * Operand.t * int
  | Shift_var of shift_op * Operand.t * Reg.gpr
  | Bt of Operand.t * Operand.t
  | Bts of Operand.t * Operand.t
  | Btr of Operand.t * Operand.t
  | Cmp of Operand.t * Operand.t
  | Test of Operand.t * Operand.t
  | Inc of Operand.t
  | Dec of Operand.t
  | Neg of Operand.t
  | Imul of Reg.gpr * Operand.t
  | Idiv of Operand.t
  | Jmp of 'lbl
  | Jcc of Cond.t * 'lbl
  | Jmp_table of Operand.t * 'lbl array
  | Call of 'lbl
  | Ret
  | Push of Operand.t
  | Pop of Operand.t
  | Rep_movsq
  | Rep_stosq
  | Cpuid
  | Rdtsc
  | Hlt
  | Ud2
  | Assert of assertion
  | Vmentry

and assertion = {
  assert_id : int;
  assert_name : string;
  assert_src : Operand.t;
  assert_kind : assert_kind;
}

let dedup regs =
  List.sort_uniq (fun a b -> compare (Reg.gpr_index a) (Reg.gpr_index b)) regs

(* Source-position operand: registers used to produce a value. *)
let src_regs op = Operand.regs_used op

(* Destination-position operand: for [Mem] the address registers are
   *read*; for [Reg] nothing is read unless the instruction also
   consumes the old value (read-modify-write forms handle that
   themselves). *)
let dst_addr_regs = function
  | Operand.Mem _ as op -> Operand.regs_used op
  | Operand.Reg _ | Operand.Imm _ -> []

(* Read-modify-write destination: old value is consumed too. *)
let rmw_regs = function
  | Operand.Reg g -> [ g ]
  | Operand.Mem _ as op -> Operand.regs_used op
  | Operand.Imm _ -> []

let regs_read instr =
  let open Reg in
  dedup
    (match instr with
    | Nop | Hlt | Ud2 | Vmentry -> []
    | Mov (dst, src) -> src_regs src @ dst_addr_regs dst
    | Lea (_, addr) -> src_regs addr
    | Alu (_, dst, src) -> rmw_regs dst @ src_regs src
    | Shift (_, dst, _) -> rmw_regs dst
    | Shift_var (_, dst, cnt) -> cnt :: rmw_regs dst
    | Bt (base, idx) -> src_regs base @ src_regs idx
    | Bts (base, idx) | Btr (base, idx) -> rmw_regs base @ src_regs idx
    | Cmp (a, b) | Test (a, b) -> src_regs a @ src_regs b
    | Inc op | Dec op | Neg op -> rmw_regs op
    | Imul (dst, src) -> (dst :: src_regs src)
    | Idiv src -> RAX :: src_regs src
    | Jmp _ -> []
    | Jcc _ -> []
    | Jmp_table (sel, _) -> src_regs sel
    | Call _ -> [ RSP ]
    | Ret -> [ RSP ]
    | Push op -> RSP :: src_regs op
    | Pop dst -> RSP :: dst_addr_regs dst
    | Rep_movsq -> [ RCX; RSI; RDI ]
    | Rep_stosq -> [ RAX; RCX; RDI ]
    | Cpuid -> [ RAX ]
    | Rdtsc -> []
    | Assert a -> src_regs a.assert_src)

let regs_written instr =
  let open Reg in
  let dst_reg = function Operand.Reg g -> [ g ] | Operand.Mem _ | Operand.Imm _ -> [] in
  dedup
    (match instr with
    | Nop | Hlt | Ud2 | Vmentry | Cmp _ | Test _ | Jmp _ | Jcc _ | Jmp_table _
    | Assert _ ->
        []
    | Mov (dst, _) -> dst_reg dst
    | Lea (g, _) -> [ g ]
    | Alu (_, dst, _) | Shift (_, dst, _) | Shift_var (_, dst, _) | Inc dst
    | Dec dst | Neg dst ->
        dst_reg dst
    | Bt _ -> []
    | Bts (base, _) | Btr (base, _) -> dst_reg base
    | Imul (g, _) -> [ g ]
    | Idiv _ -> [ RAX; RDX ]
    | Call _ -> [ RSP ]
    | Ret -> [ RSP ]
    | Push _ -> [ RSP ]
    | Pop dst -> RSP :: dst_reg dst
    | Rep_movsq -> [ RCX; RSI; RDI ]
    | Rep_stosq -> [ RCX; RDI ]
    | Cpuid -> [ RAX; RBX; RCX; RDX ]
    | Rdtsc -> [ RAX; RDX ])

let reads_flags = function Jcc _ -> true | _ -> false

(* --- packed metadata ---------------------------------------------------- *)

(* One immediate-int word per instruction, computed at assembly time so
   the interpreter's def-use tracking does two [land] tests instead of
   allocating [regs_read]/[regs_written] lists and walking them with
   [List.mem].  Layout (low to high):

     bits  0..15   read-register bitmask (bit = Reg.gpr_index)
     bits 16..31   written-register bitmask
     bit  32       is_branch
     bit  33       reads_flags
     bit  34       writes_flags *)

let meta_write_shift = 16
let meta_branch_bit = 1 lsl 32
let meta_reads_flags_bit = 1 lsl 33
let meta_writes_flags_bit = 1 lsl 34

let gpr_mask regs =
  List.fold_left (fun acc g -> acc lor (1 lsl Reg.gpr_index g)) 0 regs

let read_mask instr = gpr_mask (regs_read instr)
let write_mask instr = gpr_mask (regs_written instr)

let writes_flags = function
  | Alu _ | Shift _ | Shift_var _ | Cmp _ | Test _ | Inc _ | Dec _ | Neg _
  | Imul _ | Bt _ | Bts _ | Btr _ ->
      true
  | _ -> false

let is_branch = function
  | Jmp _ | Jcc _ | Jmp_table _ | Call _ | Ret -> true
  | _ -> false

let metadata instr =
  read_mask instr
  lor (write_mask instr lsl meta_write_shift)
  lor (if is_branch instr then meta_branch_bit else 0)
  lor (if reads_flags instr then meta_reads_flags_bit else 0)
  lor (if writes_flags instr then meta_writes_flags_bit else 0)

let map_label f = function
  | Jmp l -> Jmp (f l)
  | Jcc (c, l) -> Jcc (c, f l)
  | Jmp_table (sel, ls) -> Jmp_table (sel, Array.map f ls)
  | Call l -> Call (f l)
  | Nop -> Nop
  | Mov (a, b) -> Mov (a, b)
  | Lea (g, a) -> Lea (g, a)
  | Alu (o, a, b) -> Alu (o, a, b)
  | Shift (o, a, n) -> Shift (o, a, n)
  | Shift_var (o, a, g) -> Shift_var (o, a, g)
  | Bt (a, b) -> Bt (a, b)
  | Bts (a, b) -> Bts (a, b)
  | Btr (a, b) -> Btr (a, b)
  | Cmp (a, b) -> Cmp (a, b)
  | Test (a, b) -> Test (a, b)
  | Inc a -> Inc a
  | Dec a -> Dec a
  | Neg a -> Neg a
  | Imul (g, a) -> Imul (g, a)
  | Idiv a -> Idiv a
  | Ret -> Ret
  | Push a -> Push a
  | Pop a -> Pop a
  | Rep_movsq -> Rep_movsq
  | Rep_stosq -> Rep_stosq
  | Cpuid -> Cpuid
  | Rdtsc -> Rdtsc
  | Hlt -> Hlt
  | Ud2 -> Ud2
  | Assert a -> Assert a
  | Vmentry -> Vmentry

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"

let shift_name = function Shl -> "shl" | Shr -> "shr" | Sar -> "sar"

let pp pp_lbl ppf instr =
  let o = Operand.pp in
  match instr with
  | Nop -> Format.fprintf ppf "nop"
  | Mov (d, s) -> Format.fprintf ppf "mov %a, %a" o d o s
  | Lea (g, a) -> Format.fprintf ppf "lea %a, %a" Reg.pp_gpr g o a
  | Alu (op, d, s) -> Format.fprintf ppf "%s %a, %a" (alu_name op) o d o s
  | Shift (op, d, n) -> Format.fprintf ppf "%s %a, %d" (shift_name op) o d n
  | Shift_var (op, d, g) ->
      Format.fprintf ppf "%s %a, %a" (shift_name op) o d Reg.pp_gpr g
  | Bt (a, b) -> Format.fprintf ppf "bt %a, %a" o a o b
  | Bts (a, b) -> Format.fprintf ppf "bts %a, %a" o a o b
  | Btr (a, b) -> Format.fprintf ppf "btr %a, %a" o a o b
  | Cmp (a, b) -> Format.fprintf ppf "cmp %a, %a" o a o b
  | Test (a, b) -> Format.fprintf ppf "test %a, %a" o a o b
  | Inc a -> Format.fprintf ppf "inc %a" o a
  | Dec a -> Format.fprintf ppf "dec %a" o a
  | Neg a -> Format.fprintf ppf "neg %a" o a
  | Imul (g, s) -> Format.fprintf ppf "imul %a, %a" Reg.pp_gpr g o s
  | Idiv s -> Format.fprintf ppf "idiv %a" o s
  | Jmp l -> Format.fprintf ppf "jmp %a" pp_lbl l
  | Jcc (c, l) -> Format.fprintf ppf "j%s %a" (Cond.name c) pp_lbl l
  | Jmp_table (sel, ls) ->
      Format.fprintf ppf "jmp-table %a (%d entries)" o sel (Array.length ls)
  | Call l -> Format.fprintf ppf "call %a" pp_lbl l
  | Ret -> Format.fprintf ppf "ret"
  | Push a -> Format.fprintf ppf "push %a" o a
  | Pop a -> Format.fprintf ppf "pop %a" o a
  | Rep_movsq -> Format.fprintf ppf "rep movsq"
  | Rep_stosq -> Format.fprintf ppf "rep stosq"
  | Cpuid -> Format.fprintf ppf "cpuid"
  | Rdtsc -> Format.fprintf ppf "rdtsc"
  | Hlt -> Format.fprintf ppf "hlt"
  | Ud2 -> Format.fprintf ppf "ud2"
  | Assert a ->
      Format.fprintf ppf "assert[%d:%s] %a" a.assert_id a.assert_name o
        a.assert_src
  | Vmentry -> Format.fprintf ppf "vmentry"
