type gpr =
  | RAX
  | RBX
  | RCX
  | RDX
  | RSI
  | RDI
  | RBP
  | RSP
  | R8
  | R9
  | R10
  | R11
  | R12
  | R13
  | R14
  | R15

let gpr_count = 16

let all_gprs =
  [|
    RAX; RBX; RCX; RDX; RSI; RDI; RBP; RSP; R8; R9; R10; R11; R12; R13; R14;
    R15;
  |]

let gpr_index = function
  | RAX -> 0
  | RBX -> 1
  | RCX -> 2
  | RDX -> 3
  | RSI -> 4
  | RDI -> 5
  | RBP -> 6
  | RSP -> 7
  | R8 -> 8
  | R9 -> 9
  | R10 -> 10
  | R11 -> 11
  | R12 -> 12
  | R13 -> 13
  | R14 -> 14
  | R15 -> 15

let gpr_of_index i =
  if i < 0 || i >= gpr_count then invalid_arg "Reg.gpr_of_index";
  all_gprs.(i)

let gpr_name = function
  | RAX -> "rax"
  | RBX -> "rbx"
  | RCX -> "rcx"
  | RDX -> "rdx"
  | RSI -> "rsi"
  | RDI -> "rdi"
  | RBP -> "rbp"
  | RSP -> "rsp"
  | R8 -> "r8"
  | R9 -> "r9"
  | R10 -> "r10"
  | R11 -> "r11"
  | R12 -> "r12"
  | R13 -> "r13"
  | R14 -> "r14"
  | R15 -> "r15"

let gpr_of_name s =
  let rec find i =
    if i >= gpr_count then None
    else if gpr_name all_gprs.(i) = s then Some all_gprs.(i)
    else find (i + 1)
  in
  find 0

type arch = Gpr of gpr | Rip | Rflags

let all_arch =
  Array.append
    (Array.map (fun g -> Gpr g) all_gprs)
    [| Rip; Rflags |]

let arch_name = function
  | Gpr g -> gpr_name g
  | Rip -> "rip"
  | Rflags -> "rflags"

let pp_gpr ppf g = Format.pp_print_string ppf (gpr_name g)
