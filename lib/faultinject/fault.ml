open Xentry_util

type cls =
  | Reg_single_bit
  | Reg_multi_bit
  | Set_transient
  | Mem_word
  | Tlb_entry
  | Page_table_entry

let all_classes =
  [|
    Reg_single_bit;
    Reg_multi_bit;
    Set_transient;
    Mem_word;
    Tlb_entry;
    Page_table_entry;
  |]

let cls_name = function
  | Reg_single_bit -> "reg1"
  | Reg_multi_bit -> "reg2"
  | Set_transient -> "set"
  | Mem_word -> "mem"
  | Tlb_entry -> "tlb"
  | Page_table_entry -> "pte"

let cls_of_string = function
  | "reg1" -> Some Reg_single_bit
  | "reg2" -> Some Reg_multi_bit
  | "set" -> Some Set_transient
  | "mem" -> Some Mem_word
  | "tlb" -> Some Tlb_entry
  | "pte" -> Some Page_table_entry
  | _ -> None

let parse_classes s =
  let names = String.split_on_char ',' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go acc rest
    | n :: rest -> (
        match cls_of_string (String.trim n) with
        | Some c -> go (if List.mem c acc then acc else c :: acc) rest
        | None -> Error (Printf.sprintf "unknown fault class %S" n))
  in
  match go [] names with
  | Ok [] -> Error "empty fault-class list"
  | r -> r

let classes_to_string cs = String.concat "," (List.map cls_name cs)

type target =
  | Reg of Xentry_isa.Reg.arch
  | Mem of int64
  | Tlb of int64
  | Pte of int64

type t = {
  cls : cls;
  target : target;
  bit : int;
  width : int;
  window : int option;
  step : int;
}

let cls_of t = t.cls

let reg target ~bit ~step =
  {
    cls = Reg_single_bit;
    target = Reg target;
    bit;
    width = 1;
    window = None;
    step;
  }

(* --- sampling ----------------------------------------------------------- *)

(* Candidate strike words for the memory classes: data the handlers
   actually traffic in (guest copy buffers, the time area, shared
   info), so a struck word has a real chance of being consumed.  A
   TLB strike picks the page one of those words lives on. *)
let sample_mem_addr rng =
  match Rng.int rng 3 with
  | 0 ->
      Int64.add Xentry_vmm.Layout.guest_buffer
        (Int64.of_int (8 * Rng.int rng Xentry_vmm.Layout.buffer_words))
  | 1 -> Int64.add Xentry_vmm.Layout.time_area_base (Int64.of_int (8 * Rng.int rng 8))
  | _ ->
      Int64.add (Xentry_vmm.Layout.shared_info 0) (Int64.of_int (8 * Rng.int rng 16))

let sample_pte_addr rng =
  (* Strike the entry a workload-distributed VA's walk would consume:
     pick a level uniformly, then extract the index from a VA the way
     the walker does.  (Workload VAs sit below 2^31, so upper-level
     indexes concentrate near zero — the words every walk reads; a
     uniform index draw would make upper-level strikes effectively
     unreachable.) *)
  let level = 1 + Rng.int rng 3 in
  let va = Rng.int rng 0x7FFF_FFFF in
  let shift = match level with 1 -> 12 | 2 -> 21 | _ -> 30 in
  let idx = (va lsr shift) land 511 in
  Int64.add (Xentry_vmm.Layout.pt_level_base level) (Int64.of_int (8 * idx))

let legacy_reg_sample rng ~max_step =
  (* The pre-widening sampler was a record literal whose fields OCaml
     evaluates right-to-left, so the historical stream order is step,
     bit, target.  Keep that order explicit: seeded reg1 campaigns
     must reproduce their old records draw for draw. *)
  let step = Rng.int rng (max 1 max_step) in
  let bit = Rng.int rng 64 in
  let target = Reg (Rng.choice rng Xentry_isa.Reg.all_arch) in
  { cls = Reg_single_bit; target; bit; width = 1; window = None; step }

(* Explicit draw sequencing throughout (never inside record literals):
   the stream order is part of each class's reproducibility
   contract. *)
let sample_class rng ~max_step cls =
  let step rng = Rng.int rng (max 1 max_step) in
  match cls with
  | Reg_single_bit ->
      let target = Reg (Rng.choice rng Xentry_isa.Reg.all_arch) in
      let bit = Rng.int rng 64 in
      let step = step rng in
      { cls; target; bit; width = 1; window = None; step }
  | Reg_multi_bit ->
      let target = Reg (Rng.choice rng Xentry_isa.Reg.all_arch) in
      let width = 2 + Rng.int rng 3 in
      let bit = Rng.int rng (65 - width) in
      let step = step rng in
      { cls; target; bit; width; window = None; step }
  | Set_transient ->
      let target = Reg (Rng.choice rng Xentry_isa.Reg.all_arch) in
      let bit = Rng.int rng 64 in
      let window = Some (1 + Rng.int rng 8) in
      let step = step rng in
      { cls; target; bit; width = 1; window; step }
  | Mem_word ->
      let target = Mem (sample_mem_addr rng) in
      let bit = Rng.int rng 64 in
      let step = step rng in
      { cls; target; bit; width = 1; window = None; step }
  | Tlb_entry ->
      let page = Xentry_machine.Memory.page_of (sample_mem_addr rng) in
      (* Low bits of the cached frame number: a near miss aliases a
         neighbouring mapped frame (silent corruption, RAS territory);
         a higher bit walks off the map (page fault). *)
      let bit = Rng.int rng 10 in
      let step = step rng in
      { cls; target = Tlb page; bit; width = 1; window = None; step }
  | Page_table_entry ->
      let target = Pte (sample_pte_addr rng) in
      let bit = Rng.int rng 64 in
      let step = step rng in
      { cls; target; bit; width = 1; window = None; step }

let sample ?(classes = [ Reg_single_bit ]) rng ~max_step =
  match classes with
  | [] -> invalid_arg "Fault.sample: empty class list"
  | [ Reg_single_bit ] ->
      (* Bit-identical RNG stream to the historical single-class
         sampler: no class draw.  Keeps reg1-only campaign records
         stable across the fault-model widening. *)
      legacy_reg_sample rng ~max_step
  | classes ->
      (* [Rng.choice] over the list, without copying it into an array
         on every draw: the same single [Rng.int] draw. *)
      let cls = List.nth classes (Rng.int rng (List.length classes)) in
      sample_class rng ~max_step cls

let to_injection t =
  let inj_target =
    match t.target with
    | Reg r -> Xentry_machine.Cpu.Inj_reg r
    | Mem a -> Xentry_machine.Cpu.Inj_mem a
    | Tlb p -> Xentry_machine.Cpu.Inj_tlb p
    | Pte a -> Xentry_machine.Cpu.Inj_pte a
  in
  {
    Xentry_machine.Cpu.inj_target;
    inj_bit = t.bit;
    inj_width = t.width;
    inj_window = t.window;
    inj_step = t.step;
  }

let pp ppf t =
  match (t.cls, t.target) with
  | Reg_single_bit, Reg r ->
      (* Stable historical format for the classic class. *)
      Format.fprintf ppf "%s[bit %d]@step %d" (Xentry_isa.Reg.arch_name r) t.bit
        t.step
  | _, Reg r ->
      Format.fprintf ppf "%s:%s[bit %d width %d%s]@step %d" (cls_name t.cls)
        (Xentry_isa.Reg.arch_name r)
        t.bit t.width
        (match t.window with
        | Some w -> Printf.sprintf " window %d" w
        | None -> "")
        t.step
  | _, Mem a | _, Pte a ->
      Format.fprintf ppf "%s:%Lx[bit %d width %d]@step %d" (cls_name t.cls) a
        t.bit t.width t.step
  | _, Tlb p ->
      Format.fprintf ppf "%s:page %Lx[bit %d]@step %d" (cls_name t.cls) p t.bit
        t.step
