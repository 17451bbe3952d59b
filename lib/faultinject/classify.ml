open Xentry_machine
open Xentry_vmm

type region_class =
  | User_gpr of int * int64
  | User_ctl
  | Traps
  | Vcpu_time
  | Vcpu_event
  | Kernel

type diff =
  | Dom_diff of { dom : int; cls : region_class }
  | Global_time_diff
  | Hv_global_diff
  | Stack_diff
  | Guest_reg_diff of Xentry_isa.Reg.gpr * int64

(* The diff table.  Every region [diffs] compares, in the order its
   differences are reported, cut at page boundaries and grouped by
   page: one table per domain (the vCPU page, shared info, event
   channels, grants), one for the hypervisor-wide regions (time area,
   globals, the four stack pages).  A call makes one sharing check per
   distinct page and compares bytes only for regions on pages the two
   hosts do not share — after a faulted run, a handful of the 18 pages
   a 3-domain host has.  Built once at module initialisation, for every
   domain a host can have; a call allocates nothing but the diffs it
   returns. *)

(* What a differing region reports. *)
type report =
  | Fixed of diff
  | Gpr_slot of { dom : int; gpr : int }
      (** [User_gpr], with the golden value read back *)

(* A region's bytes on one page; [bit] is the page's index in its
   table's [pages]. *)
type chunk = { pn : int64; off : int; len : int; bit : int }

type region = {
  report : report;
  addr : int64;
  chunks : chunk array;  (** the region, cut at page boundaries *)
}

type table = { pages : int64 array; regions : region array }

let table_of regions =
  let pages = ref [] in
  let page_index pn =
    let rec find i = function
      | [] ->
          pages := !pages @ [ pn ];
          i
      | p :: rest -> if Int64.equal p pn then i else find (i + 1) rest
    in
    find 0 !pages
  in
  let region (report, addr, len) =
    let rec cut pos acc =
      if pos >= len then List.rev acc
      else
        let at = Int64.add addr (Int64.of_int pos) in
        let pn = Memory.page_of at in
        let off = Int64.to_int (Int64.logand at 0xFFFL) in
        let n = min (Memory.page_size - off) (len - pos) in
        cut (pos + n) ({ pn; off; len = n; bit = page_index pn } :: acc)
    in
    { report; addr; chunks = Array.of_list (cut 0 []) }
  in
  let regions = Array.of_list (List.map region regions) in
  if List.length !pages >= Sys.int_size then
    invalid_arg "Classify: a diff table spans too many pages";
  { pages = Array.of_list !pages; regions }

(* Per-domain sub-regions with their classes. *)
let dom_table dom =
  let vcpu = Layout.vcpu_area ~dom ~vcpu:0 in
  let vi = Layout.vcpu_info ~dom ~vcpu:0 in
  let si = Layout.shared_info dom in
  let cls c = Fixed (Dom_diff { dom; cls = c }) in
  table_of
    (List.init Xentry_isa.Reg.gpr_count (fun gpr ->
         (Gpr_slot { dom; gpr }, Int64.add vcpu (Int64.of_int (gpr * 8)), 8))
    @ [
        (cls User_ctl, Int64.add vcpu Layout.vcpu_user_rip, 16);
        ( cls Traps,
          Int64.add vcpu Layout.vcpu_pending_traps,
          Layout.vcpu_trap_slots * 8 );
        (cls Vcpu_event, Int64.add vi Layout.vi_upcall_pending, 16);
        (cls Vcpu_time, Int64.add vi Layout.vi_time_version, 24);
        (* Shared-info event bitmaps (kernel state)... *)
        (cls Kernel, si, 0x80);
        (* ...and the wallclock fields, which are time values. *)
        (cls Vcpu_time, Int64.add si Layout.si_wc_sec, 16);
        (cls Kernel, Layout.evtchn_entry ~dom ~port:0, Layout.evtchn_ports * 16);
        (cls Kernel, Layout.grant_entry ~dom 0, Layout.grant_entries * 16);
      ])

let dom_tables = Array.init Layout.max_domains dom_table

let host_table =
  table_of
    (List.map
       (fun (_, addr, len) -> (Fixed Global_time_diff, addr, len))
       (Vtime.time_regions ())
    @ [
        (Fixed Hv_global_diff, Layout.hv_global_base, 0x40);
        (Fixed Stack_diff, Layout.hv_stack_base, Layout.hv_stack_size);
      ])

(* Bit [i] set when page [i] of the table is not shared. *)
let unshared_pages ga fa table =
  let m = ref 0 in
  for i = 0 to Array.length table.pages - 1 do
    if not (Memory.page_shared ga fa table.pages.(i)) then m := !m lor (1 lsl i)
  done;
  !m

let region_differs ga fa ~unshared r =
  let rec go i =
    i < Array.length r.chunks
    &&
    let c = r.chunks.(i) in
    (unshared land (1 lsl c.bit) <> 0
    && not (Memory.page_range_equal ga fa c.pn ~off:c.off ~len:c.len))
    || go (i + 1)
  in
  go 0

(* [acc] extended, newest first, by the table's differing regions. *)
let scan ga fa table acc =
  let unshared = unshared_pages ga fa table in
  if unshared = 0 then acc
  else begin
    let acc = ref acc in
    for i = 0 to Array.length table.regions - 1 do
      let r = table.regions.(i) in
      if region_differs ga fa ~unshared r then
        acc :=
          (match r.report with
          | Fixed d -> d
          | Gpr_slot { dom; gpr } ->
              Dom_diff { dom; cls = User_gpr (gpr, Memory.load64 ga r.addr) })
          :: !acc
    done;
    !acc
  end

let guest_regs = Xentry_isa.Reg.[| RAX; RBX; RCX; RDX; RSI; RDI |]

let diffs ~golden ~faulted =
  let ga = Hypervisor.memory golden and fa = Hypervisor.memory faulted in
  let acc = ref [] in
  for dom = 0 to Array.length (Hypervisor.domains golden) - 1 do
    acc := scan ga fa dom_tables.(dom) !acc
  done;
  acc := scan ga fa host_table !acc;
  (* Live guest registers at VM entry. *)
  let gc = Hypervisor.cpu golden and fc = Hypervisor.cpu faulted in
  for k = 0 to Array.length guest_regs - 1 do
    let g = guest_regs.(k) in
    let gv = Cpu.get_gpr gc g in
    if gv <> Cpu.get_gpr fc g then acc := Guest_reg_diff (g, gv) :: !acc
  done;
  List.rev !acc

(* Pointer-like golden values crash when corrupted; small data values
   silently corrupt results (paper §II's cpuid example: a wrong eax is
   consumed later and likely fatal). *)
let gpr_consequence golden_value =
  if Int64.unsigned_compare golden_value 0x10000L >= 0 then Outcome.App_crash
  else Outcome.App_sdc

let consequence ~current_dom ~faulted_stop diff_list =
  match faulted_stop with
  | Cpu.Hw_fault _ | Cpu.Halted -> Outcome.Short_latency Outcome.Hv_crash
  | Cpu.Out_of_fuel -> Outcome.Short_latency Outcome.Hv_hang
  | Cpu.Assertion_failure _ ->
      (* Detection-disabled runs never stop on assertions; treat a
         stray one as a crash. *)
      Outcome.Short_latency Outcome.Hv_crash
  | Cpu.Vm_entry ->
      (* Stack residue alone is not guest-visible. *)
      let visible =
        List.filter (fun d -> d <> Stack_diff) diff_list
      in
      if visible = [] then Outcome.Masked
      else
        let severity = ref 0 in
        let worst = ref Outcome.App_sdc in
        let consider level kind =
          if level > !severity then begin
            severity := level;
            worst := kind
          end
        in
        List.iter
          (fun d ->
            match d with
            | Hv_global_diff -> consider 5 Outcome.All_vm_failure
            | Dom_diff { dom; _ } when dom = 0 && current_dom <> 0 ->
                consider 5 Outcome.All_vm_failure
            | Dom_diff { dom; cls } when dom = current_dom -> (
                match cls with
                | Kernel | Vcpu_event ->
                    if dom = 0 then consider 5 Outcome.All_vm_failure
                    else consider 3 Outcome.One_vm_failure
                | Traps | User_ctl -> consider 2 Outcome.App_crash
                | User_gpr (_, golden_value) -> (
                    match gpr_consequence golden_value with
                    | Outcome.App_crash -> consider 2 Outcome.App_crash
                    | _ -> consider 1 Outcome.App_sdc)
                | Vcpu_time -> consider 1 Outcome.App_sdc)
            | Dom_diff { dom = _; _ } -> consider 4 Outcome.One_vm_failure
            | Global_time_diff -> consider 1 Outcome.App_sdc
            | Guest_reg_diff (_, golden_value) -> (
                match gpr_consequence golden_value with
                | Outcome.App_crash -> consider 2 Outcome.App_crash
                | _ -> consider 1 Outcome.App_sdc)
            | Stack_diff -> ())
          visible;
        Outcome.Long_latency !worst

let undetected_class ~fault ~signature_differs diff_list =
  if signature_differs then Outcome.Mis_classify
  else
    let has p = List.exists p diff_list in
    let is_time = function
      | Global_time_diff | Dom_diff { cls = Vcpu_time; _ } -> true
      | _ -> false
    in
    let is_severe = function
      | Hv_global_diff | Dom_diff { cls = Kernel; _ }
      | Dom_diff { cls = Vcpu_event; _ } ->
          true
      | _ -> false
    in
    (* A corrupted time computation typically lands in several places
       at once (deadline, cached snapshot, the value handed to the
       guest); attribute to time values whenever time state is among
       the corruptions and nothing kernel-critical is. *)
    if has is_time && not (has is_severe) then Outcome.Time_values
    else if
      fault.Fault.target = Fault.Reg (Xentry_isa.Reg.Gpr Xentry_isa.Reg.RSP)
      || has (fun d -> d = Stack_diff)
    then Outcome.Stack_values
    else Outcome.Other_values
