open Xentry_machine

type t = { id : int; is_control : bool; mem : Memory.t }

let base t = Layout.dom_base t.id

let init mem ~id ~is_control =
  let t = { id; is_control; mem } in
  let dom = Layout.dom_struct id in
  Memory.store64 mem (Int64.add dom Layout.dom_id_field) (Int64.of_int id);
  Memory.store64 mem
    (Int64.add dom Layout.dom_is_control)
    (if is_control then 1L else 0L);
  Memory.store64 mem (Int64.add dom Layout.dom_state) 1L (* running *);
  (* Empty pending-trap slots are -1. *)
  for v = 0 to Layout.vcpus_per_domain - 1 do
    let area = Layout.vcpu_area ~dom:id ~vcpu:v in
    for slot = 0 to Layout.vcpu_trap_slots - 1 do
      Memory.store64 mem
        (Int64.add area (Int64.add Layout.vcpu_pending_traps (Int64.of_int (slot * 8))))
        (-1L)
    done
  done;
  t

let user_regs_address t ~vcpu =
  Int64.add (Layout.vcpu_area ~dom:t.id ~vcpu) Layout.vcpu_user_regs

let reg_slot t ~vcpu g =
  Int64.add (user_regs_address t ~vcpu)
    (Int64.of_int (Xentry_isa.Reg.gpr_index g * 8))

let get_user_reg t ~vcpu g = Memory.load64 t.mem (reg_slot t ~vcpu g)
let set_user_reg t ~vcpu g v = Memory.store64 t.mem (reg_slot t ~vcpu g) v

let get_user_rip t ~vcpu =
  Memory.load64 t.mem
    (Int64.add (Layout.vcpu_area ~dom:t.id ~vcpu) Layout.vcpu_user_rip)

let set_user_rip t ~vcpu v =
  Memory.store64 t.mem
    (Int64.add (Layout.vcpu_area ~dom:t.id ~vcpu) Layout.vcpu_user_rip)
    v

let flag_addr t ~vcpu off = Int64.add (Layout.vcpu_area ~dom:t.id ~vcpu) off

let set_idle t ~vcpu b =
  Memory.store64 t.mem (flag_addr t ~vcpu Layout.vcpu_is_idle)
    (if b then 1L else 0L)

let is_idle t ~vcpu =
  Memory.load64 t.mem (flag_addr t ~vcpu Layout.vcpu_is_idle) = 1L

let set_running t ~vcpu b =
  Memory.store64 t.mem (flag_addr t ~vcpu Layout.vcpu_running)
    (if b then 1L else 0L)

let is_running t ~vcpu =
  Memory.load64 t.mem (flag_addr t ~vcpu Layout.vcpu_running) = 1L

let trap_addr t ~vcpu slot =
  if slot < 0 || slot >= Layout.vcpu_trap_slots then
    invalid_arg "Domain: trap slot out of range";
  Int64.add
    (flag_addr t ~vcpu Layout.vcpu_pending_traps)
    (Int64.of_int (slot * 8))

let clear_pending_traps t ~vcpu =
  for slot = 0 to Layout.vcpu_trap_slots - 1 do
    Memory.store64 t.mem (trap_addr t ~vcpu slot) (-1L)
  done

let set_pending_trap t ~vcpu ~slot ~trap =
  Memory.store64 t.mem (trap_addr t ~vcpu slot) (Int64.of_int trap)

let pending_trap t ~vcpu ~slot = Memory.load64 t.mem (trap_addr t ~vcpu slot)

let vcpu_info_addr t ~vcpu off =
  Int64.add (Layout.vcpu_info ~dom:t.id ~vcpu) off

let upcall_pending t ~vcpu =
  Memory.load64 t.mem (vcpu_info_addr t ~vcpu Layout.vi_upcall_pending) <> 0L

let set_upcall_pending t ~vcpu b =
  Memory.store64 t.mem
    (vcpu_info_addr t ~vcpu Layout.vi_upcall_pending)
    (if b then 1L else 0L)

let vcpu_system_time t ~vcpu =
  Memory.load64 t.mem (vcpu_info_addr t ~vcpu Layout.vi_system_time)

let pp ppf t =
  Format.fprintf ppf "dom%d%s" t.id (if t.is_control then " (control)" else "")
