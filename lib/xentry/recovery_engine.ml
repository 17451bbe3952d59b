open Xentry_machine
open Xentry_vmm

type region = { addr : int64; data : Bytes.t }

type checkpoint = { regions : region list; tsc : int64 }

(* Every region a handler may write.  Guest input buffers are read-only
   to handlers and need no saving. *)
let writable_regions host =
  let ndoms = Array.length (Hypervisor.domains host) in
  List.concat
    [
      List.init ndoms (fun d -> (Layout.dom_base d, 0x10000));
      [
        (Layout.hv_global_base, 4096);
        (Layout.irq_desc_base, 4096);
        (Layout.time_area_base, 4096);
        (Layout.request_base, 4096);
        (Layout.tasklet_pool_base, 4096);
        (Layout.bounce_buffer, 0x8000);
        (Layout.pt_root_base, 3 * 4096);
        (Layout.hv_stack_base, Layout.hv_stack_size);
      ];
    ]

let checkpoint host =
  let mem = Hypervisor.memory host in
  {
    regions =
      List.map
        (fun (addr, len) -> { addr; data = Memory.blit_out mem ~addr ~len })
        (writable_regions host);
    tsc = Cpu.get_tsc (Hypervisor.cpu host);
  }

let checkpoint_bytes t =
  List.fold_left (fun acc r -> acc + Bytes.length r.data) 0 t.regions

let restore host t =
  let mem = Hypervisor.memory host in
  List.iter (fun { addr; data } -> Memory.blit_in mem ~addr data) t.regions;
  Cpu.set_tsc (Hypervisor.cpu host) t.tsc

let recover host t ?fuel req =
  restore host t;
  Hypervisor.execute host ?fuel req
