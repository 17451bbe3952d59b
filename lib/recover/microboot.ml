open Xentry_machine
open Xentry_vmm
module Telemetry = Xentry_util.Telemetry
module Clock = Xentry_util.Clock

(* The hypervisor-private scratch set.  Everything else a handler can
   write (domain blocks, globals, time areas, page tables, IRQ
   descriptors) either carries guest-visible state across requests or
   is read by later executions with its accumulated contents, so it
   must ride in the preserved context, not be reset to boot values.
   These four are different: handlers only ever read bytes of them
   that the same execution (or the staging that precedes it) first
   wrote, so boot-clean contents replay identically. *)
let reinit_regions =
  [
    ("hv/stack", Layout.hv_stack_base, Layout.hv_stack_size);
    ("hv/bounce", Layout.bounce_buffer, 0x8000);
    ("hv/request", Layout.request_base, 4096);
    ("hv/tasklets", Layout.tasklet_pool_base, 4096);
  ]

type image = { chunks : (int64 * Bytes.t) list }

let capture_image host =
  let mem = Hypervisor.memory host in
  {
    chunks =
      List.map
        (fun (_, addr, len) -> (addr, Memory.blit_out mem ~addr ~len))
        reinit_regions;
  }

let image_bytes img =
  List.fold_left (fun acc (_, b) -> acc + Bytes.length b) 0 img.chunks

type context = { ck : Hypervisor.checkpoint; req : Request.t }

let tm_captures = Telemetry.counter "recover.captures"
let tm_reboots = Telemetry.counter "recover.microboots"
let tm_reboot_ns = Telemetry.histogram "recover.reboot_ns"

let capture host req =
  if !Telemetry.enabled_ref then Telemetry.incr tm_captures;
  { ck = Hypervisor.checkpoint host; req }

let request ctx = ctx.req
let restore ctx = Hypervisor.copy_checkpoint ctx.ck

let reboot image ctx =
  let t0 = if !Telemetry.enabled_ref then Clock.monotonic () else 0.0 in
  let fresh = restore ctx in
  let mem = Hypervisor.memory fresh in
  List.iter (fun (addr, data) -> Memory.blit_in mem ~addr data) image.chunks;
  Hypervisor.restage fresh ctx.req;
  if !Telemetry.enabled_ref then begin
    Telemetry.incr tm_reboots;
    Telemetry.observe_span tm_reboot_ns (Clock.monotonic () -. t0)
  end;
  fresh
