open Xentry_util
open Xentry_vmm

type benchmark = Mcf | Bzip2 | Freqmine | Canneal | X264 | Postmark
type virt_mode = PV | HVM
type workload_class = Cpu_bound | Memory_bound | Io_bound

type rate_spec = { median : float; sigma : float; lo : float; hi : float }

type t = {
  bench : benchmark;
  wclass : workload_class;
  pv_rate : rate_spec;
  hvm_rate : rate_spec;
}

let all_benchmarks = [| Mcf; Bzip2; Freqmine; Canneal; X264; Postmark |]

let benchmark_name = function
  | Mcf -> "mcf"
  | Bzip2 -> "bzip2"
  | Freqmine -> "freqmine"
  | Canneal -> "canneal"
  | X264 -> "x264"
  | Postmark -> "postmark"

let mode_name = function PV -> "para-virtualization" | HVM -> "hardware-assisted"

(* Activation-rate bands fitted to the paper's Fig 3: PV between
   5,000/s and 100,000/s with freqmine peaking near 650,000/s; HVM
   mostly between 2,000/s and 10,000/s. *)
let get = function
  | Mcf ->
      {
        bench = Mcf;
        wclass = Memory_bound;
        pv_rate = { median = 18_000.; sigma = 0.45; lo = 6_000.; hi = 80_000. };
        hvm_rate = { median = 3_500.; sigma = 0.40; lo = 1_800.; hi = 9_000. };
      }
  | Bzip2 ->
      {
        bench = Bzip2;
        wclass = Cpu_bound;
        pv_rate = { median = 6_500.; sigma = 0.35; lo = 5_000.; hi = 22_000. };
        hvm_rate = { median = 2_300.; sigma = 0.30; lo = 1_500.; hi = 6_000. };
      }
  | Freqmine ->
      {
        bench = Freqmine;
        wclass = Io_bound;
        pv_rate =
          { median = 90_000.; sigma = 0.85; lo = 20_000.; hi = 650_000. };
        hvm_rate = { median = 8_000.; sigma = 0.50; lo = 3_000.; hi = 20_000. };
      }
  | Canneal ->
      {
        bench = Canneal;
        wclass = Cpu_bound;
        pv_rate = { median = 12_000.; sigma = 0.45; lo = 5_000.; hi = 45_000. };
        hvm_rate = { median = 3_000.; sigma = 0.40; lo = 1_800.; hi = 8_000. };
      }
  | X264 ->
      {
        bench = X264;
        wclass = Io_bound;
        pv_rate = { median = 35_000.; sigma = 0.65; lo = 9_000.; hi = 200_000. };
        hvm_rate = { median = 6_000.; sigma = 0.45; lo = 2_500.; hi = 15_000. };
      }
  | Postmark ->
      {
        bench = Postmark;
        wclass = Io_bound;
        pv_rate = { median = 55_000.; sigma = 0.75; lo = 12_000.; hi = 300_000. };
        hvm_rate = { median = 9_000.; sigma = 0.50; lo = 4_000.; hi = 25_000. };
      }

let benchmark t = t.bench
let workload_class t = t.wclass

let sample_activation_rate t mode rng =
  let spec = match mode with PV -> t.pv_rate | HVM -> t.hvm_rate in
  let v = Rng.lognormal rng ~mu:(log spec.median) ~sigma:spec.sigma in
  Float.min spec.hi (Float.max spec.lo v)

(* --- Reason mixes --------------------------------------------------- *)

let category_weights mode wclass =
  match (mode, wclass) with
  | PV, Io_bound ->
      [ ("hypercall", 0.62); ("irq", 0.18); ("exception", 0.08);
        ("apic", 0.06); ("softirq", 0.04); ("tasklet", 0.02) ]
  | PV, Cpu_bound ->
      [ ("hypercall", 0.45); ("irq", 0.08); ("exception", 0.12);
        ("apic", 0.22); ("softirq", 0.09); ("tasklet", 0.04) ]
  | PV, Memory_bound ->
      [ ("hypercall", 0.55); ("irq", 0.07); ("exception", 0.25);
        ("apic", 0.08); ("softirq", 0.03); ("tasklet", 0.02) ]
  | HVM, Io_bound ->
      [ ("exception", 0.40); ("irq", 0.30); ("apic", 0.15);
        ("hypercall", 0.10); ("softirq", 0.03); ("tasklet", 0.02) ]
  | HVM, Cpu_bound ->
      [ ("exception", 0.45); ("apic", 0.30); ("irq", 0.10);
        ("hypercall", 0.08); ("softirq", 0.05); ("tasklet", 0.02) ]
  | HVM, Memory_bound ->
      [ ("exception", 0.55); ("apic", 0.15); ("irq", 0.12);
        ("hypercall", 0.12); ("softirq", 0.04); ("tasklet", 0.02) ]

let reason_mix t mode = category_weights mode t.wclass

let hypercall_weights wclass =
  let open Hypercall in
  let hot =
    match wclass with
    | Io_bound ->
        [ (Event_channel_op, 0.25); (Grant_table_op, 0.20); (Sched_op, 0.12);
          (Physdev_op, 0.08); (Set_timer_op, 0.08); (Iret, 0.07);
          (Console_io, 0.05); (Memory_op, 0.05); (Mmu_update, 0.04) ]
    | Cpu_bound ->
        [ (Sched_op, 0.25); (Set_timer_op, 0.20); (Iret, 0.15); (Vcpu_op, 0.10);
          (Event_channel_op, 0.10); (Xen_version, 0.04); (Fpu_taskswitch, 0.04) ]
    | Memory_bound ->
        [ (Mmu_update, 0.25); (Update_va_mapping, 0.15); (Memory_op, 0.15);
          (Mmuext_op, 0.10); (Sched_op, 0.08); (Event_channel_op, 0.08);
          (Grant_table_op, 0.05) ]
  in
  (* A small floor keeps every hypercall reachable so training covers
     all 85 exit reasons. *)
  Array.to_list
    (Array.map
       (fun h ->
         let base = 0.003 in
         let extra = try List.assoc h hot with Not_found -> 0.0 in
         (h, base +. extra))
       Hypercall.all)

let exception_weights wclass =
  let open Xentry_machine.Hw_exception in
  let pf = match wclass with Memory_bound -> 0.70 | _ -> 0.55 in
  Array.to_list
    (Array.map
       (fun e ->
         let w =
           match e with
           | PF -> pf
           | GP -> 0.28
           | NM -> 0.04
           | DE -> 0.02
           | UD -> 0.02
           | MF | AC | XM | BR | OF | DB | BP -> 0.008
           | NMI | DF | MC | TS | NP | SS | CSO -> 0.0025
         in
         (e, w))
       all)

let irq_weights wclass =
  let io = wclass = Io_bound in
  List.init Exit_reason.irq_lines (fun line ->
      let w =
        if line = 0 then 0.30 (* platform timer *)
        else if line mod 2 = 1 then if io then 0.08 else 0.03 (* guest devices *)
        else 0.02
      in
      (line, w))

let apic_weights =
  let open Exit_reason in
  [ (Apic_timer, 0.50); (Ipi_reschedule, 0.15); (Ipi_event_check, 0.10);
    (Ipi_call_function, 0.08); (Ipi_invalidate_tlb, 0.07);
    (Apic_perf_counter, 0.04); (Ipi_irq_move, 0.02); (Apic_error, 0.02);
    (Apic_spurious, 0.015); (Apic_thermal, 0.005) ]

(* --- Argument generation --------------------------------------------- *)

let plausible_guest rng =
  List.init 6 (fun _ ->
      match Rng.int rng 4 with
      | 0 -> Int64.of_int (Rng.int rng 256)
      | 1 -> Int64.of_int (0x40_0000 + Rng.int rng 0x10000)
      | 2 -> Int64.of_int (Rng.int rng 0x10000)
      | _ -> 0L)

(* Real request sizes are overwhelmingly fixed (page-sized buffers,
   power-of-two batches): legitimate signatures therefore cluster at
   discrete points per exit reason, which is what makes moderate
   control-flow deviations classifiable (paper SSIII-B). *)
let discrete_size rng choices =
  Int64.of_int (Rng.choice rng choices)

let request_for_reason reason rng =
  let mk args guest = Request.make ~reason ~args ~guest in
  let guest = plausible_guest rng in
  match reason with
  | Exit_reason.Irq line ->
      (* Odd lines are usually guest-bound to a port. *)
      let port =
        if line > 0 && line mod 2 = 1 && Rng.bernoulli rng 0.8 then
          Int64.of_int (1 + Rng.int rng 63)
        else 0L
      in
      mk [ port ] guest
  | Exit_reason.Apic Exit_reason.Ipi_call_function ->
      mk [ Int64.of_int (Rng.int rng 4) ] guest
  | Exit_reason.Apic Exit_reason.Ipi_irq_move ->
      mk [ Int64.of_int (Rng.int rng Exit_reason.irq_lines) ] guest
  | Exit_reason.Apic _ -> mk [ Int64.of_int (Rng.int rng 8) ] guest
  | Exit_reason.Softirq -> mk [ Int64.of_int (1 + Rng.int rng 255) ] guest
  | Exit_reason.Tasklet ->
      mk [ discrete_size rng [| 1; 2; 4; 8 |]; Int64.of_int (Rng.int rng 4) ] guest
  | Exit_reason.Exception Xentry_machine.Hw_exception.PF ->
      let va = Int64.of_int (Rng.int rng 0x7FFF_FFFF) in
      let present = if Rng.bernoulli rng 0.85 then 1L else 0L in
      mk [ va; present ] guest
  | Exit_reason.Exception Xentry_machine.Hw_exception.GP ->
      let selector =
        (* cpuid emulation is the common case (paper §II). *)
        Rng.weighted_choice rng [| (0L, 0.5); (1L, 0.2); (2L, 0.2); (3L, 0.1) |]
      in
      mk
        [ selector; Int64.of_int (Rng.int rng 16); Int64.of_int (Rng.int rng 4096) ]
        guest
  | Exit_reason.Exception _ ->
      mk [ Int64.of_int (Rng.int rng 256) ] guest
  | Exit_reason.Hypercall h -> (
      let nr_limit = Handlers.table_limit h in
      match Hypercall.shape h with
      | Hypercall.Table_write ->
          ignore nr_limit;
          mk [ discrete_size rng [| 1; 2; 4; 8 |] ] guest
      | Hypercall.Mmu_batch ->
          mk
            [
              discrete_size rng [| 1; 2; 4 |];
              Int64.of_int (Rng.int rng 0x4000_0000);
            ]
            guest
      | Hypercall.Copy_buffer ->
          mk [ 0L; 0L; discrete_size rng [| 8; 16; 32; 64; 128 |] ] guest
      | Hypercall.Event_op ->
          mk
            [ Int64.of_int (1 + Rng.int rng 200); Int64.of_int (Rng.int rng 4) ]
            guest
      | Hypercall.Sched -> mk [ Int64.of_int (Rng.int rng 3) ] guest
      | Hypercall.Timer -> mk [ Int64.of_int (1000 + Rng.int rng 1_000_000) ] guest
      | Hypercall.Grant -> mk [ discrete_size rng [| 1; 2; 4 |] ] guest
      | Hypercall.Query ->
          mk [ Int64.of_int (Rng.int rng 8); Int64.of_int (Rng.int rng 0x1000) ] guest
      | Hypercall.Control ->
          mk [ Int64.of_int (Rng.int rng 4); Int64.of_int (1 + Rng.int rng 7) ] guest)

(* The draw tables, built once per workload class and mode:
   [sample_request] is on the serve request path, where rebuilding the
   weight lists and arrays on every draw cost about a fifth of a
   micro-reboot request's service time.  Built eagerly, not [lazy]: two
   domains forcing one lazy value at once raise
   [CamlinternalLazy.Undefined].  Each table holds its weight list in
   order, so a draw from it equals a draw from the list. *)
type tables = {
  categories : (string * float) array;
  hypercalls : (Hypercall.t * float) array;
  exceptions : (Xentry_machine.Hw_exception.t * float) array;
  irqs : (int * float) array;
}

let class_index = function Cpu_bound -> 0 | Memory_bound -> 1 | Io_bound -> 2

let tables_for mode =
  Array.map
    (fun wclass ->
      {
        categories = Array.of_list (category_weights mode wclass);
        hypercalls = Array.of_list (hypercall_weights wclass);
        exceptions = Array.of_list (exception_weights wclass);
        irqs = Array.of_list (irq_weights wclass);
      })
    [| Cpu_bound; Memory_bound; Io_bound |]

let pv_tables = tables_for PV
let hvm_tables = tables_for HVM
let apic_table = Array.of_list apic_weights

let sample_request t mode rng =
  let tables =
    (match mode with PV -> pv_tables | HVM -> hvm_tables).(class_index t.wclass)
  in
  let reason =
    match Rng.weighted_choice rng tables.categories with
    | "hypercall" -> Exit_reason.Hypercall (Rng.weighted_choice rng tables.hypercalls)
    | "exception" -> Exit_reason.Exception (Rng.weighted_choice rng tables.exceptions)
    | "irq" -> Exit_reason.Irq (Rng.weighted_choice rng tables.irqs)
    | "apic" -> Exit_reason.Apic (Rng.weighted_choice rng apic_table)
    | "softirq" -> Exit_reason.Softirq
    | _ -> Exit_reason.Tasklet
  in
  request_for_reason reason rng

(* Mean dynamic handler length, measured by running a sample of the
   profile's own requests. *)
let mean_length_cache : (benchmark * virt_mode, float) Hashtbl.t =
  Hashtbl.create 12

(* Serialized: the measurement host is rebuilt per miss, so concurrent
   callers from worker domains only need the table itself protected. *)
let mean_length_mutex = Mutex.create ()

let mean_handler_length t mode =
  Mutex.protect mean_length_mutex (fun () ->
      match Hashtbl.find_opt mean_length_cache (t.bench, mode) with
      | Some v -> v
      | None ->
          let host = Hypervisor.create ~seed:17 () in
          let rng = Rng.create 4242 in
          let n = 300 in
          let total = ref 0 in
          for _ = 1 to n do
            let req = sample_request t mode rng in
            let result = Hypervisor.handle host req in
            total := !total + result.Xentry_machine.Cpu.steps
          done;
          let v = float_of_int !total /. float_of_int n in
          Hashtbl.replace mean_length_cache (t.bench, mode) v;
          v)

(* Physical-host activation bands behind Figs 7 and 11: calibrated so
   that a ~280 ns per-exit detection cost yields sub-1% overheads for
   the CPU/memory benchmarks with postmark worst (max ~11.7%), and a
   1,900 ns per-exit state copy yields the Fig 11 overheads (mcf/bzip2
   ~1.6%, postmark ~6.3%, average ~2.7%). *)
let physical_rate t =
  match t.bench with
  | Mcf -> { median = 9_000.; sigma = 0.35; lo = 5_000.; hi = 30_000. }
  | Bzip2 -> { median = 7_000.; sigma = 0.30; lo = 4_000.; hi = 15_000. }
  | Freqmine -> { median = 13_000.; sigma = 0.45; lo = 7_000.; hi = 60_000. }
  | Canneal -> { median = 10_000.; sigma = 0.40; lo = 5_000.; hi = 45_000. }
  | X264 -> { median = 18_000.; sigma = 0.60; lo = 8_000.; hi = 350_000. }
  | Postmark -> { median = 33_000.; sigma = 0.70; lo = 12_000.; hi = 420_000. }

let sample_physical_rate t rng =
  let spec = physical_rate t in
  let v = Rng.lognormal rng ~mu:(log spec.median) ~sigma:spec.sigma in
  Float.min spec.hi (Float.max spec.lo v)

let trace_rate t = (physical_rate t).median
