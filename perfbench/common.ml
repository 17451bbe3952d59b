(* Measurement helpers shared by every workload: the clock, quantiles,
   GC and peak-RSS readings, reads of the library's telemetry, and the
   metric table that becomes the result line. *)

module Tm = Xentry_util.Telemetry

let now = Xentry_util.Clock.monotonic

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- statistics ------------------------------------------------------ *)

let quantile xs q =
  if Array.length xs = 0 then nan else Xentry_util.Stats.quantile xs q

let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let maximum xs = Array.fold_left Float.max neg_infinity xs

(* [l] cut into consecutive pieces of [n] elements (the last may be
   shorter). *)
let chunks n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

(* [n] per thousand [per]; 0 when there is nothing to divide by. *)
let per_1k n per = if per <= 0 then 0. else 1000. *. float_of_int n /. float_of_int per
let ratio a b = if b <= 0. then 0. else a /. b

(* --- GC --------------------------------------------------------------- *)

type gc = { minor : int; major : int; minor_words : float }

let gc_read () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
    minor_words = s.Gc.minor_words;
  }

let gc_add a b =
  {
    minor = a.minor + b.minor;
    major = a.major + b.major;
    minor_words = a.minor_words +. b.minor_words;
  }

let gc_zero = { minor = 0; major = 0; minor_words = 0. }

let gc_since g0 =
  let g = gc_read () in
  {
    minor = g.minor - g0.minor;
    major = g.major - g0.major;
    minor_words = g.minor_words -. g0.minor_words;
  }

(* Each timed rep starts from a collected heap that holds nothing of
   earlier reps, as a run in a fresh process would. *)
let settle () = Gc.full_major ()

(* --- process memory --------------------------------------------------- *)

(* VmHWM, the process's peak resident set, in KiB (0 when /proc is not
   readable). *)
let peak_rss_kib () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if String.starts_with ~prefix:"VmHWM:" line then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d" Fun.id
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- library telemetry ------------------------------------------------ *)

let counter name = Tm.counter_value (Tm.counter name)

(* (count, sum) of a histogram; spans record nanoseconds. *)
let hist name =
  let h = Tm.histogram name in
  (Tm.histogram_count h, Tm.histogram_sum h)

let hist_mean name =
  let n, sum = hist name in
  if n = 0 then 0. else float_of_int sum /. float_of_int n

(* Reads one integer field out of a worker's telemetry JSON dump
   ([Telemetry.to_json]): a counter's value ([key = ""]), or a
   histogram's ["count"] or ["sum"].  Missing names read 0. *)
let json_int json ~after key =
  let len = String.length json in
  (* Index just past the first [pat] at or after [i]. *)
  let find pat i =
    let n = String.length pat in
    let rec at i j = j = n || (json.[i + j] = pat.[j] && at i (j + 1)) in
    let rec go i = if i + n > len then None else if at i 0 then Some (i + n) else go (i + 1) in
    go i
  in
  let rec digits i acc =
    if i < len && json.[i] >= '0' && json.[i] <= '9' then
      digits (i + 1) ((acc * 10) + Char.code json.[i] - Char.code '0')
    else acc
  in
  let field i = if key = "" then Some i else find ("\"" ^ key ^ "\": ") i in
  match Option.bind (find ("\"" ^ after ^ "\": ") 0) field with
  | Some i -> digits i 0
  | None -> 0

let json_counter json name = json_int json ~after:name ""
let json_hist json name = (json_int json ~after:name "count", json_int json ~after:name "sum")

(* --- result table ----------------------------------------------------- *)

(* Operations a workload attempted and how many failed: injections
   planned vs records missing, or requests offered vs shed. *)
type outcome = { attempted : int; failed : int }

type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []
let gates_failed = ref 0

(* Record a metric for the result line and print it for a reader. *)
let metric ?(note = "") name unit_ value =
  metrics := { name; value; unit_ } :: !metrics;
  Printf.printf "  %-40s %16.6g %-6s %s\n%!" name value unit_ note

(* A layer timing this workload measures but the result line does not
   carry: the result line holds only metrics every workload measures,
   plus counts and ratios that read 0 where a layer is not exercised. *)
let detail ?(note = "") name unit_ value =
  Printf.printf "  %-40s %16.6g %-6s %s (printed only)\n%!" name value unit_ note

(* A metric this workload does not exercise: printed with the reason,
   kept out of the result line. *)
let unavailable name why = Printf.printf "  %-40s %16s        %s\n%!" name "n/a" why

let info fmt = Printf.printf (fmt ^^ "\n%!")

let gate ok what =
  if not ok then begin
    incr gates_failed;
    Printf.printf "GATE FAILED: %s\n%!" what
  end
  else Printf.printf "gate ok: %s\n%!" what

let percentile_line label unit_ xs =
  let n = Array.length xs in
  if n = 0 then info "  %s: no samples" label
  else
    info "  %s: n=%d p50 %.1f p90 %.1f p99 %.1f max %.1f %s" label n
      (quantile xs 0.5) (quantile xs 0.9) (quantile xs 0.99) (maximum xs) unit_

let result_line ~attempted ~failed =
  let ms = List.rev !metrics in
  let finite = List.for_all (fun m -> Float.is_finite m.value) ms in
  if not finite then gate false "every metric is a finite number";
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.name
             (if Float.is_finite m.value then m.value else 0.)
             m.unit_)
         ms)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!gates_failed = 0) attempted failed body

(* --- layers every workload exercises --------------------------------- *)

(* [Detector.classify] timed in blocks of 256 calls over (reason, PMU
   signature) pairs: nanoseconds per call, one value per block. *)
let classify_ns detector inputs =
  let block = 256 in
  Array.init (Array.length inputs / block) (fun b ->
      let t0 = now () in
      for i = b * block to ((b + 1) * block) - 1 do
        let reason, s = inputs.(i) in
        ignore
          (Sys.opaque_identity (Xentry_core.Detector.classify detector ~reason s))
      done;
      (now () -. t0) *. 1e9 /. float_of_int block)

(* Simulator, hypervisor, RAS and detector readings from telemetry
   counters and histograms, wherever they were recorded:
   [get_counter]/[get_hist] read this process or workers' dumps.
   [ops] is injections or requests. *)
let machine_layers ~get_counter ~get_hist ~ops =
  let hit_ratio hit miss =
    let h = get_counter hit and m = get_counter miss in
    ratio (float_of_int h) (float_of_int (h + m))
  in
  let per_op n = ratio (float_of_int n) (float_of_int ops) in
  metric "machine.tlb_read_hit_ratio" "ratio"
    (hit_ratio "memory.tlb.read.hit" "memory.tlb.read.miss");
  metric "machine.tlb_write_hit_ratio" "ratio"
    (hit_ratio "memory.tlb.write.hit" "memory.tlb.write.miss");
  metric "machine.cow_privatise_per_op" "count"
    (per_op (get_counter "memory.cow.privatise"));
  metric "vmm.steps_per_op" "count" (per_op (snd (get_hist "hv.steps")));
  metric "ras.records_per_1k" "count" (per_1k (get_counter "ras.records_logged") ops);
  let drains, drain_ns = get_hist "ras.drain_latency.ns" in
  metric "ras.drain_us_mean" "us"
    (ratio (float_of_int drain_ns) (1e3 *. float_of_int drains));
  let cmps, cmp_sum = get_hist "detector.comparisons" in
  metric "xentry.tree_comparisons_mean" "count"
    (ratio (float_of_int cmp_sum) (float_of_int cmps))

let gc_metrics g ~ops =
  metric "gc.minor_collections_per_1k" "count" (per_1k g.minor ops);
  metric "gc.major_collections_per_1k" "count" (per_1k g.major ops);
  metric "gc.minor_words_per_op" "words" (ratio g.minor_words (float_of_int ops))
