(* Tests for Xentry_util: RNG, bit manipulation, statistics, report
   rendering. *)

open Xentry_util

let check_float = Alcotest.(check (float 1e-9))

(* Substring search used to sanity-check rendered reports. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  let x = Rng.next_int64 a in
  let y = Rng.next_int64 b in
  Alcotest.(check int64) "copy continues from same state" x y;
  ignore (Rng.next_int64 a);
  (* advancing [a] further must not affect [b] *)
  let a' = Rng.next_int64 a and b' = Rng.next_int64 b in
  Alcotest.(check bool) "streams diverge after extra draw" true (a' <> b')

let test_rng_split_independent () =
  let a = Rng.create 13 in
  let b = Rng.split a in
  let xs = Array.init 10 (fun _ -> Rng.next_int64 a) in
  let ys = Array.init 10 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

(* Known answers, pinned from the generator before its state moved
   into unboxed bytes: every seeded campaign, stream and detector
   depends on these exact streams. *)
let test_rng_known_answers () =
  let draws r n = List.init n (fun _ -> Rng.next_int64 r) in
  let check_draws name expected got =
    Alcotest.(check (list int64)) name expected got
  in
  check_draws "create 0"
    [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L ]
    (draws (Rng.create 0) 3);
  check_draws "create 42"
    [ -4767286540954276203L; 2949826092126892291L ]
    (draws (Rng.create 42) 2);
  check_draws "create -7" [ 7790691224305936752L ] (draws (Rng.create (-7)) 1);
  let parent = Rng.create 1 in
  let child = Rng.split parent in
  check_draws "split child"
    [ 6791897765849424158L; -1041056189838986770L ]
    (draws child 2);
  check_draws "split parent" [ -4689498862643123097L ] (draws parent 1);
  let a = Rng.create 9 in
  let b = Rng.copy a in
  ignore (Rng.next_int64 a);
  check_draws "copy" [ -5859373336115519388L ] (draws b 1);
  Alcotest.(check (list int))
    "derive"
    [ 1227844342346046657; -4373826470845021568; 3270929947005349778 ]
    [ Rng.derive 1 0; Rng.derive 1 5; Rng.derive 12345 99 ];
  let r = Rng.create 2014 in
  Alcotest.(check (list int))
    "int 1000"
    [ 89; 688; 110; 570; 474; 618 ]
    (List.init 6 (fun _ -> Rng.int r 1000));
  let r = Rng.create 3 in
  Alcotest.(check (list int))
    "int 64" [ 59; 34; 0; 51 ]
    (List.init 4 (fun _ -> Rng.int r 64))

let test_rng_int_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let r = Rng.create 5 in
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_int_in () =
  let r = Rng.create 6 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-3) 4 in
    Alcotest.(check bool) "in [-3,4]" true (v >= -3 && v <= 4)
  done

let test_rng_float_bounds () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let r = Rng.create 11 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never true" false (Rng.bernoulli r 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Rng.bernoulli r 1.0)
  done

let test_rng_bernoulli_rate () =
  let r = Rng.create 12 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_rng_gaussian_moments () =
  let r = Rng.create 21 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian r ~mu:5.0 ~sigma:2.0) in
  let m = Stats.mean xs in
  let s = Stats.stddev xs in
  Alcotest.(check bool) "mean near 5" true (abs_float (m -. 5.0) < 0.05);
  Alcotest.(check bool) "stddev near 2" true (abs_float (s -. 2.0) < 0.05)

let test_rng_exponential_mean () =
  let r = Rng.create 22 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.exponential r ~rate:2.0) in
  let m = Stats.mean xs in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (m -. 0.5) < 0.02)

let test_rng_choice () =
  let r = Rng.create 31 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    let v = Rng.choice r a in
    Alcotest.(check bool) "member" true (Array.mem v a)
  done

let test_rng_weighted_choice () =
  let r = Rng.create 32 in
  let items = [| ("a", 1.0); ("b", 0.0); ("c", 3.0) |] in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.weighted_choice r items in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  Alcotest.(check bool) "zero weight never chosen" true
    (not (Hashtbl.mem counts "b"));
  let a = float_of_int (Hashtbl.find counts "a") in
  let c = float_of_int (Hashtbl.find counts "c") in
  Alcotest.(check bool) "c ~3x a" true (c /. a > 2.5 && c /. a < 3.6)

let test_rng_weighted_choice_invalid () =
  let r = Rng.create 33 in
  Alcotest.check_raises "all-zero weights rejected"
    (Invalid_argument "Rng.weighted_choice: zero total weight") (fun () ->
      ignore (Rng.weighted_choice r [| ("a", 0.0) |]))

let test_rng_shuffle_permutation () =
  let r = Rng.create 41 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation"
    (Array.init 50 (fun i -> i))
    sorted

let test_rng_sample_without_replacement () =
  let r = Rng.create 43 in
  let s = Rng.sample_without_replacement r 10 100 in
  Alcotest.(check int) "ten draws" 10 (Array.length s);
  let distinct = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "all distinct" 10 (List.length distinct);
  Array.iter
    (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 100))
    s

let test_rng_derive_pure () =
  Alcotest.(check int) "pure function of (seed, idx)" (Rng.derive 42 7)
    (Rng.derive 42 7);
  Alcotest.(check bool) "indices give distinct seeds" true
    (Rng.derive 42 0 <> Rng.derive 42 1);
  Alcotest.(check bool) "seeds give distinct streams" true
    (Rng.derive 1 0 <> Rng.derive 2 0);
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Rng.derive: negative index") (fun () ->
      ignore (Rng.derive 1 (-1)))

let test_rng_derive_spread () =
  (* Consecutive shard indices must not yield clustered seeds: the
     derived values feed independent SplitMix64 streams. *)
  let seeds = List.init 100 (fun i -> Rng.derive 2014 i) in
  Alcotest.(check int) "100 distinct seeds" 100
    (List.length (List.sort_uniq compare seeds))

(* --- Pool ---------------------------------------------------------------- *)

let test_pool_matches_serial () =
  let input = Array.init 500 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d matches Array.map" jobs)
        expected
        (Pool.parallel_map ~jobs f input))
    [ 1; 2; 3; 4 ]

let test_pool_preserves_order () =
  let input = Array.init 64 string_of_int in
  let out = Pool.parallel_map ~jobs:4 (fun s -> s ^ "!") input in
  Array.iteri
    (fun i s -> Alcotest.(check string) "slot order" (string_of_int i ^ "!") s)
    out

let test_pool_propagates_exception () =
  let input = Array.init 32 (fun i -> i) in
  Alcotest.check_raises "worker failure reaches the caller"
    (Failure "boom 7") (fun () ->
      ignore
        (Pool.parallel_map ~jobs:4
           (fun i -> if i = 7 then failwith "boom 7" else i)
           input))

let test_pool_invalid_jobs () =
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0))

let test_pool_map_list () =
  let pool = Pool.create ~jobs:3 in
  Alcotest.(check (list int)) "list order preserved" [ 2; 4; 6; 8 ]
    (Pool.map_list pool (fun x -> 2 * x) [ 1; 2; 3; 4 ])

let test_pool_empty_and_singleton () =
  Alcotest.(check (array int)) "empty input" [||]
    (Pool.parallel_map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "single item" [| 9 |]
    (Pool.parallel_map ~jobs:4 (fun x -> x + 8) [| 1 |])

let test_pool_jobs_accessor () =
  Alcotest.(check int) "configured worker count" 5 (Pool.jobs (Pool.create ~jobs:5));
  Alcotest.(check bool) "recommended jobs positive" true
    (Pool.recommended_jobs () >= 1)

(* --- Bits ---------------------------------------------------------------- *)

let test_bits_flip_involution () =
  let w = 0x123456789ABCDEFL in
  for i = 0 to 63 do
    Alcotest.(check int64) "double flip restores" w Bits.(flip (flip w i) i)
  done

let test_bits_flip_changes_one_bit () =
  let w = 0xFF00FF00FF00FF0L in
  for i = 0 to 63 do
    Alcotest.(check int) "hamming 1" 1 (Bits.hamming w (Bits.flip w i))
  done

let test_bits_test_set_clear () =
  let w = 0L in
  let w = Bits.set w 5 in
  Alcotest.(check bool) "bit 5 set" true (Bits.test w 5);
  Alcotest.(check bool) "bit 6 clear" false (Bits.test w 6);
  let w = Bits.clear w 5 in
  Alcotest.(check int64) "cleared" 0L w

let test_bits_popcount () =
  Alcotest.(check int) "zero" 0 (Bits.popcount 0L);
  Alcotest.(check int) "all ones" 64 (Bits.popcount (-1L));
  Alcotest.(check int) "0xF0" 4 (Bits.popcount 0xF0L)

let test_bits_low_bits () =
  Alcotest.(check int64) "low 8" 0xCDL (Bits.low_bits 0xABCDL 8);
  Alcotest.(check int64) "width 0" 0L (Bits.low_bits (-1L) 0);
  Alcotest.(check int64) "width 64 identity" (-1L) (Bits.low_bits (-1L) 64)

let test_bits_bounds () =
  Alcotest.check_raises "bit 64 rejected"
    (Invalid_argument "Bits: bit index out of [0, 63]") (fun () ->
      ignore (Bits.flip 0L 64))

let test_bits_to_hex () =
  Alcotest.(check string) "padded" "00000000000000ff" (Bits.to_hex 0xFFL)

(* --- Stats ---------------------------------------------------------------- *)

let test_stats_mean_stddev () =
  check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  check_float "empty mean" 0.0 (Stats.mean [||]);
  (* Sample (Bessel-corrected) standard deviation: n - 1 denominator. *)
  check_float "stddev" 1.0 (Stats.stddev [| 1.0; 2.0; 3.0 |]);
  check_float "stddev singleton" 0.0 (Stats.stddev [| 4.2 |]);
  check_float "stddev empty" 0.0 (Stats.stddev [||]);
  check_float "stddev pair" (sqrt 2.0) (Stats.stddev [| 1.0; 3.0 |])

let test_stats_quantile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "q0" 1.0 (Stats.quantile xs 0.0);
  check_float "q1" 5.0 (Stats.quantile xs 1.0);
  check_float "median" 3.0 (Stats.median xs);
  check_float "q25" 2.0 (Stats.quantile xs 0.25);
  (* interpolation *)
  check_float "interp" 1.5 (Stats.quantile [| 1.0; 2.0 |] 0.5)

let test_stats_quantile_unsorted () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "median of unsorted" 3.0 (Stats.median xs)

let test_stats_box_summary () =
  let xs = Array.init 101 (fun i -> float_of_int i) in
  let b = Stats.box_summary xs in
  check_float "min" 0.0 b.Stats.bmin;
  check_float "q1" 25.0 b.Stats.q1;
  check_float "median" 50.0 b.Stats.bmedian;
  check_float "q3" 75.0 b.Stats.q3;
  check_float "max" 100.0 b.Stats.bmax

let test_stats_cdf () =
  let c = Stats.cdf_of_samples [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "below all" 0.0 (Stats.cdf_eval c 0.5);
  check_float "half" 0.5 (Stats.cdf_eval c 2.0);
  check_float "above all" 1.0 (Stats.cdf_eval c 10.0);
  check_float "inverse 0.5" 2.0 (Stats.cdf_inverse c 0.5);
  check_float "inverse 1.0" 4.0 (Stats.cdf_inverse c 1.0)

let test_stats_cdf_points_monotone () =
  let c = Stats.cdf_of_samples [| 3.0; 1.0; 2.0; 2.0 |] in
  let pts = Stats.cdf_points c in
  Array.iteri
    (fun i (x, f) ->
      if i > 0 then begin
        let px, pf = pts.(i - 1) in
        Alcotest.(check bool) "x nondecreasing" true (x >= px);
        Alcotest.(check bool) "f nondecreasing" true (f >= pf)
      end)
    pts;
  check_float "last fraction is 1" 1.0 (snd pts.(Array.length pts - 1))

let test_stats_histogram () =
  let h = Stats.histogram ~bins:4 [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check int) "bins" 4 (Array.length h.Stats.counts);
  Alcotest.(check int) "total preserved" 5
    (Array.fold_left ( + ) 0 h.Stats.counts);
  Alcotest.(check int) "edges" 5 (Array.length h.Stats.edges)

let test_stats_percentage_breakdown () =
  let pct = Stats.percentage_breakdown [ ("a", 1); ("b", 3) ] in
  check_float "a" 25.0 (List.assoc "a" pct);
  check_float "b" 75.0 (List.assoc "b" pct);
  let zeros = Stats.percentage_breakdown [ ("a", 0) ] in
  check_float "all zero input" 0.0 (List.assoc "a" zeros)

(* --- Report --------------------------------------------------------------- *)

let test_report_table () =
  let s =
    Report.table ~header:[ "name"; "value" ]
      ~rows:[ [ "alpha"; "1" ]; [ "b" ] ]
  in
  Alcotest.(check bool) "contains header" true (contains s "name");
  Alcotest.(check bool) "contains row" true (contains s "alpha")

let test_report_bar_chart () =
  let s = Report.bar_chart [ ("x", 1.0); ("y", 2.0) ] in
  Alcotest.(check bool) "y bar longer than x bar" true
    (String.length s > 0 && contains s "##")

let test_report_percent () =
  Alcotest.(check string) "ten plus" "12.3%" (Report.percent 12.34);
  Alcotest.(check bool) "small positive nonempty" true
    (String.length (Report.percent 0.19) > 0)

let test_report_box_plot_row () =
  let b = Stats.box_summary [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let row = Report.box_plot_row ~width:40 ~lo:0.0 ~hi:6.0 b in
  Alcotest.(check int) "width respected" 40 (String.length row);
  Alcotest.(check bool) "has median marker" true
    (String.contains row '@')

let test_report_cdf_plot () =
  let pts = [| (0.0, 0.1); (50.0, 0.5); (100.0, 1.0) |] in
  let s = Report.cdf_plot ~width:30 ~height:8 [ ("series", pts) ] in
  Alcotest.(check bool) "mentions series" true (contains s "series")

let test_stats_histogram_single_value () =
  (* Degenerate sample: all mass in one bin, no division by zero. *)
  let h = Stats.histogram ~bins:4 [| 5.0; 5.0; 5.0 |] in
  Alcotest.(check int) "total preserved" 3 (Array.fold_left ( + ) 0 h.Stats.counts)

let test_stats_min_max_empty () =
  Alcotest.check_raises "minimum of empty sample raises"
    (Invalid_argument "Stats.minimum: empty sample") (fun () ->
      ignore (Stats.minimum [||]));
  Alcotest.check_raises "maximum of empty sample raises"
    (Invalid_argument "Stats.maximum: empty sample") (fun () ->
      ignore (Stats.maximum [||]));
  check_float "minimum" 1.0 (Stats.minimum [| 3.0; 1.0; 2.0 |]);
  check_float "maximum" 3.0 (Stats.maximum [| 3.0; 1.0; 2.0 |])

let test_stats_quantile_invalid () =
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Stats.quantile: q outside [0, 1]") (fun () ->
      ignore (Stats.quantile [| 1.0 |] 1.5));
  Alcotest.check_raises "empty sample"
    (Invalid_argument "Stats.quantile: empty sample") (fun () ->
      ignore (Stats.quantile [||] 0.5))

let test_rng_int_in_invalid () =
  let r = Rng.create 1 in
  Alcotest.check_raises "hi < lo" (Invalid_argument "Rng.int_in: hi < lo")
    (fun () -> ignore (Rng.int_in r 5 4))

let test_report_grouped_bars_alignment () =
  let s =
    Report.grouped_bars ~series_names:[ "a"; "b" ]
      [ ("cat", [ 1.0; 2.0 ]) ]
  in
  Alcotest.(check bool) "both series rendered" true
    (contains s "a" && contains s "b")

let test_report_table_pads_short_rows () =
  let s = Report.table ~header:[ "x"; "y"; "z" ] ~rows:[ [ "1" ] ] in
  Alcotest.(check bool) "renders without exception" true (String.length s > 0)

(* --- Telemetry ------------------------------------------------------------ *)

(* Telemetry state is global; each test runs against a clean slate and
   leaves the subsystem disabled for the rest of the suite. *)
let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

let test_telemetry_buckets () =
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket of %d" v) b
        (Telemetry.bucket_of_value v))
    [ (min_int, 0); (-5, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3);
      (1023, 10); (1024, 11); (max_int, 62) ];
  List.iter
    (fun v ->
      let lo, hi = Telemetry.bucket_bounds (Telemetry.bucket_of_value v) in
      Alcotest.(check bool)
        (Printf.sprintf "%d within its bucket bounds" v)
        true
        (v >= lo && v <= hi))
    [ 0; 1; 2; 7; 63; 64; 4096; max_int ]

let test_telemetry_counter () =
  with_telemetry @@ fun () ->
  let c = Telemetry.counter "test.counter.a" in
  Alcotest.(check int) "starts at zero" 0 (Telemetry.counter_value c);
  for _ = 1 to 10 do
    Telemetry.incr c
  done;
  Telemetry.add c 5;
  Alcotest.(check int) "accumulates" 15 (Telemetry.counter_value c);
  Telemetry.disable ();
  Telemetry.incr c;
  Alcotest.(check int) "disabled increments are dropped" 15
    (Telemetry.counter_value c);
  Telemetry.enable ();
  Alcotest.(check bool) "same name resolves to the same counter" true
    (c == Telemetry.counter "test.counter.a");
  Alcotest.check_raises "name clash across metric kinds"
    (Invalid_argument "Telemetry.histogram: \"test.counter.a\" is a counter")
    (fun () -> ignore (Telemetry.histogram "test.counter.a"))

let test_telemetry_histogram () =
  with_telemetry @@ fun () ->
  let h = Telemetry.histogram "test.hist.a" in
  List.iter (Telemetry.observe h) [ 1; 2; 3; 1000; 0 ];
  Alcotest.(check int) "count" 5 (Telemetry.histogram_count h);
  Alcotest.(check int) "sum" 1006 (Telemetry.histogram_sum h);
  Telemetry.observe_span h 1e-6;
  Alcotest.(check int) "span converted to ns" 2006 (Telemetry.histogram_sum h)

let test_telemetry_span_and_events () =
  with_telemetry @@ fun () ->
  let r = Telemetry.with_span "test.span" (fun () -> 42) in
  Alcotest.(check int) "span returns the body's value" 42 r;
  Alcotest.(check int) "one observation recorded" 1
    (Telemetry.histogram_count (Telemetry.histogram "test.span.ns"));
  Telemetry.event "test.event"
    [ ("k", Json.Int 3); ("s", Json.String "x\"y") ];
  let json = Telemetry.to_json () in
  Alcotest.(check bool) "event name exported" true (contains json "test.event");
  Alcotest.(check bool) "string field escaped" true (contains json "x\\\"y")

let test_telemetry_export_jsonl () =
  with_telemetry @@ fun () ->
  Telemetry.incr (Telemetry.counter "test.export.counter");
  Telemetry.observe (Telemetry.histogram "test.export.hist") 7;
  Telemetry.event "test.export.event" [ ("ok", Json.Bool true) ];
  let path = Filename.temp_file "telemetry" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Telemetry.export_file path;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let lines = List.rev !lines in
  Alcotest.(check bool) "meta plus at least three records" true
    (List.length lines >= 4);
  List.iter
    (fun l ->
      Alcotest.(check bool) "each line is a JSON object" true
        (String.length l >= 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  (match lines with
  | meta :: _ ->
      Alcotest.(check bool) "meta line carries the schema" true
        (contains meta "xentry-telemetry-v1")
  | [] -> Alcotest.fail "empty export");
  Alcotest.(check bool) "counter present" true
    (List.exists (fun l -> contains l "test.export.counter") lines);
  Alcotest.(check bool) "histogram present" true
    (List.exists (fun l -> contains l "test.export.hist") lines);
  Alcotest.(check bool) "event present" true
    (List.exists (fun l -> contains l "test.export.event") lines)

let test_telemetry_reset () =
  with_telemetry @@ fun () ->
  let c = Telemetry.counter "test.reset.counter" in
  let h = Telemetry.histogram "test.reset.hist" in
  Telemetry.add c 9;
  Telemetry.observe h 4;
  Telemetry.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Telemetry.counter_value c);
  Alcotest.(check int) "histogram zeroed" 0 (Telemetry.histogram_count h)

let test_telemetry_domains () =
  with_telemetry @@ fun () ->
  let c = Telemetry.counter "test.domains.counter" in
  let h = Telemetry.histogram "test.domains.hist" in
  let domains =
    Array.init 4 (fun _ ->
        Stdlib.Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Telemetry.incr c
            done;
            for v = 1 to 100 do
              Telemetry.observe h v
            done))
  in
  Array.iter Stdlib.Domain.join domains;
  Alcotest.(check int) "counter sums across domains" 4000
    (Telemetry.counter_value c);
  Alcotest.(check int) "histogram merges across domains" 400
    (Telemetry.histogram_count h);
  Alcotest.(check int) "merged sum" (4 * 5050) (Telemetry.histogram_sum h)

(* One line of each xentry-telemetry-v1 record type, byte for byte.
   Integer and string lines keep the layout DESIGN.md §11 documents;
   a float field prints by the shared round-trip rule, [null] when
   non-finite.  The meta line's counts cover every metric the process
   registered, so they are read off the export itself. *)
let test_telemetry_golden_lines () =
  with_telemetry @@ fun () ->
  Telemetry.add (Telemetry.counter "test.golden.counter") 3;
  List.iter
    (Telemetry.observe (Telemetry.histogram "test.golden.hist"))
    [ 0; 1; 5; 5 ];
  Telemetry.event "test.golden.event"
    [
      ("n", Json.Int 7);
      ("s", Json.String "a\"b");
      ("x", Json.Float 0.1);
      ("bad", Json.Float Float.nan);
      ("ok", Json.Bool true);
    ];
  let path = Filename.temp_file "telemetry" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Telemetry.export_file path;
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let count typ =
    let prefix = "{\"type\": \"" ^ typ ^ "\"" in
    List.length (List.filter (fun l -> contains l prefix) lines)
  in
  let has line = Alcotest.(check bool) line true (List.mem line lines) in
  Alcotest.(check string) "meta line"
    (Printf.sprintf
       "{\"type\": \"meta\", \"schema\": \"xentry-telemetry-v1\", \
        \"counters\": %d, \"histograms\": %d, \"events\": 1}"
       (count "counter") (count "histogram"))
    (List.hd lines);
  has
    "{\"type\": \"counter\", \"name\": \"test.golden.counter\", \
     \"value\": 3}";
  has
    "{\"type\": \"histogram\", \"name\": \"test.golden.hist\", \"count\": 4, \
     \"sum\": 11, \"buckets\": [[0, 0, 1], [1, 1, 1], [4, 7, 2]]}";
  has
    "{\"type\": \"event\", \"name\": \"test.golden.event\", \"fields\": \
     {\"n\": 7, \"s\": \"a\\\"b\", \"x\": 0.1, \"bad\": null, \"ok\": true}}";
  (* [to_json] is the dump cluster workers send; readers scan it for
     ["name": value] and ["count": n] bytes. *)
  let json = Telemetry.to_json () in
  Alcotest.(check bool) "to_json counter" true
    (contains json "\"test.golden.counter\": 3");
  Alcotest.(check bool) "to_json histogram" true
    (contains json
       "\"test.golden.hist\": {\"count\": 4, \"sum\": 11, \"buckets\": \
        [[0, 0, 1], [1, 1, 1], [4, 7, 2]]}")

(* --- Json ----------------------------------------------------------------- *)

let render v = Json.to_string v

let test_json_escapes_control_bytes () =
  for c = 0 to 0x1f do
    let expected =
      match Char.chr c with
      | '\n' -> "\"\\n\""
      | '\r' -> "\"\\r\""
      | '\t' -> "\"\\t\""
      | _ -> Printf.sprintf "\"\\u%04x\"" c
    in
    Alcotest.(check string)
      (Printf.sprintf "byte 0x%02x" c)
      expected
      (render (Json.String (String.make 1 (Char.chr c))))
  done;
  Alcotest.(check string) "quote" "\"\\\"\"" (render (Json.String "\""));
  Alcotest.(check string) "backslash" "\"\\\\\"" (render (Json.String "\\"));
  Alcotest.(check string) "other bytes pass through" "\"a/\x7f\xc3\xa9\""
    (render (Json.String "a/\x7f\xc3\xa9"));
  Alcotest.(check string) "keys are escaped too" "{\"a\\\"b\\n\": 1}"
    (render (Json.Obj [ ("a\"b\n", Json.Int 1) ]))

let test_json_non_finite_floats () =
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) "null"
        (render (Json.Float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check string) "integral float" "6" (render (Json.Float 6.0));
  Alcotest.(check string) "short decimal" "1234.56"
    (render (Json.Float 1234.56));
  Alcotest.(check string) "%g loses bits" "0.30000000000000004"
    (render (Json.Float (0.1 +. 0.2)))

let test_json_structure () =
  Alcotest.(check string) "empty object" "{}" (render (Json.Obj []));
  Alcotest.(check string) "empty list" "[]" (render (Json.List []));
  Alcotest.(check string) "scalars"
    "[null, true, false, -3, \"s\"]"
    (render Json.(List [ Null; Bool true; Bool false; Int (-3); String "s" ]));
  Alcotest.(check string) "nested"
    "{\"a\": [1, {}, [], [[2]]], \"b\": {\"c\": null, \"d\": {\"e\": [3, 4]}}}"
    (render
       Json.(
         Obj
           [ ("a", List [ Int 1; Obj []; List []; List [ List [ Int 2 ] ] ]);
             ( "b",
               Obj [ ("c", Null); ("d", Obj [ ("e", List [ Int 3; Int 4 ]) ]) ]
             ) ]));
  let opt = Json.option (fun i -> Json.Int i) in
  Alcotest.(check string) "option" "[null, 5]"
    (render (Json.List [ opt None; opt (Some 5) ]))

(* --- qcheck properties --------------------------------------------------- *)

(* Any finite double, drawn from its bit pattern so subnormals, huge
   exponents and 17-digit mantissas all occur. *)
let prop_json_float_round_trips =
  QCheck.Test.make ~name:"json float renders back to the same float" ~count:2000
    QCheck.(
      make ~print:(Printf.sprintf "%h") Gen.(map Int64.float_of_bits int64))
    (fun f ->
      QCheck.assume (Float.is_finite f);
      float_of_string (render (Json.Float f)) = f)

(* Naive reference implementations the optimized Stats code must agree
   with. *)
let naive_stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else
    let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
    let ss =
      Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs
    in
    sqrt (ss /. float_of_int (n - 1))

let naive_quantile xs q =
  let ys = Array.copy xs in
  Array.sort compare ys;
  let n = Array.length ys in
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor h) in
  let hi = min (lo + 1) (n - 1) in
  ys.(lo) +. ((h -. float_of_int lo) *. (ys.(hi) -. ys.(lo)))

let prop_stddev_matches_reference =
  QCheck.Test.make ~name:"stddev agrees with naive sample stddev" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let xs = Array.of_list xs in
      let a = Stats.stddev xs and b = naive_stddev xs in
      abs_float (a -. b) <= 1e-9 *. (1.0 +. abs_float b))

let prop_quantile_matches_reference =
  QCheck.Test.make ~name:"quantile agrees with naive interpolation" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
        (float_range 0.0 1.0))
    (fun (xs, q) ->
      let xs = Array.of_list xs in
      abs_float (Stats.quantile xs q -. naive_quantile xs q) <= 1e-9)

let prop_quantile_within_range =
  QCheck.Test.make ~name:"quantile stays within sample range" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 40) (float_range (-1000.) 1000.)) (float_range 0.0 1.0))
    (fun (xs, q) ->
      let xs = Array.of_list xs in
      let v = Stats.quantile xs q in
      v >= Stats.minimum xs -. 1e-9 && v <= Stats.maximum xs +. 1e-9)

let prop_flip_is_involution =
  QCheck.Test.make ~name:"bit flip is an involution" ~count:500
    QCheck.(pair int64 (int_range 0 63))
    (fun (w, i) -> Bits.(flip (flip w i) i) = w)

let prop_cdf_eval_monotone =
  QCheck.Test.make ~name:"cdf_eval is monotone" ~count:200
    QCheck.(triple (list_of_size Gen.(int_range 1 30) (float_range (-100.) 100.)) (float_range (-200.) 200.) (float_range 0.0 50.0))
    (fun (xs, x, dx) ->
      let c = Stats.cdf_of_samples (Array.of_list xs) in
      Stats.cdf_eval c x <= Stats.cdf_eval c (x +. dx))

let prop_parallel_map_equals_serial =
  QCheck.Test.make ~name:"parallel_map agrees with Array.map for any jobs"
    ~count:100
    QCheck.(
      triple (int_range 1 4)
        (list_of_size Gen.(int_range 0 200) small_int)
        small_int)
    (fun (jobs, xs, k) ->
      let input = Array.of_list xs in
      let f x = (x * 31) + k in
      Pool.parallel_map ~jobs f input = Array.map f input)

let prop_sample_without_replacement_distinct =
  QCheck.Test.make ~name:"sample without replacement yields distinct values"
    ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (k, extra) ->
      let n = k + extra + 1 in
      let r = Rng.create (k + (extra * 1000) + 17) in
      let s = Rng.sample_without_replacement r k n in
      List.length (List.sort_uniq compare (Array.to_list s)) = k)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_quantile_within_range;
        prop_parallel_map_equals_serial;
        prop_flip_is_involution;
        prop_cdf_eval_monotone;
        prop_sample_without_replacement_distinct;
        prop_stddev_matches_reference;
        prop_quantile_matches_reference;
        prop_json_float_round_trips;
      ]
  in
  Alcotest.run "xentry_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy independence" `Quick test_rng_copy_independent;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid bound" `Quick test_rng_int_invalid;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Slow test_rng_bernoulli_rate;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "choice membership" `Quick test_rng_choice;
          Alcotest.test_case "weighted choice" `Slow test_rng_weighted_choice;
          Alcotest.test_case "weighted choice invalid" `Quick
            test_rng_weighted_choice_invalid;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "derive is pure" `Quick test_rng_derive_pure;
          Alcotest.test_case "derive spreads shard seeds" `Quick
            test_rng_derive_spread;
        ] );
      ( "pool",
        [
          Alcotest.test_case "matches serial map" `Quick test_pool_matches_serial;
          Alcotest.test_case "preserves slot order" `Quick
            test_pool_preserves_order;
          Alcotest.test_case "propagates worker exception" `Quick
            test_pool_propagates_exception;
          Alcotest.test_case "rejects jobs=0" `Quick test_pool_invalid_jobs;
          Alcotest.test_case "map_list order" `Quick test_pool_map_list;
          Alcotest.test_case "empty and singleton inputs" `Quick
            test_pool_empty_and_singleton;
          Alcotest.test_case "jobs accessors" `Quick test_pool_jobs_accessor;
        ] );
      ( "bits",
        [
          Alcotest.test_case "flip involution" `Quick test_bits_flip_involution;
          Alcotest.test_case "flip hamming" `Quick test_bits_flip_changes_one_bit;
          Alcotest.test_case "test/set/clear" `Quick test_bits_test_set_clear;
          Alcotest.test_case "popcount" `Quick test_bits_popcount;
          Alcotest.test_case "low_bits" `Quick test_bits_low_bits;
          Alcotest.test_case "bounds" `Quick test_bits_bounds;
          Alcotest.test_case "to_hex" `Quick test_bits_to_hex;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "quantile" `Quick test_stats_quantile;
          Alcotest.test_case "quantile unsorted" `Quick test_stats_quantile_unsorted;
          Alcotest.test_case "box summary" `Quick test_stats_box_summary;
          Alcotest.test_case "cdf" `Quick test_stats_cdf;
          Alcotest.test_case "cdf points monotone" `Quick
            test_stats_cdf_points_monotone;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "percentage breakdown" `Quick
            test_stats_percentage_breakdown;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "bucket mapping" `Quick test_telemetry_buckets;
          Alcotest.test_case "counter round-trip" `Quick test_telemetry_counter;
          Alcotest.test_case "histogram round-trip" `Quick
            test_telemetry_histogram;
          Alcotest.test_case "spans and events" `Quick
            test_telemetry_span_and_events;
          Alcotest.test_case "JSONL export well-formed" `Quick
            test_telemetry_export_jsonl;
          Alcotest.test_case "reset" `Quick test_telemetry_reset;
          Alcotest.test_case "cross-domain merge" `Quick test_telemetry_domains;
          Alcotest.test_case "xentry-telemetry-v1 golden lines" `Quick
            test_telemetry_golden_lines;
        ] );
      ( "json",
        [
          Alcotest.test_case "control bytes, quote and backslash escaped"
            `Quick test_json_escapes_control_bytes;
          Alcotest.test_case "non-finite floats are null" `Quick
            test_json_non_finite_floats;
          Alcotest.test_case "empty and nested values" `Quick
            test_json_structure;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "histogram single value" `Quick
            test_stats_histogram_single_value;
          Alcotest.test_case "quantile invalid" `Quick test_stats_quantile_invalid;
          Alcotest.test_case "minimum/maximum empty" `Quick
            test_stats_min_max_empty;
          Alcotest.test_case "int_in invalid" `Quick test_rng_int_in_invalid;
          Alcotest.test_case "grouped bars" `Quick test_report_grouped_bars_alignment;
          Alcotest.test_case "table pads" `Quick test_report_table_pads_short_rows;
        ] );
      ( "report",
        [
          Alcotest.test_case "table" `Quick test_report_table;
          Alcotest.test_case "bar chart" `Quick test_report_bar_chart;
          Alcotest.test_case "percent" `Quick test_report_percent;
          Alcotest.test_case "box plot row" `Quick test_report_box_plot_row;
          Alcotest.test_case "cdf plot" `Quick test_report_cdf_plot;
        ] );
      ("properties", qsuite);
    ]
