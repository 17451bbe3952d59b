(* Tests for Xentry_store: wire primitives, CRC-32, the artifact
   frame's typed error surface, codecs for every pipeline product, and
   the shard journal's checkpoint/resume semantics. *)

open Xentry_mlearn
open Xentry_core
open Xentry_faultinject
open Xentry_store
module Tm = Xentry_util.Telemetry

(* --- shared fixtures ------------------------------------------------------- *)

let grid_dataset =
  (* XOR-ish grid: non-trivial tree, both classes present. *)
  let samples =
    List.concat_map
      (fun x ->
        List.map
          (fun y ->
            {
              Dataset.features = [| float_of_int x; float_of_int y |];
              label = (if x < 3 = (y < 3) then 0 else 1);
            })
          [ 0; 1; 2; 3; 4; 5 ])
      [ 0; 1; 2; 3; 4; 5 ]
  in
  Dataset.create ~feature_names:[| "x"; "y" |] ~n_classes:2 samples

let small_campaign_config =
  Campaign.Config.make ~benchmark:Xentry_workload.Profile.Postmark
    ~injections:30 ~seed:4242 ()

let campaign_records =
  lazy
    (Campaign.execute
       { small_campaign_config with Campaign.jobs = Some 1 })

let trained_small =
  lazy
    (let collect seed =
       Training.collect ~jobs:1 ~seed
         ~benchmarks:[ Xentry_workload.Profile.Postmark ]
         ~mode:Xentry_workload.Profile.PV ~injections_per_benchmark:400
         ~fault_free_per_benchmark:100 ()
     in
     Training.train_and_evaluate ~train:(collect 11) ~test:(collect 12) ())

let in_temp_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xentry-test-store-%d-%s" (Unix.getpid ()) name)
  in
  let rec rm_rf p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun q -> rm_rf (Filename.concat p q)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- crc32 ----------------------------------------------------------------- *)

let test_crc_known_vectors () =
  (* The standard CRC-32 check value. *)
  Alcotest.(check int32) "check value" 0xCBF43926l (Crc32.digest "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.digest "");
  Alcotest.(check int32) "sub = whole"
    (Crc32.digest "456")
    (Crc32.digest_sub "123456789" ~pos:3 ~len:3)

let test_crc_detects_flip () =
  let base = Crc32.digest "hello, artifact store" in
  Alcotest.(check bool) "flip changes digest" true
    (base <> Crc32.digest "hello, artifact storf")

(* --- wire ------------------------------------------------------------------ *)

let test_wire_primitive_roundtrips () =
  let buf = Buffer.create 64 in
  Wire.u8 buf 0;
  Wire.u8 buf 255;
  Wire.u16 buf 65535;
  Wire.u32 buf 0xDEADBEEF;
  Wire.i64 buf Int64.min_int;
  Wire.int_ buf min_int;
  Wire.int_ buf max_int;
  Wire.f64 buf (-0.0);
  Wire.f64 buf max_float;
  Wire.bool_ buf true;
  Wire.str buf "caf\xc3\xa9";
  Wire.opt Wire.u8 buf None;
  Wire.opt Wire.u8 buf (Some 7);
  Wire.list_ Wire.u16 buf [ 1; 2; 3 ];
  Wire.array_ Wire.f64 buf [| 0.5; 1.0 /. 3.0 |];
  let r = Wire.reader (Buffer.contents buf) in
  Alcotest.(check int) "u8 lo" 0 (Wire.read_u8 r);
  Alcotest.(check int) "u8 hi" 255 (Wire.read_u8 r);
  Alcotest.(check int) "u16" 65535 (Wire.read_u16 r);
  Alcotest.(check int) "u32" 0xDEADBEEF (Wire.read_u32 r);
  Alcotest.(check int64) "i64" Int64.min_int (Wire.read_i64 r);
  Alcotest.(check int) "int min" min_int (Wire.read_int r);
  Alcotest.(check int) "int max" max_int (Wire.read_int r);
  Alcotest.(check int64) "f64 -0.0 bits"
    (Int64.bits_of_float (-0.0))
    (Int64.bits_of_float (Wire.read_f64 r));
  Alcotest.(check (float 0.0)) "f64 max" max_float (Wire.read_f64 r);
  Alcotest.(check bool) "bool" true (Wire.read_bool r);
  Alcotest.(check string) "str" "caf\xc3\xa9" (Wire.read_str r);
  Alcotest.(check (option int)) "opt none" None (Wire.read_opt Wire.read_u8 r);
  Alcotest.(check (option int)) "opt some" (Some 7)
    (Wire.read_opt Wire.read_u8 r);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Wire.read_list Wire.read_u16 r);
  Alcotest.(check bool) "array" true
    ([| 0.5; 1.0 /. 3.0 |] = Wire.read_array Wire.read_f64 r);
  Wire.expect_end r

let expect_corrupt name f =
  Alcotest.(check bool) name true
    (match f () with exception Wire.Corrupt _ -> true | _ -> false)

let test_wire_rejects_malformed () =
  expect_corrupt "truncated u32" (fun () -> Wire.read_u32 (Wire.reader "ab"));
  expect_corrupt "trailing bytes" (fun () ->
      let r = Wire.reader "ab" in
      ignore (Wire.read_u8 r);
      Wire.expect_end r);
  (* A list header claiming more elements than bytes remain must be
     rejected up front, not by attempting a giant allocation. *)
  let buf = Buffer.create 8 in
  Wire.u32 buf 0xFFFFFF;
  expect_corrupt "oversized count" (fun () ->
      Wire.read_list Wire.read_u8 (Wire.reader (Buffer.contents buf)));
  expect_corrupt "bad bool" (fun () -> Wire.read_bool (Wire.reader "\x02"))

let test_wire_list_order () =
  let buf = Buffer.create 16 in
  Wire.list_ Wire.u8 buf [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5 ]
    (Wire.read_list Wire.read_u8 (Wire.reader (Buffer.contents buf)))

(* --- codecs ---------------------------------------------------------------- *)

let roundtrip codec v = Artifact.decode codec (Artifact.encode codec v)

let check_roundtrip name codec v =
  match roundtrip codec v with
  | Ok v' -> Alcotest.(check bool) (name ^ " round-trips") true (v = v')
  | Error e -> Alcotest.failf "%s: %s" name (Artifact.error_message e)

let test_codec_records () =
  check_roundtrip "records" Codec.outcome_records (Lazy.force campaign_records)

let test_codec_records_empty () =
  check_roundtrip "empty records" Codec.outcome_records []

let test_codec_dataset () = check_roundtrip "dataset" Codec.dataset grid_dataset

let test_codec_tree () =
  check_roundtrip "tree" Codec.tree (Tree.train grid_dataset)

let test_codec_forest () =
  let forest = Forest.train ~trees:5 ~seed:9 grid_dataset in
  match roundtrip Codec.forest forest with
  | Error e -> Alcotest.fail (Artifact.error_message e)
  | Ok back ->
      Alcotest.(check int) "size" (Forest.size forest) (Forest.size back);
      Alcotest.(check int) "classes" (Forest.n_classes forest)
        (Forest.n_classes back);
      Alcotest.(check bool) "members" true
        (Forest.trees forest = Forest.trees back)

let detector_equal a b =
  Transition_detector.classifier a = Transition_detector.classifier b

let test_codec_detector_variants () =
  let tree = Tree.train grid_dataset in
  let variants =
    [
      Transition_detector.of_tree tree;
      Transition_detector.with_threshold tree ~min_incorrect_probability:0.25;
      Transition_detector.create
        (Transition_detector.Ensemble (Forest.train ~trees:3 ~seed:4 grid_dataset));
    ]
  in
  List.iter
    (fun det ->
      match roundtrip Codec.detector det with
      | Ok back ->
          Alcotest.(check bool) "detector round-trips" true
            (detector_equal det back)
      | Error e -> Alcotest.fail (Artifact.error_message e))
    variants

let test_codec_trained () =
  let trained = Lazy.force trained_small in
  check_roundtrip "corpus" Codec.corpus trained.Training.train_corpus;
  check_roundtrip "trained" Codec.trained trained

(* --- artifact frame -------------------------------------------------------- *)

let error_label = function
  | Artifact.Io_error _ -> "io"
  | Artifact.Bad_magic -> "magic"
  | Artifact.Wrong_kind _ -> "kind"
  | Artifact.Version_skew _ -> "version"
  | Artifact.Truncated -> "truncated"
  | Artifact.Crc_mismatch _ -> "crc"
  | Artifact.Malformed _ -> "malformed"

let check_error name expected = function
  | Ok _ -> Alcotest.failf "%s: expected %s error, got Ok" name expected
  | Error e -> Alcotest.(check string) name expected (error_label e)

let test_artifact_save_load () =
  in_temp_dir "save-load" (fun dir ->
      let path = Filename.concat dir "tree.xart" in
      let tree = Tree.train grid_dataset in
      Artifact.save Codec.tree path tree;
      Alcotest.(check bool) "no temp residue" false
        (Sys.file_exists (path ^ ".tmp"));
      match Artifact.load Codec.tree path with
      | Ok back -> Alcotest.(check bool) "identical" true (tree = back)
      | Error e -> Alcotest.fail (Artifact.error_message e))

let test_artifact_missing_file () =
  check_error "missing file" "io"
    (Artifact.load Codec.tree "/nonexistent/path/tree.xart")

let test_artifact_bad_magic () =
  let data = Artifact.encode Codec.dataset grid_dataset in
  let b = Bytes.of_string data in
  Bytes.set b 0 'Y';
  check_error "bad magic" "magic" (Artifact.decode Codec.dataset (Bytes.to_string b))

let test_artifact_wrong_kind () =
  let data = Artifact.encode Codec.dataset grid_dataset in
  check_error "wrong kind" "kind" (Artifact.decode Codec.tree data)

let test_artifact_version_skew () =
  let vnext = { Codec.dataset with Codec.version = Codec.dataset.Codec.version + 1 } in
  let data = Artifact.encode vnext grid_dataset in
  match Artifact.decode Codec.dataset data with
  | Error (Artifact.Version_skew { kind; expected; found }) ->
      Alcotest.(check string) "kind" Codec.dataset.Codec.kind kind;
      Alcotest.(check int) "expected" Codec.dataset.Codec.version expected;
      Alcotest.(check int) "found" (Codec.dataset.Codec.version + 1) found
  | Error e -> Alcotest.failf "wrong error: %s" (Artifact.error_message e)
  | Ok _ -> Alcotest.fail "version skew accepted"

let test_codec_version_bumps () =
  (* The fault-model widening (fault classes, non-register targets)
     re-shaped the record image; the version bump turns old artifacts
     into typed skew errors instead of silently misparsed data. *)
  Alcotest.(check int) "records codec at v2" 2 Codec.outcome_records.Codec.version;
  let skew name codec v =
    let vprev = { codec with Codec.version = codec.Codec.version - 1 } in
    let data = Artifact.encode vprev v in
    match Artifact.decode codec data with
    | Error (Artifact.Version_skew { expected; found; _ }) ->
        Alcotest.(check int) (name ^ " expected") codec.Codec.version expected;
        Alcotest.(check int) (name ^ " found") (codec.Codec.version - 1) found
    | Error e ->
        Alcotest.failf "%s: wrong error %s" name (Artifact.error_message e)
    | Ok _ -> Alcotest.failf "%s: version skew accepted" name
  in
  skew "records" Codec.outcome_records (Lazy.force campaign_records)

let test_artifact_truncation_sweep () =
  let data = Artifact.encode Codec.tree (Tree.train grid_dataset) in
  let n = String.length data in
  for len = 0 to n - 1 do
    match Artifact.decode Codec.tree (String.sub data 0 len) with
    | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" len
    | Error (Artifact.Truncated | Artifact.Crc_mismatch _) -> ()
    | Error e ->
        Alcotest.failf "truncation to %d: unexpected %s" len
          (Artifact.error_message e)
  done

let test_artifact_flip_sweep () =
  (* Flipping any single byte anywhere in the frame must yield a typed
     error — never Ok, never an exception. *)
  let data = Artifact.encode Codec.tree (Tree.train grid_dataset) in
  for i = 0 to String.length data - 1 do
    let b = Bytes.of_string data in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
    match Artifact.decode Codec.tree (Bytes.to_string b) with
    | Ok _ -> Alcotest.failf "flipped byte %d accepted" i
    | Error _ -> ()
    | exception e ->
        Alcotest.failf "flipped byte %d escaped as exception %s" i
          (Printexc.to_string e)
  done

let test_artifact_crc_reported () =
  let data = Artifact.encode Codec.dataset grid_dataset in
  let b = Bytes.of_string data in
  (* Corrupt the final CRC field itself. *)
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  check_error "crc mismatch" "crc" (Artifact.decode Codec.dataset (Bytes.to_string b))

(* --- journal --------------------------------------------------------------- *)

let test_journal_commit_lookup () =
  in_temp_dir "journal" (fun dir ->
      let records = Lazy.force campaign_records in
      match Journal.open_ ~dir:(Filename.concat dir "j") ~fingerprint:"fp-1" with
      | Error e -> Alcotest.fail (Journal.open_error_message e)
      | Ok j ->
          Alcotest.(check (option reject)) "absent" None (Journal.lookup j 0);
          Journal.commit j 0 records;
          Journal.commit j 3 [];
          (match Journal.lookup j 0 with
          | Some back ->
              Alcotest.(check bool) "bit-identical" true (back = records)
          | None -> Alcotest.fail "committed shard not found");
          Alcotest.(check (list int)) "present" [ 0; 3 ]
            (Journal.shards_present j))

let test_journal_reopen_fingerprint () =
  in_temp_dir "reopen" (fun dir ->
      let jdir = Filename.concat dir "j" in
      (match Journal.open_ ~dir:jdir ~fingerprint:"fp-a" with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Journal.open_error_message e));
      (match Journal.open_ ~dir:jdir ~fingerprint:"fp-a" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "same fingerprint refused: %s"
            (Journal.open_error_message e));
      match Journal.open_ ~dir:jdir ~fingerprint:"fp-b" with
      | Error (Journal.Fingerprint_mismatch { expected; found; _ }) ->
          Alcotest.(check string) "expected" "fp-b" expected;
          Alcotest.(check string) "found" "fp-a" found
      | Error e -> Alcotest.failf "wrong error: %s" (Journal.open_error_message e)
      | Ok _ -> Alcotest.fail "different campaign's journal accepted")

let test_journal_corrupt_shard_dropped () =
  in_temp_dir "corrupt" (fun dir ->
      let jdir = Filename.concat dir "j" in
      match Journal.open_ ~dir:jdir ~fingerprint:"fp" with
      | Error e -> Alcotest.fail (Journal.open_error_message e)
      | Ok j ->
          Journal.commit j 0 (Lazy.force campaign_records);
          let path = Journal.shard_file ~dir:jdir 0 in
          let data = In_channel.with_open_bin path In_channel.input_all in
          let b = Bytes.of_string data in
          Bytes.set b (Bytes.length b / 2)
            (Char.chr (Char.code (Bytes.get b (Bytes.length b / 2)) lxor 0xFF));
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_bytes oc b);
          Alcotest.(check (option reject)) "corrupt shard dropped" None
            (Journal.lookup j 0);
          Alcotest.(check (list int)) "not present" [] (Journal.shards_present j))

let test_journal_wrong_index_dropped () =
  in_temp_dir "misfile" (fun dir ->
      let jdir = Filename.concat dir "j" in
      match Journal.open_ ~dir:jdir ~fingerprint:"fp" with
      | Error e -> Alcotest.fail (Journal.open_error_message e)
      | Ok j ->
          Journal.commit j 2 (Lazy.force campaign_records);
          (* A shard payload renamed to another index must not replay. *)
          Sys.rename (Journal.shard_file ~dir:jdir 2)
            (Journal.shard_file ~dir:jdir 5);
          Alcotest.(check (option reject)) "misfiled shard dropped" None
            (Journal.lookup j 5))

let test_campaign_fingerprint_sensitivity () =
  let base = small_campaign_config in
  let fp = Journal.campaign_fingerprint in
  Alcotest.(check string) "deterministic" (fp base) (fp base);
  List.iter
    (fun (name, variant) ->
      Alcotest.(check bool) (name ^ " changes fingerprint") true
        (fp base <> fp variant))
    [
      ("seed", { base with Campaign.seed = base.Campaign.seed + 1 });
      ("size", { base with Campaign.injections = base.Campaign.injections + 1 });
      ("fuel", { base with Campaign.fuel = base.Campaign.fuel + 1 });
      ("hardened", { base with Campaign.hardened = true });
      ( "benchmark",
        { base with Campaign.benchmark = Xentry_workload.Profile.Mcf } );
      ( "detector",
        {
          base with
          Campaign.detector =
            Some (Detector.v0 (Transition_detector.of_tree (Tree.train grid_dataset)));
        } );
    ];
  (* [jobs] is execution-only: any worker count produces bit-identical
     records, so it must not invalidate a journal. *)
  List.iter
    (fun jobs ->
      Alcotest.(check string) "jobs does not change the fingerprint" (fp base)
        (fp { base with Campaign.jobs }))
    [ Some 1; Some 4; None ]

let test_checkpoint_resume_bit_identical () =
  (* For jobs in {1, 4}: a campaign journaled cold, replayed warm, and
     resumed after losing shards must merge to records bit-identical
     to an uninterrupted run. *)
  let config =
    Campaign.Config.make ~benchmark:Xentry_workload.Profile.Postmark
      ~injections:300 ~seed:77 ()
  in
  let plain = Campaign.execute { config with Campaign.jobs = Some 1 } in
  List.iter
    (fun jobs ->
      in_temp_dir (Printf.sprintf "resume-j%d" jobs) (fun dir ->
          let jdir = Filename.concat dir "ckpt" in
          let checkpoint () =
            match Journal.for_campaign ~dir:jdir config with
            | Ok cp -> cp
            | Error e -> Alcotest.fail (Journal.open_error_message e)
          in
          let cold =
            Campaign.execute ~checkpoint:(checkpoint ())
              { config with Campaign.jobs = Some jobs }
          in
          Alcotest.(check bool)
            (Printf.sprintf "cold jobs=%d" jobs)
            true (cold = plain);
          let warm =
            Campaign.execute ~checkpoint:(checkpoint ())
              { config with Campaign.jobs = Some jobs }
          in
          Alcotest.(check bool)
            (Printf.sprintf "warm jobs=%d" jobs)
            true (warm = plain);
          (* Lose the middle shard and resume. *)
          Sys.remove (Journal.shard_file ~dir:jdir 1);
          let resumed =
            Campaign.execute ~checkpoint:(checkpoint ())
              { config with Campaign.jobs = Some jobs }
          in
          Alcotest.(check bool)
            (Printf.sprintf "resumed jobs=%d" jobs)
            true (resumed = plain)))
    [ 1; 4 ]

let test_journal_telemetry_counters () =
  in_temp_dir "telemetry" (fun dir ->
      Tm.reset ();
      Tm.enable ();
      Fun.protect ~finally:Tm.disable (fun () ->
          let skipped = Tm.counter "store.journal.shards_skipped" in
          let committed = Tm.counter "store.journal.shards_committed" in
          let config =
            Campaign.Config.make ~jobs:1
              ~benchmark:Xentry_workload.Profile.Postmark ~injections:200
              ~seed:5 ()
          in
          let jdir = Filename.concat dir "ckpt" in
          let checkpoint () =
            match Journal.for_campaign ~dir:jdir config with
            | Ok cp -> cp
            | Error e -> Alcotest.fail (Journal.open_error_message e)
          in
          ignore (Campaign.execute ~checkpoint:(checkpoint ()) config);
          Alcotest.(check int) "committed" 2 (Tm.counter_value committed);
          Alcotest.(check int) "none skipped" 0 (Tm.counter_value skipped);
          ignore (Campaign.execute ~checkpoint:(checkpoint ()) config);
          Alcotest.(check int) "no extra commits" 2 (Tm.counter_value committed);
          Alcotest.(check int) "all skipped" 2 (Tm.counter_value skipped)))

(* --- detector persistence: saved = live, verdict for verdict -------------- *)

let test_saved_detector_identical_verdicts () =
  in_temp_dir "detector" (fun dir ->
      let trained = Lazy.force trained_small in
      let det = Training.detector ~version:7 trained in
      let path = Filename.concat dir "det.xart" in
      Artifact.save Codec.versioned_detector path det;
      match Artifact.load Codec.versioned_detector path with
      | Error e -> Alcotest.fail (Artifact.error_message e)
      | Ok loaded ->
          Alcotest.(check int) "version survives" 7 (Detector.version loaded);
          Alcotest.(check bool) "origin survives" true
            (Detector.origin loaded = Detector.origin det);
          Alcotest.(check int) "corpus size survives"
            (Detector.trained_on det) (Detector.trained_on loaded);
          let test_ds = trained.Training.test_corpus.Training.dataset in
          Alcotest.(check bool) "test corpus non-empty" true
            (Dataset.length test_ds > 0);
          Array.iter
            (fun s ->
              let v, c = Detector.classify_features det s.Dataset.features in
              let v', c' = Detector.classify_features loaded s.Dataset.features in
              if v <> v' || c <> c' then
                Alcotest.fail "loaded detector diverged from live one")
            (Dataset.samples test_ds))

(* --- lifecycle codecs: versioned detectors and Pareto fronts --------------- *)

let versioned_fixture () =
  Detector.make ~version:5 ~origin:Detector.Streamed ~trained_on:321
    (Transition_detector.of_tree (Tree.train grid_dataset))

let front_fixture () =
  let open Xentry_core.Pipeline in
  let point label detection knob coverage fp_rate overhead comparisons =
    { Pareto.label; detection; knob; coverage; fp_rate; overhead; comparisons }
  in
  Pareto.make ~source_version:5
    [
      point "full" full_detection Detector.Stock 0.9 0.01 5e-7 24;
      point "depth4" full_detection (Detector.Depth 4) 0.85 0.008 4e-7 4;
      point "tau90" full_detection (Detector.Threshold 0.9) 0.8 0.002 4.5e-7 24;
      point "runtime_only" runtime_only Detector.Stock 0.6 0.0 2e-7 0;
      (* dominated: same cost as depth4, worse everywhere else *)
      point "dominated" runtime_only (Detector.Depth 2) 0.3 0.05 4e-7 2;
    ]

let test_codec_versioned_detector () =
  let det = versioned_fixture () in
  match roundtrip Codec.versioned_detector det with
  | Error e -> Alcotest.fail (Artifact.error_message e)
  | Ok back ->
      Alcotest.(check int) "version" 5 (Detector.version back);
      Alcotest.(check bool) "origin" true
        (Detector.origin back = Detector.Streamed);
      Alcotest.(check int) "trained_on" 321 (Detector.trained_on back);
      Alcotest.(check bool) "model round-trips" true
        (detector_equal (Detector.model det) (Detector.model back))

let test_codec_pareto () =
  let front = front_fixture () in
  Alcotest.(check bool) "fixture front is non-trivial" true
    (List.length front.Pareto.points >= 3);
  match roundtrip Codec.pareto front with
  | Error e -> Alcotest.fail (Artifact.error_message e)
  | Ok back -> Alcotest.(check bool) "front round-trips" true (front = back)

(* Version-skew both ways across the detector artifact generations: an
   old reader meeting a lifecycle (v2) artifact and a lifecycle reader
   meeting a legacy (v1) artifact must each get a typed
   [Version_skew], never a misparse. *)
let test_detector_codec_version_skew () =
  let versioned = versioned_fixture () in
  let legacy = Transition_detector.of_tree (Tree.train grid_dataset) in
  (match Artifact.decode Codec.detector (Artifact.encode Codec.versioned_detector versioned) with
  | Error (Artifact.Version_skew { kind; expected; found }) ->
      Alcotest.(check string) "kind" "detector" kind;
      Alcotest.(check int) "old reader expected v1" 1 expected;
      Alcotest.(check int) "old reader found v2" 2 found
  | Error e -> Alcotest.failf "wrong error: %s" (Artifact.error_message e)
  | Ok _ -> Alcotest.fail "old reader accepted a lifecycle artifact");
  match Artifact.decode Codec.versioned_detector (Artifact.encode Codec.detector legacy) with
  | Error (Artifact.Version_skew { kind; expected; found }) ->
      Alcotest.(check string) "kind" "detector" kind;
      Alcotest.(check int) "new reader expected v2" 2 expected;
      Alcotest.(check int) "new reader found v1" 1 found
  | Error e -> Alcotest.failf "wrong error: %s" (Artifact.error_message e)
  | Ok _ -> Alcotest.fail "new reader silently read a legacy artifact"

(* Every-byte flip sweep over the two lifecycle codecs: any single
   corrupted byte must surface as a typed error, never Ok and never an
   exception (same guarantee the tree codec already pins). *)
let flip_sweep name codec v =
  let data = Artifact.encode codec v in
  for i = 0 to String.length data - 1 do
    let b = Bytes.of_string data in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
    match Artifact.decode codec (Bytes.to_string b) with
    | Ok _ -> Alcotest.failf "%s: flipped byte %d accepted" name i
    | Error _ -> ()
    | exception e ->
        Alcotest.failf "%s: flipped byte %d escaped as exception %s" name i
          (Printexc.to_string e)
  done

let test_lifecycle_codec_flip_sweeps () =
  flip_sweep "versioned detector" Codec.versioned_detector
    (versioned_fixture ());
  flip_sweep "pareto" Codec.pareto (front_fixture ())

(* --------------------------------------------------------------------------- *)

let () =
  Alcotest.run "xentry_store"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc_known_vectors;
          Alcotest.test_case "detects flip" `Quick test_crc_detects_flip;
        ] );
      ( "wire",
        [
          Alcotest.test_case "primitive roundtrips" `Quick
            test_wire_primitive_roundtrips;
          Alcotest.test_case "rejects malformed" `Quick
            test_wire_rejects_malformed;
          Alcotest.test_case "list order" `Quick test_wire_list_order;
        ] );
      ( "codec",
        [
          Alcotest.test_case "records" `Quick test_codec_records;
          Alcotest.test_case "empty records" `Quick test_codec_records_empty;
          Alcotest.test_case "dataset" `Quick test_codec_dataset;
          Alcotest.test_case "tree" `Quick test_codec_tree;
          Alcotest.test_case "forest" `Quick test_codec_forest;
          Alcotest.test_case "detector variants" `Quick
            test_codec_detector_variants;
          Alcotest.test_case "corpus and trained" `Quick test_codec_trained;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "save/load" `Quick test_artifact_save_load;
          Alcotest.test_case "missing file" `Quick test_artifact_missing_file;
          Alcotest.test_case "bad magic" `Quick test_artifact_bad_magic;
          Alcotest.test_case "wrong kind" `Quick test_artifact_wrong_kind;
          Alcotest.test_case "version skew" `Quick test_artifact_version_skew;
          Alcotest.test_case "v2 codec version bumps" `Quick
            test_codec_version_bumps;
          Alcotest.test_case "truncation sweep" `Quick
            test_artifact_truncation_sweep;
          Alcotest.test_case "flip sweep" `Quick test_artifact_flip_sweep;
          Alcotest.test_case "crc reported" `Quick test_artifact_crc_reported;
        ] );
      ( "journal",
        [
          Alcotest.test_case "commit/lookup" `Quick test_journal_commit_lookup;
          Alcotest.test_case "reopen fingerprint" `Quick
            test_journal_reopen_fingerprint;
          Alcotest.test_case "corrupt shard dropped" `Quick
            test_journal_corrupt_shard_dropped;
          Alcotest.test_case "wrong index dropped" `Quick
            test_journal_wrong_index_dropped;
          Alcotest.test_case "fingerprint sensitivity" `Quick
            test_campaign_fingerprint_sensitivity;
          Alcotest.test_case "resume bit-identical" `Quick
            test_checkpoint_resume_bit_identical;
          Alcotest.test_case "telemetry counters" `Quick
            test_journal_telemetry_counters;
        ] );
      ( "detector",
        [
          Alcotest.test_case "saved = live verdicts" `Quick
            test_saved_detector_identical_verdicts;
          Alcotest.test_case "versioned detector codec" `Quick
            test_codec_versioned_detector;
          Alcotest.test_case "pareto codec" `Quick test_codec_pareto;
          Alcotest.test_case "cross-generation version skew" `Quick
            test_detector_codec_version_skew;
          Alcotest.test_case "lifecycle codec flip sweeps" `Quick
            test_lifecycle_codec_flip_sweeps;
        ] );
    ]
