(* Tests for Xentry_cluster: the CRC-framed wire protocol (round-trips,
   chunked incremental decoding, corruption sweeps in the style of the
   artifact-store harness), the coordinator's lease table, and the
   serve front tier's consistent-hash ring. *)

open Xentry_cluster
module Campaign = Xentry_faultinject.Campaign
module Profile = Xentry_workload.Profile
module Pipeline = Xentry_core.Pipeline
module Request = Xentry_vmm.Request
module Exit_reason = Xentry_vmm.Exit_reason

(* --- fixtures -------------------------------------------------------------- *)

let grid_dataset =
  let open Xentry_mlearn in
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

let tiny_detector =
  lazy
    (Xentry_core.Detector.make ~version:3 ~origin:Xentry_core.Detector.Streamed
       ~trained_on:36
       (Xentry_core.Transition_detector.of_tree
          (Xentry_mlearn.Tree.train grid_dataset)))

let small_config =
  Campaign.Config.make ~benchmark:Profile.Postmark ~injections:30 ~seed:4242 ()

let small_records =
  lazy (Campaign.execute { small_config with Campaign.jobs = Some 1 })

let sample_request =
  Request.make ~reason:(Option.get (Exit_reason.of_id 3))
    ~args:[ 7L; 99L ] ~guest:[ 1L; 2L; 3L ]

let sample_msgs () =
  [
    Protocol.Hello { jobs = 4 };
    Protocol.Campaign_spec small_config;
    Protocol.Campaign_spec
      {
        small_config with
        Campaign.mode = Profile.HVM;
        Campaign.hardened = true;
        Campaign.prune = false;
        Campaign.detector = Some (Lazy.force tiny_detector);
      };
    Protocol.Lease [ 0; 3; 17 ];
    Protocol.Lease [];
    Protocol.Shard_result { shard = 2; records = Lazy.force small_records };
    Protocol.Serve_spec
      {
        worker_index = 1;
        seed = 99;
        pipeline =
          Pipeline.Config.make ~detector:(Lazy.force tiny_detector) ();
      };
    Protocol.Serve_request { seq = 12345; req = sample_request };
    Protocol.Serve_response { seq = 12345; detected = true; shed = false };
    Protocol.Detector_push (Lazy.force tiny_detector);
    Protocol.Detector_ack { worker_index = 1; version = 3 };
    Protocol.Drain;
    Protocol.Telemetry_drain "{\"counters\":{}}";
    Protocol.Bye;
  ]

let decode_all frames =
  let d = Protocol.decoder () in
  Protocol.feed d frames;
  let rec go acc =
    match Protocol.next d with
    | Ok (Some m) -> go (m :: acc)
    | Ok None -> List.rev acc
    | Error e -> Alcotest.failf "decode error: %s" (Protocol.error_message e)
  in
  let msgs = go [] in
  (match Protocol.finish d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "finish error: %s" (Protocol.error_message e));
  msgs

(* Structural equality is unreliable for messages carrying big nested
   values; the canonical encoding is the equality that matters on the
   wire anyway. *)
let check_roundtrip m =
  match decode_all (Protocol.encode m) with
  | [ m' ] ->
      Alcotest.(check bool)
        "re-encoding identical" true
        (String.equal (Protocol.encode m) (Protocol.encode m'))
  | l -> Alcotest.failf "expected 1 message, got %d" (List.length l)

(* --- protocol: pinned frames ----------------------------------------------- *)

(* The exact bytes of the four serve-path frames, taken when the
   protocol still carried its own detection-set and exit-reason
   encoders and a flat [Serve_spec].  Moving those onto
   [Xentry_store.Codec]'s encoders and a [Pipeline.Config.t] must not
   move a byte. *)
let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let test_frame_pins () =
  let pin name expected m =
    Alcotest.(check string) name expected (hex (Protocol.encode m))
  in
  pin "Hello" "5843463109000000010400000000000000be1a22a8"
    (Protocol.Hello { jobs = 4 });
  pin "Serve_spec"
    "584346315300000005010000000000000063000000000000000101000101030000000000\
     000001240000000000000000020000000100000078010000007902000000000000000000\
     00e03f2400000000000000204e000000000000290a1263"
    (Protocol.Serve_spec
       {
         worker_index = 1;
         seed = 99;
         pipeline =
           Pipeline.Config.make ~detection:Pipeline.runtime_only
             ~detector:(Lazy.force tiny_detector) ();
       });
  pin "Serve_request"
    "584346318300000006393000000000000003000800000007000000000000006300000000\
     000000000000000000000000000000000000000000000000000000000000000000000000\
     000000000000000000000000000000060000000100000000000000020000000000000003\
     00000000000000000000000000000000000000000000000000000000000000c1e75e18"
    (Protocol.Serve_request { seq = 12345; req = sample_request });
  pin "Serve_response" "584346310b00000007393000000000000001005843e92c"
    (Protocol.Serve_response { seq = 12345; detected = true; shed = false })

(* --- protocol: round trips ------------------------------------------------- *)

let test_roundtrip_each () = List.iter check_roundtrip (sample_msgs ())

let test_roundtrip_stream () =
  let msgs = sample_msgs () in
  let stream = String.concat "" (List.map Protocol.encode msgs) in
  let decoded = decode_all stream in
  Alcotest.(check int) "count" (List.length msgs) (List.length decoded);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        "same bytes" true
        (String.equal (Protocol.encode a) (Protocol.encode b)))
    msgs decoded

let test_config_strips_jobs () =
  let m = Protocol.Campaign_spec { small_config with Campaign.jobs = Some 7 } in
  match decode_all (Protocol.encode m) with
  | [ Protocol.Campaign_spec c ] ->
      Alcotest.(check bool) "jobs = None" true (c.Campaign.jobs = None)
  | _ -> Alcotest.fail "bad decode"

(* --- protocol: incremental decoding --------------------------------------- *)

let chunk_split rng s =
  (* Split [s] into random-size chunks, 1..7 bytes. *)
  let rec go pos acc =
    if pos >= String.length s then List.rev acc
    else
      let len = min (1 + Random.State.int rng 7) (String.length s - pos) in
      go (pos + len) (String.sub s pos len :: acc)
  in
  go 0 []

let prop_chunked_decode =
  QCheck.Test.make ~name:"frames survive arbitrary chunking" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let msgs =
        [
          Protocol.Hello { jobs = 1 + Random.State.int rng 16 };
          Protocol.Lease (List.init (Random.State.int rng 5) Fun.id);
          Protocol.Serve_request
            { seq = Random.State.int rng 100_000; req = sample_request };
          Protocol.Bye;
        ]
      in
      let stream = String.concat "" (List.map Protocol.encode msgs) in
      let d = Protocol.decoder () in
      let decoded = ref [] in
      List.iter
        (fun chunk ->
          Protocol.feed d chunk;
          let rec drain () =
            match Protocol.next d with
            | Ok (Some m) ->
                decoded := m :: !decoded;
                drain ()
            | Ok None -> ()
            | Error e ->
                QCheck.Test.fail_reportf "decode error: %s"
                  (Protocol.error_message e)
          in
          drain ())
        (chunk_split rng stream);
      Protocol.finish d = Ok ()
      && List.for_all2
           (fun a b -> String.equal (Protocol.encode a) (Protocol.encode b))
           msgs
           (List.rev !decoded))

let test_truncation_sweep () =
  (* Every proper prefix of a frame: no message, no garbage — just
     "need more", then a typed Truncated at end-of-stream. *)
  let frame = Protocol.encode (Protocol.Lease [ 1; 2; 3 ]) in
  for len = 1 to String.length frame - 1 do
    let d = Protocol.decoder () in
    Protocol.feed d (String.sub frame 0 len);
    (match Protocol.next d with
    | Ok None -> ()
    | Ok (Some _) -> Alcotest.failf "prefix %d decoded a message" len
    | Error e ->
        Alcotest.failf "prefix %d: unexpected %s" len (Protocol.error_message e));
    match Protocol.finish d with
    | Error Protocol.Truncated -> ()
    | Error e ->
        Alcotest.failf "prefix %d finish: unexpected %s" len
          (Protocol.error_message e)
    | Ok () -> Alcotest.failf "prefix %d finish accepted" len
  done

let test_flip_sweep () =
  (* Flipping any byte of a frame must never deliver a message: a
     typed error now, or "need more" resolving to Truncated at EOF. *)
  let frame = Protocol.encode (Protocol.Shard_result { shard = 5; records = [] })
  in
  for i = 0 to String.length frame - 1 do
    let b = Bytes.of_string frame in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    let d = Protocol.decoder () in
    Protocol.feed d (Bytes.to_string b);
    match Protocol.next d with
    | Ok (Some _) -> Alcotest.failf "flipped byte %d delivered a message" i
    | Error _ -> ()
    | Ok None -> (
        match Protocol.finish d with
        | Ok () -> Alcotest.failf "flipped byte %d accepted at EOF" i
        | Error _ -> ())
    | exception e ->
        Alcotest.failf "flipped byte %d escaped as %s" i (Printexc.to_string e)
  done

let test_error_poisons () =
  let d = Protocol.decoder () in
  Protocol.feed d "definitely not a frame";
  (match Protocol.next d with
  | Error Protocol.Bad_magic -> ()
  | _ -> Alcotest.fail "expected Bad_magic");
  (* Feeding a pristine frame afterwards must not resurrect it. *)
  Protocol.feed d (Protocol.encode Protocol.Bye);
  match Protocol.next d with
  | Error Protocol.Bad_magic -> ()
  | _ -> Alcotest.fail "poisoned decoder came back to life"

let test_oversized_rejected () =
  (* Hand-forge a header announcing an absurd payload: the decoder
     must reject it from the header alone, without waiting for (or
     allocating) the bytes. *)
  let buf = Buffer.create 16 in
  Buffer.add_string buf "XCF1";
  Buffer.add_int32_le buf 0x7FFFFFFFl;
  let d = Protocol.decoder () in
  Protocol.feed d (Buffer.contents buf);
  match Protocol.next d with
  | Error (Protocol.Oversized _) -> ()
  | _ -> Alcotest.fail "expected Oversized"

let prop_garbage_never_crashes =
  QCheck.Test.make ~name:"random garbage yields typed errors, not exceptions"
    ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
    (fun garbage ->
      let d = Protocol.decoder () in
      Protocol.feed d garbage;
      let rec drain () =
        match Protocol.next d with
        | Ok (Some _) -> drain ()
        | Ok None -> ignore (Protocol.finish d : (unit, Protocol.error) result)
        | Error _ -> ()
      in
      drain ();
      true)

(* --- lease table ----------------------------------------------------------- *)

let test_lease_claims_lowest () =
  let t = Lease.create 5 in
  Alcotest.(check (list int)) "first" [ 0; 1 ] (Lease.claim t ~worker:1 ~max:2);
  Alcotest.(check (list int)) "next" [ 2; 3 ] (Lease.claim t ~worker:2 ~max:2);
  Alcotest.(check (list int)) "tail" [ 4 ] (Lease.claim t ~worker:1 ~max:2);
  Alcotest.(check (list int)) "empty" [] (Lease.claim t ~worker:3 ~max:2);
  Alcotest.(check int) "all out" 0 (Lease.pending t);
  Alcotest.(check int) "none done" 5 (Lease.outstanding t)

let test_lease_complete_and_duplicates () =
  let t = Lease.create 3 in
  ignore (Lease.claim t ~worker:1 ~max:3 : int list);
  Alcotest.(check bool) "commit" true (Lease.complete t 1 = `Committed);
  Alcotest.(check bool) "dup" true (Lease.complete t 1 = `Duplicate);
  Alcotest.(check int) "two left" 2 (Lease.outstanding t);
  Alcotest.(check bool) "not finished" false (Lease.finished t);
  ignore (Lease.complete t 0 : [ `Committed | `Duplicate ]);
  ignore (Lease.complete t 2 : [ `Committed | `Duplicate ]);
  Alcotest.(check bool) "finished" true (Lease.finished t)

let test_lease_release_reissues () =
  let t = Lease.create 4 in
  ignore (Lease.claim t ~worker:1 ~max:2 : int list);
  ignore (Lease.claim t ~worker:2 ~max:2 : int list);
  ignore (Lease.complete t 0 : [ `Committed | `Duplicate ]);
  (* Worker 1 dies holding shard 1; worker 2 holds 2 and 3. *)
  Alcotest.(check (list int)) "released" [ 1 ] (Lease.release t ~worker:1);
  Alcotest.(check (list int))
    "reissued to survivor" [ 1 ]
    (Lease.claim t ~worker:2 ~max:4);
  (* A late result for the released shard still commits exactly once. *)
  Alcotest.(check bool) "commit" true (Lease.complete t 1 = `Committed);
  Alcotest.(check bool) "dup" true (Lease.complete t 1 = `Duplicate)

(* --- ring ------------------------------------------------------------------ *)

let test_ring_deterministic () =
  let mk () =
    let r = Ring.create () in
    List.iter (Ring.add r) [ 0; 1; 2 ];
    r
  in
  let a = mk () and b = mk () in
  for i = 0 to 99 do
    let key = Printf.sprintf "stream:%d" i in
    Alcotest.(check (option int)) key (Ring.lookup a key) (Ring.lookup b key)
  done

let test_ring_empty_and_single () =
  let r = Ring.create () in
  Alcotest.(check (option int)) "empty" None (Ring.lookup r "x");
  Ring.add r 7;
  Alcotest.(check (option int)) "single" (Some 7) (Ring.lookup r "x");
  Ring.remove r 7;
  Alcotest.(check (option int)) "empty again" None (Ring.lookup r "x")

let prop_ring_removal_is_local =
  QCheck.Test.make
    ~name:"removing a member only remaps that member's keys" ~count:50
    QCheck.(pair (int_bound 1000) (int_range 2 6))
    (fun (key_seed, members) ->
      let r = Ring.create () in
      for m = 0 to members - 1 do
        Ring.add r m
      done;
      let keys =
        List.init 50 (fun i -> Printf.sprintf "key:%d:%d" key_seed i)
      in
      let before = List.map (fun k -> (k, Ring.lookup r k)) keys in
      let victim = key_seed mod members in
      Ring.remove r victim;
      List.for_all
        (fun (k, owner) ->
          match owner with
          | Some o when o <> victim -> Ring.lookup r k = Some o
          | _ -> true)
        before)

let test_ring_balance () =
  (* 4 members, many keys: no member should own almost everything —
     vnodes exist precisely to smooth this out. *)
  let r = Ring.create () in
  List.iter (Ring.add r) [ 0; 1; 2; 3 ];
  let counts = Array.make 4 0 in
  for i = 0 to 999 do
    match Ring.lookup r (Printf.sprintf "stream:%d" i) with
    | Some o -> counts.(o) <- counts.(o) + 1
    | None -> Alcotest.fail "empty lookup"
  done;
  Array.iteri
    (fun i c ->
      if c > 600 then Alcotest.failf "member %d owns %d of 1000 keys" i c)
    counts

(* --- front summary JSON: schema xentry-cluster-serve-v1 -------------------- *)

(* Percentiles interpolate between order statistics as the
   single-process engine's do: p90 of these five latencies is 46, not
   the nearest-rank 50. *)
let test_front_summary_json_golden () =
  let s =
    {
      Front.wall_s = 2.5;
      offered = 1200;
      sent = 1100;
      completed = 1000;
      detected = 5;
      shed_window_full = 100;
      shed_worker_lost = 60;
      shed_draining = 40;
      throughput_rps = 400.;
      latency_us = [| 40.; 10.; 30.; 20.; 50. |];
      workers_lost = 1;
      streams_remapped = 3;
      worker_telemetry = [];
      detector_pushes = 0;
      detector_acks = [];
    }
  in
  Alcotest.(check string) "byte-exact"
    "{\"schema\": \"xentry-cluster-serve-v1\", \"workers\": 2, \
     \"wall_s\": 2.5, \"offered\": 1200, \"sent\": 1100, \
     \"completed\": 1000, \"detected\": 5, \"shed_window_full\": 100, \
     \"shed_worker_lost\": 60, \"shed_draining\": 40, \
     \"throughput_rps\": 400, \"latency_us\": {\"p50\": 30, \"p90\": 46, \
     \"p99\": 49.6}, \"workers_lost\": 1, \"streams_remapped\": 3}"
    (Xentry_util.Json.to_string (Front.summary_json ~workers:2 s))

(* --- main ------------------------------------------------------------------ *)

let () =
  Alcotest.run "xentry-cluster"
    [
      ( "protocol",
        [
          Alcotest.test_case "serve frames are pinned" `Quick test_frame_pins;
          Alcotest.test_case "round-trip each message" `Quick test_roundtrip_each;
          Alcotest.test_case "round-trip stream" `Quick test_roundtrip_stream;
          Alcotest.test_case "config strips jobs" `Quick test_config_strips_jobs;
          Alcotest.test_case "truncation sweep" `Quick test_truncation_sweep;
          Alcotest.test_case "flip sweep" `Quick test_flip_sweep;
          Alcotest.test_case "error poisons decoder" `Quick test_error_poisons;
          Alcotest.test_case "oversized rejected" `Quick test_oversized_rejected;
          QCheck_alcotest.to_alcotest prop_chunked_decode;
          QCheck_alcotest.to_alcotest prop_garbage_never_crashes;
        ] );
      ( "lease",
        [
          Alcotest.test_case "claims lowest pending" `Quick
            test_lease_claims_lowest;
          Alcotest.test_case "complete and duplicates" `Quick
            test_lease_complete_and_duplicates;
          Alcotest.test_case "release reissues" `Quick
            test_lease_release_reissues;
        ] );
      ( "ring",
        [
          Alcotest.test_case "deterministic" `Quick test_ring_deterministic;
          Alcotest.test_case "empty and single" `Quick test_ring_empty_and_single;
          Alcotest.test_case "balance" `Quick test_ring_balance;
          QCheck_alcotest.to_alcotest prop_ring_removal_is_local;
        ] );
      ( "front",
        [
          Alcotest.test_case "xentry-cluster-serve-v1 golden" `Quick
            test_front_summary_json_golden;
        ] );
    ]
