(* Tests for Xentry_mlearn: datasets, entropy, decision/random trees,
   metrics and forests. *)

open Xentry_mlearn

let check_float = Alcotest.(check (float 1e-6))

let mk_samples pairs =
  List.map (fun (features, label) -> { Dataset.features; label }) pairs

(* Label = (x > 5) AND (y > 5) on a 2D grid: needs two nested splits,
   and every split has positive information gain (a greedy entropy
   learner cannot learn pure XOR, whose single-feature gains are all
   zero). *)
let grid_dataset =
  Dataset.create ~feature_names:[| "x"; "y" |] ~n_classes:2
    (mk_samples
       (List.concat_map
          (fun x ->
            List.map
              (fun y ->
                let label = if x > 5.0 && y > 5.0 then 1 else 0 in
                ([| x; y |], label))
              [ 1.0; 2.0; 3.0; 8.0; 9.0; 10.0 ])
          [ 1.0; 2.0; 3.0; 8.0; 9.0; 10.0 ]))

(* --- Dataset ----------------------------------------------------------- *)

let test_dataset_create_validates () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Dataset.create: sample arity mismatch") (fun () ->
      ignore
        (Dataset.create ~feature_names:[| "a" |] ~n_classes:2
           (mk_samples [ ([| 1.0; 2.0 |], 0) ])));
  Alcotest.check_raises "label out of range"
    (Invalid_argument "Dataset.create: label out of range") (fun () ->
      ignore
        (Dataset.create ~feature_names:[| "a" |] ~n_classes:2
           (mk_samples [ ([| 1.0 |], 5) ])))

let test_dataset_class_counts () =
  let counts = Dataset.class_counts grid_dataset in
  Alcotest.(check int) "grid class 0" 27 counts.(0);
  Alcotest.(check int) "grid class 1" 9 counts.(1)

let test_dataset_entropy_paper_example () =
  (* The paper's worked example: 15 data points, 10 correct and 5
     incorrect, entropy = -(10/15)log2(10/15) - (5/15)log2(5/15).
     (The paper's text rounds this to 0.276; the exact value of the
     formula is ~0.918 bits.) *)
  let ds =
    Dataset.create ~feature_names:[| "rt" |] ~n_classes:2
      (mk_samples
         (List.init 15 (fun i -> ([| float_of_int i |], if i < 10 then 0 else 1))))
  in
  let expected =
    let p1 = 10.0 /. 15.0 and p2 = 5.0 /. 15.0 in
    -.((p1 *. (log p1 /. log 2.0)) +. (p2 *. (log p2 /. log 2.0)))
  in
  check_float "entropy formula" expected (Dataset.entropy ds)

let test_dataset_entropy_pure_zero () =
  let ds =
    Dataset.create ~feature_names:[| "a" |] ~n_classes:2
      (mk_samples [ ([| 1.0 |], 0); ([| 2.0 |], 0) ])
  in
  check_float "pure set entropy" 0.0 (Dataset.entropy ds)

let test_dataset_entropy_balanced_one () =
  let ds =
    Dataset.create ~feature_names:[| "a" |] ~n_classes:2
      (mk_samples [ ([| 1.0 |], 0); ([| 2.0 |], 1) ])
  in
  check_float "balanced entropy = 1 bit" 1.0 (Dataset.entropy ds)

let test_dataset_split_by_threshold () =
  let le, gt = Dataset.split_by_threshold grid_dataset ~feature:0 ~threshold:5.0 in
  Alcotest.(check int) "le half" 18 (Dataset.length le);
  Alcotest.(check int) "gt half" 18 (Dataset.length gt)

let test_dataset_train_test_split () =
  let rng = Xentry_util.Rng.create 5 in
  let train, test = Dataset.train_test_split rng grid_dataset ~train_fraction:0.75 in
  Alcotest.(check int) "train size" 27 (Dataset.length train);
  Alcotest.(check int) "test size" 9 (Dataset.length test)

let test_dataset_append () =
  let d = Dataset.append grid_dataset grid_dataset in
  Alcotest.(check int) "doubled" 72 (Dataset.length d)

(* --- Tree: the paper's worked example ----------------------------------- *)

let test_best_split_matches_paper_example () =
  (* Paper §III-B: 15 points; cutting RT at 200 separates the classes
     perfectly (gain = parent entropy), cutting at 100 gives a 7/8
     split with mixed classes; the learner must choose 200. *)
  (* The essential property of the paper's example (its literal counts
     are not mutually consistent): a mixed cut exists at a low RT, a
     pure cut exists at a high RT, and the learner must pick the pure
     one. *)
  let samples =
    mk_samples
      (List.concat
         [
           List.init 5 (fun i -> ([| 50.0 +. float_of_int i |], 0));
           List.init 2 (fun i -> ([| 80.0 +. float_of_int i |], 1));
           List.init 5 (fun i -> ([| 120.0 +. float_of_int i |], 0));
           List.init 3 (fun i -> ([| 300.0 +. float_of_int i |], 1));
         ])
  in
  let ds = Dataset.create ~feature_names:[| "RT" |] ~n_classes:2 samples in
  match Tree.best_split ds ~features:[| 0 |] with
  | Some (0, threshold, gain) ->
      Alcotest.(check bool) "cuts between the pure groups" true
        (threshold > 124.0 && threshold < 300.0);
      Alcotest.(check bool) "positive gain" true (gain > 0.0)
  | _ -> Alcotest.fail "no split found"

let test_best_split_no_split_on_constant () =
  let ds =
    Dataset.create ~feature_names:[| "a" |] ~n_classes:2
      (mk_samples [ ([| 1.0 |], 0); ([| 1.0 |], 1) ])
  in
  Alcotest.(check bool) "constant feature cannot split" true
    (Tree.best_split ds ~features:[| 0 |] = None)

let test_tree_learns_grid () =
  let tree = Tree.train grid_dataset in
  let c = Metrics.evaluate tree grid_dataset in
  check_float "grid learned exactly" 1.0 (Metrics.accuracy c)

let test_tree_depth_limit () =
  let tree =
    Tree.train ~config:{ Tree.default_config with max_depth = 1 } grid_dataset
  in
  Alcotest.(check bool) "depth limited" true (Tree.depth tree <= 1)

let test_tree_pure_dataset_is_leaf () =
  let ds =
    Dataset.create ~feature_names:[| "a" |] ~n_classes:2
      (mk_samples [ ([| 1.0 |], 0); ([| 2.0 |], 0); ([| 3.0 |], 0) ])
  in
  let tree = Tree.train ds in
  Alcotest.(check int) "single leaf" 1 (Tree.node_count tree);
  Alcotest.(check int) "predicts the class" 0 (Tree.predict tree [| 9.0 |])

let test_tree_empty_rejected () =
  let ds = Dataset.create ~feature_names:[| "a" |] ~n_classes:2 [] in
  Alcotest.check_raises "empty" (Invalid_argument "Tree.train: empty dataset")
    (fun () -> ignore (Tree.train ds))

let test_tree_predict_detail_comparisons () =
  let tree = Tree.train grid_dataset in
  let _, _, comparisons = Tree.predict_detail tree [| 1.0; 1.0 |] in
  Alcotest.(check bool) "within depth bound" true
    (comparisons <= Tree.max_comparisons tree);
  Alcotest.(check bool) "at least one comparison" true (comparisons >= 1)

let test_tree_rules_cover_leaves () =
  let tree = Tree.train grid_dataset in
  Alcotest.(check int) "one rule per leaf" (Tree.leaf_count tree)
    (List.length (Tree.rules tree))

let test_random_tree_config_feature_count () =
  (* floor(log2 5) + 1 = 3, the paper's value for five features. *)
  let c = Tree.random_tree_config ~n_features:5 ~seed:1 in
  match c.Tree.features_per_split with
  | `Random 3 -> ()
  | `Random n -> Alcotest.failf "expected 3 features per split, got %d" n
  | `All -> Alcotest.fail "expected random subset"

let test_random_tree_learns_grid () =
  let config = Tree.random_tree_config ~n_features:2 ~seed:7 in
  let tree = Tree.train ~config grid_dataset in
  let c = Metrics.evaluate tree grid_dataset in
  Alcotest.(check bool) "random tree accuracy >= 0.9" true
    (Metrics.accuracy c >= 0.9)

(* --- Metrics -------------------------------------------------------------- *)

let test_metrics_confusion () =
  let c =
    Metrics.confusion ~expected:[| 1; 1; 0; 0; 0 |] ~predicted:[| 1; 0; 1; 0; 0 |]
  in
  Alcotest.(check int) "tp" 1 c.Metrics.true_positive;
  Alcotest.(check int) "fn" 1 c.Metrics.false_negative;
  Alcotest.(check int) "fp" 1 c.Metrics.false_positive;
  Alcotest.(check int) "tn" 2 c.Metrics.true_negative;
  check_float "accuracy" 0.6 (Metrics.accuracy c);
  check_float "fpr" (1.0 /. 3.0) (Metrics.false_positive_rate c);
  check_float "recall" 0.5 (Metrics.recall c);
  check_float "precision" 0.5 (Metrics.precision c)

let test_metrics_length_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Metrics.confusion: length mismatch") (fun () ->
      ignore (Metrics.confusion ~expected:[| 0 |] ~predicted:[||]))

let test_metrics_empty_ratios () =
  let c = Metrics.confusion ~expected:[||] ~predicted:[||] in
  check_float "empty accuracy" 0.0 (Metrics.accuracy c);
  check_float "empty f1" 0.0 (Metrics.f1 c)

(* --- Forest --------------------------------------------------------------- *)

let test_forest_learns_grid () =
  let forest = Forest.train ~trees:9 ~seed:3 grid_dataset in
  let c = Metrics.evaluate_predict (Forest.predict forest) grid_dataset in
  Alcotest.(check bool) "forest accuracy >= 0.95" true
    (Metrics.accuracy c >= 0.95)

let test_forest_size () =
  let forest = Forest.train ~trees:5 ~seed:3 grid_dataset in
  Alcotest.(check int) "member count" 5 (Forest.size forest)

let test_forest_vote_confidence () =
  let forest = Forest.train ~trees:9 ~seed:3 grid_dataset in
  let _, conf = Forest.predict_detail forest [| 1.0; 1.0 |] in
  Alcotest.(check bool) "confidence in (0,1]" true (conf > 0.0 && conf <= 1.0)

let test_forest_comparisons_sum () =
  let forest = Forest.train ~trees:4 ~seed:3 grid_dataset in
  let total = Forest.total_comparisons forest [| 1.0; 1.0 |] in
  Alcotest.(check bool) "at least one comparison per tree" true (total >= 4)

(* --- Arff / Tree_io ---------------------------------------------------------- *)

let test_arff_roundtrip () =
  let text = Arff.to_arff ~relation:"grid" grid_dataset in
  let back = Arff.of_arff text in
  Alcotest.(check int) "same size" (Dataset.length grid_dataset)
    (Dataset.length back);
  Alcotest.(check (array string)) "same features"
    (Dataset.feature_names grid_dataset)
    (Dataset.feature_names back);
  Alcotest.(check bool) "same samples" true
    (Dataset.samples grid_dataset = Dataset.samples back)

let test_arff_format_headers () =
  let text = Arff.to_arff grid_dataset in
  let has needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "@relation" true (has "@relation");
  Alcotest.(check bool) "@attribute x numeric" true (has "@attribute x numeric");
  Alcotest.(check bool) "nominal class" true (has "@attribute class {c0,c1}");
  Alcotest.(check bool) "@data" true (has "@data")

let test_arff_rejects_malformed () =
  Alcotest.(check bool) "missing class rejected" true
    (try
       ignore (Arff.of_arff "@relation x\n@attribute a numeric\n@data\n1\n");
       false
     with Failure _ -> true)

let test_csv_roundtrip () =
  let text = Arff.to_csv grid_dataset in
  let back = Arff.of_csv text in
  Alcotest.(check bool) "same samples" true
    (Dataset.samples grid_dataset = Dataset.samples back)

let test_tree_of_parts_validates () =
  Alcotest.check_raises "bad feature index"
    (Invalid_argument "Tree.of_parts: split feature out of range") (fun () ->
      ignore
        (Tree.of_parts
           ~root:
             (Tree.Split
                {
                  feature = 9;
                  threshold = 0.0;
                  low = Tree.Leaf { label = 0; confidence = 1.0; population = 1 };
                  high = Tree.Leaf { label = 0; confidence = 1.0; population = 1 };
                })
           ~feature_names:[| "x" |] ~n_classes:2))

let test_tree_c_codegen () =
  let tree = Tree.train grid_dataset in
  let c = Tree_io.to_c ~function_name:"vm transition!" tree in
  let has needle =
    let n = String.length needle and m = String.length c in
    let rec go i = i + n <= m && (String.sub c i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "sanitized function name" true (has "vm_transition_");
  Alcotest.(check bool) "integer comparisons" true (has "<=");
  (* One return per leaf. *)
  let returns =
    List.length
      (List.filter
         (fun l ->
           let l = String.trim l in
           String.length l >= 6 && String.sub l 0 6 = "return")
         (String.split_on_char '\n' c))
  in
  Alcotest.(check int) "one return per leaf" (Tree.leaf_count tree) returns

(* --- qcheck ----------------------------------------------------------------- *)

let arb_labelled_points =
  QCheck.list_of_size (QCheck.Gen.int_range 4 60)
    (QCheck.pair (QCheck.pair (QCheck.float_range (-100.) 100.) (QCheck.float_range (-100.) 100.)) QCheck.bool)

let dataset_of points =
  Dataset.create ~feature_names:[| "x"; "y" |] ~n_classes:2
    (mk_samples
       (List.map (fun ((x, y), l) -> ([| x; y |], if l then 1 else 0)) points))

let prop_training_accuracy_beats_majority =
  QCheck.Test.make ~name:"tree >= majority-class accuracy on training data"
    ~count:100 arb_labelled_points
    (fun points ->
      let ds = dataset_of points in
      let counts = Dataset.class_counts ds in
      let majority =
        float_of_int (max counts.(0) counts.(1)) /. float_of_int (Dataset.length ds)
      in
      let tree = Tree.train ds in
      Metrics.accuracy (Metrics.evaluate tree ds) >= majority -. 1e-9)

let prop_predict_total =
  QCheck.Test.make ~name:"predictions are valid labels" ~count:100
    arb_labelled_points
    (fun points ->
      let ds = dataset_of points in
      let tree = Tree.train ds in
      let ok = ref true in
      Array.iter
        (fun s ->
          let l = Tree.predict tree s.Dataset.features in
          if l <> 0 && l <> 1 then ok := false)
        (Dataset.samples ds);
      !ok)

let prop_split_gain_nonnegative =
  QCheck.Test.make ~name:"best split gain is non-negative" ~count:100
    arb_labelled_points
    (fun points ->
      let ds = dataset_of points in
      match Tree.best_split ds ~features:[| 0; 1 |] with
      | None -> true
      | Some (_, _, gain) -> gain >= -1e-9)

(* --- serialization round-trips over adversarial floats --------------------- *)

(* Values where a naive "%g" rendering loses bits: subnormals,
   max_float, long mantissas, values near the binary/decimal
   conversion boundaries.  NaN is excluded (not comparable under =);
   every other finite double must survive to_arff/of_arff and
   to_csv/of_csv bit-exactly. *)
let tricky_floats =
  [
    0.0; -0.0; 1.0; -1.0; 0.1; -0.1; 1.0 /. 3.0; Float.pi; 1e22; 1e-22;
    max_float; -.max_float; min_float; epsilon_float; 4.9e-324;
    1.0 +. epsilon_float; 123456789.123456789; 2.5e-10; 9007199254740993.0;
  ]

let gen_tricky_float =
  QCheck.Gen.(
    oneof
      [
        oneofl tricky_floats;
        float_range (-1e6) 1e6;
        map (fun (m, e) -> ldexp m e)
          (pair (float_range (-1.) 1.) (int_range (-60) 60));
      ])

let arb_dataset =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun n_features ->
      int_range 1 30 >>= fun n_samples ->
      let sample =
        pair (array_size (return n_features) gen_tricky_float) (int_range 0 1)
      in
      map
        (fun rows ->
          Dataset.create
            ~feature_names:(Array.init n_features (Printf.sprintf "f%d"))
            ~n_classes:2 (mk_samples rows))
        (list_size (return n_samples) sample))
  in
  QCheck.make ~print:Arff.to_arff gen

let dataset_equal a b =
  Dataset.feature_names a = Dataset.feature_names b
  && Dataset.n_classes a = Dataset.n_classes b
  && Dataset.samples a = Dataset.samples b

let prop_arff_roundtrip_exact =
  QCheck.Test.make ~name:"of_arff (to_arff ds) = ds" ~count:200 arb_dataset
    (fun ds -> dataset_equal ds (Arff.of_arff (Arff.to_arff ds)))

let prop_csv_roundtrip_exact =
  QCheck.Test.make ~name:"of_csv (to_csv ds) = ds" ~count:200 arb_dataset
    (fun ds -> dataset_equal ds (Arff.of_csv (Arff.to_csv ds)))

(* Pin the boundary values individually so a formatting regression
   names the exact float it broke, not just a shrunk counterexample. *)
let test_float_boundary_pinning () =
  List.iter
    (fun v ->
      let ds =
        Dataset.create ~feature_names:[| "v" |] ~n_classes:2
          (mk_samples [ ([| v |], 1) ])
      in
      let bits = Int64.bits_of_float in
      let first d = (Dataset.samples d).(0).Dataset.features.(0) in
      Alcotest.(check int64)
        (Printf.sprintf "arff bits of %h" v)
        (bits v)
        (bits (first (Arff.of_arff (Arff.to_arff ds))));
      Alcotest.(check int64)
        (Printf.sprintf "csv bits of %h" v)
        (bits v)
        (bits (first (Arff.of_csv (Arff.to_csv ds)))))
    tricky_floats

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_training_accuracy_beats_majority;
        prop_predict_total;
        prop_split_gain_nonnegative;
        prop_arff_roundtrip_exact;
        prop_csv_roundtrip_exact;
      ]
  in
  Alcotest.run "xentry_mlearn"
    [
      ( "dataset",
        [
          Alcotest.test_case "create validates" `Quick test_dataset_create_validates;
          Alcotest.test_case "class counts" `Quick test_dataset_class_counts;
          Alcotest.test_case "entropy paper example" `Quick
            test_dataset_entropy_paper_example;
          Alcotest.test_case "entropy pure" `Quick test_dataset_entropy_pure_zero;
          Alcotest.test_case "entropy balanced" `Quick
            test_dataset_entropy_balanced_one;
          Alcotest.test_case "split by threshold" `Quick
            test_dataset_split_by_threshold;
          Alcotest.test_case "train/test split" `Quick test_dataset_train_test_split;
          Alcotest.test_case "append" `Quick test_dataset_append;
        ] );
      ( "tree",
        [
          Alcotest.test_case "best split paper example" `Quick
            test_best_split_matches_paper_example;
          Alcotest.test_case "no split on constant" `Quick
            test_best_split_no_split_on_constant;
          Alcotest.test_case "learns grid" `Quick test_tree_learns_grid;
          Alcotest.test_case "depth limit" `Quick test_tree_depth_limit;
          Alcotest.test_case "pure is leaf" `Quick test_tree_pure_dataset_is_leaf;
          Alcotest.test_case "empty rejected" `Quick test_tree_empty_rejected;
          Alcotest.test_case "predict detail" `Quick
            test_tree_predict_detail_comparisons;
          Alcotest.test_case "rules cover leaves" `Quick test_tree_rules_cover_leaves;
          Alcotest.test_case "random config k" `Quick
            test_random_tree_config_feature_count;
          Alcotest.test_case "random tree xor" `Quick test_random_tree_learns_grid;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "confusion" `Quick test_metrics_confusion;
          Alcotest.test_case "length mismatch" `Quick test_metrics_length_mismatch;
          Alcotest.test_case "empty ratios" `Quick test_metrics_empty_ratios;
        ] );
      ( "io",
        [
          Alcotest.test_case "arff roundtrip" `Quick test_arff_roundtrip;
          Alcotest.test_case "arff headers" `Quick test_arff_format_headers;
          Alcotest.test_case "arff malformed" `Quick test_arff_rejects_malformed;
          Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "float boundary pinning" `Quick
            test_float_boundary_pinning;
          Alcotest.test_case "of_parts validates" `Quick test_tree_of_parts_validates;
          Alcotest.test_case "c codegen" `Quick test_tree_c_codegen;
        ] );
      ( "forest",
        [
          Alcotest.test_case "learns grid" `Quick test_forest_learns_grid;
          Alcotest.test_case "size" `Quick test_forest_size;
          Alcotest.test_case "vote confidence" `Quick test_forest_vote_confidence;
          Alcotest.test_case "comparisons" `Quick test_forest_comparisons_sum;
        ] );
      ("properties", qsuite);
    ]
