(* Set-up shared by every workload: train the random-tree transition
   detector from a fixed seed and corpus on one domain.  The detector
   is the same on every run whatever the workload seed, so the serve
   workloads' false-positive rate, and with it serve-microboot's
   recovery count, does not move with the seed.  The first training
   also fills the hypervisor's compiled-handler memo. *)

open Common
module Training = Xentry_faultinject.Training
module Profile = Xentry_workload.Profile

let seed = 2014
let train_injections = 800
let test_injections = 400

type t = {
  detector : Xentry_core.Detector.t;
  setup_s : float array;  (** one per training *)
  collect_s : float array;  (** [Training.collect], train + test corpus *)
  fit_s : float array;  (** [Training.train_and_evaluate] *)
}

let collect ~seed ~injections =
  Training.collect ~jobs:1 ~seed ~benchmarks:[ Profile.Postmark ]
    ~mode:Profile.PV ~injections_per_benchmark:injections
    ~fault_free_per_benchmark:(injections / 4) ()

let train_once () =
  let (train, test), collect_s =
    timed (fun () ->
        ( collect ~seed ~injections:train_injections,
          collect ~seed:(seed lxor 0x7E57) ~injections:test_injections ))
  in
  let trained, fit_s =
    timed (fun () ->
        Training.train_and_evaluate ~tree_seed:(seed + 1) ~train ~test ())
  in
  (Training.detector trained, collect_s, fit_s)

let encode det =
  let b = Buffer.create 4096 in
  Xentry_store.Codec.versioned_detector.Xentry_store.Codec.write b det;
  Buffer.contents b

(* Train [reps] times; every training must yield the same detector. *)
let run ~reps =
  let runs =
    Array.init reps (fun _ ->
        settle ();
        train_once ())
  in
  let det, _, _ = runs.(0) in
  let bytes = encode det in
  gate
    (Array.for_all (fun (d, _, _) -> encode d = bytes) runs)
    (Printf.sprintf "%d trainings from one seed give one detector" reps);
  {
    detector = det;
    setup_s = Array.map (fun (_, c, f) -> c +. f) runs;
    collect_s = Array.map (fun (_, c, _) -> c) runs;
    fit_s = Array.map (fun (_, _, f) -> f) runs;
  }
