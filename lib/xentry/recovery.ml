type params = {
  copy_ns : float;
  false_positive_rate : float;
  cpu_ghz : float;
  instructions_per_cycle : float;
}

let default_params =
  {
    copy_ns = 1_900.0;
    false_positive_rate = 0.007;
    cpu_ghz = 2.13;
    instructions_per_cycle = 1.0;
  }

type series = { avg : float; min : float; max : float }

let overhead p profile ~mean_handler_instructions rng ~trials =
  let rate = Xentry_workload.Profile.trace_rate profile in
  let exits = int_of_float rate in
  let copy_seconds = float_of_int exits *. p.copy_ns *. 1e-9 in
  let reexec_seconds =
    mean_handler_instructions /. p.instructions_per_cycle
    /. (p.cpu_ghz *. 1e9)
  in
  let results =
    Array.init trials (fun _ ->
        (* Binomial draw of false positives across the trace (normal
           approximation is avoided to keep the tails honest at small
           counts). *)
        let fp = ref 0 in
        for _ = 1 to exits do
          if Xentry_util.Rng.bernoulli rng p.false_positive_rate then incr fp
        done;
        copy_seconds +. (float_of_int !fp *. reexec_seconds))
  in
  {
    avg = Xentry_util.Stats.mean results;
    min = Xentry_util.Stats.minimum results;
    max = Xentry_util.Stats.maximum results;
  }

let fig11 ?(trials = 100) ~seed () =
  let rng = Xentry_util.Rng.create seed in
  Array.to_list Xentry_workload.Profile.all_benchmarks
  |> List.map (fun bench ->
         let profile = Xentry_workload.Profile.get bench in
         let mean_handler_instructions =
           Xentry_workload.Profile.mean_handler_length profile
             Xentry_workload.Profile.PV
         in
         ( Xentry_workload.Profile.benchmark_name bench,
           overhead default_params profile ~mean_handler_instructions
             (Xentry_util.Rng.split rng) ~trials ))
