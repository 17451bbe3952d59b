let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    (* Bessel's correction: the n < 2 guard already declares this a
       sample statistic, so divide by the sample degrees of freedom. *)
    sqrt (ss /. float_of_int (n - 1))

let minimum xs =
  if Array.length xs = 0 then invalid_arg "Stats.minimum: empty sample";
  Array.fold_left min infinity xs

let maximum xs =
  if Array.length xs = 0 then invalid_arg "Stats.maximum: empty sample";
  Array.fold_left max neg_infinity xs

let sorted_copy xs =
  let ys = Array.copy xs in
  Array.sort compare ys;
  ys

let quantile xs q =
  if Array.length xs = 0 then invalid_arg "Stats.quantile: empty sample";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0, 1]";
  let ys = sorted_copy xs in
  let n = Array.length ys in
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor h) in
  let hi = min (lo + 1) (n - 1) in
  let frac = h -. float_of_int lo in
  ys.(lo) +. (frac *. (ys.(hi) -. ys.(lo)))

let median xs = quantile xs 0.5

type box = {
  bmin : float;
  q1 : float;
  bmedian : float;
  q3 : float;
  bmax : float;
}

let box_summary xs =
  if Array.length xs = 0 then invalid_arg "Stats.box_summary: empty sample";
  {
    bmin = minimum xs;
    q1 = quantile xs 0.25;
    bmedian = median xs;
    q3 = quantile xs 0.75;
    bmax = maximum xs;
  }

type cdf = { values : float array (* sorted *) }

let cdf_of_samples xs =
  if Array.length xs = 0 then invalid_arg "Stats.cdf_of_samples: empty sample";
  { values = sorted_copy xs }

let cdf_eval c x =
  (* Binary search for the number of samples <= x. *)
  let v = c.values in
  let n = Array.length v in
  let rec go lo hi =
    (* invariant: v.(lo-1) <= x < v.(hi), with sentinels *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if v.(mid) <= x then go (mid + 1) hi else go lo mid
  in
  float_of_int (go 0 n) /. float_of_int n

let cdf_inverse c p =
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.cdf_inverse: p outside [0, 1]";
  let v = c.values in
  let n = Array.length v in
  if p = 0.0 then v.(0)
  else
    let k = int_of_float (ceil (p *. float_of_int n)) - 1 in
    v.(max 0 (min (n - 1) k))

let cdf_points c =
  let n = Array.length c.values in
  Array.mapi
    (fun i v -> (v, float_of_int (i + 1) /. float_of_int n))
    c.values

type histogram = { edges : float array; counts : int array }

let histogram ?(bins = 10) xs =
  if Array.length xs = 0 then invalid_arg "Stats.histogram: empty sample";
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  let lo = minimum xs and hi = maximum xs in
  let hi = if hi = lo then lo +. 1.0 else hi in
  let width = (hi -. lo) /. float_of_int bins in
  let edges = Array.init (bins + 1) (fun i -> lo +. (float_of_int i *. width)) in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let idx = int_of_float ((x -. lo) /. width) in
      let idx = max 0 (min (bins - 1) idx) in
      counts.(idx) <- counts.(idx) + 1)
    xs;
  { edges; counts }

let percentage_breakdown labelled =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 labelled in
  if total = 0 then List.map (fun (l, _) -> (l, 0.0)) labelled
  else
    List.map
      (fun (l, c) -> (l, 100.0 *. float_of_int c /. float_of_int total))
      labelled
