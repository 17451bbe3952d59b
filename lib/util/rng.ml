(* SplitMix64.  Reference: Steele, Lea & Flood, "Fast Splittable
   Pseudorandom Number Generators", OOPSLA 2014.

   The 64-bit state lives unboxed in 8 bytes, read and written with the
   unboxed [%caml_bytes_get64u]/[%caml_bytes_set64u] primitives: a
   [mutable state : int64] field would allocate a box and run
   [caml_modify] on every draw.  [int], [float] and [bool] inline the
   step, so they allocate nothing; [next_int64] boxes only its
   result. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s

let next_int64 t = next t

let split t = of_state (next t)

let derive seed idx =
  if idx < 0 then invalid_arg "Rng.derive: negative index";
  (* Stateless SplitMix64 draw at position [idx + 1] of the stream
     seeded by [seed]: shards of a campaign get seeds that are a pure
     function of (campaign seed, shard index), independent of how many
     shards any particular worker executes. *)
  Int64.to_int
    (mix (Int64.add (Int64.of_int seed)
            (Int64.mul (Int64.of_int (idx + 1)) golden_gamma)))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine for simulation: bias is < 2^-38 for
     any bound below 2^24 and immaterial at our sample sizes.  Shifting
     by 2 keeps the value within OCaml's 63-bit native int range. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let gaussian t ~mu ~sigma =
  let rec draw () =
    let u = float t 1.0 in
    if u <= 0.0 then draw () else u
  in
  let u1 = draw () and u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma)

let exponential t ~rate =
  let rec draw () =
    let u = float t 1.0 in
    if u <= 0.0 then draw () else u
  in
  -.log (draw ()) /. rate

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

let weighted_choice t items =
  if Array.length items = 0 then invalid_arg "Rng.weighted_choice: empty array";
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 items in
  if total <= 0.0 then invalid_arg "Rng.weighted_choice: zero total weight";
  let target = float t total in
  let n = Array.length items in
  let rec pick i acc =
    if i = n - 1 then fst items.(i)
    else
      let acc = acc +. snd items.(i) in
      if target < acc then fst items.(i) else pick (i + 1) acc
  in
  pick 0 0.0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  let pool = Array.init n (fun i -> i) in
  (* Partial Fisher–Yates: only the first k slots need settling. *)
  for i = 0 to k - 1 do
    let j = int_in t i (n - 1) in
    let tmp = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- tmp
  done;
  Array.sub pool 0 k
