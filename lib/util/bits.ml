let check_index i =
  if i < 0 || i > 63 then invalid_arg "Bits: bit index out of [0, 63]"

let flip w i =
  check_index i;
  Int64.logxor w (Int64.shift_left 1L i)

let test w i =
  check_index i;
  Int64.logand (Int64.shift_right_logical w i) 1L = 1L

let set w i =
  check_index i;
  Int64.logor w (Int64.shift_left 1L i)

let clear w i =
  check_index i;
  Int64.logand w (Int64.lognot (Int64.shift_left 1L i))

let popcount w =
  let rec go w acc =
    if w = 0L then acc
    else go (Int64.logand w (Int64.sub w 1L)) (acc + 1)
  in
  go w 0

let hamming a b = popcount (Int64.logxor a b)

let low_bits w n =
  if n < 0 || n > 64 then invalid_arg "Bits.low_bits: width out of [0, 64]";
  if n = 64 then w
  else if n = 0 then 0L
  else Int64.logand w (Int64.sub (Int64.shift_left 1L n) 1L)

let to_hex w = Printf.sprintf "%016Lx" w
