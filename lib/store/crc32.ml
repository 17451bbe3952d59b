(* Built at module initialisation, not on first use: journal and
   trace-cache commits reach it from pool worker domains, and a [lazy]
   forced by two domains at once raises [CamlinternalLazy.Undefined]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let digest_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.digest_sub";
  let c = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int
        (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

let digest s = digest_sub s ~pos:0 ~len:(String.length s)
