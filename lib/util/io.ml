let rec really_read fd buf pos len =
  if len = 0 then 0
  else
    match Unix.read fd buf pos len with
    | 0 -> 0
    | n -> n + really_read fd buf (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_read fd buf pos len

let rec really_write fd buf pos len =
  if len > 0 then
    match Unix.write fd buf pos len with
    | n -> really_write fd buf (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_write fd buf pos len

let write_string fd s = really_write fd (Bytes.unsafe_of_string s) 0 (String.length s)

let read_file path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* Size first, then keep reading: the file may grow between the
         stat and the reads, and really_read already stops at EOF if it
         shrank instead. *)
      let size = (Unix.fstat fd).Unix.st_size in
      let buf = Buffer.create (max 64 size) in
      let chunk = Bytes.create 65536 in
      let rec go () =
        match really_read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            if n = Bytes.length chunk then go ()
      in
      go ();
      Buffer.contents buf)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
