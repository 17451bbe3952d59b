module W = Wire
module Tm = Xentry_util.Telemetry

let tm_bytes_written = Tm.counter "store.artifact.bytes_written"
let tm_saves = Tm.counter "store.artifact.saves"
let tm_load_errors = Tm.counter "store.artifact.load_errors"

let magic = "XART"
let container_version = 1

type error =
  | Io_error of string
  | Bad_magic
  | Wrong_kind of { expected : string; found : string }
  | Version_skew of { kind : string; expected : int; found : int }
  | Truncated
  | Crc_mismatch of { expected : int32; found : int32 }
  | Malformed of string

let error_message = function
  | Io_error msg -> "I/O error: " ^ msg
  | Bad_magic -> "not an artifact file (bad magic)"
  | Wrong_kind { expected; found } ->
      Printf.sprintf "artifact kind %S where %S was expected" found expected
  | Version_skew { kind; expected; found } ->
      Printf.sprintf "%s version %d, this build reads version %d" kind found
        expected
  | Truncated -> "truncated artifact"
  | Crc_mismatch { expected; found } ->
      Printf.sprintf "CRC mismatch (stored %08lx, computed %08lx)" expected
        found
  | Malformed msg -> "malformed payload: " ^ msg

let encode codec v =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  W.u16 buf container_version;
  W.str buf codec.Codec.kind;
  W.u16 buf codec.Codec.version;
  let payload = Buffer.create 4096 in
  codec.Codec.write payload v;
  W.i64 buf (Int64.of_int (Buffer.length payload));
  Buffer.add_buffer buf payload;
  let body = Buffer.contents buf in
  let crc = Crc32.digest body in
  let out = Buffer.create (String.length body + 4) in
  Buffer.add_string out body;
  Buffer.add_int32_le out crc;
  Buffer.contents out

(* Validation order: structure first (magic, header fields, lengths),
   then the whole-frame CRC, then semantic checks (kind, schema) and
   the payload decode.  Any header parse that runs off the end is a
   truncation; a flipped byte that survives structural parsing is
   caught by the CRC; only a frame that checksums clean can report the
   finer-grained kind/version/payload errors. *)
let decode codec data =
  let len = String.length data in
  if len < String.length magic then Error Truncated
  else if String.sub data 0 (String.length magic) <> magic then Error Bad_magic
  else
    let r = W.reader ~pos:(String.length magic) data in
    match
      let cver = W.read_u16 r in
      let kind = W.read_str r in
      let sver = W.read_u16 r in
      let payload_len = W.read_i64 r in
      (cver, kind, sver, payload_len, W.pos r)
    with
    | exception W.Corrupt _ -> Error Truncated
    | cver, kind, sver, payload_len, payload_pos -> (
        if
          payload_len < 0L
          || Int64.of_int (len - payload_pos - 4) <> payload_len
        then Error Truncated
        else
          let stored = String.get_int32_le data (len - 4) in
          let computed = Crc32.digest_sub data ~pos:0 ~len:(len - 4) in
          if stored <> computed then
            Error (Crc_mismatch { expected = stored; found = computed })
          else if cver <> container_version then
            Error
              (Version_skew
                 {
                   kind = "container";
                   expected = container_version;
                   found = cver;
                 })
          else if kind <> codec.Codec.kind then
            Error (Wrong_kind { expected = codec.Codec.kind; found = kind })
          else if sver <> codec.Codec.version then
            Error
              (Version_skew
                 { kind; expected = codec.Codec.version; found = sver })
          else
            let pr = W.reader ~pos:payload_pos (String.sub data 0 (len - 4)) in
            match
              let v = codec.Codec.read pr in
              W.expect_end pr;
              v
            with
            | v -> Ok v
            | exception W.Corrupt msg -> Error (Malformed msg))

(* Atomic, durable save: write the whole frame to a sibling tmp file,
   fsync it, rename over the destination, then fsync the directory so
   the rename itself is on disk.  Without the file fsync a crash after
   the rename can leave a correctly-named file whose *contents* never
   reached the platter — an empty-but-renamed journal shard — which a
   resume would then mistake for a corrupt shard and recompute, or
   worse trust if the page cache survived.  The directory fsync is
   best-effort (see {!Xentry_util.Io.fsync_dir}). *)
let write_atomic path data =
  let tmp = path ^ ".tmp" in
  let fd =
    try Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    with Unix.Unix_error (err, _, _) ->
      raise (Sys_error (tmp ^ ": " ^ Unix.error_message err))
  in
  (try
     Xentry_util.Io.write_string fd data;
     Unix.fsync fd;
     Unix.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     (match e with
     | Unix.Unix_error (err, _, _) ->
         raise (Sys_error (tmp ^ ": " ^ Unix.error_message err))
     | e -> raise e));
  Sys.rename tmp path;
  Xentry_util.Io.fsync_dir (Filename.dirname path)

let save codec path v =
  let data = encode codec v in
  write_atomic path data;
  Tm.incr tm_saves;
  Tm.add tm_bytes_written (String.length data)

let read_file path =
  match Xentry_util.Io.read_file path with
  | data -> Ok data
  | exception Unix.Unix_error (err, _, _) ->
      Error (Io_error (path ^ ": " ^ Unix.error_message err))
  | exception Sys_error msg -> Error (Io_error msg)

let load codec path =
  let result = Result.bind (read_file path) (decode codec) in
  (if Result.is_error result then Tm.incr tm_load_errors);
  result
