module W = Xentry_store.Wire
module Codec = Xentry_store.Codec
module Crc32 = Xentry_store.Crc32
module Campaign = Xentry_faultinject.Campaign
module Fault = Xentry_faultinject.Fault
module Profile = Xentry_workload.Profile
module Pipeline = Xentry_core.Pipeline
module Request = Xentry_vmm.Request
module Io = Xentry_util.Io
module Tm = Xentry_util.Telemetry

let tm_frames_sent = Tm.counter "cluster.frames_sent"
let tm_frames_received = Tm.counter "cluster.frames_received"
let tm_bytes_sent = Tm.counter "cluster.bytes_sent"
let tm_bytes_received = Tm.counter "cluster.bytes_received"

type addr = Unix_sock of string

type msg =
  | Hello of { jobs : int }
  | Campaign_spec of Campaign.Config.t
  | Lease of int list
  | Shard_result of {
      shard : int;
      records : Xentry_faultinject.Outcome.record list;
    }
  | Serve_spec of {
      worker_index : int;
      seed : int;
      pipeline : Pipeline.Config.t;
    }
  | Serve_request of { seq : int; req : Request.t }
  | Serve_response of { seq : int; detected : bool; shed : bool }
  | Drain
  | Telemetry_drain of string
  | Bye
  | Detector_push of Xentry_core.Detector.t
  | Detector_ack of { worker_index : int; version : int }

(* {2 Payload codecs}

   Field-by-field Wire encodings, same discipline as the artifact
   store: sum types travel as validated tag bytes, enumerations as
   their stable dense ids, and the reader rejects any byte it does not
   understand with Wire.Corrupt (surfaced as [Malformed]). *)

let benchmark_index b =
  let n = Array.length Profile.all_benchmarks in
  let rec go i =
    if i >= n then invalid_arg "benchmark_index"
    else if Profile.all_benchmarks.(i) = b then i
    else go (i + 1)
  in
  go 0

let read_benchmark r =
  let i = W.read_u8 r in
  if i >= Array.length Profile.all_benchmarks then
    W.corrupt (Printf.sprintf "unknown benchmark id %d" i)
  else Profile.all_benchmarks.(i)

let write_mode buf = function
  | Profile.PV -> W.u8 buf 0
  | Profile.HVM -> W.u8 buf 1

let read_mode r =
  match W.read_u8 r with
  | 0 -> Profile.PV
  | 1 -> Profile.HVM
  | n -> W.corrupt (Printf.sprintf "unknown virt mode %d" n)

(* The campaign config ships whole so any worker can rebuild any shard
   from (config, index).  [jobs] deliberately does not travel: it is
   execution-only (the planner invariant keeps records identical for
   every value) and each worker substitutes its own domain count. *)
let write_config buf (c : Campaign.Config.t) =
  let {
    Campaign.Config.seed;
    injections;
    faults_per_run;
    benchmark;
    mode;
    detector;
    framework;
    fault_classes;
    fuel;
    hardened;
    prune;
    snapshot_interval;
    jobs = _;
  } =
    c
  in
  W.int_ buf seed;
  W.int_ buf injections;
  W.int_ buf faults_per_run;
  W.u8 buf (benchmark_index benchmark);
  write_mode buf mode;
  W.opt Codec.versioned_detector.Codec.write buf detector;
  Codec.write_detection_set buf framework;
  W.str buf (Fault.classes_to_string fault_classes);
  W.int_ buf fuel;
  W.bool_ buf hardened;
  W.bool_ buf prune;
  W.int_ buf snapshot_interval

let read_config r =
  let seed = W.read_int r in
  let injections = W.read_int r in
  let faults_per_run = W.read_int r in
  let benchmark = read_benchmark r in
  let mode = read_mode r in
  let detector = W.read_opt Codec.versioned_detector.Codec.read r in
  let framework = Codec.read_detection_set r in
  let fault_classes =
    match Fault.parse_classes (W.read_str r) with
    | Ok cs -> cs
    | Error e -> W.corrupt ("bad fault-class list: " ^ e)
  in
  let fuel = W.read_int r in
  let hardened = W.read_bool r in
  let prune = W.read_bool r in
  let snapshot_interval = W.read_int r in
  {
    Campaign.Config.seed;
    injections;
    faults_per_run;
    benchmark;
    mode;
    detector;
    framework;
    fault_classes;
    fuel;
    hardened;
    prune;
    snapshot_interval;
    jobs = None;
  }

let write_request buf (req : Request.t) =
  let { Request.reason; args; guest } = req in
  Codec.write_reason buf reason;
  W.array_ W.i64 buf args;
  W.array_ W.i64 buf guest

let read_request r =
  let reason = Codec.read_reason r in
  let args = W.read_array W.read_i64 r in
  let guest = W.read_array W.read_i64 r in
  { Request.reason; args; guest }

let write_msg buf = function
  | Hello { jobs } ->
      W.u8 buf 1;
      W.int_ buf jobs
  | Campaign_spec c ->
      W.u8 buf 2;
      write_config buf c
  | Lease shards ->
      W.u8 buf 3;
      W.list_ W.int_ buf shards
  | Shard_result { shard; records } ->
      W.u8 buf 4;
      W.int_ buf shard;
      W.list_ Codec.write_record buf records
  | Serve_spec { worker_index; seed; pipeline = { detection; detector; fuel } }
    ->
      W.u8 buf 5;
      W.int_ buf worker_index;
      W.int_ buf seed;
      Codec.write_detection_set buf detection;
      W.opt Codec.versioned_detector.Codec.write buf detector;
      W.int_ buf fuel
  | Serve_request { seq; req } ->
      W.u8 buf 6;
      W.int_ buf seq;
      write_request buf req
  | Serve_response { seq; detected; shed } ->
      W.u8 buf 7;
      W.int_ buf seq;
      W.bool_ buf detected;
      W.bool_ buf shed
  | Drain -> W.u8 buf 8
  | Telemetry_drain json ->
      W.u8 buf 9;
      W.str buf json
  | Bye -> W.u8 buf 10
  | Detector_push det ->
      W.u8 buf 11;
      Codec.versioned_detector.Codec.write buf det
  | Detector_ack { worker_index; version } ->
      W.u8 buf 12;
      W.int_ buf worker_index;
      W.int_ buf version

let read_msg r =
  match W.read_u8 r with
  | 1 ->
      let jobs = W.read_int r in
      Hello { jobs }
  | 2 -> Campaign_spec (read_config r)
  | 3 -> Lease (W.read_list W.read_int r)
  | 4 ->
      let shard = W.read_int r in
      let records = W.read_list Codec.read_record r in
      Shard_result { shard; records }
  | 5 ->
      let worker_index = W.read_int r in
      let seed = W.read_int r in
      let detection = Codec.read_detection_set r in
      let detector = W.read_opt Codec.versioned_detector.Codec.read r in
      let fuel = W.read_int r in
      let pipeline = { Pipeline.Config.detection; detector; fuel } in
      Serve_spec { worker_index; seed; pipeline }
  | 6 ->
      let seq = W.read_int r in
      let req = read_request r in
      Serve_request { seq; req }
  | 7 ->
      let seq = W.read_int r in
      let detected = W.read_bool r in
      let shed = W.read_bool r in
      Serve_response { seq; detected; shed }
  | 8 -> Drain
  | 9 -> Telemetry_drain (W.read_str r)
  | 10 -> Bye
  | 11 -> Detector_push (Codec.versioned_detector.Codec.read r)
  | 12 ->
      let worker_index = W.read_int r in
      let version = W.read_int r in
      Detector_ack { worker_index; version }
  | t -> W.corrupt (Printf.sprintf "unknown message tag %d" t)

(* {2 Framing} *)

let magic = "XCF1"
let header_len = 8 (* magic + u32 payload length *)
let max_frame = 64 * 1024 * 1024

type error =
  | Bad_magic
  | Oversized of int
  | Crc_mismatch of { stored : int32; computed : int32 }
  | Truncated
  | Malformed of string

let error_message = function
  | Bad_magic -> "not a cluster frame (bad magic)"
  | Oversized n -> Printf.sprintf "frame payload of %d bytes exceeds limit" n
  | Crc_mismatch { stored; computed } ->
      Printf.sprintf "frame CRC mismatch (stored %08lx, computed %08lx)" stored
        computed
  | Truncated -> "stream ended inside a frame"
  | Malformed msg -> "malformed frame payload: " ^ msg

exception Protocol_error of error

let encode msg =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  let payload = Buffer.create 256 in
  write_msg payload msg;
  let plen = Buffer.length payload in
  if plen > max_frame then
    invalid_arg (Printf.sprintf "Protocol.encode: %d-byte payload" plen);
  W.u32 buf plen;
  Buffer.add_buffer buf payload;
  let body = Buffer.contents buf in
  let crc = Crc32.digest body in
  let out = Buffer.create (String.length body + 4) in
  Buffer.add_string out body;
  Buffer.add_int32_le out crc;
  Buffer.contents out

(* {2 Incremental decoder}

   [pending] accumulates unconsumed bytes; a frame is only examined
   once its length (and trailing CRC) fully arrived, so feeding a
   frame one byte at a time yields the identical message.  The first
   malformed byte poisons the decoder: framing is unrecoverable after
   an error, so every later [next]/[finish] repeats it. *)

type decoder = { mutable pending : string; mutable failed : error option }

let decoder () = { pending = ""; failed = None }

let feed d s =
  if d.failed = None && String.length s > 0 then d.pending <- d.pending ^ s

let fail d e =
  d.failed <- Some e;
  d.pending <- "";
  Error e

let prefix_matches_magic s =
  let n = min (String.length s) (String.length magic) in
  let rec go i = i >= n || (s.[i] = magic.[i] && go (i + 1)) in
  go 0

let next d =
  match d.failed with
  | Some e -> Error e
  | None ->
      let s = d.pending in
      let n = String.length s in
      if not (prefix_matches_magic s) then fail d Bad_magic
      else if n < header_len then Ok None
      else
        let plen = Int32.to_int (String.get_int32_le s 4) land 0xFFFFFFFF in
        (* Judge the announced length from the header alone — never
           buffer towards a frame we would refuse anyway. *)
        if plen > max_frame then fail d (Oversized plen)
        else if n < header_len + plen + 4 then Ok None
        else
          let stored = String.get_int32_le s (header_len + plen) in
          let computed = Crc32.digest_sub s ~pos:0 ~len:(header_len + plen) in
          if stored <> computed then fail d (Crc_mismatch { stored; computed })
          else
            let r =
              W.reader ~pos:header_len (String.sub s 0 (header_len + plen))
            in
            match
              let m = read_msg r in
              W.expect_end r;
              m
            with
            | exception W.Corrupt msg -> fail d (Malformed msg)
            | m ->
                let consumed = header_len + plen + 4 in
                d.pending <- String.sub s consumed (n - consumed);
                Ok (Some m)

let finish d =
  match d.failed with
  | Some e -> Error e
  | None -> if String.length d.pending = 0 then Ok () else Error Truncated

(* {2 Connections} *)

type conn = {
  conn_fd : Unix.file_descr;
  dec : decoder;
  scratch : Bytes.t;
  mutable eof : bool;
  mutable closed : bool;
}

let fd c = c.conn_fd

let conn_of_fd conn_fd =
  (* A peer vanishing mid-write must be a Unix_error at the write
     site, not a process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  {
    conn_fd;
    dec = decoder ();
    scratch = Bytes.create 65536;
    eof = false;
    closed = false;
  }

let with_listener (Unix_sock path) f =
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 16;
      f sock)

let accept listener =
  let fd, _peer = Unix.accept listener in
  conn_of_fd fd

(* 100 tries 0.1 s apart: workers may start up to 10 s before the
   coordinator's socket exists. *)
let connect (Unix_sock path) =
  let rec go tries_left =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect sock (Unix.ADDR_UNIX path) with
    | () -> conn_of_fd sock
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _)
      when tries_left > 1 ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        Unix.sleepf 0.1;
        go (tries_left - 1)
    | exception e ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        raise e
  in
  go 100

let rec select fds timeout =
  match Unix.select fds [] [] timeout with
  | readable, _, _ -> readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select fds timeout

let close c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.conn_fd with Unix.Unix_error _ -> ()
  end

let send c msg =
  let frame = encode msg in
  Io.write_string c.conn_fd frame;
  Tm.incr tm_frames_sent;
  Tm.add tm_bytes_sent (String.length frame)

(* One EINTR-safe read; 0 bytes marks end-of-stream. *)
let read_chunk c =
  let rec read () =
    try Unix.read c.conn_fd c.scratch 0 (Bytes.length c.scratch)
    with Unix.Unix_error (Unix.EINTR, _, _) -> read ()
  in
  let n = read () in
  if n = 0 then c.eof <- true
  else begin
    Tm.add tm_bytes_received n;
    feed c.dec (Bytes.sub_string c.scratch 0 n)
  end;
  n

let rec recv c =
  match next c.dec with
  | Error e -> raise (Protocol_error e)
  | Ok (Some m) ->
      Tm.incr tm_frames_received;
      Some m
  | Ok None ->
      if c.eof then (
        match finish c.dec with
        | Ok () -> None
        | Error e -> raise (Protocol_error e))
      else begin
        ignore (read_chunk c : int);
        recv c
      end

let drain_decoded c acc =
  let rec go acc =
    match next c.dec with
    | Error e -> raise (Protocol_error e)
    | Ok (Some m) ->
        Tm.incr tm_frames_received;
        go (m :: acc)
    | Ok None -> acc
  in
  go acc

let check_eof c =
  if c.eof then
    match finish c.dec with
    | Ok () -> ()
    | Error e -> raise (Protocol_error e)

let pump c =
  if not c.eof then ignore (read_chunk c : int);
  let msgs = List.rev (drain_decoded c []) in
  check_eof c;
  (msgs, c.eof)

let try_pump c =
  let rec go acc =
    let acc = drain_decoded c acc in
    if (not c.eof) && select [ c.conn_fd ] 0.0 <> [] then begin
      ignore (read_chunk c : int);
      go acc
    end
    else acc
  in
  let msgs = List.rev (go []) in
  check_eof c;
  (msgs, c.eof)
