open Xentry_faultinject
module W = Wire
module Tm = Xentry_util.Telemetry

let tm_bytes_written = Tm.counter "store.trace_cache.bytes_written"
let tm_committed = Tm.counter "store.trace_cache.shards_committed"
let tm_hits = Tm.counter "store.trace_cache.shards_served"
let tm_corrupt = Tm.counter "store.trace_cache.corrupt_dropped"

(* Like journal shards, trace shards carry their own index so a file
   renamed or copied to the wrong slot is rejected rather than replayed
   against the wrong shard's fault stream.  v2: traces carry the timed
   access log (golden-traces v3); the version also enters the campaign
   fingerprint, so a v1 cache directory is refused as a whole. *)
let shard_codec : (int * Xentry_machine.Golden_trace.t list) Codec.t =
  {
    Codec.kind = "trace-shard";
    version = 2;
    write =
      (fun buf (index, traces) ->
        W.u32 buf index;
        W.list_ Codec.write_trace buf traces);
    read =
      (fun r ->
        let index = W.read_u32 r in
        let traces = W.read_list Codec.read_trace r in
        (index, traces));
  }

let meta_codec : string Codec.t =
  {
    Codec.kind = "trace-meta";
    version = 1;
    write = (fun buf fp -> W.str buf fp);
    read = W.read_str;
  }

type t = { dir : string; fingerprint : string }

type open_error =
  | Fingerprint_mismatch of { dir : string; expected : string; found : string }
  | Meta_error of { path : string; error : Artifact.error }
  | Io_error of string

let open_error_message = function
  | Fingerprint_mismatch { dir; expected; found } ->
      Printf.sprintf
        "trace cache %s belongs to a different golden stream (fingerprint %s, \
         this config is %s); use a fresh directory"
        dir found expected
  | Meta_error { path; error } ->
      Printf.sprintf "cannot read trace-cache meta %s: %s" path
        (Artifact.error_message error)
  | Io_error msg -> "trace-cache I/O error: " ^ msg

let meta_file dir = Filename.concat dir "meta.xart"

let shard_file ~dir index =
  Filename.concat dir (Printf.sprintf "traces-%06d.xart" index)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ~dir ~fingerprint =
  match mkdir_p dir with
  | exception Unix.Unix_error (err, _, _) ->
      Error (Io_error (dir ^ ": " ^ Unix.error_message err))
  | () -> (
      let meta = meta_file dir in
      if Sys.file_exists meta then
        match Artifact.load meta_codec meta with
        | Ok found when found = fingerprint -> Ok { dir; fingerprint }
        | Ok found ->
            Error (Fingerprint_mismatch { dir; expected = fingerprint; found })
        | Error error -> Error (Meta_error { path = meta; error })
      else
        match Artifact.save meta_codec meta fingerprint with
        | () -> Ok { dir; fingerprint }
        | exception Sys_error msg -> Error (Io_error msg))

let dir t = t.dir
let fingerprint t = t.fingerprint

let lookup t index =
  let path = shard_file ~dir:t.dir index in
  if not (Sys.file_exists path) then None
  else
    match Artifact.load shard_codec path with
    | Ok (stored_index, traces) when stored_index = index ->
        Tm.incr tm_hits;
        Some traces
    | Ok _ | Error _ ->
        (* Corrupt, truncated or misplaced: drop it — the shard records
           fresh traces and the file is atomically overwritten. *)
        Tm.incr tm_corrupt;
        None

let commit t index traces =
  let data = Artifact.encode shard_codec (index, traces) in
  Artifact.write_atomic (shard_file ~dir:t.dir index) data;
  Tm.incr tm_committed;
  Tm.add tm_bytes_written (String.length data)

(* The fingerprint covers exactly what the golden trace stream depends
   on — [Campaign.Config.trace_canonical] (seed, injections, benchmark,
   mode, fuel, hardened) plus the shard geometry and codec version — so
   campaigns that differ only in detector, framework, faults_per_run or
   planner knobs share one cache, while anything that changes the
   golden runs forces a fresh directory. *)
let campaign_fingerprint (config : Campaign.config) =
  let body =
    String.concat "\n"
      [
        "xentry-trace-fingerprint-v1";
        Campaign.Config.trace_canonical config;
        Printf.sprintf "shard_size=%d" Campaign.shard_size;
        Printf.sprintf "shard_codec=%d" shard_codec.Codec.version;
      ]
  in
  Printf.sprintf "%08lx:%d" (Crc32.digest body) (String.length body)

let trace_cache t =
  { Campaign.trace_lookup = lookup t; Campaign.trace_commit = commit t }

let for_campaign ~dir config =
  Result.map trace_cache
    (open_ ~dir ~fingerprint:(campaign_fingerprint config))
