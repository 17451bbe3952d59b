module Campaign = Xentry_faultinject.Campaign
module Pipeline = Xentry_core.Pipeline
module Step = Xentry_serve.Server.Step
module Bounded_queue = Xentry_serve.Bounded_queue
module Pool = Xentry_util.Pool
module Rng = Xentry_util.Rng
module Tm = Xentry_util.Telemetry
module P = Protocol

let tm_shards_run = Tm.counter "cluster.worker.shards_run"
let tm_serve_executed = Tm.counter "cluster.worker.serve_executed"
let tm_serve_shed = Tm.counter "cluster.worker.serve_shed"
let tm_microboots = Tm.counter "cluster.worker.microboots"

(* Worker domains all write to the one socket; frames must not
   interleave. *)
let send_locked mutex conn msg =
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mutex)
    (fun () -> P.send conn msg)

let goodbye conn =
  (try
     if Tm.enabled () then P.send conn (P.Telemetry_drain (Tm.to_json ()));
     P.send conn P.Bye
   with Unix.Unix_error _ | P.Protocol_error _ -> ());
  P.close conn

(* --- campaign mode --------------------------------------------------- *)

let run_batch ~jobs ~send plan shards =
  let batch =
    Array.of_list
      (List.filter_map
         (fun i ->
           if i >= 0 && i < Array.length plan then Some (i, plan.(i)) else None)
         shards)
  in
  if Array.length batch > 0 then
    ignore
      (Pool.parallel_map
         ~jobs:(min jobs (Array.length batch))
         (fun (index, shard_config) ->
           let records, _stats = Campaign.run_shard shard_config in
           Tm.incr tm_shards_run;
           send (P.Shard_result { shard = index; records }))
         batch
        : unit array)

let campaign_loop conn ~jobs config =
  let plan = Array.of_list (List.map snd (Campaign.shard_plan config)) in
  let send_mutex = Mutex.create () in
  let send = send_locked send_mutex conn in
  let bye = ref false in
  let eof = ref false in
  let rec loop () =
    match P.recv conn with
    | None -> P.close conn
    | Some (P.Lease shards) ->
        (* Gather every lease already queued behind this one so the
           pool runs at full width, then work the whole batch. *)
        let rec gather acc =
          let msgs, at_eof = P.try_pump conn in
          if at_eof then eof := true;
          let acc =
            List.fold_left
              (fun acc -> function
                | P.Lease more -> acc @ more
                | P.Bye ->
                    bye := true;
                    acc
                | _ -> acc)
              acc msgs
          in
          if at_eof || msgs = [] then acc else gather acc
        in
        let shards = gather shards in
        run_batch ~jobs ~send plan shards;
        if !bye then goodbye conn
        else if !eof then P.close conn
        else loop ()
    | Some P.Bye -> goodbye conn
    | Some _ -> loop ()
  in
  try loop ()
  with Unix.Unix_error _ | P.Protocol_error _ -> P.close conn

(* --- serve mode ------------------------------------------------------ *)

let executor_loop cfg_cell ~seed ~worker_index ~send ~queue ~draining w =
  (* Micro-reboot on a verdict: a faulted executor recovers its own
     hypervisor and replays the request instead of serving every later
     request on a condemned host. *)
  let step =
    Step.create Xentry_serve.Server.Microboot
      ~seed:(Rng.derive seed (0xC1A5 + (worker_index * 131) + w))
  in
  let serve_one (seq, req) =
    if Atomic.get draining then begin
      Tm.incr tm_serve_shed;
      send (P.Serve_response { seq; detected = false; shed = true })
    end
    else begin
      (* One config read per request: a Detector_push that lands
         mid-request swaps for the NEXT request, so detection and
         (on a verdict) the replay run under one detector version. *)
      let cfg = Atomic.get cfg_cell in
      let detected =
        match (Step.detect step cfg req).Pipeline.verdict with
        | Pipeline.Detected _ ->
            ignore (Step.recover step cfg req : Pipeline.outcome);
            Tm.incr tm_microboots;
            true
        | Pipeline.Clean -> false
      in
      Tm.incr tm_serve_executed;
      send (P.Serve_response { seq; detected; shed = false })
    end
  in
  let rec loop () =
    match Bounded_queue.pop_opt queue with
    | Some item ->
        serve_one item;
        loop ()
    | None ->
        if Bounded_queue.is_closed queue then ()
        else begin
          Stdlib.Domain.cpu_relax ();
          Unix.sleepf 2e-4;
          loop ()
        end
  in
  loop ()

let serve_loop conn ~jobs ~worker_index ~seed pipeline =
  let cfg_cell = Atomic.make pipeline in
  let queue = Bounded_queue.create ~capacity:(max 16 (jobs * 64)) in
  let draining = Atomic.make false in
  let send_mutex = Mutex.create () in
  let send = send_locked send_mutex conn in
  let executors =
    Pool.spawn ~jobs
      (executor_loop cfg_cell ~seed ~worker_index ~send ~queue ~draining)
  in
  let rec read_loop () =
    match P.recv conn with
    | Some (P.Serve_request { seq; req }) ->
        (match Bounded_queue.try_push queue (seq, req) with
        | Ok () -> ()
        | Error (Bounded_queue.Full | Bounded_queue.Closed) ->
            Tm.incr tm_serve_shed;
            send (P.Serve_response { seq; detected = false; shed = true }));
        read_loop ()
    | Some (P.Detector_push det) ->
        (* Install-then-ack: the ack only travels after the Atomic.set,
           so a front that has seen Detector_ack {version} knows every
           later-dequeued request runs under that version. *)
        let cfg = Atomic.get cfg_cell in
        Atomic.set cfg_cell { cfg with Pipeline.Config.detector = Some det };
        send
          (P.Detector_ack
             { worker_index; version = Xentry_core.Detector.version det });
        read_loop ()
    | Some P.Drain | Some P.Bye | None -> ()
    | Some _ -> read_loop ()
    | exception (Unix.Unix_error _ | P.Protocol_error _) -> ()
  in
  read_loop ();
  (* Flush: executors shed whatever is still queued, then stop on the
     empty closed queue. *)
  Atomic.set draining true;
  Bounded_queue.close queue;
  ignore (Pool.join executors : unit array);
  goodbye conn

(* --- entry point ----------------------------------------------------- *)

let run ?jobs ~connect () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
  in
  let conn = P.connect connect in
  P.send conn (P.Hello { jobs });
  match P.recv conn with
  | Some (P.Campaign_spec config) ->
      campaign_loop conn ~jobs { config with Campaign.Config.jobs = Some jobs }
  | Some (P.Serve_spec { worker_index; seed; pipeline }) ->
      serve_loop conn ~jobs ~worker_index ~seed pipeline
  | Some P.Bye | None -> P.close conn
  | Some _ -> P.close conn

(* --- local launcher -------------------------------------------------- *)

let with_workers ~n args f =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pids =
    List.init n (fun _ ->
        Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout
          Unix.stderr)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        pids;
      List.iter
        (fun pid ->
          try ignore (Unix.waitpid [] pid : int * Unix.process_status)
          with Unix.Unix_error _ -> ())
        pids)
    (fun () -> f pids)

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun q -> rm_rf (Filename.concat p q)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let with_scratch_dir name f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xentry-cluster-%d-%s" (Unix.getpid ()) name)
  in
  rm_rf dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
