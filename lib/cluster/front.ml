module Server = Xentry_serve.Server
module Tm = Xentry_util.Telemetry
module P = Protocol

let tm_offered = Tm.counter "cluster.front.offered"
let tm_sent = Tm.counter "cluster.front.sent"
let tm_completed = Tm.counter "cluster.front.completed"
let tm_shed_window = Tm.counter "cluster.front.shed_window_full"
let tm_shed_lost = Tm.counter "cluster.front.shed_worker_lost"
let tm_rebalances = Tm.counter "cluster.front.rebalances"
let tm_rtt = Tm.histogram "cluster.worker.rtt_ns"

type summary = {
  wall_s : float;
  offered : int;
  sent : int;
  completed : int;
  detected : int;
  shed_window_full : int;
  shed_worker_lost : int;
  shed_draining : int;
  throughput_rps : float;
  latency_us : float array;
  workers_lost : int;
  streams_remapped : int;
  worker_telemetry : string list;
  detector_pushes : int;
  detector_acks : (int * int) list;
      (* (worker_index, last acked version), fleet order *)
}

let latency_quantile s q =
  if Array.length s.latency_us = 0 then 0.
  else Xentry_util.Stats.quantile s.latency_us q

let summary_json ~workers s =
  let open Xentry_util.Json in
  let q p = Float (latency_quantile s p) in
  Obj
    [ ("schema", String "xentry-cluster-serve-v1"); ("workers", Int workers);
      ("wall_s", Float s.wall_s); ("offered", Int s.offered);
      ("sent", Int s.sent); ("completed", Int s.completed);
      ("detected", Int s.detected);
      ("shed_window_full", Int s.shed_window_full);
      ("shed_worker_lost", Int s.shed_worker_lost);
      ("shed_draining", Int s.shed_draining);
      ("throughput_rps", Float s.throughput_rps);
      ("latency_us", Obj [ ("p50", q 0.50); ("p90", q 0.90); ("p99", q 0.99) ]);
      ("workers_lost", Int s.workers_lost);
      ("streams_remapped", Int s.streams_remapped) ]

type wstate = {
  wid : int;
  conn : P.conn;
  inflight : (int, float) Hashtbl.t;  (** seq -> send time *)
  mutable alive : bool;
}

(* Monotonic: drain deadlines survive NTP steps. *)
let now () = Xentry_util.Clock.monotonic ()

let stream_key s = Printf.sprintf "stream:%d" s

let run ?(on_tick = fun ~elapsed:_ -> ()) ?push ~listen ~workers
    (cfg : Server.config) =
  if workers < 1 then invalid_arg "Front.run: workers < 1";
  P.with_listener listen @@ fun listener ->
  (* Setup: collect the full fleet before offering any load, so the
     measured window never includes a half-built ring. *)
  let fleet =
    Array.init workers (fun i ->
        if P.select [ listener ] 30. = [] then
          failwith "cluster front: timed out waiting for workers";
        let conn = P.accept listener in
        (match P.recv conn with
        | Some (P.Hello _) -> ()
        | _ -> failwith "cluster front: worker did not say hello");
        P.send conn
          (P.Serve_spec
             {
               worker_index = i;
               seed = cfg.Server.seed;
               pipeline = cfg.Server.pipeline;
             });
        { wid = i; conn; inflight = Hashtbl.create 256; alive = true })
  in
  let ring = Ring.create () in
  Array.iter (fun w -> Ring.add ring w.wid) fleet;
  let owners = Array.make cfg.Server.streams (-1) in
  let remap () =
    (* Count the streams whose owner changed — the locality cost of a
       membership change. *)
    let moved = ref 0 in
    for s = 0 to cfg.Server.streams - 1 do
      let owner =
        match Ring.lookup ring (stream_key s) with Some w -> w | None -> -1
      in
      if owners.(s) <> owner then begin
        if owners.(s) >= 0 then incr moved;
        owners.(s) <- owner
      end
    done;
    !moved
  in
  ignore (remap () : int);
  let arrivals = Server.arrivals cfg in
  let offered = ref 0 in
  let sent = ref 0 in
  let completed = ref 0 in
  let detected = ref 0 in
  let shed_window_full = ref 0 in
  let shed_worker_lost = ref 0 in
  let shed_draining = ref 0 in
  let workers_lost = ref 0 in
  let streams_remapped = ref 0 in
  let detector_pushes = ref 0 in
  let acked_version = Array.make workers (-1) in
  let worker_telemetry = ref [] in
  let latencies = ref [] in
  let n_latencies = ref 0 in
  let record_latency us =
    if !n_latencies < cfg.Server.max_samples then begin
      latencies := us :: !latencies;
      incr n_latencies
    end
  in
  let window = cfg.Server.queue_capacity in
  let seq = ref 0 in
  (* A worker leaves the fleet.  Outside the drain that is a death:
     the ring drops it, its streams remap, and whatever it still owed
     is lost.  While draining it is an orderly goodbye: the worker
     already flushed, so what is still in flight is billed as drained,
     not as a death. *)
  let retire_worker ~draining w =
    if w.alive then begin
      w.alive <- false;
      P.close w.conn;
      if draining then Hashtbl.iter (fun _ _ -> incr shed_draining) w.inflight
      else begin
        Ring.remove ring w.wid;
        incr workers_lost;
        Tm.incr tm_rebalances;
        streams_remapped := !streams_remapped + remap ();
        Hashtbl.iter
          (fun _ _ ->
            incr shed_worker_lost;
            Tm.incr tm_shed_lost)
          w.inflight
      end;
      Hashtbl.clear w.inflight
    end
  in
  let kill_worker = retire_worker ~draining:false in
  (* A send that fails means the worker just died. *)
  let send w m =
    try
      P.send w.conn m;
      true
    with Unix.Unix_error _ | P.Protocol_error _ ->
      kill_worker w;
      false
  in
  let handle ~draining w m =
    match m with
    | P.Serve_response { seq = s; detected = d; shed } -> (
        match Hashtbl.find_opt w.inflight s with
        | None -> ()
        | Some sent_at ->
            Hashtbl.remove w.inflight s;
            if shed then begin
              if draining then incr shed_draining
              else begin
                incr shed_worker_lost;
                Tm.incr tm_shed_lost
              end
            end
            else begin
              incr completed;
              if d then incr detected;
              Tm.incr tm_completed;
              let dt = now () -. sent_at in
              Tm.observe_span tm_rtt dt;
              record_latency (dt *. 1e6)
            end)
    | P.Telemetry_drain json -> worker_telemetry := json :: !worker_telemetry
    | P.Detector_ack { worker_index; version } ->
        if worker_index >= 0 && worker_index < workers then
          acked_version.(worker_index) <- max acked_version.(worker_index) version
    | P.Bye -> if draining then retire_worker ~draining w
    | _ -> ()
  in
  (* The one poll loop: wait up to [timeout] for any live worker, then
     pump every readable one.  An EOF or a socket error retires the
     worker. *)
  let poll ~draining timeout =
    let live = Array.to_list fleet |> List.filter (fun w -> w.alive) in
    if live = [] then Unix.sleepf (min timeout 0.01)
    else begin
      let readable = P.select (List.map (fun w -> P.fd w.conn) live) timeout in
      List.iter
        (fun w ->
          if List.mem (P.fd w.conn) readable then
            match P.pump w.conn with
            | msgs, eof ->
                List.iter (handle ~draining w) msgs;
                if eof then retire_worker ~draining w
            | exception (Unix.Unix_error _ | P.Protocol_error _) ->
                retire_worker ~draining w)
        live
    end
  in
  let t0 = now () in
  let last_tick = ref t0 in
  while now () -. t0 < cfg.Server.duration_s do
    poll ~draining:false Server.tick_s;
    let t = now () in
    if t -. !last_tick >= Server.tick_s then begin
      let dt = t -. !last_tick in
      last_tick := t;
      let elapsed = t -. t0 in
      arrivals ~elapsed ~dt (fun s stream ->
          incr offered;
          Tm.incr tm_offered;
          match owners.(s) with
          | -1 ->
              incr shed_worker_lost;
              Tm.incr tm_shed_lost
          | wid ->
              let w = fleet.(wid) in
              if (not w.alive) || Hashtbl.length w.inflight >= window then begin
                incr shed_window_full;
                Tm.incr tm_shed_window
              end
              else begin
                let req = Xentry_workload.Stream.next_request stream in
                let this_seq = !seq in
                incr seq;
                if send w (P.Serve_request { seq = this_seq; req }) then begin
                  Hashtbl.replace w.inflight this_seq (now ());
                  incr sent;
                  Tm.incr tm_sent
                end
                else begin
                  incr shed_worker_lost;
                  Tm.incr tm_shed_lost
                end
              end);
      (* Hot-swap broadcast: the caller decides when a (shadow-gated)
         detector is ready; the front just fans it out.  A worker that
         dies mid-push is killed exactly like a failed request send. *)
      (match push with
      | None -> ()
      | Some f -> (
          match f ~elapsed with
          | None -> ()
          | Some det ->
              incr detector_pushes;
              Array.iter
                (fun w ->
                  if w.alive then ignore (send w (P.Detector_push det) : bool))
                fleet));
      on_tick ~elapsed
    end
  done;
  (* Drain: ask every survivor to flush, then collect stragglers,
     telemetry and goodbyes under a grace bound. *)
  Array.iter (fun w -> if w.alive then ignore (send w P.Drain : bool)) fleet;
  let grace_deadline = now () +. 15. in
  while Array.exists (fun w -> w.alive) fleet && now () < grace_deadline do
    poll ~draining:true (Float.max 0. (min 0.25 (grace_deadline -. now ())))
  done;
  Array.iter kill_worker fleet;
  let wall_s = now () -. t0 in
  {
    wall_s;
    offered = !offered;
    sent = !sent;
    completed = !completed;
    detected = !detected;
    shed_window_full = !shed_window_full;
    shed_worker_lost = !shed_worker_lost;
    shed_draining = !shed_draining;
    throughput_rps =
      (if wall_s > 0. then float_of_int !completed /. wall_s else 0.);
    latency_us = Array.of_list (List.rev !latencies);
    workers_lost = !workers_lost;
    streams_remapped = !streams_remapped;
    worker_telemetry = List.rev !worker_telemetry;
    detector_pushes = !detector_pushes;
    detector_acks =
      Array.to_list (Array.mapi (fun i v -> (i, v)) acked_version);
  }

let append_worker_telemetry ~path dumps =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iteri
        (fun i json ->
          Printf.fprintf oc
            "{\"type\":\"cluster-worker\",\"worker\":%d,\"telemetry\":%s}\n" i
            json)
        dumps)
