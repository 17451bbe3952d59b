module Campaign = Xentry_faultinject.Campaign
module Tm = Xentry_util.Telemetry
module P = Protocol

let tm_rtt = Tm.histogram "cluster.worker.rtt_ns"
let tm_shards_leased = Tm.counter "cluster.shards_leased"
let tm_shards_completed = Tm.counter "cluster.shards_completed"
let tm_workers_lost = Tm.counter "cluster.workers_lost"

type progress = { shard : int; worker : int; completed : int; total : int }

type worker_state = {
  id : int;
  conn : P.conn;
  mutable jobs : int;  (** 0 until the Hello arrives *)
  mutable leased : int;
}

type t = {
  config : Campaign.Config.t;
  table : Lease.t;
  results : Xentry_faultinject.Outcome.record list option array;
  checkpoint : Campaign.checkpoint option;
  on_progress : progress -> unit;
  on_worker_telemetry : string -> unit;
  sent_at : (int, float) Hashtbl.t;  (** shard -> lease send time *)
  mutable live : worker_state list;
  mutable ever_connected : int;
  mutable completed : int;
}

(* A worker is gone: drop the connection, return its leases to
   pending, and let the caller top up the survivors. *)
let drop_worker t w =
  t.live <- List.filter (fun w' -> w'.id <> w.id) t.live;
  P.close w.conn;
  let released = Lease.release t.table ~worker:w.id in
  if released <> [] || Lease.outstanding t.table > 0 then
    Tm.incr tm_workers_lost;
  released

(* Top a worker's lease back up to its domain count.  Any send failure
   means the worker just died; recurse so its shards reach whoever is
   left. *)
let rec top_up t w =
  if w.jobs > 0 then begin
    let want = w.jobs - w.leased in
    if want > 0 then
      match Lease.claim t.table ~worker:w.id ~max:want with
      | [] -> ()
      | shards -> (
          w.leased <- w.leased + List.length shards;
          let now = Xentry_util.Clock.monotonic () in
          List.iter
            (fun s ->
              Hashtbl.replace t.sent_at s now;
              Tm.incr tm_shards_leased)
            shards;
          try P.send w.conn (P.Lease shards)
          with Unix.Unix_error _ | P.Protocol_error _ ->
            ignore (drop_worker t w : int list);
            top_up_all t)
  end

and top_up_all t = List.iter (top_up t) t.live

let handle_msg t w = function
  | P.Hello { jobs } ->
      w.jobs <- max 1 jobs;
      (try
         P.send w.conn (P.Campaign_spec t.config);
         top_up t w
       with Unix.Unix_error _ | P.Protocol_error _ ->
         ignore (drop_worker t w : int list);
         top_up_all t)
  | P.Shard_result { shard; _ } when shard < 0 || shard >= Lease.total t.table
    ->
      (* The shard index came off the wire; out of range it would blow
         up the lease table and results array.  A violation, not a
         crash: cut the worker loose like any other confused peer. *)
      ignore (drop_worker t w : int list);
      top_up_all t
  | P.Shard_result { shard; records } -> (
      w.leased <- max 0 (w.leased - 1);
      match Lease.complete t.table shard with
      | `Duplicate -> top_up t w
      | `Committed ->
          t.results.(shard) <- Some records;
          t.completed <- t.completed + 1;
          Tm.incr tm_shards_completed;
          (match Hashtbl.find_opt t.sent_at shard with
          | Some since ->
              Tm.observe_span tm_rtt (Xentry_util.Clock.monotonic () -. since);
              Hashtbl.remove t.sent_at shard
          | None -> ());
          (match t.checkpoint with
          | Some ck -> ck.Campaign.commit shard records
          | None -> ());
          t.on_progress
            {
              shard;
              worker = w.id;
              completed = t.completed;
              total = Lease.total t.table;
            };
          top_up t w)
  | P.Telemetry_drain json -> t.on_worker_telemetry json
  | P.Bye -> ()
  | P.Campaign_spec _ | P.Lease _ | P.Serve_spec _ | P.Serve_request _
  | P.Serve_response _ | P.Drain | P.Detector_push _ | P.Detector_ack _ ->
      (* Protocol violation: this worker is confused; cut it loose. *)
      ignore (drop_worker t w : int list);
      top_up_all t

(* After Bye, give workers a bounded grace period to flush their final
   telemetry dump and close — never hang on a stuck worker.  The
   listener stays in the select set so a straggler that connects after
   the last shard completed (a fast campaign can finish before a
   just-spawned worker is even up) gets an immediate Bye instead of
   retrying against a removed socket. *)
let collect_goodbyes t ~listener ~grace_s =
  let deadline = Xentry_util.Clock.monotonic () +. grace_s in
  let rec go () =
    if t.live <> [] then begin
      let remaining = deadline -. Xentry_util.Clock.monotonic () in
      if remaining > 0. then begin
        let fds = listener :: List.map (fun w -> P.fd w.conn) t.live in
        let readable = P.select fds remaining in
        if List.mem listener readable then begin
          let conn = P.accept listener in
          (try P.send conn P.Bye
           with Unix.Unix_error _ | P.Protocol_error _ -> ());
          P.close conn
        end;
        List.iter
          (fun w ->
            if List.mem (P.fd w.conn) readable then
              match P.pump w.conn with
              | msgs, eof ->
                  List.iter
                    (function
                      | P.Telemetry_drain json -> t.on_worker_telemetry json
                      | _ -> ())
                    msgs;
                  if eof then ignore (drop_worker t w : int list)
              | exception (Unix.Unix_error _ | P.Protocol_error _) ->
                  ignore (drop_worker t w : int list))
          t.live;
        go ()
      end
    end
  in
  go ();
  List.iter (fun w -> P.close w.conn) t.live;
  t.live <- []

let run ?checkpoint ?(idle_timeout_s = 60.) ?(on_progress = fun _ -> ())
    ?(on_worker_telemetry = fun _ -> ()) ~listen config =
  let config = { config with Campaign.Config.jobs = None } in
  let plan = Campaign.shard_plan config in
  let total = List.length plan in
  let t =
    {
      config;
      table = Lease.create total;
      results = Array.make total None;
      checkpoint;
      on_progress;
      on_worker_telemetry;
      sent_at = Hashtbl.create 64;
      live = [];
      ever_connected = 0;
      completed = 0;
    }
  in
  (* Serve journaled shards before leasing anything: a resumed
     campaign only recomputes what never committed. *)
  (match checkpoint with
  | None -> ()
  | Some ck ->
      List.iter
        (fun (i, _) ->
          match ck.Campaign.lookup i with
          | None -> ()
          | Some records ->
              t.results.(i) <- Some records;
              (match Lease.complete t.table i with
              | `Committed -> t.completed <- t.completed + 1
              | `Duplicate -> ()))
        plan);
  P.with_listener listen (fun listener ->
      let next_id = ref 0 in
      let last_event = ref (Xentry_util.Clock.monotonic ()) in
      while not (Lease.finished t.table) do
        (if t.live = [] then
           let idle = Xentry_util.Clock.monotonic () -. !last_event in
           if idle > idle_timeout_s then
             failwith
               (Printf.sprintf
                  "cluster coordinator: no workers for %.0fs with %d shards \
                   outstanding"
                  idle
                  (Lease.outstanding t.table)));
        let fds = listener :: List.map (fun w -> P.fd w.conn) t.live in
        let readable = P.select fds 0.25 in
        if List.mem listener readable then begin
          let conn = P.accept listener in
          let id = !next_id in
          incr next_id;
          t.ever_connected <- t.ever_connected + 1;
          t.live <- t.live @ [ { id; conn; jobs = 0; leased = 0 } ];
          last_event := Xentry_util.Clock.monotonic ()
        end;
        List.iter
          (fun w ->
            if List.mem (P.fd w.conn) readable then begin
              last_event := Xentry_util.Clock.monotonic ();
              match P.pump w.conn with
              | msgs, eof ->
                  (* Handling a message can itself drop [w] (a failed
                     reply send, a protocol violation); later messages
                     from the same pump batch must not be credited to a
                     worker whose leases were already released. *)
                  let still_live () =
                    List.exists (fun w' -> w'.id = w.id) t.live
                  in
                  List.iter
                    (fun m -> if still_live () then handle_msg t w m)
                    msgs;
                  if eof && still_live () then begin
                    ignore (drop_worker t w : int list);
                    top_up_all t
                  end
              | exception (Unix.Unix_error _ | P.Protocol_error _) ->
                  ignore (drop_worker t w : int list);
                  top_up_all t
            end)
          t.live
      done;
      List.iter
        (fun w -> try P.send w.conn P.Bye with _ -> ())
        t.live;
      collect_goodbyes t ~listener ~grace_s:5.;
      Array.to_list t.results
      |> List.concat_map (function
           | Some records -> records
           | None -> assert false))
