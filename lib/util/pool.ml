(* A fixed-size worker pool over OCaml 5 domains.

   The pool fixes the worker count; worker domains are spawned per
   [map] batch and joined before it returns.  Spawning costs tens of
   microseconds — noise next to the multi-second campaign shards this
   pool exists for — and keeps the process at [jobs] live domains at
   most, well clear of the runtime's domain cap, with no shutdown
   protocol or idle workers between batches.

   Work distribution is a chunked work queue: items are claimed one at
   a time from an atomic counter, so a slow chunk (an injection shard
   that keeps crashing the simulated host early, say) does not stall
   the even-split partitions a static slicing would impose. *)

type t = { jobs : int }

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  { jobs }

let jobs t = t.jobs

let env_jobs () =
  match Sys.getenv_opt "XENTRY_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> Some j
      | _ -> None)

let default_jobs () = Option.value (env_jobs ()) ~default:1

let recommended_jobs () = Stdlib.Domain.recommended_domain_count ()

(* Telemetry: the per-item histogram times each work item, the
   queue-wait histogram records how long an item sat in the queue
   before a worker claimed it (claim time minus batch start — the
   dispatch spread a static partitioning would hide), and each worker
   emits one summary event per batch.  Workers write into their own
   domain-local buffers; [map] joins every worker before returning, so
   a drain that follows the batch sees all of it. *)
let tm_item = Telemetry.histogram "pool.item.ns"
let tm_wait = Telemetry.histogram "pool.queue_wait.ns"

let timed_apply f x =
  let start = Clock.monotonic () in
  let v = f x in
  Telemetry.observe_span tm_item (Clock.monotonic () -. start);
  v

let map t f arr =
  let n = Array.length arr in
  if t.jobs = 1 || n <= 1 then
    if !Telemetry.enabled_ref then Array.map (timed_apply f) arr
    else Array.map f arr
  else begin
    let telemetry = !Telemetry.enabled_ref in
    let t0 = if telemetry then Clock.monotonic () else 0.0 in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker widx () =
      let items = ref 0 in
      let busy = ref 0.0 in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && Atomic.get failure = None then begin
          let start = if telemetry then Clock.monotonic () else 0.0 in
          if telemetry then
            Telemetry.observe_span tm_wait (start -. t0);
          (match f arr.(i) with
          | v -> results.(i) <- Some v
          | exception e ->
              (* Keep the first failure; the others lose the race and
                 are dropped with the partial results. *)
              ignore (Atomic.compare_and_set failure None (Some e)));
          if telemetry then begin
            let dur = Clock.monotonic () -. start in
            Telemetry.observe_span tm_item dur;
            incr items;
            busy := !busy +. dur
          end;
          loop ()
        end
      in
      loop ();
      if telemetry then
        Telemetry.event "pool.worker"
          [
            ("worker", Json.Int widx);
            ("items", Json.Int !items);
            ("busy_s", Json.Float !busy);
          ]
    in
    let spawned =
      Array.init (min t.jobs n - 1) (fun k -> Stdlib.Domain.spawn (worker (k + 1)))
    in
    (* The calling domain is the pool's first worker. *)
    worker 0 ();
    Array.iter Stdlib.Domain.join spawned;
    match Atomic.get failure with
    | Some e -> raise e
    | None ->
        Array.map (function Some v -> v | None -> assert false) results
  end

let map_list t f l = Array.to_list (map t f (Array.of_list l))

let parallel_map ~jobs f arr = map (create ~jobs) f arr

(* Long-lived workers: unlike [map]'s batch domains, these run
   concurrently with the caller (which typically keeps producing work
   for them) and are joined explicitly.  The serve engine's substrate:
   each worker owns a hypervisor for the whole service lifetime. *)

type 'a workers = 'a Stdlib.Domain.t array

let spawn ~jobs f =
  if jobs < 1 then invalid_arg "Pool.spawn: jobs must be >= 1";
  Array.init jobs (fun w -> Stdlib.Domain.spawn (fun () -> f w))

let join workers =
  let results =
    Array.map
      (fun d -> match Stdlib.Domain.join d with v -> Ok v | exception e -> Error e)
      workers
  in
  Array.map
    (function
      | Ok v -> v
      | Error e ->
          (* Every domain is joined above before any exception escapes,
             so no worker is leaked. *)
          raise e)
    results
