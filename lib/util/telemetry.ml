(* Metrics/tracing substrate.  See the .mli for the contract; the
   implementation notes here are about domain safety.

   Counters are arrays of Atomic cells indexed by (domain id mod
   shards): increments stay mostly uncontended under the worker pool
   (which runs a handful of domains), reads fold the shards.

   Histograms and events cannot use one atomic per bucket without
   making every observation a read-modify-write on shared cache lines,
   so each recording domain gets a private part (bucket array + event
   list) allocated on first touch through Domain.DLS; the part is also
   linked into the metric's registry under a mutex at that moment, so
   export/merge sees every part even after its worker domain has
   terminated (Pool joins workers before campaigns return, which
   orders their writes before the drain). *)

let enabled_ref = ref false
let enabled () = !enabled_ref
let enable () = enabled_ref := true
let disable () = enabled_ref := false

let shards = 16
let domain_slot () = (Stdlib.Domain.self () :> int) land (shards - 1)

(* --- counters ------------------------------------------------------ *)

type counter = { c_name : string; cells : int Atomic.t array }

let make_counter name =
  { c_name = name; cells = Array.init shards (fun _ -> Atomic.make 0) }

let incr c =
  if !enabled_ref then ignore (Atomic.fetch_and_add c.cells.(domain_slot ()) 1)

let add c n =
  if !enabled_ref then ignore (Atomic.fetch_and_add c.cells.(domain_slot ()) n)

let counter_value c = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.cells

(* --- histograms ---------------------------------------------------- *)

let buckets = 65 (* one per bit length of a non-negative value, plus <= 0 *)

let bucket_of_value v =
  if v <= 0 then 0
  else
    let rec go b v = if v = 0 then b else go (b + 1) (v lsr 1) in
    go 0 v

let bucket_bounds = function
  | 0 -> (min_int, 0)
  | b when b >= 1 && b < buckets -> (1 lsl (b - 1), (1 lsl b) - 1)
  | b -> invalid_arg (Printf.sprintf "Telemetry.bucket_bounds: bucket %d" b)

type part = {
  bucket_counts : int array;
  mutable p_count : int;
  mutable p_sum : int;
}

type histogram = {
  h_name : string;
  h_lock : Mutex.t;
  h_parts : part list ref;
  h_key : part Stdlib.Domain.DLS.key;
}

let make_histogram name =
  let h_lock = Mutex.create () in
  let h_parts = ref [] in
  let h_key =
    Stdlib.Domain.DLS.new_key (fun () ->
        let p =
          { bucket_counts = Array.make buckets 0; p_count = 0; p_sum = 0 }
        in
        Mutex.protect h_lock (fun () -> h_parts := p :: !h_parts);
        p)
  in
  { h_name = name; h_lock; h_parts; h_key }

let observe h v =
  if !enabled_ref then begin
    let p = Stdlib.Domain.DLS.get h.h_key in
    let b = bucket_of_value v in
    p.bucket_counts.(b) <- p.bucket_counts.(b) + 1;
    p.p_count <- p.p_count + 1;
    p.p_sum <- p.p_sum + v
  end

let observe_span h seconds = observe h (int_of_float (seconds *. 1e9))

(* Merged view; parts list is read under the lock, the per-part fields
   are only written by their owning domain (already joined, or the
   caller itself, when summaries are taken). *)
let histogram_parts h = Mutex.protect h.h_lock (fun () -> !(h.h_parts))

let histogram_count h =
  List.fold_left (fun acc p -> acc + p.p_count) 0 (histogram_parts h)

let histogram_sum h =
  List.fold_left (fun acc p -> acc + p.p_sum) 0 (histogram_parts h)

let merged_buckets h =
  let out = Array.make buckets 0 in
  List.iter
    (fun p ->
      Array.iteri (fun i c -> out.(i) <- out.(i) + c) p.bucket_counts)
    (histogram_parts h);
  out

(* --- registry ------------------------------------------------------ *)

type metric = Counter of counter | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let counter name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter c) -> c
      | Some (Histogram _) ->
          invalid_arg
            (Printf.sprintf "Telemetry.counter: %S is a histogram" name)
      | None ->
          let c = make_counter name in
          Hashtbl.replace registry name (Counter c);
          c)

let histogram name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Histogram h) -> h
      | Some (Counter _) ->
          invalid_arg
            (Printf.sprintf "Telemetry.histogram: %S is a counter" name)
      | None ->
          let h = make_histogram name in
          Hashtbl.replace registry name (Histogram h);
          h)

let metrics_sorted () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- spans and events ---------------------------------------------- *)

let with_span name f =
  if not !enabled_ref then f ()
  else begin
    let h = histogram (name ^ ".ns") in
    let t0 = Clock.monotonic () in
    let finally () = observe_span h (Clock.monotonic () -. t0) in
    Fun.protect ~finally f
  end

type event_record = { ev_name : string; ev_fields : (string * Json.t) list }

(* Per-domain event buffers, newest first; registration mirrors the
   histogram parts.  Buffers are bounded: an always-on service (the
   serve engine) emits events indefinitely, and an unbounded buffer
   would be a slow leak.  Once a domain's buffer holds [event_buffer_size]
   records, further events are counted in [telemetry.events_dropped]
   instead of retained — the serve-smoke alias asserts that a healthy
   run drops nothing. *)
type event_part = { mutable ep_items : event_record list; mutable ep_n : int }

let event_parts : event_part list ref = ref []
let event_lock = Mutex.create ()

let event_buffer_size = 65_536

let dropped_counter = counter "telemetry.events_dropped"
let events_dropped () = counter_value dropped_counter

let event_key : event_part Stdlib.Domain.DLS.key =
  Stdlib.Domain.DLS.new_key (fun () ->
      let buf = { ep_items = []; ep_n = 0 } in
      Mutex.protect event_lock (fun () -> event_parts := buf :: !event_parts);
      buf)

let event name fields =
  if !enabled_ref then begin
    let buf = Stdlib.Domain.DLS.get event_key in
    if buf.ep_n >= event_buffer_size then incr dropped_counter
    else begin
      buf.ep_items <- { ev_name = name; ev_fields = fields } :: buf.ep_items;
      buf.ep_n <- buf.ep_n + 1
    end
  end

let merged_events () =
  (* Buffers in registration order (oldest domain last in the list),
     each buffer restored to append order. *)
  Mutex.protect event_lock (fun () -> !event_parts)
  |> List.rev_map (fun buf -> List.rev buf.ep_items)
  |> List.concat

let reset () =
  List.iter
    (function
      | _, Counter c -> Array.iter (fun a -> Atomic.set a 0) c.cells
      | _, Histogram h ->
          List.iter
            (fun p ->
              Array.fill p.bucket_counts 0 buckets 0;
              p.p_count <- 0;
              p.p_sum <- 0)
            (histogram_parts h))
    (metrics_sorted ());
  Mutex.protect event_lock (fun () ->
      List.iter
        (fun buf ->
          buf.ep_items <- [];
          buf.ep_n <- 0)
        !event_parts)

(* --- JSON rendering ------------------------------------------------ *)

(* Non-empty buckets as [[lo, hi, count], ...]; bucket 0's lower bound
   is rendered as 0 (no JSON-representable min_int needed: observed
   values below zero are clamped into that bucket anyway). *)
let histogram_fields h =
  let merged = merged_buckets h in
  let cell b =
    let lo, hi = bucket_bounds b in
    if merged.(b) = 0 then None
    else Some Json.(List [ Int (max lo 0); Int hi; Int merged.(b) ])
  in
  Json.
    [ ("count", Int (histogram_count h)); ("sum", Int (histogram_sum h));
      ("buckets", List (List.filter_map cell (List.init buckets Fun.id))) ]

let event_json e =
  Json.(
    Obj
      [ ("type", String "event"); ("name", String e.ev_name);
        ("fields", Obj e.ev_fields) ])

let export oc =
  let metrics = metrics_sorted () in
  let events = merged_events () in
  let n_counters =
    List.length (List.filter (function _, Counter _ -> true | _ -> false) metrics)
  in
  let line v =
    output_string oc (Json.to_string v);
    output_char oc '\n'
  in
  line
    Json.(
      Obj
        [ ("type", String "meta"); ("schema", String "xentry-telemetry-v1");
          ("counters", Int n_counters);
          ("histograms", Int (List.length metrics - n_counters));
          ("events", Int (List.length events)) ]);
  List.iter
    (fun (name, m) ->
      let typ, body =
        match m with
        | Counter c -> ("counter", [ ("value", Json.Int (counter_value c)) ])
        | Histogram h -> ("histogram", histogram_fields h)
      in
      line
        (Json.Obj
           (("type", Json.String typ) :: ("name", Json.String name) :: body)))
    metrics;
  List.iter (fun e -> line (event_json e)) events

let export_file path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> export oc)

let json () =
  let metrics = metrics_sorted () in
  let section f = Json.Obj (List.filter_map f metrics) in
  Json.Obj
    [ ( "counters",
        section (function
          | name, Counter c -> Some (name, Json.Int (counter_value c))
          | _ -> None) );
      ( "histograms",
        section (function
          | name, Histogram h -> Some (name, Json.Obj (histogram_fields h))
          | _ -> None) );
      ("events", Json.List (List.map event_json (merged_events ()))) ]

let to_json () = Json.to_string (json ())
