type vcpu_id = { dom : int; vcpu : int }
type priority = Under | Over

type entry = {
  id : vcpu_id;
  weight : int;
  mutable credit : int;
  mutable runnable : bool;
}

type t = {
  entries : entry list;  (** fixed population *)
  mutable queue : entry list;  (** runnable, dispatch order; head = current *)
  refill : int;  (** credits granted per weight unit at refill *)
}

let find t id =
  match List.find_opt (fun e -> e.id = id) t.entries with
  | Some e -> e
  | None -> invalid_arg "Scheduler: unknown vcpu"

let create vcpus =
  if vcpus = [] then invalid_arg "Scheduler.create: no vcpus";
  List.iter
    (fun (_, w) ->
      if w <= 0 then invalid_arg "Scheduler.create: weight must be positive")
    vcpus;
  let entries =
    List.map
      (fun (id, weight) -> { id; weight; credit = weight; runnable = true })
      vcpus
  in
  { entries; queue = entries; refill = 1 }

let current t =
  match t.queue with
  | e :: _ -> e.id
  | [] -> invalid_arg "Scheduler: nothing runnable"

let credits t id = (find t id).credit

let priority_of e = if e.credit > 0 then Under else Over

let priority t id = priority_of (find t id)

let tick t =
  match t.queue with e :: _ -> e.credit <- e.credit - 100 | [] -> ()

let refill_all t =
  List.iter (fun e -> e.credit <- e.credit + (e.weight * t.refill * 100)) t.entries

let sort_queue queue =
  (* Stable partition: Under first, preserving rotation order. *)
  let under = List.filter (fun e -> priority_of e = Under) queue in
  let over = List.filter (fun e -> priority_of e = Over) queue in
  under @ over

let pick_next t =
  (match t.queue with
  | prev :: rest -> t.queue <- sort_queue (rest @ [ prev ])
  | [] -> ());
  if t.queue <> [] && List.for_all (fun e -> priority_of e = Over) t.queue then begin
    refill_all t;
    t.queue <- sort_queue t.queue
  end;
  current t

let block t id =
  let e = find t id in
  e.runnable <- false;
  t.queue <- List.filter (fun e' -> e' != e) t.queue

let wake t id =
  let e = find t id in
  if not e.runnable then begin
    e.runnable <- true;
    (* Boost: an Under waker preempts an Over current. *)
    match t.queue with
    | cur :: _ when priority_of e = Under && priority_of cur = Over ->
        t.queue <- e :: t.queue
    | _ -> t.queue <- sort_queue (t.queue @ [ e ])
  end

let is_runnable t id = (find t id).runnable

let runnable_count t = List.length t.queue

let run_queue t = List.map (fun e -> e.id) t.queue

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf ppf "dom%d.v%d credit=%d %s%s@ " e.id.dom e.id.vcpu
        e.credit
        (match priority_of e with Under -> "UNDER" | Over -> "OVER")
        (if e.runnable then "" else " (blocked)"))
    t.entries;
  Format.fprintf ppf "@]"

let copy t =
  let entries =
    List.map
      (fun e ->
        { id = e.id; weight = e.weight; credit = e.credit; runnable = e.runnable })
      t.entries
  in
  let clone_of e = List.find (fun e' -> e'.id = e.id) entries in
  { entries; queue = List.map clone_of t.queue; refill = t.refill }
