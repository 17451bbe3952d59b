type event = Inst_retired | Br_inst_retired | Mem_loads | Mem_stores

let index = function
  | Inst_retired -> 0
  | Br_inst_retired -> 1
  | Mem_loads -> 2
  | Mem_stores -> 3

type t = { mutable enabled : bool; counters : int array }

let create () = { enabled = false; counters = Array.make 4 0 }

let enable t =
  Array.fill t.counters 0 4 0;
  t.enabled <- true

let disable t = t.enabled <- false

let add t ev n = if t.enabled then
    let i = index ev in
    t.counters.(i) <- t.counters.(i) + n

let read t ev = t.counters.(index ev)

type snapshot = { inst : int; branches : int; loads : int; stores : int }

let snapshot t =
  {
    inst = read t Inst_retired;
    branches = read t Br_inst_retired;
    loads = read t Mem_loads;
    stores = read t Mem_stores;
  }

let pp_snapshot ppf s =
  Format.fprintf ppf "inst=%d br=%d ld=%d st=%d" s.inst s.branches s.loads
    s.stores
