module Crc32 = Xentry_store.Crc32

type t = {
  mutable nodes : int list;  (** ascending *)
  mutable entries : (int32 * int) array;  (** (vnode hash, node), sorted *)
}

let vnodes = 64
let create () = { nodes = []; entries = [||] }

(* Ties (two labels hashing equal) are broken by node id, so the ring
   layout is a pure function of the member set. *)
let compare_entries (h1, n1) (h2, n2) =
  match Int32.unsigned_compare h1 h2 with 0 -> compare n1 n2 | c -> c

let rebuild t =
  let entries =
    List.concat_map
      (fun node ->
        List.init vnodes (fun i ->
            (Crc32.digest (Printf.sprintf "node:%d:vnode:%d" node i), node)))
      t.nodes
    |> Array.of_list
  in
  Array.sort compare_entries entries;
  t.entries <- entries

let add t node =
  if not (List.mem node t.nodes) then begin
    t.nodes <- List.sort compare (node :: t.nodes);
    rebuild t
  end

let remove t node =
  if List.mem node t.nodes then begin
    t.nodes <- List.filter (fun n -> n <> node) t.nodes;
    rebuild t
  end

let members t = t.nodes

let lookup t key =
  let n = Array.length t.entries in
  if n = 0 then None
  else
    let h = Crc32.digest key in
    (* First vnode with hash >= h (unsigned), wrapping to entry 0. *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if Int32.unsigned_compare (fst t.entries.(mid)) h < 0 then
          search (mid + 1) hi
        else search lo mid
    in
    let i = search 0 n in
    Some (snd t.entries.(if i = n then 0 else i))
