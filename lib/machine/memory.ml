exception Fault of { addr : int64; write : bool }

let page_size = 4096
let page_bits = 12

(* Pages are copy-on-write.  A page record is immutable data plus an
   [owner] tag: the id of the one memory allowed to write it in place.
   [copy] freezes every page of the source (owner 0 — nobody's) and
   shares the whole page table with the snapshot, so cloning is O(1)
   in mapped pages; whichever side writes a shared or frozen page first
   replaces its own binding with a private duplicate.  The other
   side's binding still reaches the original record, so writes never
   alias across a snapshot in either direction.

   [stamp] serves the undo journal (see [checkpoint]): the epoch of its
   owner in which the record was created or last journaled, so a
   record whose stamp is behind its owner's epoch has not yet been
   written in place since the last checkpoint. *)
type page = { data : Bytes.t; mutable owner : int; mutable stamp : int }

(* The page table is a persistent map so that [copy] — the hot
   operation of snapshot capture and restore in injection campaigns —
   shares the root in O(1) instead of duplicating a mutable table.
   Updates (mapping, unmapping, COW privatisation) rebind the [pages]
   field; the peer memory keeps the old root, so structural sharing
   does the aliasing bookkeeping for free. *)
module PageMap = Map.Make (Int64)

(* Software TLB: a direct-mapped translation cache (page number ->
   Bytes.t) in front of the persistent map that backs the page table.
   Load/store/fetch paths hit the arrays below and skip both the
   balanced-tree search and the [find_opt] option allocation.  Tags
   are native [int] page numbers (a 64-bit address has 52 of them, so
   they fit), which a fill stores without boxing; [read_frame] and
   [write_frame] expose the probe alone to the CPU's in-page fast
   path.

   Correctness hinges on invalidation, which is generation-based: an
   entry is live only while its [gen] slot equals the memory's current
   [generation].  The counter is bumped whenever a cached translation
   could go stale wholesale:

   - [copy] (snapshotting): the source loses ownership of every page,
     so cached *write* translations would let it scribble on frozen
     pages shared with the snapshot;
   - [unmap_region]: cached translations would resurrect dead pages.

   A [checkpoint] keeps ownership and the page table, so it only
   clears the write slots: the next write to each page must reach the
   slow path, which journals the page (see [checkpoint]).

   Privatisation (the first write to a shared/frozen page) replaces
   only this memory's own binding, so it refreshes the affected slots
   in place instead of bumping the generation.  The peer memory's TLB
   is untouched — its binding still reaches the original record, which
   nobody will mutate again. *)
let tlb_bits = 7
let tlb_slots = 1 lsl tlb_bits (* 128 *)

type t = {
  id : int;
  mutable pages : page PageMap.t;
  (* Pages currently owned by this memory (mapped or privatised since
     the last [copy]).  [copy] freezes exactly these instead of
     sweeping the whole page table, so cloning an already-frozen
     memory — the common case when a snapshot is restored repeatedly —
     skips the sweep entirely.  Entries can go stale when a page is
     unmapped; freezing a detached record is harmless. *)
  mutable owned : page list;
  mutable generation : int;
  mutable released : bool;
  (* Undo journal: [epoch] counts checkpoints (0 — never checkpointed),
     [saved] is the page table at the last one, and [journal] pairs
     each record written in place since then with a frozen record
     holding its bytes at the checkpoint.  [journal_shared]: a
     checkpoint copy binds those pre-image records, so they are no
     longer this memory's to recycle. *)
  mutable epoch : int;
  mutable saved : page PageMap.t;
  mutable journal : (page * page) list;
  mutable journal_shared : bool;
  (* read TLB: page may be shared; safe for loads only *)
  r_tag : int array;
  r_gen : int array;
  r_data : Bytes.t array;
  (* write TLB: page known owned by [id]; safe for in-place stores *)
  w_tag : int array;
  w_gen : int array;
  w_data : Bytes.t array;
}

let frozen = 0
let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

(* Telemetry: probe outcomes for both TLBs plus COW privatisations.
   Hot paths pre-check [Telemetry.enabled_ref] (one load + one
   predictable branch) so the disabled interpreter loop pays near
   nothing; the slow paths record unconditionally through the
   (internally gated) counter API. *)
module Tm = Xentry_util.Telemetry

let tm_read_hit = Tm.counter "memory.tlb.read.hit"
let tm_read_miss = Tm.counter "memory.tlb.read.miss"
let tm_write_hit = Tm.counter "memory.tlb.write.hit"
let tm_write_miss = Tm.counter "memory.tlb.write.miss"
let tm_cow = Tm.counter "memory.cow.privatise"
let tm_preimage = Tm.counter "memory.checkpoint.preimage"

let no_bytes = Bytes.create 0

let fresh id =
  {
    id;
    pages = PageMap.empty;
    owned = [];
    (* Generation 1 with all-zero [gen] slots means a fresh TLB starts
       empty without initializing the tag arrays to a sentinel. *)
    generation = 1;
    released = false;
    epoch = 0;
    saved = PageMap.empty;
    journal = [];
    journal_shared = false;
    r_tag = Array.make tlb_slots 0;
    r_gen = Array.make tlb_slots 0;
    r_data = Array.make tlb_slots no_bytes;
    w_tag = Array.make tlb_slots 0;
    w_gen = Array.make tlb_slots 0;
    w_data = Array.make tlb_slots no_bytes;
  }

(* Recycling.  A fault-injection campaign materialises a host per
   simulated fault, runs a short suffix on it and throws it away.
   Every page the host privatised on the way is a fresh 4 KiB
   [Bytes.t] — too big for the minor heap, so it is allocated straight
   into the major heap — and every memory carries six 128-slot TLB
   arrays.  [release] hands both to small per-domain pools that
   privatisation, [map_region] and [create]/[copy] draw from.

   Safety rests on the ownership invariant: a page with
   [owner = t.id] is referenced only by [t], because [copy] and
   [copy_checkpoint] freeze the owned pages before they share the
   table and nothing else puts a record into a second memory.  So
   [release] recycles exactly the pages on [t.owned] that [t] still
   owns; a frozen page may be shared and is never recycled.  The
   checkpoint journal's pre-images follow the same rule: they are
   recycled at the next checkpoint or [release] unless a
   [copy_checkpoint] binds them.  A pooled frame is overwritten in full
   before reuse (zeroed for [map_region], the source page for
   privatisation and pre-images).

   The TLB pool holds the released memories themselves: a new memory
   adopts a donor's six arrays and carries on from the donor's last
   generation + 1, so every slot filled under the donor misses.  The
   donor stays frozen at that generation, below everything the
   adopter fills, so a use-after-release still misses the TLB and
   lands in the slow path, which raises.

   Pools are domain-local ([Domain.DLS], no locks) and small.  A
   planned campaign keeps one faulted host alive at a time and
   recycles as well with 8 frames and one TLB set as with 128 and 16.
   Pooled frames are live memory: at 128 and 16 they left the
   micro-reboot serve benchmark, which trains its detector through
   campaigns first, about 1.3 MiB more resident after training.  See
   DESIGN.md §9. *)
let frame_pool_cap = 32
let tlb_pool_cap = 4

type pool = {
  frames : Bytes.t array;
  mutable n_frames : int;
  donors : t array;  (** released memories whose TLB arrays are free *)
  mutable n_donors : int;
}

(* Filler for empty donor slots; never read or written. *)
let placeholder = fresh frozen

let pool_key =
  Domain.DLS.new_key (fun () ->
      {
        frames = Array.make frame_pool_cap no_bytes;
        n_frames = 0;
        donors = Array.make tlb_pool_cap placeholder;
        n_donors = 0;
      })

let create () =
  let p = Domain.DLS.get pool_key in
  if p.n_donors = 0 then fresh (fresh_id ())
  else begin
    p.n_donors <- p.n_donors - 1;
    let d = p.donors.(p.n_donors) in
    p.donors.(p.n_donors) <- placeholder;
    {
      id = fresh_id ();
      pages = PageMap.empty;
      owned = [];
      generation = d.generation + 1;
      released = false;
      epoch = 0;
      saved = PageMap.empty;
      journal = [];
      journal_shared = false;
      r_tag = d.r_tag;
      r_gen = d.r_gen;
      r_data = d.r_data;
      w_tag = d.w_tag;
      w_gen = d.w_gen;
      w_data = d.w_data;
    }
  end

(* A pooled page frame with stale contents, or [no_bytes] when the
   pool is empty. *)
let pop_frame () =
  let p = Domain.DLS.get pool_key in
  if p.n_frames = 0 then no_bytes
  else begin
    p.n_frames <- p.n_frames - 1;
    let f = p.frames.(p.n_frames) in
    p.frames.(p.n_frames) <- no_bytes;
    f
  end

(* The frame of a newly mapped page. *)
let zero_frame () =
  let f = pop_frame () in
  if f == no_bytes then Bytes.make page_size '\000'
  else begin
    Bytes.fill f 0 page_size '\000';
    f
  end

(* The frame of a private duplicate of [src]. *)
let copy_frame src =
  let f = pop_frame () in
  if f == no_bytes then Bytes.copy src
  else begin
    Bytes.blit src 0 f 0 page_size;
    f
  end

let released_arg fn = invalid_arg (fn ^ ": memory was released")
let check_live t fn = if t.released then released_arg fn

let page_of addr = Int64.shift_right_logical addr page_bits
let page_number addr = Int64.to_int (page_of addr)
let offset_of addr = Int64.to_int (Int64.logand addr 0xFFFL)
let slot_of pn = pn land (tlb_slots - 1)

let flush_tlb t = t.generation <- t.generation + 1

let map_region t ~addr ~size =
  check_live t "Memory.map_region";
  if size < 0 then invalid_arg "Memory.map_region: negative size";
  if size = 0 then ()
  else
    let first = page_of addr in
    let last = page_of (Int64.add addr (Int64.of_int (size - 1))) in
    let rec go p =
      if Int64.compare p last <= 0 then begin
        if not (PageMap.mem p t.pages) then begin
          let pg = { data = zero_frame (); owner = t.id; stamp = t.epoch } in
          t.pages <- PageMap.add p pg t.pages;
          t.owned <- pg :: t.owned
        end;
        go (Int64.add p 1L)
      end
    in
    go first

let unmap_region t ~addr ~size =
  check_live t "Memory.unmap_region";
  if size > 0 then begin
    let first = page_of addr in
    let last = page_of (Int64.add addr (Int64.of_int (size - 1))) in
    let rec go p =
      if Int64.compare p last <= 0 then begin
        t.pages <- PageMap.remove p t.pages;
        go (Int64.add p 1L)
      end
    in
    go first;
    flush_tlb t
  end

(* TLB fill helpers: record a translation at the current generation. *)
let fill_read t slot pn data =
  t.r_tag.(slot) <- pn;
  t.r_gen.(slot) <- t.generation;
  t.r_data.(slot) <- data

let fill_write t slot pn data =
  t.w_tag.(slot) <- pn;
  t.w_gen.(slot) <- t.generation;
  t.w_data.(slot) <- data

(* A released memory has an empty page table and a TLB generation no
   slot carries, so every access to it ends here; it raises
   [Invalid_argument], never [Fault], which the CPU would turn into a
   simulated page fault and so hide the lifetime bug in a record. *)
let unmapped t addr ~write =
  if t.released then released_arg "Memory: access"
  else raise (Fault { addr; write })

let read_page_slow t addr pn =
  Tm.incr tm_read_miss;
  match PageMap.find_opt (Int64.of_int pn) t.pages with
  | Some p ->
      fill_read t (slot_of pn) pn p.data;
      p.data
  | None -> unmapped t addr ~write:false

(* The TLB probes: the frame a live translation of page number [pn]
   holds, or [no_frame] on a miss.  The CPU's in-page fast path calls
   them directly; a miss there counts nothing, because the caller then
   takes [load64]/[store64], whose own probe counts the miss and fills
   the slot.  A released memory always misses (see [unmapped]). *)
let no_frame = no_bytes

let read_frame t pn =
  let slot = slot_of pn in
  if t.r_gen.(slot) = t.generation && t.r_tag.(slot) = pn then begin
    if !Tm.enabled_ref then Tm.incr tm_read_hit;
    t.r_data.(slot)
  end
  else no_frame

let write_frame t pn =
  let slot = slot_of pn in
  if t.w_gen.(slot) = t.generation && t.w_tag.(slot) = pn then begin
    if !Tm.enabled_ref then Tm.incr tm_write_hit;
    t.w_data.(slot)
  end
  else no_frame

let read_page t addr =
  let pn = page_number addr in
  let frame = read_frame t pn in
  if frame != no_frame then frame else read_page_slow t addr pn

(* The first in-place write of an epoch to a record the memory owned
   at its last checkpoint: keep the record's bytes in a frozen
   pre-image before they change.  A record stamped with the current
   epoch was created after the checkpoint (mapping or privatisation),
   so the saved page table does not bind it, or has been journaled
   already.  A memory that never checkpoints stamps every record with
   epoch 0, so the check never fires. *)
let journal t p =
  Tm.incr tm_preimage;
  let pre = { data = copy_frame p.data; owner = frozen; stamp = 0 } in
  t.journal <- (p, pre) :: t.journal;
  p.stamp <- t.epoch

(* The write path's copy-on-write step: a page this memory does not
   own is duplicated into a private binding before the first byte is
   touched.  Both TLB slots are refreshed with the private bytes —
   critically the *read* slot, which may still hold the shared
   record's data. *)
let write_page_slow t addr pn =
  Tm.incr tm_write_miss;
  let slot = slot_of pn in
  let key = Int64.of_int pn in
  match PageMap.find_opt key t.pages with
  | Some p when p.owner = t.id ->
      if p.stamp <> t.epoch then journal t p;
      fill_write t slot pn p.data;
      fill_read t slot pn p.data;
      p.data
  | Some p ->
      Tm.incr tm_cow;
      let priv = { data = copy_frame p.data; owner = t.id; stamp = t.epoch } in
      t.pages <- PageMap.add key priv t.pages;
      t.owned <- priv :: t.owned;
      fill_write t slot pn priv.data;
      fill_read t slot pn priv.data;
      priv.data
  | None -> unmapped t addr ~write:true

let write_page t addr =
  let pn = page_number addr in
  let frame = write_frame t pn in
  if frame != no_frame then frame else write_page_slow t addr pn

let is_mapped t addr =
  check_live t "Memory.is_mapped";
  PageMap.mem (page_of addr) t.pages

let load8 t addr = Char.code (Bytes.get (read_page t addr) (offset_of addr))

let store8 t addr v =
  Bytes.set (write_page t addr) (offset_of addr) (Char.chr (v land 0xFF))

let same_page a b = Int64.equal (page_of a) (page_of b)

let load64 t addr =
  let last = Int64.add addr 7L in
  if same_page addr last then
    (* Fast path: the whole word lives in one page. *)
    Bytes.get_int64_le (read_page t addr) (offset_of addr)
  else
    let rec go i acc =
      if i > 7 then acc
      else
        let b = load8 t (Int64.add addr (Int64.of_int i)) in
        go (i + 1) (Int64.logor acc (Int64.shift_left (Int64.of_int b) (8 * i)))
    in
    go 0 0L

let store64 t addr v =
  let last = Int64.add addr 7L in
  if same_page addr last then
    Bytes.set_int64_le (write_page t addr) (offset_of addr) v
  else
    for i = 0 to 7 do
      let b =
        Int64.to_int
          (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)
      in
      store8 t (Int64.add addr (Int64.of_int i)) b
    done

(* Bulk transfers go page by page through the same translation paths
   as single bytes, so they fault at the first unmapped byte — having
   moved every byte before it — exactly as a byte loop would. *)
let blit_out t ~addr ~len =
  let out = Bytes.create len in
  let rec go pos =
    if pos < len then begin
      let at = Int64.add addr (Int64.of_int pos) in
      let off = offset_of at in
      let chunk = min (page_size - off) (len - pos) in
      Bytes.blit (read_page t at) off out pos chunk;
      go (pos + chunk)
    end
  in
  go 0;
  out

let blit_in t ~addr data =
  let len = Bytes.length data in
  let rec go pos =
    if pos < len then begin
      let at = Int64.add addr (Int64.of_int pos) in
      let off = offset_of at in
      let chunk = min (page_size - off) (len - pos) in
      Bytes.blit data pos (write_page t at) off chunk;
      go (pos + chunk)
    end
  in
  go 0

(* Page-at-a-time comparison.  A page bound to one record in both
   memories — shared since a snapshot and written by neither side — or
   unmapped in both is equal by construction and never read; a page
   mapped on one side only differs at its first byte; two distinct
   records are compared word by word.  [absent] stands in for an
   unmapped page so lookups allocate no option. *)
let absent = { data = no_bytes; owner = frozen; stamp = 0 }

let find_page t pn =
  match PageMap.find pn t.pages with p -> p | exception Not_found -> absent

(* Offset of the first differing byte of two page frames in
   [off, off + len), or -1: word-at-a-time, dropping to bytes only to
   pin down the exact byte inside a mismatching word (and for the
   sub-word tail). *)
let frame_difference da db ~off ~len =
  let rec byte_scan i limit =
    if i >= limit then if limit = len then -1 else word_scan limit
    else if Bytes.get da (off + i) <> Bytes.get db (off + i) then i
    else byte_scan (i + 1) limit
  and word_scan i =
    if len - i >= 8 then
      if
        Int64.equal
          (Bytes.get_int64_ne da (off + i))
          (Bytes.get_int64_ne db (off + i))
      then word_scan (i + 8)
      else byte_scan i (i + 8)
    else byte_scan i len
  in
  word_scan 0

let first_difference a b ~addr ~len =
  check_live a "Memory.first_difference";
  check_live b "Memory.first_difference";
  let rec walk pos =
    if pos >= len then None
    else
      let at = Int64.add addr (Int64.of_int pos) in
      let off = offset_of at in
      let chunk = min (page_size - off) (len - pos) in
      let pn = page_of at in
      let pa = find_page a pn and pb = find_page b pn in
      if pa == pb then walk (pos + chunk)
      else if pa == absent || pb == absent then Some at
      else
        match frame_difference pa.data pb.data ~off ~len:chunk with
        | -1 -> walk (pos + chunk)
        | i -> Some (Int64.add at (Int64.of_int i))
  in
  walk 0

let region_equal a b ~addr ~len = first_difference a b ~addr ~len = None

let page_shared a b pn =
  check_live a "Memory.page_shared";
  check_live b "Memory.page_shared";
  find_page a pn == find_page b pn

let page_range_equal a b pn ~off ~len =
  check_live a "Memory.page_range_equal";
  check_live b "Memory.page_range_equal";
  if off < 0 || len < 0 || off + len > page_size then
    invalid_arg "Memory.page_range_equal: range leaves the page";
  let pa = find_page a pn and pb = find_page b pn in
  pa == pb
  || (pa != absent && pb != absent
     && frame_difference pa.data pb.data ~off ~len = -1)

(* Freeze: after a copy neither side owns the shared pages, so the
   first write on either side duplicates rather than mutates.  The
   source's cached translations die with the generation bump: stale
   write entries would bypass the ownership check and scribble on
   pages the copy now shares.  (Read entries are collateral damage —
   they still point at the right bytes — but one wholesale bump is
   cheaper than a tagged flush.)  A source that owns nothing — typical
   of a snapshot being restored again — has no pages to freeze and,
   since write translations are only ever filled for owned pages, no
   stale write entries either, so both steps are skipped. *)
let freeze t =
  if t.owned <> [] then begin
    List.iter (fun p -> p.owner <- frozen) t.owned;
    t.owned <- [];
    flush_tlb t
  end

let copy t =
  check_live t "Memory.copy";
  freeze t;
  let c = create () in
  c.pages <- t.pages;
  c

let push_frame p f =
  if p.n_frames < frame_pool_cap then begin
    p.frames.(p.n_frames) <- f;
    p.n_frames <- p.n_frames + 1
  end

(* Hand the current epoch's pre-image frames to the pool, unless a
   checkpoint copy binds them. *)
let recycle_journal t =
  if not t.journal_shared then begin
    let p = Domain.DLS.get pool_key in
    List.iter (fun (_, pre) -> push_frame p pre.data) t.journal
  end;
  t.journal <- [];
  t.journal_shared <- false

(* Undo journal.  A micro-rebooting server captures its live host
   before every request and almost never needs the capture.  [copy]
   would freeze every page the host owns, so the request's writes
   would then duplicate each page they touch into a fresh frame.  A
   checkpoint instead keeps the persistent page table as it stands —
   an O(1) root — and lets the live host go on writing its own pages
   in place: the first write of the epoch to such a page first copies
   its bytes into a pooled frame (the pre-image, [journal]).  The
   copy at the checkpoint is the saved table with every journaled
   record replaced by its pre-image, wherever the table binds it.

   The journal is keyed by record, not by page number: a TLB strike
   can bind one record at two page numbers, or steer a page number at
   a record the saved table binds elsewhere.  Records mapped or
   privatised after the checkpoint are stamped with its epoch and
   never journaled: the saved table does not bind them.  Write
   translations are dropped at each checkpoint so that the first write
   of the epoch to every page takes the slow path; read translations
   stay valid, since the page table does not change. *)
type checkpoint = { ck_mem : t; ck_epoch : int }

let checkpoint t =
  check_live t "Memory.checkpoint";
  recycle_journal t;
  t.saved <- t.pages;
  t.epoch <- t.epoch + 1;
  (* No generation is 0, so every write translation misses. *)
  Array.fill t.w_gen 0 tlb_slots 0;
  { ck_mem = t; ck_epoch = t.epoch }

let copy_checkpoint { ck_mem = t; ck_epoch } =
  check_live t "Memory.copy_checkpoint";
  if ck_epoch <> t.epoch then
    invalid_arg "Memory.copy_checkpoint: superseded by a later checkpoint";
  (* The copy shares every record the saved table binds with [t], so
     [t] must stop writing them in place, as for [copy]. *)
  freeze t;
  let overlay pn p pages =
    match List.assq_opt p t.journal with
    | Some pre -> PageMap.add pn pre pages
    | None -> pages
  in
  let c = create () in
  c.pages <-
    (if t.journal = [] then t.saved else PageMap.fold overlay t.saved t.saved);
  t.journal_shared <- true;
  c

let release t =
  check_live t "Memory.release";
  let p = Domain.DLS.get pool_key in
  List.iter (fun pg -> if pg.owner = t.id then push_frame p pg.data) t.owned;
  recycle_journal t;
  t.released <- true;
  t.pages <- PageMap.empty;
  t.saved <- PageMap.empty;
  t.owned <- [];
  flush_tlb t;
  (* The pool must not keep the frames of other memories alive. *)
  Array.fill t.r_data 0 tlb_slots no_bytes;
  Array.fill t.w_data 0 tlb_slots no_bytes;
  if p.n_donors < tlb_pool_cap then begin
    p.donors.(p.n_donors) <- t;
    p.n_donors <- p.n_donors + 1
  end

let drop_pools () =
  let p = Domain.DLS.get pool_key in
  Array.fill p.frames 0 p.n_frames no_bytes;
  p.n_frames <- 0;
  Array.fill p.donors 0 p.n_donors placeholder;
  p.n_donors <- 0

(* {2 Fault-injection strikes}

   Both strikes go through the normal page-table/COW machinery, so a
   strike on a cloned host never leaks into the golden host it was
   copied from. *)

let flip_word t addr ~mask =
  check_live t "Memory.flip_word";
  let last = Int64.add addr 7L in
  if is_mapped t addr && is_mapped t last then begin
    store64 t addr (Int64.logxor (load64 t addr) mask);
    true
  end
  else false

let strike_tlb t ~page ~bit =
  check_live t "Memory.strike_tlb";
  let alias = Int64.logxor page (Int64.shift_left 1L bit) in
  match PageMap.find_opt page t.pages with
  | None -> false
  | Some _ ->
      (match PageMap.find_opt alias t.pages with
      | Some ap ->
          (* The corrupted translation resolves to the alias frame:
             both page numbers now reach one record, like two VAs
             steered at the same physical page. *)
          t.pages <- PageMap.add page ap t.pages
      | None ->
          (* The flipped frame number points at nothing — every access
             through the entry takes a page fault. *)
          t.pages <- PageMap.remove page t.pages);
      flush_tlb t;
      true

let private_pages t =
  PageMap.fold (fun _ p acc -> if p.owner = t.id then acc + 1 else acc) t.pages 0

let page_count t = PageMap.cardinal t.pages

let tlb_generation t = t.generation
