(** Sparse, byte-addressable simulated physical memory.

    Memory is organized as 4 KiB pages allocated on demand inside
    explicitly mapped regions.  Accesses outside mapped regions raise
    {!Fault}, which the CPU translates into a page-fault hardware
    exception — the mechanism behind most of the paper's
    hardware-exception detections (a bit-flipped pointer usually walks
    off the mapped address space). *)

type t

exception Fault of { addr : int64; write : bool }
(** Access to an unmapped address. *)

val page_size : int
(** 4096. *)

val page_bits : int
(** 12: [page_size = 1 lsl page_bits]. *)

val create : unit -> t
(** Fresh memory with nothing mapped. *)

val map_region : t -> addr:int64 -> size:int -> unit
(** Make \[addr, addr+size) accessible, zero-filled.  Overlapping an
    existing region is allowed (idempotent). *)

val unmap_region : t -> addr:int64 -> size:int -> unit
(** Remove all pages intersecting the region. *)

val is_mapped : t -> int64 -> bool
(** Is the single byte at this address accessible? *)

val load8 : t -> int64 -> int
val store8 : t -> int64 -> int -> unit

val load64 : t -> int64 -> int64
(** Little-endian, no alignment requirement; raises {!Fault} if any of
    the eight bytes is unmapped. *)

val store64 : t -> int64 -> int64 -> unit

val blit_out : t -> addr:int64 -> len:int -> Bytes.t
(** Copy a mapped byte range out, a page at a time.  Raises {!Fault}
    at the first unmapped byte, as a loop of {!load8} would. *)

val blit_in : t -> addr:int64 -> Bytes.t -> unit
(** Write the bytes at [addr], a page at a time through the
    copy-on-write write path.  Raises {!Fault} at the first unmapped
    byte, with every byte before it written, as a loop of {!store8}
    would. *)

val region_equal : t -> t -> addr:int64 -> len:int -> bool
(** Byte-wise comparison of the same range in two memories; unmapped
    bytes compare equal to unmapped bytes and differ from any mapped
    byte. *)

val first_difference : t -> t -> addr:int64 -> len:int -> int64 option
(** Address of the first differing byte in the range, if any. *)

val page_shared : t -> t -> int64 -> bool
(** [page_shared a b pn]: page number [pn] is unmapped in both
    memories, or bound to one page record in both (shared since a
    {!copy} and written by neither side since), so its bytes are equal
    without reading one.  [false] does not imply a difference. *)

val page_range_equal : t -> t -> int64 -> off:int -> len:int -> bool
(** {!region_equal} over [len] bytes at offset [off] of page number
    [pn]; a shared page compares equal without reading a byte.
    Allocates nothing.
    @raise Invalid_argument if the range leaves the page. *)

val copy : t -> t
(** Snapshot via copy-on-write: every page is shared between source
    and copy and frozen; either side's first write to a shared page
    duplicates it privately, so the two memories never observe each
    other's subsequent writes.  Cloning is O(pages) pointer work, not
    O(bytes), and ranges neither side has written compare equal in
    O(1) per page ({!first_difference} skips shared pages). *)

(** {2 Checkpoints}

    An undo journal for a memory that keeps running after a capture
    and almost never needs it — a micro-rebooting server captures its
    live host before every request.  {!copy} would freeze every page
    the memory owns, so that the next writes duplicate each page they
    touch into a fresh frame.  A checkpoint keeps the page table as it
    stands instead and lets the memory go on writing its own pages in
    place: the first write of an epoch to a page the memory owned at
    the checkpoint first copies the page's bytes aside (a pre-image,
    counted by the [memory.checkpoint.preimage] telemetry counter).
    The pre-image frames come from and return to the same pool
    {!release} feeds, so a steady run of checkpoints allocates no page
    frame. *)

type checkpoint
(** The state of one memory at one {!val-checkpoint}.  Valid until the
    next checkpoint of the same memory or its {!release}. *)

val checkpoint : t -> checkpoint
(** Start a new epoch: the previous epoch's pre-image frames go back
    to the pool (unless a {!copy_checkpoint} binds them), and the
    memory's contents as they are now become the new checkpoint. *)

val copy_checkpoint : checkpoint -> t
(** A new memory with the contents at the checkpoint: the saved page
    table with the pre-images in place of the pages written since.
    Like {!copy}, it freezes every page the checkpointed memory owns,
    so neither side sees the other's later writes; the pre-images it
    binds are never recycled, so one checkpoint can seed any number of
    copies.  The copy itself has no journal, and neither has a
    {!copy} of a memory that has one.
    @raise Invalid_argument if the memory has checkpointed again since
    or was released. *)

val release : t -> unit
(** Recycle a memory that will not be used again.  The page frames it
    owns exclusively (mapped or privatised since its last {!copy}),
    the pre-images of its current epoch that no {!copy_checkpoint}
    binds, and its software-TLB arrays go to small per-domain pools,
    which {!map_region}, copy-on-write privatisation, pre-images,
    {!create} and {!copy} draw from before allocating.  Pages it shares
    with snapshots or copies are untouched: those stay valid for the
    other memories.

    Afterwards every operation on the memory — loads, stores,
    {!copy}, mapping, strikes, comparisons, checkpoints and a second
    [release] — raises [Invalid_argument], never {!Fault}; so does
    {!copy_checkpoint} of any of its checkpoints. *)

val drop_pools : unit -> unit
(** Empty the calling domain's pools, so that a process done with a
    burst of {!release}s — a finished campaign — keeps none of the
    recycled frames and TLB arrays alive. *)

val page_of : int64 -> int64
(** The page number an address belongs to ([addr >> 12]). *)

(** {2 In-page fast path}

    The software-TLB probes alone, for a caller that reads or writes a
    word inside one page in place.  Each takes a page number as a
    native [int] ([Int64.to_int (page_of addr)]) and returns the page
    frame its live translation holds — bytes [offset, offset + 8) of
    the page are bytes [offset, offset + 8) of the frame, little-endian
    — or {!no_frame} when the translation is not cached.  [no_frame]
    means "take the slow path": {!load64}/{!store64} then probe again,
    fill the slot, copy on write, journal, raise {!Fault} on an
    unmapped page, or [Invalid_argument] on a released memory, exactly
    as for any other access.  A hit counts one TLB hit in telemetry,
    as the slow path's probe would; a miss counts nothing, so an access
    that misses and falls back is counted once. *)

val no_frame : Bytes.t
(** The empty frame; compare with [==]. *)

val read_frame : t -> int -> Bytes.t
(** The frame a load from page number [pn] may read in place. *)

val write_frame : t -> int -> Bytes.t
(** The frame a store to page number [pn] may write in place: the page
    is this memory's own and already journaled for the current
    checkpoint epoch. *)

(** {2 Fault-injection strikes}

    Entry points for the widened fault model: both mutate through the
    normal COW write path (or rebind the page table), so strikes on a
    cloned host never alias into the host it was copied from, and a
    strike followed by {!copy} behaves like any other write. *)

val flip_word : t -> int64 -> mask:int64 -> bool
(** XOR the 64-bit word at [addr] with [mask] (a memory-word upset).
    [false] (and no effect) when any byte of the word is unmapped. *)

val strike_tlb : t -> page:int64 -> bit:int -> bool
(** Corrupt the translation of [page] as if bit [bit] of its cached
    frame number flipped: accesses to [page] are steered at page
    [page lxor (1 lsl bit)] — aliasing that frame when it is mapped,
    page-faulting when it is not.  [false] (and no effect) when
    [page] itself is unmapped.  Bumps the TLB generation. *)

val page_count : t -> int
(** Number of mapped pages. *)

val private_pages : t -> int
(** Pages this memory owns exclusively (written since the last
    snapshot involving them); [page_count t - private_pages t] pages
    are shared with or frozen by snapshots.  Observability hook for
    benchmarks and the copy-on-write tests. *)

val tlb_generation : t -> int
(** Current generation of the software TLB fronting the page table.
    Translations cached at an older generation are dead; {!copy} and
    {!unmap_region} bump it ({!val-checkpoint} drops only the write
    translations and leaves it alone).  Observability hook for the TLB
    invalidation tests. *)
