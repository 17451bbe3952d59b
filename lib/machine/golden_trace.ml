open Xentry_isa

type t = {
  meta : int array;
  result_steps : int;
  asserted : bool;
  fetch_faulted : bool;
  accesses : int array;
  access_addrs : string;
}

let length t = Array.length t.meta

let equal a b =
  a.result_steps = b.result_steps
  && a.asserted = b.asserted
  && a.fetch_faulted = b.fetch_faulted
  && a.meta = b.meta
  && a.accesses = b.accesses
  && String.equal a.access_addrs b.access_addrs

(* --- recording --------------------------------------------------------- *)

type recorder = {
  prog_meta : int array;
  mutable buf_meta : int array;
  mutable len : int;
  mutable log : int array;
  mutable log_addrs : Bytes.t;
  mutable n_log : int;
}

let recorder ~meta =
  {
    prog_meta = meta;
    buf_meta = Array.make 256 0;
    len = 0;
    log = Array.make 128 0;
    log_addrs = Bytes.create (128 * 8);
    n_log = 0;
  }

let grow r =
  let cap = Array.length r.buf_meta in
  let meta = Array.make (cap * 2) 0 in
  Array.blit r.buf_meta 0 meta 0 cap;
  r.buf_meta <- meta

let grow_log r =
  let cap = Array.length r.log in
  let log = Array.make (cap * 2) 0 in
  let addrs = Bytes.create (cap * 16) in
  Array.blit r.log 0 log 0 cap;
  Bytes.blit r.log_addrs 0 addrs 0 (cap * 8);
  r.log <- log;
  r.log_addrs <- addrs

let on_step r idx (_ : int Instr.t) =
  if r.len = Array.length r.buf_meta then grow r;
  r.buf_meta.(r.len) <- r.prog_meta.(idx);
  r.len <- r.len + 1

(* Both engines call [on_step] before executing the step, so an access
   belongs to step [len - 1]. *)
let mem_hook r addr store =
  if r.n_log = Array.length r.log then grow_log r;
  r.log.(r.n_log) <- ((r.len - 1) lsl 1) lor Bool.to_int store;
  Bytes.set_int64_le r.log_addrs (r.n_log * 8) addr;
  r.n_log <- r.n_log + 1

let finish r ~(result : Cpu.run_result) =
  let asserted =
    match result.Cpu.stop with Cpu.Assertion_failure _ -> true | _ -> false
  in
  (* A fetch fault is the one hardware stop whose faulting step never
     reached execute: the recorder saw exactly [steps] instructions.
     Mid-execution faults record one extra (unretired) step. *)
  let fetch_faulted =
    match result.Cpu.stop with
    | Cpu.Hw_fault _ -> result.Cpu.steps = r.len
    | _ -> false
  in
  {
    meta = Array.sub r.buf_meta 0 r.len;
    result_steps = result.Cpu.steps;
    asserted;
    fetch_faulted;
    accesses = Array.sub r.log 0 r.n_log;
    access_addrs = Bytes.sub_string r.log_addrs 0 (r.n_log * 8);
  }

(* --- def-use queries --------------------------------------------------- *)

(* Mirrors [Cpu.update_watch]/[Cpu.watch_rip_fetch]: within a step the
   read test precedes the write test, the scan starts at the injection
   step itself, and RIP is consumed by the very next fetch. *)
let fate t ~(target : Reg.arch) ~step =
  let n = Array.length t.meta in
  if step >= n then
    if step = n && t.fetch_faulted && target = Reg.Rip then Cpu.Activated step
    else Cpu.Never_touched
  else
    match target with
    | Reg.Rip -> Cpu.Activated step
    | Reg.Rflags ->
        let rec scan s =
          if s >= n then Cpu.Never_touched
          else
            let m = t.meta.(s) in
            if m land Instr.meta_reads_flags_bit <> 0 then Cpu.Activated s
            else if m land Instr.meta_writes_flags_bit <> 0 then
              Cpu.Overwritten s
            else scan (s + 1)
        in
        scan step
    | Reg.Gpr g ->
        let bit = 1 lsl Reg.gpr_index g in
        let wbit = bit lsl Instr.meta_write_shift in
        let rec scan s =
          if s >= n then Cpu.Never_touched
          else
            let m = t.meta.(s) in
            if m land bit <> 0 then Cpu.Activated s
            else if m land wbit <> 0 then Cpu.Overwritten s
            else scan (s + 1)
        in
        scan step

(* --- access-log queries -------------------------------------------------- *)

(* The first log entry at or after [step]: entries are in step order. *)
let first_from t step =
  let lo = ref 0 and hi = ref (Array.length t.accesses) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.accesses.(mid) lsr 1 < step then lo := mid + 1 else hi := mid
  done;
  !lo

(* The scans mirror [Cpu.mem_touch]'s two hit tests, arithmetic and
   all.  They are plain loops over the raw log, not closures, read
   addresses without a per-entry bounds check, and shift by
   [Memory.page_bits] rather than call [Memory.page_of], so every
   [Int64] stays unboxed and a query allocates nothing.  They stop at
   the last whole address in [access_addrs], so the unchecked reads
   stay in bounds whatever the record holds. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let addr_at addrs i =
  let a = get64u addrs (i * 8) in
  if Sys.big_endian then swap64 a else a

let word_access t ~addr ~step =
  let addrs = t.access_addrs in
  let n = String.length addrs / 8 in
  let i = ref (first_from t step) and hit = ref (-1) in
  while !i < n do
    let d = Int64.sub (addr_at addrs !i) addr in
    if d >= -7L && d <= 7L then begin
      hit := !i;
      i := n
    end
    else incr i
  done;
  !hit

let page_access t ~page ~step =
  let addrs = t.access_addrs in
  let n = String.length addrs / 8 in
  let i = ref (first_from t step) and hit = ref (-1) in
  while !i < n do
    let a = addr_at addrs !i in
    if
      Int64.equal (Int64.shift_right_logical a Memory.page_bits) page
      || Int64.equal
           (Int64.shift_right_logical (Int64.add a 7L) Memory.page_bits)
           page
    then begin
      hit := !i;
      i := n
    end
    else incr i
  done;
  !hit
