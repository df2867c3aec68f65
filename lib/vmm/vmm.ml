module Tap = Tstm_runtime.Tap
module Fault = Tstm_fault.Fault

module Make (R : Tstm_runtime.Runtime_intf.S) = struct
  let max_class = 256
  let null = 0

  (* Thread-private caching covers the small classes the structures use
     (the largest node is a 19-word skip-list tower); larger recyclable
     classes go straight to their shared list. *)
  let cached_classes = 32

  (* An own list that reaches [own_limit] blocks spills all but the newest
     [own_keep] to the shared list of its class. *)
  let own_limit = 32
  let own_keep = own_limit / 2

  (* Fresh words are carved from the shared bump pointer this many at a
     time (more when one block needs more). *)
  let window_words = 64

  (* One row per thread id up to the STMs' [max_threads] ceiling
     (TinySTM's lock encoding caps tids at 127). *)
  let max_threads = 128

  (* Shared control words ([ctl], labelled "vmm-ctl"):
     0                          bump pointer (next fresh address), alone on
                                its cache line
     8 + (n-1)                  shared free-list head of class n (0 = empty)
     8 + max_class + (n-1)      spin lock of class n
     8 + 2*max_class            spin lock of the large-block extent table

     Per-thread rows ([tl], labelled "vmm-tl"), [row_words] apart so each
     row starts on its own cache line:
     0                     bump window: its cursor times 64 plus the words
                           left in it (always fewer than 64)
     1                     words claimed: carved from the bump pointer or
                           popped from a free list, less abandoned windows;
                           minus the words left in the window, this is what
                           the thread handed out
     2                     words freed
     3 + (n-1)             own free list of cached class n: its head
                           times 64 plus its length (0 = empty)

     Row [tid] is touched only by the thread whose [R.tid ()] is [tid] —
     the same invariant the engine's per-thread descriptors rely on: no
     two threads running at once share a tid.  Only the diagnostics
     [live_words]/[allocated_since_start] read other rows.

     Free bitmap ([bits], labelled "vmm-bits"): one bit per arena word, 32
     to an array word, set at the base address of every recyclable block
     on a free list — any thread's own list or a shared one.  A free sets
     it by CAS, so of two frees of one block exactly one succeeds, whatever
     thread's cache the block went to; a pop clears it.  Fresh words from a
     bump window never touch it. *)
  type t = {
    words : R.sarray;
    ctl : R.sarray;
    tl : R.sarray;
    bits : R.sarray;
    capacity : int;
    (* Extents of live non-recyclable (bump-allocated) blocks, so their
       frees are validated too.  Mutated only under [large_lock_slot]. *)
    large : (int, int) Hashtbl.t;
  }

  let bump_slot = 0
  let head_slot n = 8 + (n - 1)
  let lock_slot n = 8 + max_class + (n - 1)
  let large_lock_slot = 8 + (2 * max_class)
  let window_slot = 0
  let claimed_slot = 1
  let freed_slot = 2
  let own_slot n = 3 + (n - 1)
  let row_words = (own_slot cached_classes + 8) land lnot 7

  (* The simulator places each array on the next free cache lines, so the
     creation order is part of every simulated result: the control words,
     then the arena, as always, and the per-thread rows and the bitmap
     after them. *)
  let create ~words:n =
    if n < 1 then invalid_arg "Vmm.create: words < 1";
    let ctl = R.sarray_make (large_lock_slot + 1) 0 in
    let words = R.sarray_make (n + 1) 0 (* +1: address 0 is reserved *) in
    let tl = R.sarray_make (max_threads * row_words) 0 in
    let bits = R.sarray_make (((n + 1) lsr 5) + 1) 0 in
    R.set ctl bump_slot 1;
    R.sarray_label ctl "vmm-ctl";
    R.sarray_label tl "vmm-tl";
    R.sarray_label bits "vmm-bits";
    { words; ctl; tl; bits; capacity = n; large = Hashtbl.create 16 }

  let capacity t = t.capacity
  let words t = t.words

  let check_addr t addr =
    if addr < 1 || addr > t.capacity then
      invalid_arg (Printf.sprintf "Vmm: address %d out of bounds" addr)

  let row_of tid =
    if tid >= max_threads then invalid_arg "Vmm: thread id exceeds max_threads";
    tid * row_words

  (* Raw accesses announce themselves on the tap as explicit
     non-transactional events; the underlying word access is bracketed with
     [suspend]/[resume] so it is not double-reported through the generic
     array tap. *)

  let load t addr =
    check_addr t addr;
    Tap.suspend ();
    let v = R.get t.words addr in
    Tap.resume ();
    Tap.vmm_load ~addr;
    v

  let store t addr v =
    check_addr t addr;
    Tap.suspend ();
    R.set t.words addr v;
    Tap.resume ();
    Tap.vmm_store ~addr

  let lock t slot =
    while not (R.cas t.ctl slot 0 1) do
      R.yield ()
    done

  let unlock t slot = R.set t.ctl slot 0

  let count t slot n = R.set t.tl slot (R.get t.tl slot + n)

  let pop_own t r n =
    let v = R.get t.tl (r + own_slot n) in
    if v = 0 then null
    else begin
      let h = v lsr 6 in
      R.set t.tl (r + own_slot n) ((R.get t.words h lsl 6) lor ((v land 63) - 1));
      h
    end

  (* The lock-free peek only decides whether taking the lock is worth it:
     a stale answer costs a bump allocation or a retake of the lock, never
     a wrong block. *)
  let pop_shared t n =
    if R.get t.ctl (head_slot n) = null then null
    else begin
      lock t (lock_slot n);
      let h = R.get t.ctl (head_slot n) in
      if h <> null then R.set t.ctl (head_slot n) (R.get t.words h);
      unlock t (lock_slot n);
      h
    end

  (* Link the segment [first .. last] onto the top of class [n]'s shared
     list, under its lock: the segment's next pointers were written before
     the lock was taken, so whoever pops it later sees them. *)
  let push_shared t n first last =
    lock t (lock_slot n);
    R.set t.words last (R.get t.ctl (head_slot n));
    R.set t.ctl (head_slot n) first;
    unlock t (lock_slot n)

  (* The oldest blocks spill, so the newest stay private, and the own list
     stacked on the shared one is still one LIFO stack per class: a single
     thread recycles exactly the blocks, in exactly the order, of one
     shared LIFO list. *)
  let push_own t r n addr =
    let v = R.get t.tl (r + own_slot n) in
    R.set t.words addr (v lsr 6);
    let len = (v land 63) + 1 in
    if len < own_limit then R.set t.tl (r + own_slot n) ((addr lsl 6) lor len)
    else begin
      let keep = ref addr in
      for _ = 2 to own_keep do
        keep := R.get t.words !keep
      done;
      let first = R.get t.words !keep in
      let last = ref first in
      for _ = own_keep + 2 to own_limit do
        last := R.get t.words !last
      done;
      R.set t.words !keep null;
      R.set t.tl (r + own_slot n) ((addr lsl 6) lor own_keep);
      push_shared t n first !last
    end

  (* Sets the bit of [a], which must be clear ([d = 1]), or clears it,
     which must be set ([d = -1]). *)
  let flip t a d = ignore (R.fetch_add t.bits (a lsr 5) (d lsl (a land 31)))

  let recycle t r addr n =
    flip t addr 1;
    if n <= cached_classes then push_own t r n addr
    else push_shared t n addr addr

  (* Take [n] fresh words from row [r]'s window, carving a new one from
     the shared bump pointer when it runs short.  A window that starts
     where the old one ends extends it, so a thread alone gets exactly the
     addresses of a plain bump allocator.  Windows are clipped at
     [capacity] and the CAS claims only what fits, so [Out_of_memory] is
     raised exactly when the words are not there, and leaves every
     counter as it was.  A window left behind (shorter than [n] and than
     [window_words]) goes to the free list of its length. *)
  let rec bump t r n =
    let v = R.get t.tl (r + window_slot) in
    let cur = v lsr 6 and left = v land 63 in
    if left >= n then begin
      R.set t.tl (r + window_slot) (v + (n lsl 6) - n);
      cur
    end
    else
      let b = R.get t.ctl bump_slot in
      let have = if b = cur + left then left else 0 in
      let w = min (max window_words (n - have)) (t.capacity + 1 - b) in
      if have + w < n then raise Out_of_memory;
      if R.cas t.ctl bump_slot b (b + w) then begin
        let base = if have > 0 then cur else b in
        R.set t.tl (r + window_slot) (((base + n) lsl 6) lor (b + w - base - n));
        if have = 0 && left > 0 then begin
          recycle t r cur left;
          count t (r + claimed_slot) (w - left)
        end
        else count t (r + claimed_slot) w;
        base
      end
      else bump t r n

  (* Sets [a]'s bit; false when it was already set. *)
  let rec mark_free t a =
    let i = a lsr 5 and b = 1 lsl (a land 31) in
    let w = R.get t.bits i in
    w land b = 0 && (R.cas t.bits i w (w lor b) || mark_free t a)

  let take t r n =
    if n > max_class then begin
      let base = bump t r n in
      lock t large_lock_slot;
      Hashtbl.replace t.large base n;
      unlock t large_lock_slot;
      base
    end
    else begin
      let b = if n <= cached_classes then pop_own t r n else null in
      let b = if b <> null then b else pop_shared t n in
      if b <> null then begin
        flip t b (-1);
        count t (r + claimed_slot) n;
        b
      end
      else bump t r n
    end

  let give t r addr n =
    if n <= max_class then begin
      (* Double-free detection: the block must not already sit on any
         thread's free list, own or shared. *)
      if not (mark_free t addr) then
        invalid_arg
          (Printf.sprintf "Vmm.free: double free of block %d (size %d)" addr n);
      if n <= cached_classes then push_own t r n addr
      else push_shared t n addr addr
    end
    else begin
      (* Non-recyclable blocks stay leaked (bump-only), but their frees are
         validated against the recorded extent: freeing a block that was
         never allocated, was already freed, or with a size other than the
         one it was allocated with raises. *)
      lock t large_lock_slot;
      let known = Hashtbl.find_opt t.large addr in
      (match known with
      | Some m when m = n -> Hashtbl.remove t.large addr
      | _ -> ());
      unlock t large_lock_slot;
      match known with
      | Some m when m = n -> ()
      | Some m ->
          invalid_arg
            (Printf.sprintf
               "Vmm.free: large block %d allocated with size %d, freed with \
                size %d"
               addr m n)
      | None ->
          invalid_arg
            (Printf.sprintf
               "Vmm.free: large block %d (size %d) was never allocated or is \
                already freed"
               addr n)
    end

  (* Allocator protocol — next pointers threaded through free blocks, the
     bitmap, the control words — runs between [Tap.suspend]/[resume]: it
     is not data. *)

  let alloc t n =
    if n < 1 then invalid_arg "Vmm.alloc: size < 1";
    let tid = R.tid () in
    (* Injected allocation failure fires before any allocator state is
       touched, so a faulted alloc is indistinguishable from genuine
       exhaustion and leaves the accounting intact by construction. *)
    if Fault.enabled () && Fault.oom ~tid then raise Out_of_memory;
    let r = row_of tid in
    Tap.suspend ();
    let base =
      match take t r n with
      | b -> b
      | exception e ->
          Tap.resume ();
          raise e
    in
    Tap.resume ();
    Tap.vmm_alloc ~addr:base ~len:n;
    base

  let free t addr n =
    if n < 1 then invalid_arg "Vmm.free: size < 1";
    check_addr t addr;
    check_addr t (addr + n - 1);
    let r = row_of (R.tid ()) in
    Tap.suspend ();
    (match give t r addr n with
    | () -> ()
    | exception e ->
        Tap.resume ();
        raise e);
    Tap.resume ();
    (* Counters move only once the free is known to be valid, so a rejected
       free leaves the accounting intact. *)
    count t (r + freed_slot) n;
    Tap.vmm_free ~addr ~len:n

  let allocated_since_start t =
    let s = ref 0 in
    for tid = 0 to max_threads - 1 do
      let r = tid * row_words in
      s := !s + R.get t.tl (r + claimed_slot) - (R.get t.tl (r + window_slot) land 63)
    done;
    !s

  let live_words t =
    let s = ref (allocated_since_start t) in
    for tid = 0 to max_threads - 1 do
      s := !s - R.get t.tl ((tid * row_words) + freed_slot)
    done;
    !s
end
