(** Virtual word memory: the address space the STM manages.

    The paper's STM covers raw process memory and hashes *addresses* to a
    lock array; under a compacting GC there are no stable word addresses, so
    this module provides the sound equivalent: a flat arena of shared [int]
    words in which an address is an index.  The two properties TinySTM's
    tuning parameters rely on are preserved exactly:

    - address arithmetic: the lock hash [(addr lsr shifts) mod locks]
      operates on the integer address, so the [#shifts] locality parameter
      behaves as in the paper;
    - spatial locality: the bump allocator hands out adjacent words for
      adjacent allocations, so consecutively allocated structure nodes map to
      nearby lock-array stripes.

    Address 0 is reserved as the null address and never allocated.

    The allocator is thread-safe and, like the C allocator TinySTM uses,
    keeps threads' blocks apart: each thread recycles small blocks through
    its own bounded free lists and carves fresh words from its own bump
    window, and only spills and refills touch the shared, per-size-class
    locked lists and the shared bump pointer.  A single thread gets exactly
    the addresses of a plain bump allocator with one LIFO free list per
    size class.  It is deliberately *not* transactional: {!Tm_intf.TM}
    implementations wrap {!alloc}/{!free} with their own commit/abort logs to
    give transactional allocation semantics (paper §3.1, Memory
    Management).

    Thread ids index per-thread state: {!alloc} and {!free} must be called
    with [R.tid () < 128], and no two threads running at once may share a
    tid (the invariant the STMs' per-thread descriptors rely on too).

    {b Stranded words.}  A free block in one thread's cache is not visible
    to the others until that thread spills it.  Each thread holds at most
    31 free blocks of each size up to 32 words in its cache, plus fewer
    than 64 fresh words in its bump window; an allocation can raise
    [Out_of_memory] while up to that many words per other thread are
    free. *)

module Make (R : Tstm_runtime.Runtime_intf.S) : sig
  type t

  val create : words:int -> t
  (** [create ~words] makes an arena with [words] usable words.  Raises
      [Invalid_argument] if [words < 1]. *)

  val null : int
  (** The reserved null address (0). *)

  val capacity : t -> int

  val words : t -> R.sarray
  (** The backing shared array; the STM reads and writes data through it. *)

  val load : t -> int -> int
  (** Raw (non-transactional) load; bounds-checked. *)

  val store : t -> int -> int -> unit
  (** Raw (non-transactional) store; bounds-checked. *)

  val alloc : t -> int -> int
  (** [alloc t n] returns the base address of [n >= 1] fresh contiguous
      words (contents unspecified).  Raises [Out_of_memory] when no free
      block of size [n] is reachable and fewer than [n] fresh words remain;
      the failed request claims nothing.  Small blocks ([n <= 256]) are
      recycled through free lists; larger blocks are bump-allocated and not
      recycled. *)

  val free : t -> int -> int -> unit
  (** [free t addr n] returns the block [addr, n] to the allocator.  The
      caller must pass the same [n] it allocated with.  Raises
      [Invalid_argument] when the block lies (even partly) outside the
      arena, when a recyclable block ([n <= 256]) already sits on a free
      list (a double free, whichever thread's cache or shared list the
      first free put it on, and whatever size it was freed with), or when
      a non-recyclable block ([n > 256]) was never allocated, is already
      freed, or is freed with a size different from its allocation
      (extents of live large blocks are tracked). *)

  val live_words : t -> int
  (** Words currently allocated and not freed (diagnostic; the sum of the
      per-thread counters, exact once the threads are quiescent). *)

  val allocated_since_start : t -> int
  (** Total words ever handed out, including recycled ones (diagnostic;
      summed like {!live_words}). *)
end
