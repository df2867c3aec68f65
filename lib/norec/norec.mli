(** NOrec (Dalessandro, Spear, Scott; PPoPP 2010) — the orec-free third
    family next to TinySTM and TL2.  From-scratch reimplementation:

    - no ownership records at all: the only shared metadata is one global
      sequence lock (even = timestamp, odd = a writer is committing), so
      the [n_locks]/[shifts] knobs of the paper's tuning space simply do
      not exist here (capability [lock_array = false]);
    - value-based validation: reads log [(address, value)] pairs; whenever
      the sequence number moves away from the transaction's snapshot, the
      whole read set is re-checked {e by value} against memory.  If every
      value still matches, the snapshot fast-forwards to the new sequence
      number instead of aborting (the NOrec analogue of LSA's snapshot
      extension, capability [snapshot_extension = true]);
    - redo-log writes with a Bloom-filter read-after-write fast reject
      (same write-set shape as TL2); a read consults the log only after
      the transaction's first write;
    - commit: transactions with an empty write set commit lock-free;
      writers CAS the sequence lock from their snapshot value to odd,
      write back, and publish [snapshot + 2].  A failed CAS means someone
      committed in between: revalidate (fast-forward) and retry.

    Contention management degenerates gracefully: a held sequence lock
    always belongs to a finite committing writer, so kill-capable policies
    reduce to winner-waits / loser-aborts, and [Suicide] aborts on any
    observed held lock.  Because there is only one lock, symmetric
    hold-and-wait livelock is structurally impossible: NOrec storms make
    progress under every policy.

    Exposes the same {!Tstm_tm.Tm_intf.TM} operations as the other STMs so
    the transactional data structures and the harness run unmodified. *)

module Make (R : Tstm_runtime.Runtime_intf.S) : sig
  module V : module type of Tstm_vmm.Vmm.Make (R)

  type t
  type tx

  val create :
    ?max_threads:int ->
    ?max_retries:int ->
    ?cm:Tstm_cm.Cm.policy ->
    ?watchdog:Tstm_runtime.Watchdog.t ->
    memory_words:int ->
    unit ->
    t
  (** [max_retries] (default 0 = never) is the retry budget after which a
      transaction escalates to serial-irrevocable execution inside the
      quiescence fence, exactly as in {!Tinystm.Make.create}.  [cm] and
      [watchdog] mirror the other STMs'. *)

  val memory : t -> V.t

  val clock_value : t -> int
  (** Current sequence value (even while no writer is committing). *)

  val name : string

  val read : tx -> int -> int
  val write : tx -> int -> int -> unit
  val alloc : tx -> int -> int
  val free : tx -> int -> int -> unit
  val atomically : ?read_only:bool -> t -> (tx -> 'a) -> 'a
  val stats : t -> Tstm_tm.Tm_stats.t
  val reset_stats : t -> unit
end
