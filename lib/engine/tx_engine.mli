(** The transaction engine shared by every word-based STM family.

    TinySTM, TL2 and NOrec differ only in their concurrency-control
    protocol (paper §3.1).  The lifecycle around it exists once, here: the
    per-thread descriptor {!Frame}, the quiescence fence, the
    [atomically] retry loop with its serial-irrevocable escalation, the
    contention-management prologue and epilogue, back-off, the watchdog
    feed, the obs/chaos/san/fault taps, transactional allocation and the
    allocation-failed budget.

    A family supplies its protocol as a {!Frame.PROTOCOL} module and gets
    [atomically], [alloc], [free] and the statistics from {!Make}; its
    read and write barriers it exports itself.  In the simulator every
    runtime operation moves virtual time, so the engine's order of
    operations is part of each family's simulated results. *)

exception Abort_exn of Tstm_tm.Tm_stats.abort_reason
(** Raised by a protocol to abort the current attempt; {!Make}'s
    [atomically] rolls back, records the reason and retries. *)

(** The frame every protocol works in: the instance and descriptor
    records with their protocol-specific parts ['p] and ['x], and the
    helpers a protocol needs before the engine is applied. *)
module Frame (R : Tstm_runtime.Runtime_intf.S) : sig
  module V : module type of Tstm_vmm.Vmm.Make (R)

  type ('p, 'x) inst = {
    mem : V.t;
    ctl : R.sarray;  (** fence mode word and the protocol's control words *)
    mode_slot : int;  (** the fence mode word's index in [ctl] *)
    flags : R.sarray;  (** per-thread in-transaction flags *)
    descs : ('p, 'x) desc option array;
    max_threads : int;
    max_retries : int;  (** consecutive aborts before escalation *)
    cm : Tstm_cm.Cm.policy;
    watchdog : Tstm_runtime.Watchdog.t option;
    cm_active : bool;  (** kill flags and priorities are live *)
    kill_flags : R.sarray;
        (** per-thread remote-abort flags; [prios] itself, never touched,
            when the protocol has no remote kill *)
    prios : R.sarray;
        (** per-thread published priorities; slot 0 is the greedy ticket
            counter *)
    p : 'p;  (** the protocol's shared metadata *)
  }

  and ('p, 'x) desc = {
    owner : ('p, 'x) inst;
    tid : int;
    stats : Tstm_tm.Tm_stats.t;
    rng : Tstm_util.Xrand.t;  (** back-off jitter *)
    mutable in_tx : bool;
    mutable read_only : bool;
    mutable irrevocable : bool;
        (** running serially inside the fence: direct memory access, no
            locks, cannot abort *)
    mutable rv : int;  (** the snapshot: clock or sequence value *)
    a_addr : Tstm_util.Growbuf.t;  (** allocations, freed on abort *)
    a_size : Tstm_util.Growbuf.t;
    f_addr : Tstm_util.Growbuf.t;  (** frees, applied at commit *)
    f_size : Tstm_util.Growbuf.t;
    mutable obs_start : int;
    mutable obs_reads0 : int;
    mutable obs_writes0 : int;
    mutable eff_cm : Tstm_cm.Cm.policy;  (** policy of this attempt *)
    mutable work0 : int;  (** reads + writes at the last commit *)
    mutable ticket : int;  (** greedy seniority ticket; 0 = none *)
    mutable alloc_fails : int;
    x : 'x;  (** the protocol's per-thread state *)
  }

  val obs_on : unit -> bool
  val emit : Tstm_obs.Event.t -> unit
  val chaos_on : unit -> bool
  val chaos_point : Tstm_chaos.Chaos.point -> unit
  val san_on : unit -> bool

  val c_op : int
  (** Cycles a barrier charges per access. *)

  val flag_slot : int -> int
  (** A thread's slot in [flags], [kill_flags] and [prios]: one cache line
      each. *)

  val fence_and : ('p, 'x) inst -> (unit -> 'a) -> 'a
  (** Run [f] alone: suspend new transactions, wait until every running
      one has left, run [f], resume (also when [f] raises).  The paper's
      roll-over and re-tuning fence (§4.2). *)

  val free_deferred : ('p, 'x) inst -> ('p, 'x) desc -> unit
  (** Apply the transaction's logged frees; a protocol's commit calls it
      once its writes are published. *)

  (** What a family supplies: its concurrency-control protocol. *)
  module type PROTOCOL = sig
    type p
    (** Shared metadata: lock arrays, configuration. *)

    type x
    (** Per-thread state: read and write sets, acquired locks. *)

    val name : string
    (** Family name, e.g. ["tl2"]: {!Tstm_tm.Tm_intf.Capacity} verdicts
        and error messages. *)

    val rng_seed : int
    (** Thread [tid]'s back-off RNG is seeded with [rng_seed + tid]. *)

    val ctl_len : int
    val mode_slot : int

    val remote_kill : bool
    (** Kill-capable policies flag enemies for remote abort; the engine
        then keeps per-thread kill flags and clears a thread's flag at the
        start of each attempt. *)

    val local : p -> x
    (** Fresh per-thread state for the current configuration. *)

    val refresh : (p, x) inst -> (p, x) desc -> unit
    (** Re-shape per-thread state after a re-configuration; called when a
        descriptor is looked up and right after the fence is entered. *)

    val snapshot : (p, x) inst -> int
    (** The begin-time snapshot [rv]. *)

    val clock_exhausted : (p, x) inst -> int -> bool
    (** [true] when the snapshot just read leaves no room to commit: the
        engine leaves the fence, calls {!roll_over} and begins again with
        the same retry count. *)

    val roll_over : (p, x) inst -> unit
    (** Reset an exhausted clock; also called after a [Rollover] abort,
        instead of back-off. *)

    val read : (p, x) inst -> (p, x) desc -> int -> int
    val write : (p, x) inst -> (p, x) desc -> int -> int -> unit

    val commit : (p, x) inst -> (p, x) desc -> int
    (** Validate and publish, or raise {!Abort_exn}; returns the
        serialization stamp.  The engine charges, counts and cleans up
        around it. *)

    val rollback : (p, x) inst -> (p, x) desc -> unit
    (** Undo, annotate [San.tx_abort] and release; the engine then frees
        speculative allocations and cleans up. *)

    val clear : x -> unit
    (** Empty the per-thread logs after a commit or an abort. *)

    val serial_stamp : (p, x) inst -> (p, x) desc -> int
    (** The serialization stamp of a serial-irrevocable commit, drawn
        inside the fence, with its sanitizer annotations. *)
  end
end

module Make (R : Tstm_runtime.Runtime_intf.S) (P : Frame(R).PROTOCOL) : sig
  type t = (P.p, P.x) Frame(R).inst
  type tx = (P.p, P.x) Frame(R).desc

  val create :
    max_threads:int ->
    max_retries:int ->
    cm:Tstm_cm.Cm.policy ->
    ?watchdog:Tstm_runtime.Watchdog.t ->
    memory_words:int ->
    (unit -> P.p) ->
    t
  (** Build an instance.  The shared arrays are created in a fixed order
      (priorities, kill flags, thread flags, control words), then
      [make_p ()] creates the protocol's own, then the memory arena: the
      simulator places arrays by creation order, so it is part of every
      simulated result. *)

  val desc_for : t -> tx
  (** The calling thread's descriptor. *)

  val alloc : tx -> int -> int
  val free : tx -> int -> int -> unit
  val atomically : ?read_only:bool -> t -> (tx -> 'a) -> 'a

  val atomically_stamped : ?read_only:bool -> t -> (tx -> 'a) -> 'a * int
  (** Like {!atomically}, also returning the stamp the protocol's commit
      (or the serial stamp) returned. *)

  val stats : t -> Tstm_tm.Tm_stats.t
  val reset_stats : t -> unit
end
