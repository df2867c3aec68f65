(** Deterministic virtual-time fiber scheduler (the simulated multicore).

    Each simulated CPU runs one fiber (an OCaml 5 effect-handler
    continuation).  Fibers advance a private virtual-time counter by charging
    cycle costs; the scheduler always resumes the runnable fiber with the
    smallest virtual time (FIFO on ties), which is the classic discrete-event
    simulation of parallel execution.  Because the whole simulation runs on
    one OS thread, shared-memory operations between charge points are
    naturally atomic, and every run is bit-reproducible. *)

val run : nthreads:int -> (int -> unit) -> unit
(** [run ~nthreads body] starts one fiber per CPU executing [body cpu] and
    returns when all fibers have finished.  Must not be nested. *)

val inside : unit -> bool
(** Whether the caller is executing on a fiber of a live {!run}. *)

val tid : unit -> int
(** Current CPU id; [0] outside {!run}. *)

val now_cycles : unit -> int
(** Virtual time of the current fiber, in cycles; [0] outside {!run}. *)

val charge : int -> unit
(** Advance the current fiber's virtual time by [c >= 0] cycles and allow the
    scheduler to switch to another fiber.  No-op outside {!run}. *)

val charge_noyield : int -> unit
(** Advance virtual time without a preemption point (used for contention
    penalties discovered at the instant an access executes). *)

exception Runaway of { cpu : int; cycles : int }
(** Raised on the fiber of CPU [cpu], at a preemption point, once its
    virtual time [cycles] passes the horizon set by {!with_horizon}; it
    ends the {!run} like any exception a fiber raises. *)

val with_horizon : int -> (unit -> 'a) -> 'a
(** [with_horizon cycles f] runs [f] with every fiber of every {!run}
    inside it bounded to [cycles] of virtual time, so code that loops
    forever (a transaction traversing a structure an armed protocol bug
    made cyclic) fails with {!Runaway} instead of running out of memory.
    Unbounded by default. *)

val switches : unit -> int
(** Number of context switches performed by the last / current [run]
    (observability for tests and the ablation bench). *)
