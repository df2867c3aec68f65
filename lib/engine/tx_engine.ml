(* The transaction engine shared by the word-based STM families.

   TinySTM, TL2 and NOrec differ only in their concurrency-control
   protocol (paper §3.1): when locks are taken, how a snapshot is checked
   and extended, how a commit publishes.  Everything around that protocol
   is one lifecycle, defined here once: the per-thread descriptor frame,
   the quiescence fence, the [atomically] retry loop with its
   serial-irrevocable escalation, contention-management bookkeeping,
   back-off, the watchdog feed, the obs/chaos/san/fault taps, transactional
   allocation and the allocation-failed budget.  Protocol pieces that more
   than one family uses live in [Frame], once.

   In the simulator every runtime operation and every charge moves virtual
   time, so the order of operations below is part of each family's
   simulated results (pinned by the golden digests).  Instrumentation
   follows one discipline throughout: every tap is behind one boolean load
   and never charges cycles. *)

module Stats = Tstm_tm.Tm_stats
module Intf = Tstm_tm.Tm_intf
module Obs = Tstm_obs
module Chaos = Tstm_chaos.Chaos
module Fault = Tstm_fault.Fault
module San = Tstm_san.San
module Cm = Tstm_cm.Cm
module Watchdog = Tstm_runtime.Watchdog
module G = Tstm_util.Growbuf
module Bloom = Tstm_util.Bloom

exception Abort_exn of Stats.abort_reason

(* Consecutive allocation-failed aborts tolerated per [atomically] call
   before the transaction gives up with a typed [Tm_intf.Capacity]
   (retrying forever on a genuinely full arena would livelock; serial
   escalation cannot help because the fence does not free memory). *)
let max_alloc_retries = 16

module Frame (R : Tstm_runtime.Runtime_intf.S) = struct
  module V = Tstm_vmm.Vmm.Make (R)

  type ('p, 'x) inst = {
    mem : V.t;
    ctl : R.sarray;  (* fence mode and the protocol's control words *)
    mode_slot : int;
    flags : R.sarray;  (* per-thread in-transaction flags, padded apart *)
    descs : ('p, 'x) desc option array;
    max_threads : int;
    max_retries : int;  (* consecutive aborts before irrevocable escalation *)
    cm : Cm.policy;
    watchdog : Watchdog.t option;
    cm_active : bool;
      (* kill flags / priorities are live; false on the default path *)
    kill_flags : R.sarray;
      (* per-thread remote-abort flags, padded apart; [prios] itself (and
         never touched) for protocols without remote kill *)
    prios : R.sarray;
      (* per-thread published priorities, padded apart; slot 0 doubles as
         the greedy ticket counter *)
    p : 'p;
  }

  and ('p, 'x) desc = {
    owner : ('p, 'x) inst;
    tid : int;
    stats : Stats.t;
    rng : Tstm_util.Xrand.t;
    mutable in_tx : bool;
    mutable read_only : bool;
    mutable irrevocable : bool;
      (* running serially inside the quiescence fence: direct memory access,
         no locks, cannot abort *)
    mutable rv : int;  (* the snapshot: clock or sequence value *)
    (* Transactional memory management logs. *)
    a_addr : G.t;
    a_size : G.t;
    f_addr : G.t;
    f_size : G.t;
    (* Observability bookkeeping (only maintained while tracing is on). *)
    mutable obs_start : int;  (* cycles at the current attempt's begin *)
    mutable obs_reads0 : int;  (* stats.reads at the attempt's begin *)
    mutable obs_writes0 : int;
    (* Contention-management bookkeeping (plain fields: free). *)
    mutable eff_cm : Cm.policy;  (* effective policy for this attempt *)
    mutable work0 : int;  (* reads+writes at last commit (karma base) *)
    mutable ticket : int;  (* greedy seniority ticket; 0 = none drawn *)
    mutable alloc_fails : int;
      (* consecutive Alloc_failed aborts of the current atomically call *)
    x : 'x;
  }

  let obs_on () = Obs.Sink.enabled ()
  let emit ev = Obs.Sink.emit ~ts:(R.now_cycles ()) ~cpu:(R.tid ()) ev
  let chaos_on () = Chaos.enabled ()

  let chaos_point p =
    let n = Chaos.preempt p in
    if n > 0 then R.charge n

  let san_on () = San.enabled ()

  (* Fixed bookkeeping costs (cycles) charged in the simulated runtime on top
     of the shared-memory access costs; no-ops on real hardware. *)
  let c_tx_begin = 20
  let c_tx_end = 20
  let c_op = 4

  (* Per-thread words sit on distinct cache lines of the simulated runtime
     (8 words per line by default). *)
  let flag_slot tid = (tid + 1) * 8

  (* ------------------------------------------------------------------ *)
  (* Quiescence fence (clock roll-over, re-tuning, escalation)          *)
  (* ------------------------------------------------------------------ *)

  (* Threads raise a private padded flag before transacting and re-check the
     fence mode afterwards (Dekker-style: sequentially consistent atomics on
     both sides), so an initiator that saw every flag down owns a quiescent
     instance. *)

  let rec enter_fence t d =
    if R.get t.ctl t.mode_slot <> 0 then begin
      R.yield ();
      enter_fence t d
    end
    else begin
      R.set t.flags (flag_slot d.tid) 1;
      if R.get t.ctl t.mode_slot <> 0 then begin
        R.set t.flags (flag_slot d.tid) 0;
        R.yield ();
        enter_fence t d
      end
      else if san_on () then San.fence_pass ~cpu:d.tid
    end

  let leave_fence t d =
    R.set t.flags (flag_slot d.tid) 0;
    if san_on () then San.thread_park ~cpu:d.tid

  let fence_and t f =
    let rec acquire () =
      if not (R.cas t.ctl t.mode_slot 0 1) then begin
        R.yield ();
        acquire ()
      end
    in
    acquire ();
    for tid = 0 to t.max_threads - 1 do
      while R.get t.flags (flag_slot tid) <> 0 do
        R.yield ()
      done
    done;
    if san_on () then San.fence_owner_entry ~cpu:(R.tid ());
    (* Release the fence even when [f] raises: an escalated transaction runs
       arbitrary user code here. *)
    match f () with
    | v ->
        if san_on () then San.fence_owner_exit ~cpu:(R.tid ());
        R.set t.ctl t.mode_slot 0;
        v
    | exception e ->
        if san_on () then San.fence_owner_exit ~cpu:(R.tid ());
        R.set t.ctl t.mode_slot 0;
        raise e

  (* Frees take effect only once the commit has published: called by each
     protocol's commit after its locks carry the new version, and by the
     serial path after its stamp. *)
  let free_deferred t d =
    for k = 0 to G.length d.f_addr - 1 do
      V.free t.mem (G.get d.f_addr k) (G.get d.f_size k)
    done

  (* ------------------------------------------------------------------ *)
  (* Contention decisions shared by the families                         *)
  (* ------------------------------------------------------------------ *)

  (* The kill-capable policies' verdict on [enemy]: both published
     priorities, own first (in the simulator the two loads' order is
     virtual time), then the pure decision table. *)
  let cm_verdict t d enemy =
    let self_prio = R.get t.prios (flag_slot d.tid) in
    let enemy_prio = R.get t.prios (flag_slot enemy) in
    Cm.on_enemy d.eff_cm ~self_prio ~enemy_prio ~self_tid:d.tid
      ~enemy_tid:enemy

  (* Bounded wait on a lock word whose low bit means "locked": at most [n]
     yield-and-recheck rounds.  Returns whether the lock was observed
     free.  Unbounded, two transactions blocked on each other's locks
     would deadlock. *)
  let rec wait_unlocked locks li n =
    if n <= 0 then false
    else begin
      R.yield ();
      if R.get locks li land 1 = 1 then wait_unlocked locks li (n - 1)
      else true
    end

  (* ------------------------------------------------------------------ *)
  (* Redo log of the commit-time protocols (TL2, NOrec)                  *)
  (* ------------------------------------------------------------------ *)

  (* Buffered writes as parallel address/value arrays, written back at
     commit, with a Bloom filter that lets most reads skip the search
     (paper §3.1: "TL2 uses Bloom filters to avoid unnecessary write set
     traversals").  The filter test and every scanned entry are charged:
     this is the bookkeeping TinySTM avoids by chaining its write set from
     the lock word. *)
  module Redo = struct
    type t = { addr : G.t; value : G.t; bloom : Bloom.t }

    let c_bloom = 3
    let c_scan = 1

    let create () =
      { addr = G.create 32; value = G.create 32; bloom = Bloom.create () }

    let length w = G.length w.addr
    let is_empty w = G.length w.addr = 0
    let addr w k = G.get w.addr k
    let value w k = G.get w.value k

    (* Searched backwards so the newest entry for [a] wins. *)
    let find w a =
      R.charge_local c_bloom;
      if Bloom.may_contain w.bloom a then begin
        let rec go k =
          if k < 0 then None
          else begin
            R.charge_local c_scan;
            if G.get w.addr k = a then Some k else go (k - 1)
          end
        in
        go (G.length w.addr - 1)
      end
      else None

    let put w a v =
      match find w a with
      | Some k -> G.set w.value k v
      | None ->
          G.push w.addr a;
          G.push w.value v;
          Bloom.add w.bloom a

    let write_back w words =
      for k = 0 to G.length w.addr - 1 do
        R.set words (G.get w.addr k) (G.get w.value k)
      done

    let clear w =
      G.clear w.addr;
      G.clear w.value;
      Bloom.clear w.bloom
  end

  module type PROTOCOL = sig
    type p
    type x

    val name : string
    val rng_seed : int
    val ctl_len : int
    val mode_slot : int
    val remote_kill : bool
    val local : p -> x
    val refresh : (p, x) inst -> (p, x) desc -> unit
    val snapshot : (p, x) inst -> int
    val clock_exhausted : (p, x) inst -> int -> bool
    val roll_over : (p, x) inst -> unit
    val read : (p, x) inst -> (p, x) desc -> int -> int
    val write : (p, x) inst -> (p, x) desc -> int -> int -> unit
    val commit : (p, x) inst -> (p, x) desc -> int
    val rollback : (p, x) inst -> (p, x) desc -> unit
    val clear : x -> unit
    val serial_stamp : (p, x) inst -> (p, x) desc -> int
  end
end

module Make
    (R : Tstm_runtime.Runtime_intf.S)
    (P : Frame(R).PROTOCOL) =
struct
  module F = Frame (R)
  open F

  type t = (P.p, P.x) inst
  type tx = (P.p, P.x) desc

  let fault_on () = Fault.enabled ()
  let module_name = String.capitalize_ascii P.name

  (* Shared arrays are created in one fixed order, the protocol's own ones
     ([make_p]) between the control words and the memory arena: the
     simulator places each array on the next free cache lines, so creation
     order is part of every simulated result. *)
  let create ~max_threads ~max_retries ~cm ?watchdog ~memory_words make_p =
    if max_threads < 1 then
      invalid_arg (module_name ^ ".create: max_threads < 1");
    if max_retries < 0 then
      invalid_arg (module_name ^ ".create: max_retries < 0");
    (* A watchdog can boost any policy to karma, so its presence arms the
       kill/priority plumbing too. *)
    let cm_active = Cm.can_kill cm || watchdog <> None in
    let cm_len = if cm_active then flag_slot max_threads + 8 else 1 in
    let prios = R.sarray_make cm_len 0 in
    let kill_flags =
      if P.remote_kill then R.sarray_make cm_len 0 else prios
    in
    let flags = R.sarray_make (flag_slot max_threads + 8) 0 in
    let ctl = R.sarray_make P.ctl_len 0 in
    let p = make_p () in
    let mem = V.create ~words:memory_words in
    R.sarray_label ctl "ctl";
    R.sarray_label flags "flags";
    if P.remote_kill then R.sarray_label kill_flags "cm-kill";
    R.sarray_label prios "cm-prio";
    R.sarray_label (V.words mem) "mem";
    {
      mem;
      ctl;
      mode_slot = P.mode_slot;
      flags;
      descs = Array.make max_threads None;
      max_threads;
      max_retries = Cm.effective_max_retries cm max_retries;
      cm;
      watchdog;
      cm_active;
      kill_flags;
      prios;
      p;
    }

  (* ------------------------------------------------------------------ *)
  (* Descriptors                                                         *)
  (* ------------------------------------------------------------------ *)

  let new_desc t tid =
    {
      owner = t;
      tid;
      stats = Stats.create ();
      rng = Tstm_util.Xrand.create (P.rng_seed + tid);
      in_tx = false;
      read_only = false;
      irrevocable = false;
      rv = 0;
      a_addr = G.create 8;
      a_size = G.create 8;
      f_addr = G.create 8;
      f_size = G.create 8;
      obs_start = 0;
      obs_reads0 = 0;
      obs_writes0 = 0;
      eff_cm = t.cm;
      work0 = 0;
      ticket = 0;
      alloc_fails = 0;
      x = P.local t.p;
    }

  let desc_for t =
    let tid = R.tid () in
    if tid >= t.max_threads then
      invalid_arg (module_name ^ ": thread id exceeds max_threads");
    match t.descs.(tid) with
    | Some d ->
        P.refresh t d;
        d
    | None ->
        let d = new_desc t tid in
        t.descs.(tid) <- Some d;
        d

  let cleanup d =
    P.clear d.x;
    G.clear d.a_addr;
    G.clear d.a_size;
    G.clear d.f_addr;
    G.clear d.f_size;
    d.in_tx <- false

  (* ------------------------------------------------------------------ *)
  (* Transactional memory management (paper §3.1)                        *)
  (* ------------------------------------------------------------------ *)

  let alloc_words t d n =
    match V.alloc t.mem n with
    | addr ->
        G.push d.a_addr addr;
        G.push d.a_size n;
        addr
    | exception Out_of_memory ->
        (* Arena exhaustion (genuine or injected) mid-transaction: nothing
           was mutated by this failed call, so the rollback path frees any
           earlier speculative allocations and [live_words] cannot drift.
           Irrevocable transactions cannot be rolled back, so the failure
           escalates straight to the typed [Capacity] verdict. *)
        if obs_on () then
          emit (Obs.Event.Tx_fault { kind = "oom"; point = "alloc" });
        if d.irrevocable then
          raise (Intf.Capacity { stm = P.name; retries = d.alloc_fails })
        else raise (Abort_exn Stats.Alloc_failed)

  (* A free is semantically an update: rewrite every covered word so no
     concurrent reader can observe the block being recycled without a
     conflict.  Inside the fence there is no concurrency and the free is
     just deferred to the commit. *)
  let free_words t d addr n =
    if not d.irrevocable then
      for w = addr to addr + n - 1 do
        let v = P.read t d w in
        P.write t d w v
      done;
    G.push d.f_addr addr;
    G.push d.f_size n

  (* ------------------------------------------------------------------ *)
  (* Commit and rollback around the protocol's own                       *)
  (* ------------------------------------------------------------------ *)

  let count_commit d =
    d.stats.Stats.commits <- d.stats.Stats.commits + 1;
    if d.read_only then
      d.stats.Stats.commits_read_only <- d.stats.Stats.commits_read_only + 1

  let commit t d =
    R.charge_local c_tx_end;
    let stamp = P.commit t d in
    count_commit d;
    cleanup d;
    if san_on () then San.tx_exit ~cpu:d.tid ~committed:true;
    stamp

  let rollback ?record t d =
    P.rollback t d;
    (* Allocations made by the aborted transaction are reclaimed; logged
       frees are dropped. *)
    for k = 0 to G.length d.a_addr - 1 do
      V.free t.mem (G.get d.a_addr k) (G.get d.a_size k)
    done;
    (match record with
    | Some reason -> Stats.record_abort d.stats reason
    | None -> ());
    cleanup d;
    if san_on () then San.tx_exit ~cpu:d.tid ~committed:false

  (* ------------------------------------------------------------------ *)
  (* Faults, back-off, watchdog, contention management                   *)
  (* ------------------------------------------------------------------ *)

  (* Injected-fault consultation at a linearization point.  A [Crash]
     outcome unwinds through the user-exception path of [atomically] —
     full rollback, locks released, speculative allocations freed — so a
     dying worker never corrupts shared STM state; a [Hang] stalls
     wall-clock without heartbeat ticks, so the pool monitor can see the
     worker go stale. *)
  let fault_point d p =
    match Fault.at_point ~tid:d.tid p with
    | Fault.Proceed -> ()
    | Fault.Crash ->
        d.stats.Stats.faults_crash <- d.stats.Stats.faults_crash + 1;
        if obs_on () then
          emit
            (Obs.Event.Tx_fault { kind = "crash"; point = Fault.point_name p });
        raise (Fault.Injected_crash { tid = d.tid; point = Fault.point_name p })
    | Fault.Hang ns ->
        d.stats.Stats.faults_hang <- d.stats.Stats.faults_hang + 1;
        if obs_on () then
          emit
            (Obs.Event.Tx_fault { kind = "hang"; point = Fault.point_name p });
        Fault.hang ~ns

  (* Capped exponential back-off with deterministic per-transaction jitter:
     wait uniformly in [base/2, base] with base doubling per consecutive
     abort up to [Cm.backoff_cap].  The lower bound keeps a retry from
     re-colliding immediately; the cap keeps the worst-case wait bounded so
     the retry watchdog, not the back-off, decides when to escalate. *)
  let backoff d attempts =
    let n = Cm.backoff_cycles ~rng:d.rng ~attempts in
    d.stats.Stats.backoff_cycles <- d.stats.Stats.backoff_cycles + n;
    R.charge n;
    if not R.is_simulated then
      for _ = 1 to n / 8 do
        R.yield ()
      done

  (* Watchdog plumbing: feed commit/abort heartbeats, surface its detection
     events through observability and count forced policy switches.  All
     plain OCaml when tracing is off; never reached with [watchdog = None]. *)
  let feed_watchdog d evs =
    List.iter
      (fun ev ->
        (match ev with
        | Watchdog.Switch _ ->
            d.stats.Stats.cm_switches <- d.stats.Stats.cm_switches + 1
        | Watchdog.Livelock _ | Watchdog.Starved _ -> ());
        if obs_on () then
          emit
            (match ev with
            | Watchdog.Livelock { window } -> Obs.Event.Tx_livelock { window }
            | Watchdog.Starved { retries; _ } ->
                Obs.Event.Tx_starved { retries }
            | Watchdog.Switch { level } ->
                Obs.Event.Cm_switch { level = Watchdog.level_to_string level }))
      evs

  let note_commit_wd t d =
    match t.watchdog with
    | None -> ()
    | Some w ->
        feed_watchdog d (Watchdog.note_commit w ~now:(R.now_cycles ()) ~tid:d.tid)

  let note_abort_wd t d ~retries =
    match t.watchdog with
    | None -> ()
    | Some w ->
        feed_watchdog d
          (Watchdog.note_abort w ~now:(R.now_cycles ()) ~tid:d.tid ~retries)

  (* Per-attempt contention-management prologue: compute the effective
     policy (the watchdog's [Boosted] level forces a kill-capable policy),
     drop any stale remote-kill flag, and publish this attempt's priority.
     On the default path this is two plain reads and a field write. *)
  let cm_begin_attempt t d =
    d.eff_cm <-
      (match t.watchdog with
      | None -> t.cm
      | Some w -> (
          match Watchdog.level w with
          | Watchdog.Boosted -> if Cm.can_kill t.cm then t.cm else Cm.Karma
          | Watchdog.Normal | Watchdog.Serialized -> t.cm));
    if t.cm_active then begin
      if P.remote_kill then R.set t.kill_flags (flag_slot d.tid) 0;
      if Cm.needs_prio d.eff_cm then begin
        let p =
          match d.eff_cm with
          | Cm.Greedy ->
              (* Seniority ticket, drawn once and kept across aborts. *)
              if d.ticket = 0 then d.ticket <- R.fetch_add t.prios 0 1 + 1;
              d.ticket
          | _ ->
              (* Karma: work invested since the last commit, aborted
                 attempts included; [+ 1] keeps live publications nonzero. *)
              d.stats.Stats.reads + d.stats.Stats.writes - d.work0 + 1
        in
        R.set t.prios (flag_slot d.tid) p
      end
    end

  (* Commit-side epilogue: retire the published priority and ticket, reset
     the karma base.  Plain field writes plus (when armed) one shared
     store. *)
  let cm_end_commit t d =
    d.work0 <- d.stats.Stats.reads + d.stats.Stats.writes;
    d.ticket <- 0;
    if t.cm_active && Cm.needs_prio d.eff_cm then
      R.set t.prios (flag_slot d.tid) 0

  (* ------------------------------------------------------------------ *)
  (* Transaction driver                                                  *)
  (* ------------------------------------------------------------------ *)

  let obs_begin d =
    d.obs_start <- R.now_cycles ();
    d.obs_reads0 <- d.stats.Stats.reads;
    d.obs_writes0 <- d.stats.Stats.writes;
    emit Obs.Event.Tx_begin

  (* Everything after a successful commit but the fence release. *)
  let committed t d ~read_only ~tries =
    if obs_on () then begin
      let lat = R.now_cycles () - d.obs_start in
      let reads = d.stats.Stats.reads - d.obs_reads0 in
      let writes = d.stats.Stats.writes - d.obs_writes0 in
      emit (Obs.Event.Tx_commit { read_only; reads; writes; retries = tries });
      Obs.Sink.note_commit ~lat ~retries:tries ~reads ~writes
    end;
    Stats.record_retries d.stats tries;
    cm_end_commit t d;
    note_commit_wd t d

  let atomically_stamped ?(read_only = false) t f =
    let d = desc_for t in
    if d.in_tx then
      invalid_arg (module_name ^ ".atomically: nested transaction");
    d.alloc_fails <- 0;
    let rec attempt tries =
      let forced_serial =
        match t.watchdog with
        | None -> false
        | Some w -> Watchdog.level w = Watchdog.Serialized
      in
      if forced_serial || (t.max_retries > 0 && tries >= t.max_retries) then
        escalate tries
      else begin
        enter_fence t d;
        P.refresh t d;
        R.charge_local c_tx_begin;
        d.in_tx <- true;
        d.read_only <- read_only;
        cm_begin_attempt t d;
        if chaos_on () then chaos_point Chaos.Clock_read;
        d.rv <- P.snapshot t;
        if san_on () then begin
          San.tx_begin ~cpu:d.tid;
          San.clock_read ~cpu:d.tid ~value:d.rv
        end;
        if P.clock_exhausted t d.rv then begin
          (* Roll the clock over outside the fence, then retry with the
             same budget: nothing was attempted. *)
          d.in_tx <- false;
          if san_on () then San.tx_exit ~cpu:d.tid ~committed:false;
          leave_fence t d;
          P.roll_over t;
          attempt tries
        end
        else begin
          if obs_on () then obs_begin d;
          match
            (* Fault taps live inside this match so an injected crash
               unwinds through the user-exception branch below: rollback,
               fence release, [in_tx] cleared — the respawned worker can
               transact again. *)
            if fault_on () then fault_point d Fault.Clock_read;
            let v = f d in
            if fault_on () then fault_point d Fault.Commit;
            (v, commit t d)
          with
          | r ->
              committed t d ~read_only ~tries;
              leave_fence t d;
              r
          | exception Abort_exn reason ->
              if obs_on () then begin
                let lat = R.now_cycles () - d.obs_start in
                emit
                  (Obs.Event.Tx_abort
                     {
                       reason = Stats.abort_reason_to_string reason;
                       retries = tries;
                     });
                Obs.Sink.note_abort ~lat
              end;
              rollback ~record:reason t d;
              leave_fence t d;
              if chaos_on () then chaos_point Chaos.Abort;
              if fault_on () then fault_point d Fault.Abort;
              (* Allocation-failed aborts are capped: after
                 [max_alloc_retries] consecutive failures the arena is
                 genuinely full and retrying cannot help, so escalate to the
                 typed [Capacity] verdict (shared state is already rolled
                 back and consistent at this point). *)
              if reason = Stats.Alloc_failed then begin
                d.alloc_fails <- d.alloc_fails + 1;
                if d.alloc_fails >= max_alloc_retries then
                  raise
                    (Intf.Capacity { stm = P.name; retries = d.alloc_fails })
              end
              else d.alloc_fails <- 0;
              note_abort_wd t d ~retries:(tries + 1);
              if reason = Stats.Rollover then P.roll_over t
              else if Cm.delay_after_abort d.eff_cm then backoff d tries;
              attempt (tries + 1)
          | exception e ->
              (* A user exception aborts the transaction and propagates. *)
              rollback t d;
              leave_fence t d;
              raise e
        end
      end
    (* Retry budget exhausted: re-run the transaction serially and
       irrevocably, so pathological workloads degrade to serial execution
       instead of livelocking. *)
    and escalate tries =
      d.stats.Stats.escalations <- d.stats.Stats.escalations + 1;
      if obs_on () then emit (Obs.Event.Tx_escalate { retries = tries });
      serial tries
    (* The serial-irrevocable body, shared by escalation and the
       [Tm_intf.serially] scope.  No transaction is in flight once the
       quiescence fence is held, so the body reads and writes memory
       directly, acquires no locks, and cannot abort.  Nor can it be
       rolled back, so injected faults are masked for its duration (the
       mask is per-thread and depth-counted; [Fun.protect] guarantees the
       unmask even when the body raises). *)
    and serial tries =
      Fault.mask ~tid:d.tid;
      Fun.protect ~finally:(fun () -> Fault.unmask ~tid:d.tid) @@ fun () ->
      fence_and t (fun () ->
          R.charge_local c_tx_begin;
          d.in_tx <- true;
          d.read_only <- read_only;
          d.irrevocable <- true;
          if san_on () then San.tx_begin ~cpu:d.tid;
          if obs_on () then obs_begin d;
          match f d with
          | v ->
              R.charge_local c_tx_end;
              let wv = P.serial_stamp t d in
              free_deferred t d;
              count_commit d;
              committed t d ~read_only ~tries;
              d.irrevocable <- false;
              cleanup d;
              if san_on () then San.tx_exit ~cpu:d.tid ~committed:true;
              (v, wv)
          | exception e ->
              (* Irrevocable means exactly that: direct writes stay.  The
                 caller chose to run side-effecting code to completion; an
                 exception still releases the fence and propagates. *)
              d.irrevocable <- false;
              (* The stayed writes never published a version; restoring
                 their shadow to the previous life keeps later accesses
                 judged against a committed state. *)
              if san_on () then begin
                San.tx_abort ~cpu:d.tid;
                San.tx_exit ~cpu:d.tid ~committed:false
              end;
              cleanup d;
              raise e)
    in
    if Intf.in_serial_scope () then serial 0 else attempt 0

  let atomically ?read_only t f = fst (atomically_stamped ?read_only t f)

  (* ------------------------------------------------------------------ *)
  (* Public TM operations                                                *)
  (* ------------------------------------------------------------------ *)

  let alloc tx n = alloc_words tx.owner tx n
  let free tx addr n = free_words tx.owner tx addr n

  let stats t =
    let agg = Stats.create () in
    Array.iter
      (function Some d -> Stats.add_into ~dst:agg d.stats | None -> ())
      t.descs;
    agg

  let reset_stats t =
    Array.iter (function Some d -> Stats.reset d.stats | None -> ()) t.descs
end
