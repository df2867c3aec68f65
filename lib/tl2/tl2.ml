module Make (R : Tstm_runtime.Runtime_intf.S) = struct
  module V = Tstm_vmm.Vmm.Make (R)
  module G = Tstm_util.Growbuf
  module Bloom = Tstm_util.Bloom
  module Stats = Tstm_tm.Tm_stats

  let name = "tl2"

  exception Abort_exn of Stats.abort_reason

  (* Observability (same discipline as TinySTM: guarded, never charges). *)
  module Obs = Tstm_obs

  let obs_on () = Obs.Sink.enabled ()
  let emit ev = Obs.Sink.emit ~ts:(R.now_cycles ()) ~cpu:(R.tid ()) ev

  (* Chaos schedule perturbation (same one-boolean-load discipline). *)
  module Chaos = Tstm_chaos.Chaos

  let chaos_on () = Chaos.enabled ()

  let chaos_point p =
    let n = Chaos.preempt p in
    if n > 0 then R.charge n

  (* Sanitizer sync-edge annotations (same guarded, zero-cycle discipline
     as obs and chaos). *)
  module San = Tstm_san.San

  let san_on () = San.enabled ()

  (* Injected faults (crash/hang/OOM) at linearization points — same
     one-boolean-load guard as obs/chaos; see [Tstm_fault.Fault]. *)
  module Fault = Tstm_fault.Fault
  module Intf = Tstm_tm.Tm_intf

  let fault_on () = Fault.enabled ()

  (* Consecutive allocation-failed aborts tolerated before escalating to the
     typed [Tm_intf.Capacity] verdict. *)
  let max_alloc_retries = 16

  (* Contention management (same plumbing discipline as TinySTM, adapted to
     commit-time locking: a locked orec always belongs to a transaction that
     is mid-commit and therefore finite and unkillable, so the kill-capable
     policies degenerate to "the winner waits for the release, the loser
     aborts and clears the road" — seniority still yields a total order, so
     the globally oldest transaction always gets through).  With the default
     [Backoff] policy and no watchdog, [cm_active] is false and no extra
     shared word is ever touched. *)
  module Cm = Tstm_cm.Cm
  module Watchdog = Tstm_runtime.Watchdog

  (* TL2 lock words: unlocked = [version | 0]; locked = [tid | 1].  No
     incarnation numbers (write-back never dirties memory before commit) and
     no write-set payload (there is no per-lock chain — that is TinySTM's
     advantage the paper measures). *)
  let is_locked w = w land 1 = 1
  let unlocked ~version = version lsl 1
  let version w = w lsr 1
  let locked_by tid = (tid lsl 1) lor 1
  let owner w = w lsr 1

  let c_tx_begin = 20
  let c_tx_end = 20
  let c_op = 4

  type desc = {
    owner_t : t;
    tid : int;
    stats : Stats.t;
    rng : Tstm_util.Xrand.t;
    mutable in_tx : bool;
    mutable read_only : bool;
    mutable irrevocable : bool;
      (* running serially inside the quiescence fence: direct memory access,
         no locks, cannot abort *)
    mutable rv : int;
    (* Read set: (lock index, observed version) pairs, flattened. *)
    r_set : G.t;
    (* Write set: parallel address/value arrays plus a Bloom filter for the
       read-after-write fast reject. *)
    w_addr : G.t;
    w_val : G.t;
    bloom : Bloom.t;
    (* Locks acquired during commit, with their previous words. *)
    l_idx : G.t;
    l_old : G.t;
    (* Memory-management logs. *)
    a_addr : G.t;
    a_size : G.t;
    f_addr : G.t;
    f_size : G.t;
    (* Observability bookkeeping (only maintained while tracing is on). *)
    mutable obs_start : int;
    mutable obs_reads0 : int;
    mutable obs_writes0 : int;
    (* Contention-management bookkeeping (plain fields: free). *)
    mutable eff_cm : Cm.policy;  (* effective policy for this attempt *)
    mutable work0 : int;  (* reads+writes at last commit (karma base) *)
    mutable ticket : int;  (* greedy seniority ticket; 0 = none drawn *)
    mutable alloc_fails : int;
      (* consecutive allocation-failed aborts of the current transaction *)
  }

  and t = {
    mem : V.t;
    n_locks : int;
    shifts : int;
    locks : R.sarray;
    ctl : R.sarray;  (* fence mode / clock, padded apart *)
    flags : R.sarray;  (* per-thread in-transaction flags, padded apart *)
    descs : desc option array;
    max_threads : int;
    max_retries : int;  (* consecutive aborts before irrevocable escalation *)
    cm : Cm.policy;
    watchdog : Watchdog.t option;
    cm_active : bool;  (* priorities are live; false on the default path *)
    prios : R.sarray;
      (* per-thread published priorities, padded apart; slot 0 doubles as
         the greedy ticket counter *)
  }

  type tx = desc

  let mode_slot = 0
  let clock_slot = 8
  let ctl_len = 16
  let flag_slot tid = (tid + 1) * 8

  let create ?(n_locks = 1 lsl 16) ?(shifts = 0) ?(max_threads = 64)
      ?(max_retries = 0) ?(cm = Cm.default) ?watchdog ~memory_words () =
    if not (Tstm_util.Bitops.is_pow2 n_locks) then
      invalid_arg "Tl2.create: n_locks must be a power of two";
    if shifts < 0 || shifts > 16 then
      invalid_arg "Tl2.create: shifts out of range";
    if max_threads < 1 then invalid_arg "Tl2.create: max_threads < 1";
    if max_retries < 0 then invalid_arg "Tl2.create: max_retries < 0";
    let cm_active = Cm.can_kill cm || watchdog <> None in
    let t =
      {
        mem = V.create ~words:memory_words;
        n_locks;
        shifts;
        locks = R.sarray_make n_locks 0;
        ctl = R.sarray_make ctl_len 0;
        flags = R.sarray_make (flag_slot max_threads + 8) 0;
        descs = Array.make max_threads None;
        max_threads;
        max_retries = Cm.effective_max_retries cm max_retries;
        cm;
        watchdog;
        cm_active;
        prios =
          R.sarray_make (if cm_active then flag_slot max_threads + 8 else 1) 0;
      }
    in
    R.sarray_label t.locks "locks";
    R.sarray_label t.ctl "ctl";
    R.sarray_label t.flags "flags";
    R.sarray_label t.prios "cm-prio";
    R.sarray_label (V.words t.mem) "mem";
    t

  let memory t = t.mem
  let clock_value t = R.get t.ctl clock_slot
  let lock_index t addr = (addr lsr t.shifts) land (t.n_locks - 1)

  let new_desc t tid =
    {
      owner_t = t;
      tid;
      stats = Stats.create ();
      rng = Tstm_util.Xrand.create (0x2b1 + tid);
      in_tx = false;
      read_only = false;
      irrevocable = false;
      rv = 0;
      r_set = G.create 64;
      w_addr = G.create 32;
      w_val = G.create 32;
      bloom = Bloom.create ();
      l_idx = G.create 32;
      l_old = G.create 32;
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
    }

  let desc_for t =
    let tid = R.tid () in
    if tid >= t.max_threads then invalid_arg "Tl2: thread id exceeds max_threads";
    match t.descs.(tid) with
    | Some d -> d
    | None ->
        let d = new_desc t tid in
        t.descs.(tid) <- Some d;
        d

  let cleanup d =
    G.clear d.r_set;
    G.clear d.w_addr;
    G.clear d.w_val;
    Bloom.clear d.bloom;
    G.clear d.l_idx;
    G.clear d.l_old;
    G.clear d.a_addr;
    G.clear d.a_size;
    G.clear d.f_addr;
    G.clear d.f_size;
    d.in_tx <- false

  let abort reason = raise (Abort_exn reason)

  (* Injected-fault consultation at a linearization point (same contract as
     TinySTM's: crash unwinds through the user-exception path with a full
     rollback; hang stalls wall-clock without heartbeat ticks). *)
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

  let rec wait_bounded t li attempts =
    if attempts <= 0 then false
    else begin
      R.yield ();
      if is_locked (R.get t.locks li) then wait_bounded t li (attempts - 1)
      else true
    end

  (* What to do about the committing owner of lock [li].  Returns whether
     the lock was observed free (re-run the failing step) — false means
     abort self.  The historical TL2 policy (and our [Backoff]/[Serialize]/
     [Suicide] arms) aborts immediately: a locked orec belongs to a
     transaction mid-commit.  The kill-capable policies instead let the
     winner of the pure decision table wait out the enemy's (finite) commit
     while the loser aborts at once, clearing its own commit locks out of
     the winner's way — seniority is a total order, so the globally oldest
     transaction always gets through. *)
  let conflict_wait_for t d li enemy =
    match d.eff_cm with
    | Cm.Backoff | Cm.Serialize _ | Cm.Suicide -> false
    | Cm.Karma | Cm.Greedy -> (
        let self_prio = R.get t.prios (flag_slot d.tid) in
        let enemy_prio = R.get t.prios (flag_slot enemy) in
        match
          Cm.on_enemy d.eff_cm ~self_prio ~enemy_prio ~self_tid:d.tid
            ~enemy_tid:enemy
        with
        | Cm.Kill_enemy -> wait_bounded t li Cm.wait_bound
        | Cm.Abort_now | Cm.Wait_retry -> false)

  (* ------------------------------------------------------------------ *)
  (* Quiescence fence (for irrevocable escalation)                       *)
  (* ------------------------------------------------------------------ *)

  (* Same Dekker-style protocol as TinySTM's roll-over fence: threads raise
     a private padded flag before transacting and re-check the mode word, so
     an initiator that saw every flag down owns a quiescent instance. *)

  let rec enter_fence t d =
    if R.get t.ctl mode_slot <> 0 then begin
      R.yield ();
      enter_fence t d
    end
    else begin
      R.set t.flags (flag_slot d.tid) 1;
      if R.get t.ctl mode_slot <> 0 then begin
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
      if not (R.cas t.ctl mode_slot 0 1) then begin
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
        R.set t.ctl mode_slot 0;
        v
    | exception e ->
        if san_on () then San.fence_owner_exit ~cpu:(R.tid ());
        R.set t.ctl mode_slot 0;
        raise e

  (* ------------------------------------------------------------------ *)
  (* Read and write barriers                                             *)
  (* ------------------------------------------------------------------ *)

  (* Cycle costs of TL2's bookkeeping that TinySTM does not pay: the Bloom
     filter consulted on every access of an update transaction, and linear
     write-set / acquired-lock scans (TinySTM's locks point straight into the
     owner's write log, paper §3.1). *)
  let c_bloom = 3
  let c_scan = 1

  (* Search the write set backwards so the most recent write wins. *)
  let write_set_find d addr =
    R.charge_local c_bloom;
    if Bloom.may_contain d.bloom addr then begin
      let rec go k =
        if k < 0 then None
        else begin
          R.charge_local c_scan;
          if G.get d.w_addr k = addr then Some k else go (k - 1)
        end
      in
      go (G.length d.w_addr - 1)
    end
    else None

  let rec read_word t d addr =
    R.charge_local c_op;
    if d.irrevocable then begin
      (* Serial slow path inside the fence: memory is the truth. *)
      d.stats.Stats.reads <- d.stats.Stats.reads + 1;
      R.get (V.words t.mem) addr
    end
    else
    match if d.read_only then None else write_set_find d addr with
    | Some k ->
        d.stats.Stats.reads <- d.stats.Stats.reads + 1;
        G.get d.w_val k
    | None ->
        let li = lock_index t addr in
        let l1 = R.get t.locks li in
        if is_locked l1 then begin
          (* TL2 has no encounter-time ownership: a locked orec always
             belongs to a committing transaction. *)
          if conflict_wait_for t d li (owner l1) then read_word t d addr
          else abort Stats.Read_conflict
        end
        else begin
          let v = R.get (V.words t.mem) addr in
          let l2 = R.get t.locks li in
          if l1 <> l2 then read_word t d addr
          else if version l1 > d.rv then
            (* No snapshot extension in TL2: newer data forces an abort. *)
            abort Stats.Validation_failed
          else begin
            if not d.read_only then begin
              G.push d.r_set li;
              G.push d.r_set (version l1)
            end;
            if san_on () then San.read_accept ~cpu:d.tid ~addr;
            d.stats.Stats.reads <- d.stats.Stats.reads + 1;
            v
          end
        end

  let write_word t d addr v =
    R.charge_local c_op;
    if d.read_only then invalid_arg "Tl2.write: transaction is read-only";
    if d.irrevocable then begin
      d.stats.Stats.writes <- d.stats.Stats.writes + 1;
      R.set (V.words t.mem) addr v
    end
    else begin
    (match write_set_find d addr with
    | Some k -> G.set d.w_val k v
    | None ->
        G.push d.w_addr addr;
        G.push d.w_val v;
        Bloom.add d.bloom addr);
    d.stats.Stats.writes <- d.stats.Stats.writes + 1
    end

  (* ------------------------------------------------------------------ *)
  (* Memory management                                                   *)
  (* ------------------------------------------------------------------ *)

  let alloc_words t d n =
    match V.alloc t.mem n with
    | addr ->
        G.push d.a_addr addr;
        G.push d.a_size n;
        addr
    | exception Out_of_memory ->
        (* Arena exhaustion (genuine or injected) mid-transaction: the
           failed call mutated nothing, so rollback frees earlier
           speculative allocations and [live_words] cannot drift.
           Irrevocable transactions cannot roll back, so escalate straight
           to the typed [Capacity] verdict. *)
        if obs_on () then
          emit (Obs.Event.Tx_fault { kind = "oom"; point = "alloc" });
        if d.irrevocable then
          raise (Intf.Capacity { stm = "tl2"; retries = d.alloc_fails })
        else abort Stats.Alloc_failed

  (* A free is an update: rewrite the block so commit acquires its locks.
     Inside the fence there is no concurrency and the free is just deferred
     to the end of the escalated run. *)
  let free_words t d addr n =
    if not d.irrevocable then
      for w = addr to addr + n - 1 do
        let v = read_word t d w in
        write_word t d w v
      done;
    G.push d.f_addr addr;
    G.push d.f_size n

  (* ------------------------------------------------------------------ *)
  (* Commit                                                              *)
  (* ------------------------------------------------------------------ *)

  let release_acquired t d =
    let tracing = obs_on () in
    let sanning = san_on () in
    for k = 0 to G.length d.l_idx - 1 do
      R.set t.locks (G.get d.l_idx k) (G.get d.l_old k);
      if sanning then San.lock_release ~cpu:d.tid ~lock:(G.get d.l_idx k);
      if tracing then emit (Obs.Event.Lock_release { lock = G.get d.l_idx k })
    done;
    G.clear d.l_idx;
    G.clear d.l_old

  let owns_lock d li =
    let rec go k =
      k >= 0
      && begin
           R.charge_local c_scan;
           G.get d.l_idx k = li || go (k - 1)
         end
    in
    go (G.length d.l_idx - 1)

  let old_word_of d li =
    let rec go k =
      if k < 0 then None
      else if G.get d.l_idx k = li then Some (G.get d.l_old k)
      else go (k - 1)
    in
    go (G.length d.l_idx - 1)

  let acquire_write_locks t d =
    let n = G.length d.w_addr in
    let rec take li =
      let l = R.get t.locks li in
      if is_locked l then begin
        (* Owned by another committing transaction: abort immediately
           (the reference implementation's default policy), unless the
           contention manager rules that we out-rank the owner and should
           wait out its commit instead. *)
        if conflict_wait_for t d li (owner l) then take li
        else begin
          release_acquired t d;
          abort Stats.Write_conflict
        end
      end
      else begin
        if chaos_on () then chaos_point Chaos.Lock_cas;
        if not (R.cas t.locks li l (locked_by d.tid)) then begin
          release_acquired t d;
          abort Stats.Write_conflict
        end
        else begin
          if san_on () then San.lock_acquire ~cpu:d.tid ~lock:li;
          if chaos_on () then chaos_point Chaos.Lock_cas;
          if obs_on () then emit (Obs.Event.Lock_acquire { lock = li });
          G.push d.l_idx li;
          G.push d.l_old l
        end
      end
    in
    for k = 0 to n - 1 do
      let li = lock_index t (G.get d.w_addr k) in
      if not (owns_lock d li) then take li
    done

  let validate t d =
    d.stats.Stats.validations <- d.stats.Stats.validations + 1;
    let n = G.length d.r_set in
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < n do
      let li = G.get d.r_set !k in
      let l = R.get t.locks li in
      d.stats.Stats.val_locks_processed <-
        d.stats.Stats.val_locks_processed + 1;
      (if is_locked l then
         if owner l <> d.tid then ok := false
         else begin
           (* We hold the lock ourselves: check the pre-acquisition word. *)
           match old_word_of d li with
           | Some old -> if version old > d.rv then ok := false
           | None -> ok := false
         end
       else if version l > d.rv then ok := false);
      k := !k + 2
    done;
    !ok

  let commit t d =
    R.charge_local c_tx_end;
    if G.length d.w_addr = 0 && G.length d.f_addr = 0 then begin
      d.stats.Stats.commits <- d.stats.Stats.commits + 1;
      if d.read_only then
        d.stats.Stats.commits_read_only <- d.stats.Stats.commits_read_only + 1
    end
    else begin
      acquire_write_locks t d;
      if chaos_on () then chaos_point Chaos.Clock_inc;
      let wv = R.fetch_add t.ctl clock_slot 1 + 1 in
      if san_on () then San.clock_advance ~cpu:d.tid ~drawn:wv;
      if chaos_on () then chaos_point Chaos.Commit;
      if
        wv > d.rv + 1
        && (not (Chaos.bug_active Chaos.Skip_validation))
        && not (validate t d)
      then begin
        release_acquired t d;
        abort Stats.Validation_failed
      end;
      let words = V.words t.mem in
      for k = 0 to G.length d.w_addr - 1 do
        R.set words (G.get d.w_addr k) (G.get d.w_val k)
      done;
      (* The snapshot-consistency check must see the write set still under
         lock, before any orec is released. *)
      if san_on () then San.commit_publish ~cpu:d.tid ~wv;
      let tracing = obs_on () in
      let sanning = san_on () in
      for k = 0 to G.length d.l_idx - 1 do
        R.set t.locks (G.get d.l_idx k) (unlocked ~version:wv);
        if sanning then San.lock_release ~cpu:d.tid ~lock:(G.get d.l_idx k);
        if tracing then
          emit (Obs.Event.Lock_release { lock = G.get d.l_idx k })
      done;
      for k = 0 to G.length d.f_addr - 1 do
        V.free t.mem (G.get d.f_addr k) (G.get d.f_size k)
      done;
      d.stats.Stats.commits <- d.stats.Stats.commits + 1
    end;
    cleanup d;
    if san_on () then San.tx_exit ~cpu:d.tid ~committed:true

  let rollback ?record t d =
    (* Commit-time locking: nothing was written to memory; just drop logs and
       reclaim speculative allocations.  (The sanitizer write log is empty
       for the same reason, so [tx_abort] has nothing to restore.) *)
    if san_on () then San.tx_abort ~cpu:d.tid;
    release_acquired t d;
    for k = 0 to G.length d.a_addr - 1 do
      V.free t.mem (G.get d.a_addr k) (G.get d.a_size k)
    done;
    (match record with
    | Some reason -> Stats.record_abort d.stats reason
    | None -> ());
    cleanup d;
    if san_on () then San.tx_exit ~cpu:d.tid ~committed:false

  (* ------------------------------------------------------------------ *)
  (* Transaction driver                                                  *)
  (* ------------------------------------------------------------------ *)

  (* Capped exponential back-off with deterministic per-transaction jitter
     (the formula is shared with TinySTM through [Tstm_cm]): wait uniformly
     in [base/2, base], base doubling per consecutive abort up to a cap. *)
  let backoff d attempts =
    let n = Cm.backoff_cycles ~rng:d.rng ~attempts in
    d.stats.Stats.backoff_cycles <- d.stats.Stats.backoff_cycles + n;
    R.charge n;
    if not R.is_simulated then
      for _ = 1 to n / 8 do
        R.yield ()
      done

  (* Watchdog plumbing (same shape as TinySTM's): feed commit/abort
     heartbeats, surface detections through observability, count forced
     policy switches.  Never reached with [watchdog = None]. *)
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

  (* Per-attempt prologue: effective policy (a watchdog in [Boosted] forces
     a kill-capable one) and priority publication.  Two plain reads and a
     field write on the default path. *)
  let cm_begin_attempt t d =
    d.eff_cm <-
      (match t.watchdog with
      | None -> t.cm
      | Some w -> (
          match Watchdog.level w with
          | Watchdog.Boosted -> if Cm.can_kill t.cm then t.cm else Cm.Karma
          | Watchdog.Normal | Watchdog.Serialized -> t.cm));
    if t.cm_active && Cm.needs_prio d.eff_cm then begin
      let p =
        match d.eff_cm with
        | Cm.Greedy ->
            if d.ticket = 0 then d.ticket <- R.fetch_add t.prios 0 1 + 1;
            d.ticket
        | _ -> d.stats.Stats.reads + d.stats.Stats.writes - d.work0 + 1
      in
      R.set t.prios (flag_slot d.tid) p
    end

  let cm_end_commit t d =
    d.work0 <- d.stats.Stats.reads + d.stats.Stats.writes;
    d.ticket <- 0;
    if t.cm_active && Cm.needs_prio d.eff_cm then
      R.set t.prios (flag_slot d.tid) 0

  let atomically ?(read_only = false) t f =
    let d = desc_for t in
    if d.in_tx then invalid_arg "Tl2.atomically: nested transaction";
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
      R.charge_local c_tx_begin;
      d.in_tx <- true;
      d.read_only <- read_only;
      cm_begin_attempt t d;
      if chaos_on () then chaos_point Chaos.Clock_read;
      d.rv <- R.get t.ctl clock_slot;
      if san_on () then begin
        San.tx_begin ~cpu:d.tid;
        San.clock_read ~cpu:d.tid ~value:d.rv
      end;
      if obs_on () then begin
        d.obs_start <- R.now_cycles ();
        d.obs_reads0 <- d.stats.Stats.reads;
        d.obs_writes0 <- d.stats.Stats.writes;
        emit Obs.Event.Tx_begin
      end;
      match
        (* Fault taps live inside this match so an injected crash unwinds
           through the user-exception branch below: rollback, fence
           release, [in_tx] cleared — the respawned worker can transact
           again. *)
        if fault_on () then fault_point d Fault.Clock_read;
        let v = f d in
        if fault_on () then fault_point d Fault.Commit;
        commit t d;
        v
      with
      | v ->
          if obs_on () then begin
            let lat = R.now_cycles () - d.obs_start in
            let reads = d.stats.Stats.reads - d.obs_reads0 in
            let writes = d.stats.Stats.writes - d.obs_writes0 in
            emit
              (Obs.Event.Tx_commit { read_only; reads; writes; retries = tries });
            Obs.Sink.note_commit ~lat ~retries:tries ~reads ~writes
          end;
          Stats.record_retries d.stats tries;
          cm_end_commit t d;
          note_commit_wd t d;
          leave_fence t d;
          v
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
          (* Allocation-failed aborts are capped: after [max_alloc_retries]
             consecutive failures the arena is genuinely full and retrying
             cannot help — escalate to the typed [Capacity] verdict (shared
             state is already rolled back here). *)
          if reason = Stats.Alloc_failed then begin
            d.alloc_fails <- d.alloc_fails + 1;
            if d.alloc_fails >= max_alloc_retries then
              raise (Intf.Capacity { stm = "tl2"; retries = d.alloc_fails })
          end
          else d.alloc_fails <- 0;
          note_abort_wd t d ~retries:(tries + 1);
          if Cm.delay_after_abort d.eff_cm then backoff d tries;
          attempt (tries + 1)
      | exception e ->
          rollback t d;
          leave_fence t d;
          raise e
      end
    (* Retry budget exhausted: re-run serially and irrevocably. *)
    and escalate tries =
      d.stats.Stats.escalations <- d.stats.Stats.escalations + 1;
      if obs_on () then emit (Obs.Event.Tx_escalate { retries = tries });
      serial tries
    (* The serial-irrevocable body, shared by escalation and the
       [Tm_intf.serially] scope: inside the quiescence fence no
       transaction is in flight, so memory is accessed directly, no locks
       are taken and the body cannot abort.  Nor can it be rolled back:
       injected faults are masked for its duration ([Fun.protect]
       guarantees the unmask). *)
    and serial tries =
      Fault.mask ~tid:d.tid;
      Fun.protect ~finally:(fun () -> Fault.unmask ~tid:d.tid) @@ fun () ->
      fence_and t (fun () ->
          R.charge_local c_tx_begin;
          d.in_tx <- true;
          d.read_only <- read_only;
          d.irrevocable <- true;
          if san_on () then San.tx_begin ~cpu:d.tid;
          if obs_on () then begin
            d.obs_start <- R.now_cycles ();
            d.obs_reads0 <- d.stats.Stats.reads;
            d.obs_writes0 <- d.stats.Stats.writes;
            emit Obs.Event.Tx_begin
          end;
          match f d with
          | v ->
              R.charge_local c_tx_end;
              (* Keep the clock moving so the serial commit has a unique
                 serialization point with respect to the version order. *)
              let wv = R.fetch_add t.ctl clock_slot 1 + 1 in
              if san_on () then begin
                San.clock_advance ~cpu:d.tid ~drawn:wv;
                San.commit_publish ~cpu:d.tid ~wv
              end;
              for k = 0 to G.length d.f_addr - 1 do
                V.free t.mem (G.get d.f_addr k) (G.get d.f_size k)
              done;
              d.stats.Stats.commits <- d.stats.Stats.commits + 1;
              if read_only then
                d.stats.Stats.commits_read_only <-
                  d.stats.Stats.commits_read_only + 1;
              if obs_on () then begin
                let lat = R.now_cycles () - d.obs_start in
                let reads = d.stats.Stats.reads - d.obs_reads0 in
                let writes = d.stats.Stats.writes - d.obs_writes0 in
                emit
                  (Obs.Event.Tx_commit
                     { read_only; reads; writes; retries = tries });
                Obs.Sink.note_commit ~lat ~retries:tries ~reads ~writes
              end;
              Stats.record_retries d.stats tries;
              cm_end_commit t d;
              note_commit_wd t d;
              d.irrevocable <- false;
              cleanup d;
              if san_on () then San.tx_exit ~cpu:d.tid ~committed:true;
              v
          | exception e ->
              (* Irrevocable: direct writes stay; release the fence and
                 propagate. *)
              d.irrevocable <- false;
              if san_on () then begin
                San.tx_abort ~cpu:d.tid;
                San.tx_exit ~cpu:d.tid ~committed:false
              end;
              cleanup d;
              raise e)
    in
    if Intf.in_serial_scope () then serial 0 else attempt 0

  let read tx addr = read_word tx.owner_t tx addr
  let write tx addr v = write_word tx.owner_t tx addr v
  let alloc tx n = alloc_words tx.owner_t tx n
  let free tx addr n = free_words tx.owner_t tx addr n

  let stats t =
    let agg = Stats.create () in
    Array.iter
      (function Some d -> Stats.add_into ~dst:agg d.stats | None -> ())
      t.descs;
    agg

  let reset_stats t =
    Array.iter (function Some d -> Stats.reset d.stats | None -> ()) t.descs
end
