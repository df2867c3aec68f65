(* NOrec: no ownership records, one global sequence lock, value-based
   validation (Dalessandro, Spear, Scott; PPoPP 2010).  Shares the repo's
   STM skeleton with TL2 (redo-log writes, Bloom read-after-write reject,
   quiescence-fence escalation) but replaces the whole lock array with a
   single seqlock word: even = timestamp, odd = a writer mid-commit. *)

module Make (R : Tstm_runtime.Runtime_intf.S) = struct
  module V = Tstm_vmm.Vmm.Make (R)
  module G = Tstm_util.Growbuf
  module Bloom = Tstm_util.Bloom
  module Stats = Tstm_tm.Tm_stats

  let name = "norec"

  exception Abort_exn of Stats.abort_reason

  (* Observability (same discipline as the other STMs: guarded, never
     charges). *)
  module Obs = Tstm_obs

  let obs_on () = Obs.Sink.enabled ()
  let emit ev = Obs.Sink.emit ~ts:(R.now_cycles ()) ~cpu:(R.tid ()) ev

  (* Chaos schedule perturbation (one-boolean-load discipline). *)
  module Chaos = Tstm_chaos.Chaos

  let chaos_on () = Chaos.enabled ()

  let chaos_point p =
    let n = Chaos.preempt p in
    if n > 0 then R.charge n

  (* Sanitizer sync-edge annotations.  The seqlock edges go through the
     generic {!Tstm_runtime.Tap} producers (which self-gate on the armed
     tap); the per-transaction annotations call {!Tstm_san.San} directly
     like the other STMs. *)
  module San = Tstm_san.San
  module Tap = Tstm_runtime.Tap

  let san_on () = San.enabled ()

  (* Injected faults (crash/hang/OOM) at linearization points — same
     one-boolean-load guard as obs/chaos; see [Tstm_fault.Fault]. *)
  module Fault = Tstm_fault.Fault
  module Intf = Tstm_tm.Tm_intf

  let fault_on () = Fault.enabled ()

  (* Consecutive allocation-failed aborts tolerated before escalating to the
     typed [Tm_intf.Capacity] verdict. *)
  let max_alloc_retries = 16

  (* Contention management.  A held sequence lock always belongs to a
     finite committing writer, so the kill-capable policies degenerate to
     "the decision-table winner waits out the commit, the loser aborts";
     [Suicide] aborts on any observed held lock.  Because there is only
     one lock, the symmetric hold-and-wait cycle that livelocks the
     lock-array STMs cannot form: some writer's CAS always lands. *)
  module Cm = Tstm_cm.Cm
  module Watchdog = Tstm_runtime.Watchdog

  let seq_locked s = s land 1 = 1

  let c_tx_begin = 20
  let c_tx_end = 20
  let c_op = 4

  (* NOrec's distinctive costs: every validation re-reads the whole read
     set by value (no per-stripe version shortcut), and every snapshot
     check samples the sequence word. *)
  let c_val = 2
  let c_seq = 1

  type desc = {
    owner_t : t;
    tid : int;
    stats : Stats.t;
    rng : Tstm_util.Xrand.t;
    mutable in_tx : bool;
    mutable read_only : bool;
    mutable irrevocable : bool;
    mutable rv : int;  (* snapshot: an even sequence value *)
    (* Read set: (address, observed value) pairs, flattened.  Kept for
       read-only transactions too — value-based validation is what lets
       any transaction fast-forward instead of aborting. *)
    r_addr : G.t;
    r_val : G.t;
    (* Redo-log write set with a Bloom read-after-write fast reject. *)
    w_addr : G.t;
    w_val : G.t;
    bloom : Bloom.t;
    (* Memory-management logs. *)
    a_addr : G.t;
    a_size : G.t;
    f_addr : G.t;
    f_size : G.t;
    (* Observability bookkeeping (only maintained while tracing is on). *)
    mutable obs_start : int;
    mutable obs_reads0 : int;
    mutable obs_writes0 : int;
    (* Contention-management bookkeeping. *)
    mutable eff_cm : Cm.policy;
    mutable work0 : int;
    mutable ticket : int;
    mutable alloc_fails : int;
      (* consecutive allocation-failed aborts of the current transaction *)
  }

  and t = {
    mem : V.t;
    ctl : R.sarray;  (* fence mode / sequence lock / committer, padded *)
    flags : R.sarray;  (* per-thread in-transaction flags, padded apart *)
    descs : desc option array;
    max_threads : int;
    max_retries : int;
    cm : Cm.policy;
    watchdog : Watchdog.t option;
    cm_active : bool;
    prios : R.sarray;
  }

  type tx = desc

  let mode_slot = 0
  let seq_slot = 8
  let committer_slot = 16
  let ctl_len = 24
  let flag_slot tid = (tid + 1) * 8

  let create ?(max_threads = 64) ?(max_retries = 0) ?(cm = Cm.default)
      ?watchdog ~memory_words () =
    if max_threads < 1 then invalid_arg "Norec.create: max_threads < 1";
    if max_retries < 0 then invalid_arg "Norec.create: max_retries < 0";
    let cm_active = Cm.can_kill cm || watchdog <> None in
    let t =
      {
        mem = V.create ~words:memory_words;
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
    R.sarray_label t.ctl "ctl";
    R.sarray_label t.flags "flags";
    R.sarray_label t.prios "cm-prio";
    R.sarray_label (V.words t.mem) "mem";
    t

  let memory t = t.mem
  let clock_value t = R.get t.ctl seq_slot

  let new_desc t tid =
    {
      owner_t = t;
      tid;
      stats = Stats.create ();
      rng = Tstm_util.Xrand.create (0x9c3 + tid);
      in_tx = false;
      read_only = false;
      irrevocable = false;
      rv = 0;
      r_addr = G.create 64;
      r_val = G.create 64;
      w_addr = G.create 32;
      w_val = G.create 32;
      bloom = Bloom.create ();
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
    if tid >= t.max_threads then
      invalid_arg "Norec: thread id exceeds max_threads";
    match t.descs.(tid) with
    | Some d -> d
    | None ->
        let d = new_desc t tid in
        t.descs.(tid) <- Some d;
        d

  let cleanup d =
    G.clear d.r_addr;
    G.clear d.r_val;
    G.clear d.w_addr;
    G.clear d.w_val;
    Bloom.clear d.bloom;
    G.clear d.a_addr;
    G.clear d.a_size;
    G.clear d.f_addr;
    G.clear d.f_size;
    d.in_tx <- false

  let abort reason = raise (Abort_exn reason)

  (* Injected-fault consultation at a linearization point (same contract as
     the other STMs: crash unwinds through the user-exception path with a
     full rollback; hang stalls wall-clock without heartbeat ticks). *)
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

  (* The contention decision on an observed held sequence lock.  Returning
     means "wait for the (finite) commit to finish"; the policies that
     prefer the aborter abort self instead. *)
  let conflict_on_holder t d ~reason =
    match d.eff_cm with
    | Cm.Backoff | Cm.Serialize _ -> ()
    | Cm.Suicide -> abort reason
    | Cm.Karma | Cm.Greedy ->
        let enemy = R.get t.ctl committer_slot in
        if enemy <> d.tid then begin
          let self_prio = R.get t.prios (flag_slot d.tid) in
          let enemy_prio = R.get t.prios (flag_slot enemy) in
          match
            Cm.on_enemy d.eff_cm ~self_prio ~enemy_prio ~self_tid:d.tid
              ~enemy_tid:enemy
          with
          | Cm.Kill_enemy -> ()  (* winner waits out the finite commit *)
          | Cm.Abort_now | Cm.Wait_retry -> abort reason
        end

  (* Sample the sequence word until it is even; consult the contention
     manager at every held observation. *)
  let rec seq_even t d ~reason =
    R.charge_local c_seq;
    let s = R.get t.ctl seq_slot in
    if not (seq_locked s) then s
    else begin
      conflict_on_holder t d ~reason;
      R.yield ();
      seq_even t d ~reason
    end

  (* Value-validate the whole read set and return the even sequence value
     it was proven consistent at; aborts on any changed value.  The
     post-scan sequence re-check restarts the scan when a writer landed
     mid-validation, so a returned time is a true consistency point. *)
  let rec validate t d ~reason =
    d.stats.Stats.validations <- d.stats.Stats.validations + 1;
    let time = seq_even t d ~reason in
    let words = V.words t.mem in
    let n = G.length d.r_addr in
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < n do
      R.charge_local c_val;
      d.stats.Stats.val_locks_processed <-
        d.stats.Stats.val_locks_processed + 1;
      if R.get words (G.get d.r_addr !k) <> G.get d.r_val !k then ok := false;
      k := !k + 1
    done;
    if not !ok then abort Stats.Validation_failed
    else begin
      R.charge_local c_seq;
      if R.get t.ctl seq_slot <> time then validate t d ~reason else time
    end

  (* Fast-forward: move the snapshot to the current sequence value after a
     passed value validation — NOrec's analogue of LSA snapshot extension.
     The armed [Skip_extension] bug blindly fast-forwards without
     validating (and must not emit the sanitizer's re-certification edge,
     which is reserved for validations that actually ran and passed). *)
  let extend t d ~reason =
    if Chaos.bug_active Chaos.Skip_extension then
      d.rv <- seq_even t d ~reason
    else begin
      let time = validate t d ~reason in
      d.rv <- time;
      d.stats.Stats.extensions <- d.stats.Stats.extensions + 1;
      Tap.seqlock_validate ~value:time
    end

  (* ------------------------------------------------------------------ *)
  (* Quiescence fence (for irrevocable escalation)                       *)
  (* ------------------------------------------------------------------ *)

  (* Same Dekker-style protocol as TinySTM's roll-over fence and TL2's
     escalation fence. *)

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

  let read_word t d addr =
    R.charge_local c_op;
    if d.irrevocable then begin
      d.stats.Stats.reads <- d.stats.Stats.reads + 1;
      R.get (V.words t.mem) addr
    end
    else
      match if d.read_only then None else write_set_find d addr with
      | Some k ->
          d.stats.Stats.reads <- d.stats.Stats.reads + 1;
          G.get d.w_val k
      | None ->
          let words = V.words t.mem in
          let v = ref (R.get words addr) in
          (* The NOrec post-validation loop: the value is accepted only
             when the sequence word still equals the snapshot after the
             load; any movement (a writer committing or committed)
             triggers validation and fast-forward, then a re-read. *)
          R.charge_local c_seq;
          while R.get t.ctl seq_slot <> d.rv do
            extend t d ~reason:Stats.Read_conflict;
            v := R.get words addr;
            R.charge_local c_seq
          done;
          G.push d.r_addr addr;
          G.push d.r_val !v;
          if san_on () then San.read_accept ~cpu:d.tid ~addr;
          d.stats.Stats.reads <- d.stats.Stats.reads + 1;
          !v

  let write_word t d addr v =
    R.charge_local c_op;
    if d.read_only then invalid_arg "Norec.write: transaction is read-only";
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
          raise (Intf.Capacity { stm = "norec"; retries = d.alloc_fails })
        else abort Stats.Alloc_failed

  (* A free is an update: read-write the block so the commit is a writer
     (value validation then covers the block against concurrent access).
     Inside the fence there is no concurrency and the free is just
     deferred to the end of the escalated run. *)
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

  (* Acquire the sequence lock at the current snapshot.  A CAS can only
     succeed from [d.rv] itself, so a transaction whose snapshot lags the
     sequence word must revalidate (fast-forward) first; the armed
     [Skip_validation] bug blindly fast-forwards instead — the classic
     torn-commit mistake value validation exists to prevent. *)
  let rec acquire_seq t d =
    R.charge_local c_seq;
    let s = R.get t.ctl seq_slot in
    if seq_locked s then begin
      conflict_on_holder t d ~reason:Stats.Write_conflict;
      R.yield ();
      acquire_seq t d
    end
    else begin
      (if s <> d.rv then
         if Chaos.bug_active Chaos.Skip_validation then d.rv <- s
         else begin
           let time = validate t d ~reason:Stats.Write_conflict in
           d.rv <- time;
           Tap.seqlock_validate ~value:time
         end);
      if chaos_on () then chaos_point Chaos.Lock_cas;
      if not (R.cas t.ctl seq_slot d.rv (d.rv + 1)) then acquire_seq t d
      else begin
        Tap.seqlock_acquire ~drawn:(d.rv + 2);
        if t.cm_active then R.set t.ctl committer_slot d.tid;
        if chaos_on () then chaos_point Chaos.Lock_cas;
        if obs_on () then emit (Obs.Event.Lock_acquire { lock = 0 })
      end
    end

  let commit t d =
    R.charge_local c_tx_end;
    if G.length d.w_addr = 0 && G.length d.f_addr = 0 then begin
      (* Lock-free commit: no CAS, no store, nothing to publish. *)
      d.stats.Stats.commits <- d.stats.Stats.commits + 1;
      if d.read_only then
        d.stats.Stats.commits_read_only <- d.stats.Stats.commits_read_only + 1
    end
    else begin
      acquire_seq t d;
      if chaos_on () then chaos_point Chaos.Commit;
      let wv = d.rv + 2 in
      let words = V.words t.mem in
      for k = 0 to G.length d.w_addr - 1 do
        R.set words (G.get d.w_addr k) (G.get d.w_val k)
      done;
      (* The snapshot-consistency check must see the write set still under
         the sequence lock, before the new even value is published. *)
      if san_on () then San.commit_publish ~cpu:d.tid ~wv;
      if chaos_on () then chaos_point Chaos.Clock_inc;
      R.set t.ctl seq_slot wv;
      Tap.seqlock_release ();
      if obs_on () then emit (Obs.Event.Lock_release { lock = 0 });
      for k = 0 to G.length d.f_addr - 1 do
        V.free t.mem (G.get d.f_addr k) (G.get d.f_size k)
      done;
      d.stats.Stats.commits <- d.stats.Stats.commits + 1
    end;
    cleanup d;
    if san_on () then San.tx_exit ~cpu:d.tid ~committed:true

  let rollback ?record t d =
    (* Redo-log writes: memory was never touched, and every abort happens
       lock-free (the sequence lock is only ever held across the
       straight-line write-back), so there is nothing to release. *)
    if san_on () then San.tx_abort ~cpu:d.tid;
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

  let backoff d attempts =
    let n = Cm.backoff_cycles ~rng:d.rng ~attempts in
    d.stats.Stats.backoff_cycles <- d.stats.Stats.backoff_cycles + n;
    R.charge n;
    if not R.is_simulated then
      for _ = 1 to n / 8 do
        R.yield ()
      done

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

  (* The begin-time snapshot: wait for an even sequence value.  No
     contention decision here — nothing is invested yet, so aborting self
     would only re-enter the same wait. *)
  let rec sample_snapshot t =
    R.charge_local c_seq;
    let s = R.get t.ctl seq_slot in
    if seq_locked s then begin
      R.yield ();
      sample_snapshot t
    end
    else s

  let atomically ?(read_only = false) t f =
    let d = desc_for t in
    if d.in_tx then invalid_arg "Norec.atomically: nested transaction";
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
        d.rv <- sample_snapshot t;
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
                (Obs.Event.Tx_commit
                   { read_only; reads; writes; retries = tries });
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
            (* Allocation-failed aborts are capped: after
               [max_alloc_retries] consecutive failures the arena is
               genuinely full and retrying cannot help — escalate to the
               typed [Capacity] verdict (shared state is already rolled
               back here). *)
            if reason = Stats.Alloc_failed then begin
              d.alloc_fails <- d.alloc_fails + 1;
              if d.alloc_fails >= max_alloc_retries then
                raise
                  (Intf.Capacity { stm = "norec"; retries = d.alloc_fails })
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
              (* Keep the sequence moving so the serial commit has a
                 unique serialization point: the fence guarantees
                 quiescence, so the CAS cannot fail. *)
              let s = R.get t.ctl seq_slot in
              let wv = s + 2 in
              ignore (R.cas t.ctl seq_slot s (s + 1));
              Tap.seqlock_acquire ~drawn:wv;
              if san_on () then San.commit_publish ~cpu:d.tid ~wv;
              R.set t.ctl seq_slot wv;
              Tap.seqlock_release ();
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
