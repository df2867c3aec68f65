module Make (R : Tstm_runtime.Runtime_intf.S) = struct
  module Engine = Tstm_engine.Tx_engine
  module F = Engine.Frame (R)
  module V = F.V
  module G = Tstm_util.Growbuf
  module Stats = Tstm_tm.Tm_stats
  module Obs = Tstm_obs
  module Chaos = Tstm_chaos.Chaos
  module San = Tstm_san.San
  open F

  let name = "tl2"

  (* Contention management (same plumbing discipline as TinySTM, adapted to
     commit-time locking: a locked orec always belongs to a transaction that
     is mid-commit and therefore finite and unkillable, so the kill-capable
     policies degenerate to "the winner waits for the release, the loser
     aborts and clears the road" — seniority still yields a total order, so
     the globally oldest transaction always gets through).  With the default
     [Backoff] policy and no watchdog, [cm_active] is false and no extra
     shared word is ever touched. *)
  module Cm = Tstm_cm.Cm

  (* TL2 lock words: unlocked = [version | 0]; locked = [tid | 1].  No
     incarnation numbers (write-back never dirties memory before commit) and
     no write-set payload (there is no per-lock chain — that is TinySTM's
     advantage the paper measures). *)
  let is_locked w = w land 1 = 1
  let unlocked ~version = version lsl 1
  let version w = w lsr 1
  let locked_by tid = (tid lsl 1) lor 1
  let owner w = w lsr 1

  type proto = { n_locks : int; shifts : int; locks : R.sarray }

  type local = {
    (* Read set: (lock index, observed version) pairs, flattened. *)
    r_set : G.t;
    w : Redo.t;  (* the buffered writes *)
    (* Locks acquired during commit, with their previous words. *)
    l_idx : G.t;
    l_old : G.t;
  }

  type t = (proto, local) inst
  type tx = (proto, local) desc

  let clock_slot = 8

  let memory (t : t) = t.mem
  let clock_value (t : t) = R.get t.ctl clock_slot
  let lock_index (t : t) addr = (addr lsr t.p.shifts) land (t.p.n_locks - 1)

  let local _ =
    {
      r_set = G.create 64;
      w = Redo.create ();
      l_idx = G.create 32;
      l_old = G.create 32;
    }

  let clear x =
    G.clear x.r_set;
    Redo.clear x.w;
    G.clear x.l_idx;
    G.clear x.l_old

  (* What to do about the committing owner of lock [li].  Returns whether
     the lock was observed free (re-run the failing step) — false means
     abort self.  The historical TL2 policy (and our [Backoff]/[Serialize]/
     [Suicide] arms) aborts immediately: a locked orec belongs to a
     transaction mid-commit.  The kill-capable policies instead let the
     winner of the pure decision table wait out the enemy's (finite) commit
     while the loser aborts at once, clearing its own commit locks out of
     the winner's way — seniority is a total order, so the globally oldest
     transaction always gets through. *)
  let conflict_wait_for (t : t) (d : tx) li enemy =
    match d.eff_cm with
    | Cm.Backoff | Cm.Serialize _ | Cm.Suicide -> false
    | Cm.Karma | Cm.Greedy -> (
        match cm_verdict t d enemy with
        | Cm.Kill_enemy -> wait_unlocked t.p.locks li Cm.wait_bound
        | Cm.Abort_now | Cm.Wait_retry -> false)

  (* ------------------------------------------------------------------ *)
  (* Read and write barriers                                             *)
  (* ------------------------------------------------------------------ *)

  (* Cycle cost per entry of the linear acquired-lock scan at commit
     (TinySTM's locks point straight into the owner's write log, paper
     §3.1); [Redo] charges its own lookups. *)
  let c_scan = 1

  let rec read_word (t : t) (d : tx) addr =
    R.charge_local c_op;
    if d.irrevocable then begin
      (* Serial slow path inside the fence: memory is the truth. *)
      d.stats.Stats.reads <- d.stats.Stats.reads + 1;
      R.get (V.words t.mem) addr
    end
    else
    match if d.read_only then None else Redo.find d.x.w addr with
    | Some k ->
        d.stats.Stats.reads <- d.stats.Stats.reads + 1;
        Redo.value d.x.w k
    | None ->
        let li = lock_index t addr in
        let l1 = R.get t.p.locks li in
        if is_locked l1 then begin
          (* TL2 has no encounter-time ownership: a locked orec always
             belongs to a committing transaction. *)
          if conflict_wait_for t d li (owner l1) then read_word t d addr
          else raise (Engine.Abort_exn Stats.Read_conflict)
        end
        else begin
          let v = R.get (V.words t.mem) addr in
          let l2 = R.get t.p.locks li in
          if l1 <> l2 then read_word t d addr
          else if version l1 > d.rv then
            (* No snapshot extension in TL2: newer data forces an abort. *)
            raise (Engine.Abort_exn Stats.Validation_failed)
          else begin
            if not d.read_only then begin
              G.push d.x.r_set li;
              G.push d.x.r_set (version l1)
            end;
            if san_on () then San.read_accept ~cpu:d.tid ~addr;
            d.stats.Stats.reads <- d.stats.Stats.reads + 1;
            v
          end
        end

  let write_word (t : t) (d : tx) addr v =
    R.charge_local c_op;
    if d.read_only then invalid_arg "Tl2.write: transaction is read-only";
    if d.irrevocable then begin
      d.stats.Stats.writes <- d.stats.Stats.writes + 1;
      R.set (V.words t.mem) addr v
    end
    else begin
      Redo.put d.x.w addr v;
      d.stats.Stats.writes <- d.stats.Stats.writes + 1
    end

  (* ------------------------------------------------------------------ *)
  (* Commit                                                              *)
  (* ------------------------------------------------------------------ *)

  (* Release every acquired lock, storing [word old] over the lock whose
     pre-acquisition word was [old]: the new version at commit, [old]
     itself on abort. *)
  let release_locks (t : t) (d : tx) word =
    let x = d.x in
    let tracing = obs_on () in
    let sanning = san_on () in
    for k = 0 to G.length x.l_idx - 1 do
      R.set t.p.locks (G.get x.l_idx k) (word (G.get x.l_old k));
      if sanning then San.lock_release ~cpu:d.tid ~lock:(G.get x.l_idx k);
      if tracing then emit (Obs.Event.Lock_release { lock = G.get x.l_idx k })
    done;
    G.clear x.l_idx;
    G.clear x.l_old

  let release_acquired t d = release_locks t d Fun.id

  let owns_lock x li =
    let rec go k =
      k >= 0
      && begin
           R.charge_local c_scan;
           G.get x.l_idx k = li || go (k - 1)
         end
    in
    go (G.length x.l_idx - 1)

  let old_word_of x li =
    let rec go k =
      if k < 0 then None
      else if G.get x.l_idx k = li then Some (G.get x.l_old k)
      else go (k - 1)
    in
    go (G.length x.l_idx - 1)

  let acquire_write_locks (t : t) (d : tx) =
    let x = d.x in
    let rec take li =
      let l = R.get t.p.locks li in
      if is_locked l then begin
        (* Owned by another committing transaction: abort immediately
           (the reference implementation's default policy), unless the
           contention manager rules that we out-rank the owner and should
           wait out its commit instead. *)
        if conflict_wait_for t d li (owner l) then take li
        else begin
          release_acquired t d;
          raise (Engine.Abort_exn Stats.Write_conflict)
        end
      end
      else begin
        if chaos_on () then chaos_point Chaos.Lock_cas;
        if not (R.cas t.p.locks li l (locked_by d.tid)) then begin
          release_acquired t d;
          raise (Engine.Abort_exn Stats.Write_conflict)
        end
        else begin
          if san_on () then San.lock_acquire ~cpu:d.tid ~lock:li;
          if chaos_on () then chaos_point Chaos.Lock_cas;
          if obs_on () then emit (Obs.Event.Lock_acquire { lock = li });
          G.push x.l_idx li;
          G.push x.l_old l
        end
      end
    in
    for k = 0 to Redo.length x.w - 1 do
      let li = lock_index t (Redo.addr x.w k) in
      if not (owns_lock x li) then take li
    done

  let validate (t : t) (d : tx) =
    let x = d.x in
    d.stats.Stats.validations <- d.stats.Stats.validations + 1;
    let n = G.length x.r_set in
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < n do
      let li = G.get x.r_set !k in
      let l = R.get t.p.locks li in
      d.stats.Stats.val_locks_processed <-
        d.stats.Stats.val_locks_processed + 1;
      (if is_locked l then
         if owner l <> d.tid then ok := false
         else begin
           (* We hold the lock ourselves: check the pre-acquisition word. *)
           match old_word_of x li with
           | Some old -> if version old > d.rv then ok := false
           | None -> ok := false
         end
       else if version l > d.rv then ok := false);
      k := !k + 2
    done;
    !ok

  (* Returns the serialization stamp: [wv] for updates, [rv] for
     transactions with nothing to publish. *)
  let commit (t : t) (d : tx) =
    let x = d.x in
    if Redo.is_empty x.w && G.length d.f_addr = 0 then d.rv
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
        raise (Engine.Abort_exn Stats.Validation_failed)
      end;
      Redo.write_back x.w (V.words t.mem);
      (* The snapshot-consistency check must see the write set still under
         lock, before any orec is released. *)
      if san_on () then San.commit_publish ~cpu:d.tid ~wv;
      release_locks t d (fun _ -> unlocked ~version:wv);
      free_deferred t d;
      wv
    end

  let rollback (t : t) (d : tx) =
    (* Commit-time locking: nothing was written to memory; just drop the
       acquired locks.  (The sanitizer write log is empty for the same
       reason, so [tx_abort] has nothing to restore.) *)
    if san_on () then San.tx_abort ~cpu:d.tid;
    release_acquired t d

  (* Keep the clock moving so a serial commit has a unique serialization
     point with respect to the version order. *)
  let serial_stamp (t : t) (d : tx) =
    let wv = R.fetch_add t.ctl clock_slot 1 + 1 in
    if san_on () then begin
      San.clock_advance ~cpu:d.tid ~drawn:wv;
      San.commit_publish ~cpu:d.tid ~wv
    end;
    wv

  (* ------------------------------------------------------------------ *)
  (* The engine                                                          *)
  (* ------------------------------------------------------------------ *)

  module E = Engine.Make (R) (struct
    type p = proto
    type x = local

    let name = name
    let rng_seed = 0x2b1
    let ctl_len = 16
    let mode_slot = 0
    let remote_kill = false
    let local = local
    let refresh _ _ = ()
    let snapshot (t : t) = R.get t.ctl clock_slot
    let clock_exhausted _ _ = false
    let roll_over _ = ()
    let read = read_word
    let write = write_word
    let commit = commit
    let rollback = rollback
    let clear = clear
    let serial_stamp = serial_stamp
  end)

  let create ?(n_locks = 1 lsl 16) ?(shifts = 0) ?(max_threads = 64)
      ?(max_retries = 0) ?(cm = Cm.default) ?watchdog ~memory_words () =
    if not (Tstm_util.Bitops.is_pow2 n_locks) then
      invalid_arg "Tl2.create: n_locks must be a power of two";
    if shifts < 0 || shifts > 16 then
      invalid_arg "Tl2.create: shifts out of range";
    E.create ~max_threads ~max_retries ~cm ?watchdog ~memory_words (fun () ->
        let locks = R.sarray_make n_locks 0 in
        R.sarray_label locks "locks";
        { n_locks; shifts; locks })

  (* Direct calls: the barriers are the hot path. *)
  let read (tx : tx) addr = read_word tx.owner tx addr
  let write (tx : tx) addr v = write_word tx.owner tx addr v
  let alloc = E.alloc
  let free = E.free
  let atomically = E.atomically
  let stats = E.stats
  let reset_stats = E.reset_stats
end
