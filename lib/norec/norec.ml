(* NOrec: no ownership records, one global sequence lock, value-based
   validation (Dalessandro, Spear, Scott; PPoPP 2010).  Shares the redo log
   ([Frame.Redo]) with TL2 and the whole transaction lifecycle with every
   family ([Tstm_engine.Tx_engine]), but replaces the lock array with a
   single seqlock word: even = timestamp, odd = a writer mid-commit.  The
   seqlock's acquire, release and validate edges are annotated for the
   sanitizer like every other protocol step, with [San] calls under
   [san_on ()]. *)

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

  let name = "norec"

  (* Contention management.  A held sequence lock always belongs to a
     finite committing writer, so the kill-capable policies degenerate to
     "the decision-table winner waits out the commit, the loser aborts";
     [Suicide] aborts on any observed held lock.  Because there is only
     one lock, the symmetric hold-and-wait cycle that livelocks the
     lock-array STMs cannot form: some writer's CAS always lands. *)
  module Cm = Tstm_cm.Cm

  let seq_locked s = s land 1 = 1

  (* NOrec's distinctive costs: every validation re-reads the whole read
     set by value (no per-stripe version shortcut), and every snapshot
     check samples the sequence word. *)
  let c_val = 2
  let c_seq = 1

  type local = {
    (* Read set: (address, observed value) pairs, flattened.  Kept for
       read-only transactions too — value-based validation is what lets
       any transaction fast-forward instead of aborting. *)
    r_addr : G.t;
    r_val : G.t;
    w : Redo.t;  (* the buffered writes *)
  }

  type t = (unit, local) inst
  type tx = (unit, local) desc

  (* [ctl] words: fence mode 0, sequence lock 8, committer 16. *)
  let seq_slot = 8
  let committer_slot = 16

  let memory (t : t) = t.mem
  let clock_value (t : t) = R.get t.ctl seq_slot

  let local () =
    {
      r_addr = G.create 64;
      r_val = G.create 64;
      w = Redo.create ();
    }

  let clear x =
    G.clear x.r_addr;
    G.clear x.r_val;
    Redo.clear x.w

  (* The contention decision on an observed held sequence lock.  Returning
     means "wait for the (finite) commit to finish"; the policies that
     prefer the aborter abort self instead. *)
  let conflict_on_holder (t : t) (d : tx) ~reason =
    match d.eff_cm with
    | Cm.Backoff | Cm.Serialize _ -> ()
    | Cm.Suicide -> raise (Engine.Abort_exn reason)
    | Cm.Karma | Cm.Greedy ->
        let enemy = R.get t.ctl committer_slot in
        if enemy <> d.tid then
          match cm_verdict t d enemy with
          | Cm.Kill_enemy -> ()  (* winner waits out the finite commit *)
          | Cm.Abort_now | Cm.Wait_retry -> raise (Engine.Abort_exn reason)

  (* Sample the sequence word until it is even; consult the contention
     manager at every held observation. *)
  let rec seq_even (t : t) d ~reason =
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
  let rec validate (t : t) (d : tx) ~reason =
    d.stats.Stats.validations <- d.stats.Stats.validations + 1;
    let time = seq_even t d ~reason in
    let words = V.words t.mem in
    let n = G.length d.x.r_addr in
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < n do
      R.charge_local c_val;
      d.stats.Stats.val_locks_processed <-
        d.stats.Stats.val_locks_processed + 1;
      if R.get words (G.get d.x.r_addr !k) <> G.get d.x.r_val !k then
        ok := false;
      k := !k + 1
    done;
    if not !ok then raise (Engine.Abort_exn Stats.Validation_failed)
    else begin
      R.charge_local c_seq;
      if R.get t.ctl seq_slot <> time then validate t d ~reason else time
    end

  (* Fast-forward: move the snapshot to the current sequence value after a
     passed value validation — NOrec's analogue of LSA snapshot extension.
     The armed [Skip_extension] bug blindly fast-forwards without
     validating (and must not emit the sanitizer's re-certification edge,
     which is reserved for validations that actually ran and passed). *)
  let extend (t : t) (d : tx) ~reason =
    if Chaos.bug_active Chaos.Skip_extension then
      d.rv <- seq_even t d ~reason
    else begin
      let time = validate t d ~reason in
      d.rv <- time;
      d.stats.Stats.extensions <- d.stats.Stats.extensions + 1;
      if san_on () then San.seqlock_validate ~cpu:d.tid ~value:time
    end

  (* ------------------------------------------------------------------ *)
  (* Read and write barriers                                             *)
  (* ------------------------------------------------------------------ *)

  let read_word (t : t) (d : tx) addr =
    R.charge_local c_op;
    if d.irrevocable then begin
      d.stats.Stats.reads <- d.stats.Stats.reads + 1;
      R.get (V.words t.mem) addr
    end
    else
      (* Two read phases: until the first write the log is empty and
         cannot hold [addr], so the lookup (and its filter charge) is
         skipped; the emptiness test reads only this descriptor. *)
      match
        if d.read_only || Redo.is_empty d.x.w then None
        else Redo.find d.x.w addr
      with
      | Some k ->
          d.stats.Stats.reads <- d.stats.Stats.reads + 1;
          Redo.value d.x.w k
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
          G.push d.x.r_addr addr;
          G.push d.x.r_val !v;
          if san_on () then San.read_accept ~cpu:d.tid ~addr;
          d.stats.Stats.reads <- d.stats.Stats.reads + 1;
          !v

  let write_word (t : t) (d : tx) addr v =
    R.charge_local c_op;
    if d.read_only then invalid_arg "Norec.write: transaction is read-only";
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

  (* Acquire the sequence lock at the current snapshot.  A CAS can only
     succeed from [d.rv] itself, so a transaction whose snapshot lags the
     sequence word must revalidate (fast-forward) first; the armed
     [Skip_validation] bug blindly fast-forwards instead — the classic
     torn-commit mistake value validation exists to prevent. *)
  let rec acquire_seq (t : t) (d : tx) =
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
           if san_on () then San.seqlock_validate ~cpu:d.tid ~value:time
         end);
      if chaos_on () then chaos_point Chaos.Lock_cas;
      if not (R.cas t.ctl seq_slot d.rv (d.rv + 1)) then acquire_seq t d
      else begin
        if san_on () then San.seqlock_acquire ~cpu:d.tid ~drawn:(d.rv + 2);
        if t.cm_active then R.set t.ctl committer_slot d.tid;
        if chaos_on () then chaos_point Chaos.Lock_cas;
        if obs_on () then emit (Obs.Event.Lock_acquire { lock = 0 })
      end
    end

  (* Returns the serialization stamp: the published sequence value for
     writers, the snapshot for lock-free commits. *)
  let commit (t : t) (d : tx) =
    if Redo.is_empty d.x.w && G.length d.f_addr = 0 then
      (* Lock-free commit: no CAS, no store, nothing to publish. *)
      d.rv
    else begin
      acquire_seq t d;
      if chaos_on () then chaos_point Chaos.Commit;
      let wv = d.rv + 2 in
      Redo.write_back d.x.w (V.words t.mem);
      (* The snapshot-consistency check must see the write set still under
         the sequence lock, before the new even value is published. *)
      if san_on () then San.commit_publish ~cpu:d.tid ~wv;
      if chaos_on () then chaos_point Chaos.Clock_inc;
      R.set t.ctl seq_slot wv;
      if san_on () then San.seqlock_release ~cpu:d.tid;
      if obs_on () then emit (Obs.Event.Lock_release { lock = 0 });
      free_deferred t d;
      wv
    end

  (* Redo-log writes: memory was never touched, and every abort happens
     lock-free (the sequence lock is only ever held across the
     straight-line write-back), so there is nothing to release. *)
  let rollback _ (d : tx) = if san_on () then San.tx_abort ~cpu:d.tid

  (* Keep the sequence moving so a serial commit has a unique serialization
     point: the fence guarantees quiescence, so the CAS cannot fail. *)
  let serial_stamp (t : t) (d : tx) =
    let s = R.get t.ctl seq_slot in
    let wv = s + 2 in
    ignore (R.cas t.ctl seq_slot s (s + 1));
    if san_on () then begin
      San.seqlock_acquire ~cpu:d.tid ~drawn:wv;
      San.commit_publish ~cpu:d.tid ~wv
    end;
    R.set t.ctl seq_slot wv;
    if san_on () then San.seqlock_release ~cpu:d.tid;
    wv

  (* The begin-time snapshot: wait for an even sequence value.  No
     contention decision here — nothing is invested yet, so aborting self
     would only re-enter the same wait. *)
  let rec snapshot (t : t) =
    R.charge_local c_seq;
    let s = R.get t.ctl seq_slot in
    if seq_locked s then begin
      R.yield ();
      snapshot t
    end
    else s

  (* ------------------------------------------------------------------ *)
  (* The engine                                                          *)
  (* ------------------------------------------------------------------ *)

  module E = Engine.Make (R) (struct
    type p = unit
    type x = local

    let name = name
    let rng_seed = 0x9c3
    let ctl_len = 24
    let mode_slot = 0
    let remote_kill = false
    let local = local
    let refresh _ _ = ()
    let snapshot = snapshot
    let clock_exhausted _ _ = false
    let roll_over _ = ()
    let read = read_word
    let write = write_word
    let commit = commit
    let rollback = rollback
    let clear = clear
    let serial_stamp = serial_stamp
  end)

  let create ?(max_threads = 64) ?(max_retries = 0) ?(cm = Cm.default)
      ?watchdog ~memory_words () =
    E.create ~max_threads ~max_retries ~cm ?watchdog ~memory_words ignore

  (* Direct calls: the barriers are the hot path. *)
  let read (tx : tx) addr = read_word tx.owner tx addr
  let write (tx : tx) addr v = write_word tx.owner tx addr v
  let alloc = E.alloc
  let free = E.free
  let atomically = E.atomically
  let stats = E.stats
  let reset_stats = E.reset_stats
end
