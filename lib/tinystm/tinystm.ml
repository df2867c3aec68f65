module Lockenc = Lockenc
module Config = Config
module Hmask = Hmask

module Make (R : Tstm_runtime.Runtime_intf.S) = struct
  module Engine = Tstm_engine.Tx_engine
  module F = Engine.Frame (R)
  module V = F.V
  module G = Tstm_util.Growbuf
  module Stats = Tstm_tm.Tm_stats
  module Obs = Tstm_obs
  module Chaos = Tstm_chaos.Chaos
  module San = Tstm_san.San
  module Cm = Tstm_cm.Cm
  open F

  let name = "tinystm"

  (* Shared metadata.  The lock and counter arrays are replaced wholesale by
     a re-tuning, inside the quiescence fence. *)
  type proto = {
    mutable cfg : Config.t;
    mutable locks : R.sarray;
    mutable hier : R.sarray;
    mutable hier2 : R.sarray;  (* coarser second counter level; len 1 = off *)
    max_clock : int;
    conflict_wait : int;  (* bounded re-check attempts on a foreign lock *)
  }

  type local = {
    (* Read set, partitioned by hierarchy slot; each buffer stores
       (lock index, version) pairs flattened. *)
    mutable r_set : G.t array;
    mutable hmask_read : Hmask.t;
    mutable hmask_write : Hmask.t;
    mutable hsnap : int array;  (* counter value at first touch *)
    mutable own_inc : int array;  (* own increments since first touch *)
    (* Second (coarser) hierarchy level, paper §3.2's "multiple levels of
       nesting": group snapshots, own increments, and the list of
       read-touched level-1 partitions per group. *)
    mutable hmask2 : Hmask.t;
    mutable hsnap2 : int array;
    mutable own_inc2 : int array;
    mutable l2_members : G.t array;
    mutable h2_dim : int;
    (* Write set (write-back): per-lock chains through [w_next]
       (index + 1; 0 terminates). *)
    w_addr : G.t;
    w_val : G.t;
    w_next : G.t;
    (* Undo log (write-through). *)
    u_addr : G.t;
    u_val : G.t;
    (* Acquired locks: lock index and the word it held before acquisition. *)
    l_idx : G.t;
    l_old : G.t;
    mutable h_dim : int;  (* hierarchy size the arrays above match *)
  }

  type t = (proto, local) inst
  type tx = (proto, local) desc

  (* Control-word slots, spread over distinct cache lines of the simulated
     runtime (8 words per line by default). *)
  let clock_slot = 8
  let mode_slot = 16
  let rollover_slot = 24

  let memory (t : t) = t.mem
  let config (t : t) = t.p.cfg
  let clock_value (t : t) = R.get t.ctl clock_slot
  let rollovers (t : t) = R.get t.ctl rollover_slot

  (* ------------------------------------------------------------------ *)
  (* Per-thread state                                                    *)
  (* ------------------------------------------------------------------ *)

  let fresh_hier_state x h h2 =
    x.r_set <- Array.init h (fun _ -> G.create 32);
    x.hmask_read <- Hmask.create h;
    x.hmask_write <- Hmask.create h;
    x.hsnap <- Array.make h 0;
    x.own_inc <- Array.make h 0;
    x.h_dim <- h;
    x.hmask2 <- Hmask.create h2;
    x.hsnap2 <- Array.make h2 0;
    x.own_inc2 <- Array.make h2 0;
    x.l2_members <- Array.init h2 (fun _ -> G.create 8);
    x.h2_dim <- h2

  let local p =
    let x =
      {
        r_set = [||];
        hmask_read = Hmask.create 1;
        hmask_write = Hmask.create 1;
        hsnap = [||];
        own_inc = [||];
        hmask2 = Hmask.create 1;
        hsnap2 = [||];
        own_inc2 = [||];
        l2_members = [||];
        h2_dim = 0;
        w_addr = G.create 32;
        w_val = G.create 32;
        w_next = G.create 32;
        u_addr = G.create 32;
        u_val = G.create 32;
        l_idx = G.create 32;
        l_old = G.create 32;
        h_dim = 0;
      }
    in
    fresh_hier_state x p.cfg.Config.hierarchy p.cfg.Config.hierarchy2;
    x

  (* A re-tuning may have resized the hierarchy since this thread last ran. *)
  let refresh (t : t) (d : tx) =
    let cfg = t.p.cfg in
    if d.x.h_dim <> cfg.Config.hierarchy || d.x.h2_dim <> cfg.Config.hierarchy2
    then fresh_hier_state d.x cfg.Config.hierarchy cfg.Config.hierarchy2

  let clear x =
    Hmask.iter x.hmask_write (fun i -> x.own_inc.(i) <- 0);
    Hmask.iter x.hmask_read (fun i -> G.clear x.r_set.(i));
    Hmask.clear x.hmask_read;
    Hmask.clear x.hmask_write;
    Hmask.iter x.hmask2 (fun g ->
        x.own_inc2.(g) <- 0;
        G.clear x.l2_members.(g));
    Hmask.clear x.hmask2;
    G.clear x.w_addr;
    G.clear x.w_val;
    G.clear x.w_next;
    G.clear x.u_addr;
    G.clear x.u_val;
    G.clear x.l_idx;
    G.clear x.l_old

  (* ------------------------------------------------------------------ *)
  (* Clock roll-over (paper §3.1)                                        *)
  (* ------------------------------------------------------------------ *)

  (* Reset the clock and every version-carrying word.  Only ever run by the
     owner of a quiescent instance. *)
  let reset_clock (t : t) =
    R.set t.ctl clock_slot 0;
    for i = 0 to R.sarray_length t.p.locks - 1 do
      R.set t.p.locks i 0
    done;
    for i = 0 to R.sarray_length t.p.hier - 1 do
      R.set t.p.hier i 0
    done;
    for i = 0 to R.sarray_length t.p.hier2 - 1 do
      R.set t.p.hier2 i 0
    done;
    ignore (R.fetch_add t.ctl rollover_slot 1);
    if san_on () then San.rollover ~cpu:(R.tid ());
    if obs_on () then emit Obs.Event.Clock_rollover

  let clock_exhausted (t : t) rv = rv >= t.p.max_clock - 1

  let roll_over (t : t) =
    fence_and t (fun () ->
        (* Another thread may have completed the roll-over while we waited
           for the fence; re-check before paying for the reset. *)
        if R.get t.ctl clock_slot >= t.p.max_clock - 1 then reset_clock t)

  (* ------------------------------------------------------------------ *)
  (* Hierarchical locking (paper §3.2)                                   *)
  (* ------------------------------------------------------------------ *)

  let hier_enabled (t : t) = t.p.cfg.Config.hierarchy > 1
  let hier2_enabled (t : t) = t.p.cfg.Config.hierarchy2 > 1

  (* First touch of a partition (by read or write) snapshots its counter,
     before any of our own increments. *)
  (* Only called with hierarchical locking enabled; [addr] is the accessed
     address, [i] its level-1 partition. *)
  let hier_touch_read (t : t) (d : tx) addr i =
    let x = d.x in
    if hier2_enabled t then begin
      let g = Config.hier2_index t.p.cfg addr in
      if Hmask.add x.hmask2 g then x.hsnap2.(g) <- R.get t.p.hier2 g;
      if
        (not (Hmask.mem x.hmask_read i)) && not (Hmask.mem x.hmask_write i)
      then x.hsnap.(i) <- R.get t.p.hier i;
      (* Group membership records the partitions that carry read entries. *)
      if Hmask.add x.hmask_read i then G.push x.l2_members.(g) i
    end
    else if
      (not (Hmask.mem x.hmask_read i)) && not (Hmask.mem x.hmask_write i)
    then begin
      ignore (Hmask.add x.hmask_read i);
      x.hsnap.(i) <- R.get t.p.hier i
    end
    else ignore (Hmask.add x.hmask_read i)

  (* Increment the partition counter immediately *after* a successful lock
     CAS (and, crucially, before this transaction can reach its commit and
     draw a write timestamp).  Soundness of the validation fast path then
     follows: if a validator sees the counter unchanged since its first
     touch, any foreign acquisition it could be missing must have CASed
     after the snapshot with its increment still pending — so that writer's
     commit version is drawn after the validator's clock read and its
     write-back serializes strictly later than the validated snapshot.
     (The other order — increment before CAS — is unsound: a validator can
     absorb the increment into its snapshot, read the still-unlocked
     location, and later skip the partition that hides the acquisition.) *)
  let hier_note_acquired (t : t) (d : tx) addr =
    if hier_enabled t then begin
      let x = d.x in
      let i = Config.hier_index t.p.cfg addr in
      if (not (Hmask.mem x.hmask_write i)) && not (Hmask.mem x.hmask_read i)
      then x.hsnap.(i) <- R.get t.p.hier i;
      ignore (Hmask.add x.hmask_write i);
      x.own_inc.(i) <- x.own_inc.(i) + 1;
      ignore (R.fetch_add t.p.hier i 1);
      if hier2_enabled t then begin
        let g = Config.hier2_index t.p.cfg addr in
        if Hmask.add x.hmask2 g then x.hsnap2.(g) <- R.get t.p.hier2 g;
        x.own_inc2.(g) <- x.own_inc2.(g) + 1;
        ignore (R.fetch_add t.p.hier2 g 1)
      end
    end

  (* ------------------------------------------------------------------ *)
  (* Validation and snapshot extension                                   *)
  (* ------------------------------------------------------------------ *)

  let validate_partition (t : t) (d : tx) i =
    let buf = d.x.r_set.(i) in
    let n = G.length buf in
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < n do
      let li = G.get buf !k in
      let ver = G.get buf (!k + 1) in
      let l = R.get t.p.locks li in
      d.stats.Stats.val_locks_processed <-
        d.stats.Stats.val_locks_processed + 1;
      (if Lockenc.is_locked l then begin
         if Lockenc.owner l <> d.tid then ok := false
       end
       else if Lockenc.version l <> ver then ok := false);
      k := !k + 2
    done;
    !ok

  (* Level-1 check of one partition: skip via its counter or re-check its
     read-set entries. *)
  let validate_level1 (t : t) (d : tx) ok i =
    if !ok then begin
      let c = R.get t.p.hier i in
      if c = d.x.hsnap.(i) + d.x.own_inc.(i) then
        (* Fast path: no foreign lock acquisition in this partition since we
           first touched it. *)
        d.stats.Stats.val_locks_skipped <-
          d.stats.Stats.val_locks_skipped + (G.length d.x.r_set.(i) / 2)
      else if not (validate_partition t d i) then ok := false
    end

  let validate (t : t) (d : tx) =
    let x = d.x in
    d.stats.Stats.validations <- d.stats.Stats.validations + 1;
    let ok = ref true in
    if hier2_enabled t then
      (* Two-level fast path: an unchanged group counter clears every
         partition under it at once. *)
      Hmask.iter x.hmask2 (fun g ->
          if !ok then begin
            let members = x.l2_members.(g) in
            let c2 = R.get t.p.hier2 g in
            if c2 = x.hsnap2.(g) + x.own_inc2.(g) then begin
              let entries = ref 0 in
              for k = 0 to G.length members - 1 do
                entries := !entries + (G.length x.r_set.(G.get members k) / 2)
              done;
              d.stats.Stats.val_locks_skipped <-
                d.stats.Stats.val_locks_skipped + !entries
            end
            else
              for k = 0 to G.length members - 1 do
                validate_level1 t d ok (G.get members k)
              done
          end)
    else if hier_enabled t then
      Hmask.iter x.hmask_read (fun i -> validate_level1 t d ok i)
    else
      Hmask.iter x.hmask_read (fun i ->
          if !ok && not (validate_partition t d i) then ok := false);
    !ok

  let extend (t : t) (d : tx) =
    if chaos_on () then chaos_point Chaos.Clock_read;
    let now = R.get t.ctl clock_slot in
    if Chaos.bug_active Chaos.Skip_extension then begin
      (* Deliberately broken protocol (chaos bug injection): accept the new
         snapshot bound without validating the read set.  Exists solely so
         the stress checker can demonstrate it catches the resulting
         non-serializable histories. *)
      d.rv <- now;
      if san_on () then San.clock_read ~cpu:d.tid ~value:now;
      true
    end
    else if validate t d then begin
      d.rv <- now;
      if san_on () then San.clock_read ~cpu:d.tid ~value:now;
      d.stats.Stats.extensions <- d.stats.Stats.extensions + 1;
      if obs_on () then emit Obs.Event.Clock_extend;
      true
    end
    else false

  (* What to do about the foreign owner of lock [li].  Returns whether the
     lock was observed free (retry the barrier) — false means abort self.
     The [Backoff]/[Serialize] arm is exactly the historical behaviour: a
     bounded wait of [conflict_wait] rounds (paper §3.1: "the transaction
     can try to wait for some time or abort immediately" — the paper picks
     immediate abort, our default).  The kill-capable policies consult the
     decision table on both parties' published priorities and either flag
     the enemy for remote abort or wait for it, always with a bounded spin
     (an unbounded wait would deadlock two transactions blocked on each
     other's orecs, and a kill victim polls its flag only at barrier
     entry). *)
  let resolve_conflict (t : t) (d : tx) li enemy =
    match d.eff_cm with
    | Cm.Backoff | Cm.Serialize _ ->
        wait_unlocked t.p.locks li t.p.conflict_wait
    | Cm.Suicide -> false
    | Cm.Karma | Cm.Greedy -> (
        match cm_verdict t d enemy with
        | Cm.Abort_now -> false
        | Cm.Wait_retry -> wait_unlocked t.p.locks li Cm.wait_bound
        | Cm.Kill_enemy ->
            R.set t.kill_flags (flag_slot enemy) 1;
            wait_unlocked t.p.locks li Cm.wait_bound)

  (* Remote-abort poll: a kill-capable enemy flagged us; honour it at the
     next barrier entry (never while irrevocable — those run alone inside
     the fence and cannot be aborted). *)
  let check_killed (t : t) (d : tx) =
    if t.cm_active && R.get t.kill_flags (flag_slot d.tid) <> 0 then begin
      R.set t.kill_flags (flag_slot d.tid) 0;
      raise (Engine.Abort_exn Stats.Killed)
    end

  (* Reading a version newer than the snapshot: extend (update transactions
     with a read set) or abort (read-only transactions cannot revalidate). *)
  let extend_or_abort t d =
    if d.read_only || not (extend t d) then
      raise (Engine.Abort_exn Stats.Validation_failed)

  (* ------------------------------------------------------------------ *)
  (* Read and write barriers (paper §3.1)                                *)
  (* ------------------------------------------------------------------ *)

  let rec read_word (t : t) (d : tx) addr =
    R.charge_local c_op;
    if d.irrevocable then begin
      (* Serial slow path inside the fence: no concurrent transaction exists,
         memory is the truth. *)
      d.stats.Stats.reads <- d.stats.Stats.reads + 1;
      R.get (V.words t.mem) addr
    end
    else begin
    check_killed t d;
    (* The partition counter must be snapshotted *before* first sampling the
       lock: writers increment their counter right after a successful CAS,
       so an increment absorbed into a snapshot taken here means the
       matching acquisition already happened and our lock check below will
       see it (locked, or released with a new version).  Snapshotting after
       the check would let an acquire-and-increment slip in between, and
       validation would wrongly take the fast path. *)
    let part =
      if d.read_only then 0
      else if hier_enabled t then begin
        let i = Config.hier_index t.p.cfg addr in
        hier_touch_read t d addr i;
        i
      end
      else begin
        ignore (Hmask.add d.x.hmask_read 0);
        0
      end
    in
    let li = Config.lock_index t.p.cfg addr in
    let l1 = R.get t.p.locks li in
    if Lockenc.is_locked l1 then begin
      if Lockenc.owner l1 <> d.tid then
        if resolve_conflict t d li (Lockenc.owner l1) then read_word t d addr
        else raise (Engine.Abort_exn Stats.Read_conflict)
      else
      (* Read-after-write: we own the covering lock. *)
      match t.p.cfg.Config.strategy with
      | Config.Write_through ->
          (* Memory holds our latest value. *)
          d.stats.Stats.reads <- d.stats.Stats.reads + 1;
          R.get (V.words t.mem) addr
      | Config.Write_back ->
          (* Follow the lock's write-set chain; fall back to memory when the
             lock covers the address but we never wrote it (the committed
             value cannot change while we hold the lock). *)
          let rec find e =
            if e = 0 then R.get (V.words t.mem) addr
            else
              let k = e - 1 in
              if G.get d.x.w_addr k = addr then G.get d.x.w_val k
              else find (G.get d.x.w_next k)
          in
          d.stats.Stats.reads <- d.stats.Stats.reads + 1;
          find (Lockenc.payload l1)
    end
    else begin
      let v = R.get (V.words t.mem) addr in
      let l2 = R.get t.p.locks li in
      if l1 <> l2 then
        (* The lock changed under us (concurrent acquire/release or a
           write-through abort bumping the incarnation): retry. *)
        read_word t d addr
      else begin
        let ver = Lockenc.version l1 in
        if ver > d.rv then begin
          extend_or_abort t d;
          (* The snapshot moved forward: re-read so the value is covered. *)
          read_word t d addr
        end
        else begin
          if not d.read_only then begin
            let buf = d.x.r_set.(part) in
            G.push buf li;
            G.push buf ver
          end;
          if san_on () then San.read_accept ~cpu:d.tid ~addr;
          d.stats.Stats.reads <- d.stats.Stats.reads + 1;
          v
        end
      end
    end
    end

  let rec write_word (t : t) (d : tx) addr v =
    R.charge_local c_op;
    if d.read_only then
      invalid_arg "Tinystm.write: transaction is read-only";
    if d.irrevocable then begin
      d.stats.Stats.writes <- d.stats.Stats.writes + 1;
      R.set (V.words t.mem) addr v
    end
    else begin
    check_killed t d;
    let x = d.x in
    let li = Config.lock_index t.p.cfg addr in
    let l = R.get t.p.locks li in
    if Lockenc.is_locked l then begin
      if Lockenc.owner l <> d.tid then
        if resolve_conflict t d li (Lockenc.owner l) then write_word t d addr v
        else raise (Engine.Abort_exn Stats.Write_conflict)
      else begin
      (* Write-after-write under our own lock. *)
      (match t.p.cfg.Config.strategy with
      | Config.Write_through ->
          G.push x.u_addr addr;
          G.push x.u_val (R.get (V.words t.mem) addr);
          R.set (V.words t.mem) addr v
      | Config.Write_back -> (
          let rec find e =
            if e = 0 then None
            else
              let k = e - 1 in
              if G.get x.w_addr k = addr then Some k
              else find (G.get x.w_next k)
          in
          match find (Lockenc.payload l) with
          | Some k -> G.set x.w_val k v
          | None ->
              G.push x.w_addr addr;
              G.push x.w_val v;
              G.push x.w_next (Lockenc.payload l);
              R.set t.p.locks li
                (Lockenc.locked ~tid:d.tid ~payload:(G.length x.w_addr))));
      d.stats.Stats.writes <- d.stats.Stats.writes + 1
      end
    end
    else begin
      let ver = Lockenc.version l in
      if ver > d.rv then begin
        extend_or_abort t d;
        write_word t d addr v
      end
      else begin
        match t.p.cfg.Config.strategy with
        | Config.Write_back ->
            G.push x.w_addr addr;
            G.push x.w_val v;
            G.push x.w_next 0;
            if chaos_on () then chaos_point Chaos.Lock_cas;
            if
              R.cas t.p.locks li l
                (Lockenc.locked ~tid:d.tid ~payload:(G.length x.w_addr))
            then begin
              if san_on () then San.lock_acquire ~cpu:d.tid ~lock:li;
              if chaos_on () then chaos_point Chaos.Lock_cas;
              if obs_on () then emit (Obs.Event.Lock_acquire { lock = li });
              hier_note_acquired t d addr;
              G.push x.l_idx li;
              G.push x.l_old l;
              d.stats.Stats.writes <- d.stats.Stats.writes + 1
            end
            else begin
              (* Lost the acquisition race: retract the entry and retry the
                 whole procedure (the lock may now be owned or renewed). *)
              let n = G.length x.w_addr in
              G.shrink x.w_addr (n - 1);
              G.shrink x.w_val (n - 1);
              G.shrink x.w_next (n - 1);
              write_word t d addr v
            end
        | Config.Write_through ->
            if chaos_on () then chaos_point Chaos.Lock_cas;
            if R.cas t.p.locks li l (Lockenc.locked ~tid:d.tid ~payload:0)
            then begin
              if san_on () then San.lock_acquire ~cpu:d.tid ~lock:li;
              if chaos_on () then chaos_point Chaos.Lock_cas;
              if obs_on () then emit (Obs.Event.Lock_acquire { lock = li });
              hier_note_acquired t d addr;
              G.push x.l_idx li;
              G.push x.l_old l;
              G.push x.u_addr addr;
              G.push x.u_val (R.get (V.words t.mem) addr);
              R.set (V.words t.mem) addr v;
              d.stats.Stats.writes <- d.stats.Stats.writes + 1
            end
            else write_word t d addr v
      end
    end
    end

  (* ------------------------------------------------------------------ *)
  (* Commit and rollback                                                 *)
  (* ------------------------------------------------------------------ *)

  (* Release every acquired lock, storing [word old] over the lock whose
     pre-acquisition word was [old]. *)
  let release_locks (t : t) (d : tx) word =
    let x = d.x in
    let tracing = obs_on () in
    let sanning = san_on () in
    for k = 0 to G.length x.l_idx - 1 do
      R.set t.p.locks (G.get x.l_idx k) (word (G.get x.l_old k));
      if sanning then San.lock_release ~cpu:d.tid ~lock:(G.get x.l_idx k);
      if tracing then emit (Obs.Event.Lock_release { lock = G.get x.l_idx k })
    done

  (* The lock word an abort leaves behind.  Write-back never touched
     memory: restore the previous word.  Write-through wrote and restored
     memory: bump the incarnation so a racing reader that sampled the lock
     before our acquisition cannot pass its lock/re-check (paper §3.1); on
     incarnation overflow, take a fresh version from the clock. *)
  let aborted_word (t : t) old =
    match t.p.cfg.Config.strategy with
    | Config.Write_back -> old
    | Config.Write_through ->
        let inc = Lockenc.incarnation old + 1 in
        if inc <= Lockenc.max_incarnation then
          Lockenc.unlocked ~version:(Lockenc.version old) ~incarnation:inc
        else Lockenc.unlocked ~version:(R.get t.ctl clock_slot) ~incarnation:0

  (* Returns the serialization stamp: the commit version [wv] for updates,
     the snapshot bound [rv] for lock-free transactions. *)
  let commit (t : t) (d : tx) =
    if G.length d.x.l_idx = 0 then
      (* No locks acquired: the incremental snapshot is consistent as-is. *)
      d.rv
    else begin
      let wv = R.fetch_add t.ctl clock_slot 1 + 1 in
      if san_on () then San.clock_advance ~cpu:d.tid ~drawn:wv;
      if wv >= t.p.max_clock then raise (Engine.Abort_exn Stats.Rollover);
      (* Validation is unnecessary when no other transaction committed since
         our snapshot bound (paper §3.2). *)
      if wv > d.rv + 1 && not (validate t d) then
        raise (Engine.Abort_exn Stats.Validation_failed);
      (match t.p.cfg.Config.strategy with
      | Config.Write_back ->
          let words = V.words t.mem in
          for k = 0 to G.length d.x.w_addr - 1 do
            R.set words (G.get d.x.w_addr k) (G.get d.x.w_val k)
          done
      | Config.Write_through -> ());
      (* The snapshot-consistency check must see the write set still under
         lock, before any orec is released. *)
      if san_on () then San.commit_publish ~cpu:d.tid ~wv;
      release_locks t d (fun _ -> Lockenc.unlocked ~version:wv ~incarnation:0);
      free_deferred t d;
      wv
    end

  let rollback (t : t) (d : tx) =
    (match t.p.cfg.Config.strategy with
    | Config.Write_back -> ()
    | Config.Write_through ->
        (* Undo in reverse order so earlier values win for rewritten words. *)
        let words = V.words t.mem in
        for k = G.length d.x.u_addr - 1 downto 0 do
          R.set words (G.get d.x.u_addr k) (G.get d.x.u_val k)
        done);
    (* Shadow state must be restored while the orecs still protect the
       written words, i.e. before the releases below. *)
    if san_on () then San.tx_abort ~cpu:d.tid;
    release_locks t d (aborted_word t)

  (* The serial commit's stamp.  A clock wrap is handled inline: we already
     own a quiescent instance, which is all [roll_over] exists to
     establish. *)
  let serial_stamp (t : t) (d : tx) =
    let wv =
      let wv = R.fetch_add t.ctl clock_slot 1 + 1 in
      if wv < t.p.max_clock then wv
      else begin
        reset_clock t;
        R.fetch_add t.ctl clock_slot 1 + 1
      end
    in
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
    let rng_seed = 0x7153
    let ctl_len = 32
    let mode_slot = mode_slot
    let remote_kill = true
    let local = local
    let refresh = refresh
    let snapshot (t : t) = R.get t.ctl clock_slot
    let clock_exhausted = clock_exhausted
    let roll_over = roll_over
    let read = read_word
    let write = write_word
    let commit = commit
    let rollback = rollback
    let clear = clear
    let serial_stamp = serial_stamp
  end)

  let label_arrays p =
    R.sarray_label p.locks "locks";
    R.sarray_label p.hier "hier";
    R.sarray_label p.hier2 "hier2"

  let create ?(config = Config.default) ?(max_threads = 64)
      ?(max_clock = Lockenc.max_version - 64) ?(conflict_wait = 0)
      ?(max_retries = 0) ?(cm = Cm.default) ?watchdog ~memory_words () =
    Config.validate config;
    if max_threads < 1 || max_threads > Lockenc.max_tid + 1 then
      invalid_arg "Tinystm.create: max_threads out of range";
    if max_clock < 16 || max_clock > Lockenc.max_version - 1 then
      invalid_arg "Tinystm.create: max_clock out of range";
    if conflict_wait < 0 then
      invalid_arg "Tinystm.create: conflict_wait < 0";
    (* The simulator places arrays by creation order, so both this order
       and [set_config]'s are part of every simulated result. *)
    E.create ~max_threads ~max_retries ~cm ?watchdog ~memory_words (fun () ->
        let hier2 = R.sarray_make config.Config.hierarchy2 0 in
        let hier = R.sarray_make config.Config.hierarchy 0 in
        let locks = R.sarray_make config.Config.n_locks 0 in
        let p =
          { cfg = config; locks; hier; hier2; max_clock; conflict_wait }
        in
        label_arrays p;
        p)

  let set_config (t : t) cfg =
    Config.validate cfg;
    let d = E.desc_for t in
    if d.in_tx then invalid_arg "Tinystm.set_config: inside a transaction";
    fence_and t (fun () ->
        t.p.cfg <- cfg;
        t.p.locks <- R.sarray_make cfg.Config.n_locks 0;
        t.p.hier <- R.sarray_make cfg.Config.hierarchy 0;
        t.p.hier2 <- R.sarray_make cfg.Config.hierarchy2 0;
        label_arrays t.p;
        R.set t.ctl clock_slot 0;
        (* The clock restarts from zero, like a roll-over. *)
        if san_on () then San.rollover ~cpu:(R.tid ()))

  (* Direct calls: the barriers are the hot path. *)
  let read (tx : tx) addr = read_word tx.owner tx addr
  let write (tx : tx) addr v = write_word tx.owner tx addr v
  let alloc = E.alloc
  let free = E.free
  let atomically = E.atomically
  let atomically_stamped = E.atomically_stamped
  let stats = E.stats
  let reset_stats = E.reset_stats
end
