module Lockenc = Lockenc
module Config = Config
module Hmask = Hmask

module Make (R : Tstm_runtime.Runtime_intf.S) = struct
  module V = Tstm_vmm.Vmm.Make (R)
  module G = Tstm_util.Growbuf
  module Stats = Tstm_tm.Tm_stats

  let name = "tinystm"

  exception Abort_exn of Stats.abort_reason

  (* Observability: every site guards on [Obs.Sink.enabled] (one bool load)
     and emission never charges cycles, so traced and untraced runs are
     identical in virtual time and results. *)
  module Obs = Tstm_obs

  let obs_on () = Obs.Sink.enabled ()
  let emit ev = Obs.Sink.emit ~ts:(R.now_cycles ()) ~cpu:(R.tid ()) ev

  (* Chaos: like observability, every consultation is behind one boolean
     load; an inactive plan leaves the schedule untouched. *)
  module Chaos = Tstm_chaos.Chaos

  let chaos_on () = Chaos.enabled ()

  (* Real-domain fault injection: same one-boolean-load discipline.  A
     disarmed plan leaves every run (sim and real) byte-identical. *)
  module Fault = Tstm_fault.Fault
  module Intf = Tstm_tm.Tm_intf

  let fault_on () = Fault.enabled ()

  (* Consecutive allocation-failed aborts tolerated per [atomically] call
     before the transaction gives up with a typed [Tm_intf.Capacity]
     (retrying forever on a genuinely full arena would livelock; serial
     escalation cannot help because the fence does not free memory). *)
  let max_alloc_retries = 16

  (* Sanitizer: explicit sync-edge annotations at the operations that
     really order transactions (orec CAS/release, clock fetch_add/read,
     quiescence fence).  Same discipline as obs: one boolean load when
     disarmed, no cycles charged when armed. *)
  module San = Tstm_san.San

  let san_on () = San.enabled ()

  (* Contention management: policy decisions are pure tables in [Tstm_cm];
     the shared-memory plumbing they need (published priorities, remote-kill
     flags) lives behind [t.cm_active], a plain boolean that is false for the
     default [Backoff] policy without a watchdog — on that path no extra
     shared word is ever touched and runs are byte-identical to the
     pre-CM implementation. *)
  module Cm = Tstm_cm.Cm
  module Watchdog = Tstm_runtime.Watchdog

  let chaos_point p =
    let n = Chaos.preempt p in
    if n > 0 then R.charge n

  (* Fixed bookkeeping costs (cycles) charged in the simulated runtime on top
     of the shared-memory access costs; no-ops on real hardware. *)
  let c_tx_begin = 20
  let c_tx_end = 20
  let c_op = 4

  type desc = {
    owner : t;
    tid : int;
    stats : Stats.t;
    rng : Tstm_util.Xrand.t;
    mutable in_tx : bool;
    mutable read_only : bool;
    mutable irrevocable : bool;
      (* running serially inside the quiescence fence: direct memory access,
         no locks, cannot abort *)
    mutable rv : int;  (* upper bound of the snapshot's validity range *)
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
    (* Transactional memory management logs. *)
    a_addr : G.t;
    a_size : G.t;
    f_addr : G.t;
    f_size : G.t;
    mutable h_dim : int;  (* hierarchy size the arrays above match *)
    mutable last_stamp : int;  (* serialization timestamp of the last commit *)
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
  }

  and t = {
    mem : V.t;
    mutable cfg : Config.t;
    mutable locks : R.sarray;
    mutable hier : R.sarray;
    mutable hier2 : R.sarray;  (* coarser second counter level; len 1 = off *)
    ctl : R.sarray;  (* clock / fence mode / roll-over count, padded apart *)
    flags : R.sarray;  (* per-thread in-transaction flags, padded apart *)
    descs : desc option array;
    max_threads : int;
    max_clock : int;
    conflict_wait : int;  (* bounded re-check attempts on a foreign lock *)
    max_retries : int;  (* consecutive aborts before irrevocable escalation *)
    cm : Cm.policy;
    watchdog : Watchdog.t option;
    cm_active : bool;
      (* kill flags / priorities are live; false on the default path *)
    kill_flags : R.sarray;  (* per-thread remote-abort flags, padded apart *)
    prios : R.sarray;
      (* per-thread published priorities, padded apart; slot 0 doubles as
         the greedy ticket counter *)
  }

  type tx = desc

  (* Control-word slots, spread over distinct cache lines of the simulated
     runtime (8 words per line by default). *)
  let clock_slot = 8
  let mode_slot = 16
  let rollover_slot = 24
  let ctl_len = 32
  let flag_slot tid = (tid + 1) * 8

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
    if max_retries < 0 then
      invalid_arg "Tinystm.create: max_retries < 0";
    (* A watchdog can boost any policy to karma, so its presence arms the
       kill/priority plumbing too. *)
    let cm_active = Cm.can_kill cm || watchdog <> None in
    let cm_len = if cm_active then flag_slot max_threads + 8 else 1 in
    let t =
      {
        mem = V.create ~words:memory_words;
        cfg = config;
        locks = R.sarray_make config.Config.n_locks 0;
        hier = R.sarray_make config.Config.hierarchy 0;
        hier2 = R.sarray_make config.Config.hierarchy2 0;
        ctl = R.sarray_make ctl_len 0;
        flags = R.sarray_make (flag_slot max_threads + 8) 0;
        descs = Array.make max_threads None;
        max_threads;
        max_clock;
        conflict_wait;
        max_retries = Cm.effective_max_retries cm max_retries;
        cm;
        watchdog;
        cm_active;
        kill_flags = R.sarray_make cm_len 0;
        prios = R.sarray_make cm_len 0;
      }
    in
    R.sarray_label t.locks "locks";
    R.sarray_label t.hier "hier";
    R.sarray_label t.hier2 "hier2";
    R.sarray_label t.ctl "ctl";
    R.sarray_label t.flags "flags";
    R.sarray_label t.kill_flags "cm-kill";
    R.sarray_label t.prios "cm-prio";
    R.sarray_label (V.words t.mem) "mem";
    t

  let memory t = t.mem
  let config t = t.cfg
  let clock_value t = R.get t.ctl clock_slot
  let rollovers t = R.get t.ctl rollover_slot

  (* ------------------------------------------------------------------ *)
  (* Descriptors                                                         *)
  (* ------------------------------------------------------------------ *)

  let fresh_hier_state d h h2 =
    d.r_set <- Array.init h (fun _ -> G.create 32);
    d.hmask_read <- Hmask.create h;
    d.hmask_write <- Hmask.create h;
    d.hsnap <- Array.make h 0;
    d.own_inc <- Array.make h 0;
    d.h_dim <- h;
    d.hmask2 <- Hmask.create h2;
    d.hsnap2 <- Array.make h2 0;
    d.own_inc2 <- Array.make h2 0;
    d.l2_members <- Array.init h2 (fun _ -> G.create 8);
    d.h2_dim <- h2

  let new_desc t tid =
    let h = t.cfg.Config.hierarchy and h2 = t.cfg.Config.hierarchy2 in
    let d =
      {
        owner = t;
        tid;
        stats = Stats.create ();
        rng = Tstm_util.Xrand.create (0x7153 + tid);
        in_tx = false;
        read_only = false;
        irrevocable = false;
        rv = 0;
        r_set = [||];
        hmask_read = Hmask.create 1;
        hmask_write = Hmask.create 1;
        hsnap = [||];
        own_inc = [||];
        w_addr = G.create 32;
        w_val = G.create 32;
        w_next = G.create 32;
        u_addr = G.create 32;
        u_val = G.create 32;
        l_idx = G.create 32;
        l_old = G.create 32;
        a_addr = G.create 8;
        a_size = G.create 8;
        f_addr = G.create 8;
        f_size = G.create 8;
        h_dim = 0;
        last_stamp = 0;
        obs_start = 0;
        obs_reads0 = 0;
        obs_writes0 = 0;
        eff_cm = t.cm;
        work0 = 0;
        ticket = 0;
        alloc_fails = 0;
        hmask2 = Hmask.create 1;
        hsnap2 = [||];
        own_inc2 = [||];
        l2_members = [||];
        h2_dim = 0;
      }
    in
    fresh_hier_state d h h2;
    d

  let desc_for t =
    let tid = R.tid () in
    if tid >= t.max_threads then
      invalid_arg "Tinystm: thread id exceeds max_threads";
    match t.descs.(tid) with
    | Some d ->
        if d.h_dim <> t.cfg.Config.hierarchy
           || d.h2_dim <> t.cfg.Config.hierarchy2
        then fresh_hier_state d t.cfg.Config.hierarchy t.cfg.Config.hierarchy2;
        d
    | None ->
        let d = new_desc t tid in
        t.descs.(tid) <- Some d;
        d

  let cleanup d =
    Hmask.iter d.hmask_write (fun i -> d.own_inc.(i) <- 0);
    Hmask.iter d.hmask_read (fun i -> G.clear d.r_set.(i));
    Hmask.clear d.hmask_read;
    Hmask.clear d.hmask_write;
    Hmask.iter d.hmask2 (fun g ->
        d.own_inc2.(g) <- 0;
        G.clear d.l2_members.(g));
    Hmask.clear d.hmask2;
    G.clear d.w_addr;
    G.clear d.w_val;
    G.clear d.w_next;
    G.clear d.u_addr;
    G.clear d.u_val;
    G.clear d.l_idx;
    G.clear d.l_old;
    G.clear d.a_addr;
    G.clear d.a_size;
    G.clear d.f_addr;
    G.clear d.f_size;
    d.in_tx <- false

  (* ------------------------------------------------------------------ *)
  (* Quiescence fence (clock roll-over and re-tuning, paper §3.1, §4.2)  *)
  (* ------------------------------------------------------------------ *)

  (* Threads raise a private padded flag before transacting and re-check the
     fence mode afterwards (Dekker-style: sequentially consistent atomics on
     both sides), so an initiator that saw every flag down owns a quiescent
     instance. *)

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

  let do_rollover t =
    fence_and t (fun () ->
        (* Another thread may have completed the roll-over while we waited
           for the fence; re-check before paying for the reset. *)
        if R.get t.ctl clock_slot >= t.max_clock - 1 then begin
          R.set t.ctl clock_slot 0;
          for i = 0 to R.sarray_length t.locks - 1 do
            R.set t.locks i 0
          done;
          for i = 0 to R.sarray_length t.hier - 1 do
            R.set t.hier i 0
          done;
          for i = 0 to R.sarray_length t.hier2 - 1 do
            R.set t.hier2 i 0
          done;
          ignore (R.fetch_add t.ctl rollover_slot 1);
          if san_on () then San.rollover ~cpu:(R.tid ());
          if obs_on () then emit Obs.Event.Clock_rollover
        end)

  let set_config t cfg =
    Config.validate cfg;
    let d = desc_for t in
    if d.in_tx then invalid_arg "Tinystm.set_config: inside a transaction";
    fence_and t (fun () ->
        t.cfg <- cfg;
        t.locks <- R.sarray_make cfg.Config.n_locks 0;
        t.hier <- R.sarray_make cfg.Config.hierarchy 0;
        t.hier2 <- R.sarray_make cfg.Config.hierarchy2 0;
        R.sarray_label t.locks "locks";
        R.sarray_label t.hier "hier";
        R.sarray_label t.hier2 "hier2";
        R.set t.ctl clock_slot 0;
        (* The clock restarts from zero, like a roll-over. *)
        if san_on () then San.rollover ~cpu:(R.tid ()))

  (* ------------------------------------------------------------------ *)
  (* Hierarchical locking (paper §3.2)                                   *)
  (* ------------------------------------------------------------------ *)

  let hier_enabled t = t.cfg.Config.hierarchy > 1
  let hier2_enabled t = t.cfg.Config.hierarchy2 > 1

  (* First touch of a partition (by read or write) snapshots its counter,
     before any of our own increments. *)
  (* Only called with hierarchical locking enabled; [addr] is the accessed
     address, [i] its level-1 partition. *)
  let hier_touch_read t d addr i =
    if hier2_enabled t then begin
      let g = Config.hier2_index t.cfg addr in
      if Hmask.add d.hmask2 g then d.hsnap2.(g) <- R.get t.hier2 g;
      if
        (not (Hmask.mem d.hmask_read i)) && not (Hmask.mem d.hmask_write i)
      then d.hsnap.(i) <- R.get t.hier i;
      (* Group membership records the partitions that carry read entries. *)
      if Hmask.add d.hmask_read i then G.push d.l2_members.(g) i
    end
    else if
      (not (Hmask.mem d.hmask_read i)) && not (Hmask.mem d.hmask_write i)
    then begin
      ignore (Hmask.add d.hmask_read i);
      d.hsnap.(i) <- R.get t.hier i
    end
    else ignore (Hmask.add d.hmask_read i)

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
  let hier_note_acquired t d addr =
    if hier_enabled t then begin
      let i = Config.hier_index t.cfg addr in
      if (not (Hmask.mem d.hmask_write i)) && not (Hmask.mem d.hmask_read i)
      then d.hsnap.(i) <- R.get t.hier i;
      ignore (Hmask.add d.hmask_write i);
      d.own_inc.(i) <- d.own_inc.(i) + 1;
      ignore (R.fetch_add t.hier i 1);
      if hier2_enabled t then begin
        let g = Config.hier2_index t.cfg addr in
        if Hmask.add d.hmask2 g then d.hsnap2.(g) <- R.get t.hier2 g;
        d.own_inc2.(g) <- d.own_inc2.(g) + 1;
        ignore (R.fetch_add t.hier2 g 1)
      end
    end

  (* ------------------------------------------------------------------ *)
  (* Validation and snapshot extension                                   *)
  (* ------------------------------------------------------------------ *)

  let validate_partition t d i =
    let buf = d.r_set.(i) in
    let n = G.length buf in
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < n do
      let li = G.get buf !k in
      let ver = G.get buf (!k + 1) in
      let l = R.get t.locks li in
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
  let validate_level1 t d ok i =
    if !ok then begin
      let c = R.get t.hier i in
      if c = d.hsnap.(i) + d.own_inc.(i) then
        (* Fast path: no foreign lock acquisition in this partition since we
           first touched it. *)
        d.stats.Stats.val_locks_skipped <-
          d.stats.Stats.val_locks_skipped + (G.length d.r_set.(i) / 2)
      else if not (validate_partition t d i) then ok := false
    end

  let validate t d =
    d.stats.Stats.validations <- d.stats.Stats.validations + 1;
    let ok = ref true in
    if hier2_enabled t then
      (* Two-level fast path: an unchanged group counter clears every
         partition under it at once. *)
      Hmask.iter d.hmask2 (fun g ->
          if !ok then begin
            let members = d.l2_members.(g) in
            let c2 = R.get t.hier2 g in
            if c2 = d.hsnap2.(g) + d.own_inc2.(g) then begin
              let entries = ref 0 in
              for k = 0 to G.length members - 1 do
                entries := !entries + (G.length d.r_set.(G.get members k) / 2)
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
      Hmask.iter d.hmask_read (fun i -> validate_level1 t d ok i)
    else
      Hmask.iter d.hmask_read (fun i ->
          if !ok && not (validate_partition t d i) then ok := false);
    !ok

  let extend t d =
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

  let abort reason = raise (Abort_exn reason)

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

  (* Bounded wait on a foreign lock (paper §3.1: "the transaction can try to
     wait for some time or abort immediately" — the paper picks immediate
     abort, our default; [conflict_wait] attempts enable the alternative).
     The wait must be bounded or two transactions blocked on each other's
     locks would deadlock.  Returns whether the lock was observed free. *)
  let rec wait_bounded t li attempts =
    if attempts <= 0 then false
    else begin
      R.yield ();
      if Lockenc.is_locked (R.get t.locks li) then
        wait_bounded t li (attempts - 1)
      else true
    end

  let wait_for_unlock t li = wait_bounded t li t.conflict_wait

  (* What to do about the foreign owner of lock [li].  Returns whether the
     lock was observed free (retry the barrier) — false means abort self.
     The [Backoff]/[Serialize] arm is exactly the historical behaviour; the
     kill-capable policies read both parties' published priorities, consult
     the pure decision table, and either flag the enemy for remote abort or
     wait for it, always with a bounded spin (an unbounded wait would
     deadlock two transactions blocked on each other's orecs, and a kill
     victim polls its flag only at barrier entry). *)
  let resolve_conflict t d li enemy =
    match d.eff_cm with
    | Cm.Backoff | Cm.Serialize _ -> wait_for_unlock t li
    | Cm.Suicide -> false
    | Cm.Karma | Cm.Greedy -> (
        let self_prio = R.get t.prios (flag_slot d.tid) in
        let enemy_prio = R.get t.prios (flag_slot enemy) in
        match
          Cm.on_enemy d.eff_cm ~self_prio ~enemy_prio ~self_tid:d.tid
            ~enemy_tid:enemy
        with
        | Cm.Abort_now -> false
        | Cm.Wait_retry -> wait_bounded t li Cm.wait_bound
        | Cm.Kill_enemy ->
            R.set t.kill_flags (flag_slot enemy) 1;
            wait_bounded t li Cm.wait_bound)

  (* Remote-abort poll: a kill-capable enemy flagged us; honour it at the
     next barrier entry (never while irrevocable — those run alone inside
     the fence and cannot be aborted). *)
  let check_killed t d =
    if t.cm_active && R.get t.kill_flags (flag_slot d.tid) <> 0 then begin
      R.set t.kill_flags (flag_slot d.tid) 0;
      abort Stats.Killed
    end

  (* Reading a version newer than the snapshot: extend (update transactions
     with a read set) or abort (read-only transactions cannot revalidate). *)
  let extend_or_abort t d =
    if d.read_only then abort Stats.Validation_failed
    else if not (extend t d) then abort Stats.Validation_failed

  (* ------------------------------------------------------------------ *)
  (* Read and write barriers (paper §3.1)                                *)
  (* ------------------------------------------------------------------ *)

  let mem_words t = V.words t.mem

  let rec read_word t d addr =
    R.charge_local c_op;
    if d.irrevocable then begin
      (* Serial slow path inside the fence: no concurrent transaction exists,
         memory is the truth. *)
      d.stats.Stats.reads <- d.stats.Stats.reads + 1;
      R.get (mem_words t) addr
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
        let i = Config.hier_index t.cfg addr in
        hier_touch_read t d addr i;
        i
      end
      else begin
        ignore (Hmask.add d.hmask_read 0);
        0
      end
    in
    let li = Config.lock_index t.cfg addr in
    let l1 = R.get t.locks li in
    if Lockenc.is_locked l1 then begin
      if Lockenc.owner l1 <> d.tid then
        if resolve_conflict t d li (Lockenc.owner l1) then read_word t d addr
        else abort Stats.Read_conflict
      else
      (* Read-after-write: we own the covering lock. *)
      match t.cfg.Config.strategy with
      | Config.Write_through ->
          (* Memory holds our latest value. *)
          d.stats.Stats.reads <- d.stats.Stats.reads + 1;
          R.get (mem_words t) addr
      | Config.Write_back ->
          (* Follow the lock's write-set chain; fall back to memory when the
             lock covers the address but we never wrote it (the committed
             value cannot change while we hold the lock). *)
          let rec find e =
            if e = 0 then R.get (mem_words t) addr
            else
              let k = e - 1 in
              if G.get d.w_addr k = addr then G.get d.w_val k
              else find (G.get d.w_next k)
          in
          d.stats.Stats.reads <- d.stats.Stats.reads + 1;
          find (Lockenc.payload l1)
    end
    else begin
      let v = R.get (mem_words t) addr in
      let l2 = R.get t.locks li in
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
            let buf = d.r_set.(part) in
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

  let rec write_word t d addr v =
    R.charge_local c_op;
    if d.read_only then
      invalid_arg "Tinystm.write: transaction is read-only";
    if d.irrevocable then begin
      d.stats.Stats.writes <- d.stats.Stats.writes + 1;
      R.set (mem_words t) addr v
    end
    else begin
    check_killed t d;
    let li = Config.lock_index t.cfg addr in
    let l = R.get t.locks li in
    if Lockenc.is_locked l then begin
      if Lockenc.owner l <> d.tid then
        if resolve_conflict t d li (Lockenc.owner l) then write_word t d addr v
        else abort Stats.Write_conflict
      else begin
      (* Write-after-write under our own lock. *)
      (match t.cfg.Config.strategy with
      | Config.Write_through ->
          G.push d.u_addr addr;
          G.push d.u_val (R.get (mem_words t) addr);
          R.set (mem_words t) addr v
      | Config.Write_back -> (
          let rec find e =
            if e = 0 then None
            else
              let k = e - 1 in
              if G.get d.w_addr k = addr then Some k
              else find (G.get d.w_next k)
          in
          match find (Lockenc.payload l) with
          | Some k -> G.set d.w_val k v
          | None ->
              G.push d.w_addr addr;
              G.push d.w_val v;
              G.push d.w_next (Lockenc.payload l);
              R.set t.locks li
                (Lockenc.locked ~tid:d.tid ~payload:(G.length d.w_addr))));
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
        match t.cfg.Config.strategy with
        | Config.Write_back ->
            G.push d.w_addr addr;
            G.push d.w_val v;
            G.push d.w_next 0;
            if chaos_on () then chaos_point Chaos.Lock_cas;
            if
              R.cas t.locks li l
                (Lockenc.locked ~tid:d.tid ~payload:(G.length d.w_addr))
            then begin
              if san_on () then San.lock_acquire ~cpu:d.tid ~lock:li;
              if chaos_on () then chaos_point Chaos.Lock_cas;
              if obs_on () then emit (Obs.Event.Lock_acquire { lock = li });
              hier_note_acquired t d addr;
              G.push d.l_idx li;
              G.push d.l_old l;
              d.stats.Stats.writes <- d.stats.Stats.writes + 1
            end
            else begin
              (* Lost the acquisition race: retract the entry and retry the
                 whole procedure (the lock may now be owned or renewed). *)
              let n = G.length d.w_addr in
              G.shrink d.w_addr (n - 1);
              G.shrink d.w_val (n - 1);
              G.shrink d.w_next (n - 1);
              write_word t d addr v
            end
        | Config.Write_through ->
            if chaos_on () then chaos_point Chaos.Lock_cas;
            if R.cas t.locks li l (Lockenc.locked ~tid:d.tid ~payload:0) then begin
              if san_on () then San.lock_acquire ~cpu:d.tid ~lock:li;
              if chaos_on () then chaos_point Chaos.Lock_cas;
              if obs_on () then emit (Obs.Event.Lock_acquire { lock = li });
              hier_note_acquired t d addr;
              G.push d.l_idx li;
              G.push d.l_old l;
              G.push d.u_addr addr;
              G.push d.u_val (R.get (mem_words t) addr);
              R.set (mem_words t) addr v;
              d.stats.Stats.writes <- d.stats.Stats.writes + 1
            end
            else write_word t d addr v
      end
    end
    end

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
          raise (Intf.Capacity { stm = "tinystm"; retries = d.alloc_fails })
        else abort Stats.Alloc_failed

  (* A free is semantically an update: acquire every covering lock (by
     writing back the current values) so no concurrent reader can observe
     the block being recycled without a conflict. *)
  let free_words t d addr n =
    if not d.irrevocable then
      (* Lock every covered word so no concurrent reader can observe the
         block being recycled without a conflict; inside the fence there is
         no concurrency and the free is just deferred to the commit. *)
      for w = addr to addr + n - 1 do
        let v = read_word t d w in
        write_word t d w v
      done;
    G.push d.f_addr addr;
    G.push d.f_size n

  (* ------------------------------------------------------------------ *)
  (* Commit and rollback                                                 *)
  (* ------------------------------------------------------------------ *)

  let release_locks_commit t d wv =
    let n = G.length d.l_idx in
    let tracing = obs_on () in
    let sanning = san_on () in
    for k = 0 to n - 1 do
      R.set t.locks (G.get d.l_idx k)
        (Lockenc.unlocked ~version:wv ~incarnation:0);
      if sanning then San.lock_release ~cpu:d.tid ~lock:(G.get d.l_idx k);
      if tracing then emit (Obs.Event.Lock_release { lock = G.get d.l_idx k })
    done

  let release_locks_abort t d =
    let n = G.length d.l_idx in
    let tracing = obs_on () in
    let sanning = san_on () in
    let released k =
      if sanning then San.lock_release ~cpu:d.tid ~lock:(G.get d.l_idx k);
      if tracing then emit (Obs.Event.Lock_release { lock = G.get d.l_idx k })
    in
    match t.cfg.Config.strategy with
    | Config.Write_back ->
        (* Memory was never touched: restore the previous lock words. *)
        for k = 0 to n - 1 do
          R.set t.locks (G.get d.l_idx k) (G.get d.l_old k);
          released k
        done
    | Config.Write_through ->
        (* Memory was written and restored: bump the incarnation so a racing
           reader that sampled the lock before our acquisition cannot pass
           its lock/re-check (paper §3.1).  On incarnation overflow, take a
           fresh version from the clock. *)
        for k = 0 to n - 1 do
          let old = G.get d.l_old k in
          let inc = Lockenc.incarnation old + 1 in
          let word =
            if inc <= Lockenc.max_incarnation then
              Lockenc.unlocked ~version:(Lockenc.version old) ~incarnation:inc
            else
              Lockenc.unlocked ~version:(R.get t.ctl clock_slot) ~incarnation:0
          in
          R.set t.locks (G.get d.l_idx k) word;
          released k
        done

  let commit t d =
    R.charge_local c_tx_end;
    if G.length d.l_idx = 0 then begin
      (* No locks acquired: the incremental snapshot is consistent as-is. *)
      d.last_stamp <- d.rv;
      d.stats.Stats.commits <- d.stats.Stats.commits + 1;
      if d.read_only then
        d.stats.Stats.commits_read_only <- d.stats.Stats.commits_read_only + 1
    end
    else begin
      let wv = R.fetch_add t.ctl clock_slot 1 + 1 in
      if san_on () then San.clock_advance ~cpu:d.tid ~drawn:wv;
      if wv >= t.max_clock then abort Stats.Rollover;
      (* Validation is unnecessary when no other transaction committed since
         our snapshot bound (paper §3.2). *)
      if wv > d.rv + 1 then
        if not (validate t d) then abort Stats.Validation_failed;
      (match t.cfg.Config.strategy with
      | Config.Write_back ->
          let n = G.length d.w_addr in
          let words = mem_words t in
          for k = 0 to n - 1 do
            R.set words (G.get d.w_addr k) (G.get d.w_val k)
          done
      | Config.Write_through -> ());
      (* The snapshot-consistency check must see the write set still under
         lock, before any orec is released. *)
      if san_on () then San.commit_publish ~cpu:d.tid ~wv;
      release_locks_commit t d wv;
      (* Frees take effect only now that the locks carry the new version. *)
      let nf = G.length d.f_addr in
      for k = 0 to nf - 1 do
        V.free t.mem (G.get d.f_addr k) (G.get d.f_size k)
      done;
      d.last_stamp <- wv;
      d.stats.Stats.commits <- d.stats.Stats.commits + 1
    end;
    cleanup d;
    if san_on () then San.tx_exit ~cpu:d.tid ~committed:true

  let rollback ?record t d =
    (match t.cfg.Config.strategy with
    | Config.Write_back -> ()
    | Config.Write_through ->
        (* Undo in reverse order so earlier values win for rewritten words. *)
        let words = mem_words t in
        for k = G.length d.u_addr - 1 downto 0 do
          R.set words (G.get d.u_addr k) (G.get d.u_val k)
        done);
    (* Shadow state must be restored while the orecs still protect the
       written words, i.e. before the releases below. *)
    if san_on () then San.tx_abort ~cpu:d.tid;
    release_locks_abort t d;
    (* Allocations made by the aborted transaction are reclaimed; logged
       frees are dropped. *)
    let na = G.length d.a_addr in
    for k = 0 to na - 1 do
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

  (* Capped exponential back-off with deterministic per-transaction jitter:
     wait uniformly in [base/2, base] with base doubling per consecutive
     abort up to [Cm.backoff_cap].  The lower bound keeps a retry from
     re-colliding immediately; the cap keeps the worst-case wait bounded so
     the retry watchdog, not the back-off, decides when to escalate.  The
     formula lives in [Tstm_cm] (shared with TL2 and regression-tested for
     shift overflow and replay stability). *)
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
      R.set t.kill_flags (flag_slot d.tid) 0;
      if Cm.needs_prio d.eff_cm then begin
        let p =
          match d.eff_cm with
          | Cm.Greedy ->
              (* Seniority ticket, drawn once and kept across aborts. *)
              if d.ticket = 0 then
                d.ticket <- R.fetch_add t.prios 0 1 + 1;
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

  let atomically_stamped ?(read_only = false) t f =
    let d = desc_for t in
    if d.in_tx then invalid_arg "Tinystm.atomically: nested transaction";
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
      if
        d.h_dim <> t.cfg.Config.hierarchy
        || d.h2_dim <> t.cfg.Config.hierarchy2
      then fresh_hier_state d t.cfg.Config.hierarchy t.cfg.Config.hierarchy2;
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
      if d.rv >= t.max_clock - 1 then begin
        d.in_tx <- false;
        if san_on () then San.tx_exit ~cpu:d.tid ~committed:false;
        leave_fence t d;
        do_rollover t;
        attempt tries
      end
      else begin
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
            (v, d.last_stamp)
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
                  (Intf.Capacity { stm = "tinystm"; retries = d.alloc_fails })
            end
            else d.alloc_fails <- 0;
            note_abort_wd t d ~retries:(tries + 1);
            if reason = Stats.Rollover then do_rollover t
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
          if obs_on () then begin
            d.obs_start <- R.now_cycles ();
            d.obs_reads0 <- d.stats.Stats.reads;
            d.obs_writes0 <- d.stats.Stats.writes;
            emit Obs.Event.Tx_begin
          end;
          match f d with
          | v ->
              R.charge_local c_tx_end;
              (* Serialization stamp.  A clock wrap is handled inline: we
                 already own a quiescent instance, which is all
                 [do_rollover] exists to establish. *)
              let wv =
                let wv = R.fetch_add t.ctl clock_slot 1 + 1 in
                if wv < t.max_clock then wv
                else begin
                  R.set t.ctl clock_slot 0;
                  for i = 0 to R.sarray_length t.locks - 1 do
                    R.set t.locks i 0
                  done;
                  for i = 0 to R.sarray_length t.hier - 1 do
                    R.set t.hier i 0
                  done;
                  for i = 0 to R.sarray_length t.hier2 - 1 do
                    R.set t.hier2 i 0
                  done;
                  ignore (R.fetch_add t.ctl rollover_slot 1);
                  if san_on () then San.rollover ~cpu:d.tid;
                  if obs_on () then emit Obs.Event.Clock_rollover;
                  R.fetch_add t.ctl clock_slot 1 + 1
                end
              in
              if san_on () then begin
                San.clock_advance ~cpu:d.tid ~drawn:wv;
                San.commit_publish ~cpu:d.tid ~wv
              end;
              let nf = G.length d.f_addr in
              for k = 0 to nf - 1 do
                V.free t.mem (G.get d.f_addr k) (G.get d.f_size k)
              done;
              d.last_stamp <- wv;
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

  let read tx addr = read_word tx.owner tx addr
  let write tx addr v = write_word tx.owner tx addr v
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
