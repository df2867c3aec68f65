(* Golden determinism of the multi-process sweep runner: the merged result
   of any plan must be byte-identical whatever the worker count, the
   completion order, or mid-job worker crashes (which requeue).  Verified
   by marshalling the outcome arrays and comparing digests — any bit of
   any result row differing fails the test. *)

module F = Tstm_harness.Figures
module W = Tstm_harness.Workload
module St = Tstm_harness.Stress
module Job = Tstm_exec.Job
module Plan = Tstm_exec.Plan
module Pool = Tstm_exec.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fingerprint (res : Plan.result) =
  Digest.to_hex (Digest.string (Marshal.to_string res.Plan.outcomes []))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Pool mechanics (cheap jobs, no simulator)                           *)
(* ------------------------------------------------------------------ *)

let test_pool_rows_in_rank_order () =
  let v =
    Pool.map ~jobs:4 ~label:(fun i -> string_of_int i) (fun rank -> rank * 10) 9
  in
  check_bool "no failures" true (Pool.ok v);
  Array.iteri
    (fun i row -> check_bool "row matches rank" true (row = Some (i * 10)))
    v.Pool.rows

let test_pool_exception_fails_without_retry () =
  let v =
    Pool.map ~jobs:2
      ~label:(fun i -> string_of_int i)
      (fun rank -> if rank = 1 then failwith "boom" else rank)
      3
  in
  check_int "one failure" 1 (List.length v.Pool.failures);
  let f = List.hd v.Pool.failures in
  check_int "failed rank" 1 f.Pool.rank;
  (* A job-level exception is deterministic: retrying would fail the same
     way, so the pool must not burn attempts on it. *)
  check_int "single attempt" 1 f.Pool.attempts;
  check_bool "reason carries the exception" true
    (contains ~sub:"boom" f.Pool.reason);
  check_bool "other rows unaffected" true
    (v.Pool.rows.(0) = Some 0 && v.Pool.rows.(2) = Some 2)

let test_pool_timeout_kills_and_reports () =
  let v =
    Pool.map ~jobs:2 ~timeout:0.2 ~retries:0
      ~label:(fun i -> string_of_int i)
      (fun rank ->
        if rank = 0 then
          while true do
            ()
          done;
        7)
      2
  in
  check_bool "healthy row survives" true (v.Pool.rows.(1) = Some 7);
  check_int "one failure" 1 (List.length v.Pool.failures);
  let f = List.hd v.Pool.failures in
  check_int "spinning rank failed" 0 f.Pool.rank;
  check_bool "reason is the timeout" true (contains ~sub:"timeout" f.Pool.reason)

let test_plan_dedupes_equal_jobs () =
  let j = Job.Stress_run { St.default with St.seed = 0 } in
  let progress = ref 0 in
  let res =
    Plan.execute ~jobs:2
      ~on_progress:(fun p ->
        if p.Pool.status = Tstm_obs.Progress.Finished then incr progress)
      [| j; j; j |]
  in
  check_bool "all three outcomes present" true
    (Array.for_all (fun o -> o <> None) res.Plan.outcomes);
  check_bool "shared outcomes are equal" true
    (res.Plan.outcomes.(0) = res.Plan.outcomes.(1)
    && res.Plan.outcomes.(1) = res.Plan.outcomes.(2));
  (* Structural dedupe: the three plan entries ran as one job. *)
  check_int "evaluated once" 1 !progress

(* ------------------------------------------------------------------ *)
(* Golden determinism: figures                                         *)
(* ------------------------------------------------------------------ *)

(* Render the assembled figures the way the CLI would (CSV form), so the
   comparison covers the full plan -> evaluate -> assemble path. *)
let render_figures profile ns (res : Plan.result) =
  let buf = Buffer.create 4096 in
  let cursor = ref 0 in
  List.iter
    (fun n ->
      let cells = F.plan profile n in
      let values =
        Array.init (Array.length cells) (fun i ->
            match res.Plan.outcomes.(!cursor + i) with
            | Some (Job.Cell_value v) -> v
            | _ -> Alcotest.fail "missing figure cell")
      in
      cursor := !cursor + Array.length cells;
      List.iter
        (fun o ->
          Buffer.add_string buf
            (match o with
            | F.Table t -> Tstm_util.Series.table_to_csv t
            | F.Surface s -> Tstm_util.Series.surface_to_csv s))
        (F.assemble profile n values))
    ns;
  Buffer.contents buf

let golden_figs = [ 7; 10 ]

let test_figures_jobs_invariant () =
  let plan = Plan.figures F.quick golden_figs in
  let a = Plan.execute ~jobs:1 plan in
  let b = Plan.execute ~jobs:4 plan in
  check_bool "jobs=1 all ok" true (Plan.ok a);
  check_bool "jobs=4 all ok" true (Plan.ok b);
  Alcotest.(check string) "outcomes byte-identical" (fingerprint a)
    (fingerprint b);
  Alcotest.(check string)
    "rendered figures byte-identical"
    (render_figures F.quick golden_figs a)
    (render_figures F.quick golden_figs b)

(* ------------------------------------------------------------------ *)
(* Golden determinism: stress sweep                                    *)
(* ------------------------------------------------------------------ *)

let stress_pairs specs (res : Plan.result) =
  Array.mapi
    (fun i o ->
      match o with
      | Some (Job.Stress_report r) -> (specs.(i), r)
      | _ -> Alcotest.fail "missing stress report")
    res.Plan.outcomes

let test_stress_jobs_invariant () =
  let specs =
    St.plan ~seeds:20 ~stms:[ "tinystm-wb" ] ~structures:[ W.List ] St.default
  in
  let plan = Array.map (fun s -> Job.Stress_run s) specs in
  let a = Plan.execute ~jobs:1 plan in
  let b = Plan.execute ~jobs:4 plan in
  check_bool "jobs=1 all ok" true (Plan.ok a);
  check_bool "jobs=4 all ok" true (Plan.ok b);
  Alcotest.(check string) "reports byte-identical" (fingerprint a)
    (fingerprint b);
  let sa = St.summarize (stress_pairs specs a) in
  let sb = St.summarize (stress_pairs specs b) in
  check_bool "summaries equal" true (sa = sb);
  check_int "all runs counted" (Array.length specs) sa.St.runs

(* ------------------------------------------------------------------ *)
(* Pinned golden digests: the default contention manager is invisible  *)
(* ------------------------------------------------------------------ *)

(* Digests of the quick-profile figure CSVs, the ablation table and the
   tuner trace, captured before the contention-management layer existed.
   The default policy (backoff) must replay the historical runs
   byte-identically — any virtual-time or RNG-stream drift on the default
   path moves these digests and fails here. *)

module Abl = Tstm_harness.Ablation
module Scenario = Tstm_harness.Scenario

let digest s = Digest.to_hex (Digest.string s)

let test_pinned_figures_digest () =
  let plan = Plan.figures F.quick golden_figs in
  let res = Plan.execute ~jobs:1 plan in
  check_bool "all cells ok" true (Plan.ok res);
  Alcotest.(check string)
    "figures 7+10 digest pinned" "c4830843617461c335712e43584d56e4"
    (digest (render_figures F.quick golden_figs res))

let test_pinned_ablation_digest () =
  (* The Cost points perturb the simulator's cost model; the remaining
     points all run the production model and are what the default CM must
     not disturb. *)
  let pts =
    List.filter (function Abl.Cost _ -> false | _ -> true) Abl.default_points
  in
  let rows = List.map Abl.run_point pts in
  Alcotest.(check string)
    "ablation digest pinned" "a6ac5ff6370f6731a778e802e1dbe76f"
    (digest (String.concat "\n" (List.map Abl.render rows)))

let test_pinned_tune_digest () =
  let spec =
    W.make ~structure:W.List ~initial_size:128 ~update_pct:20.0 ~nthreads:4
      ~duration:1.0 ~seed:42 ()
  in
  let tr = Scenario.run_intset_autotuned ~period:0.002 ~n_steps:5 spec in
  let rendered =
    String.concat ""
      (List.map
         (fun (st : Tstm_tuning.Tuner.step) ->
           Printf.sprintf "%s %.3f %s\n"
             (Tinystm.Config.to_string st.Tstm_tuning.Tuner.config)
             st.Tstm_tuning.Tuner.throughput
             (Tstm_tuning.Tuner.move_label st.Tstm_tuning.Tuner.move))
         tr.Scenario.steps)
  in
  Alcotest.(check string)
    "tuner-trace digest pinned" "1281dbff72cfffefd31e4a3de57546d6"
    (digest rendered)

(* ------------------------------------------------------------------ *)
(* Pinned golden digests: the non-default paths                        *)
(* ------------------------------------------------------------------ *)

(* The digests above only cover TinySTM under the default contention
   manager.  These pin the rest of the transaction lifecycle: TL2 and
   NOrec, the kill-capable CM policies, the watchdog, serial-irrevocable
   escalation and both clock roll-over paths.  Any change to the sequence
   of runtime operations a family performs moves one of them. *)

module Storm = Tstm_harness.Storm
module R = Tstm_runtime.Runtime_sim

let all_structures = [ W.List; W.Rbtree; W.Skiplist; W.Hashset ]

(* The stdout of `repro stress --seeds 25 --all-stms --all-structures
   --max-retries 6 --san` for a clean sweep, rendered as the CLI does. *)
let test_pinned_escalation_stress_digest () =
  let seeds = 25 and stms = Scenario.all_stms in
  let base = { St.default with St.max_retries = 6; san = true } in
  let specs = St.plan ~seeds ~stms ~structures:all_structures base in
  let res = Plan.execute ~jobs:2 (Array.map (fun s -> Job.Stress_run s) specs) in
  check_bool "all runs ok" true (Plan.ok res);
  let sw = St.summarize (stress_pairs specs res) in
  check_bool "clean sweep" true (sw.St.first_failure = None);
  check_int "escalations" 1480 sw.St.total_escalations;
  let stdout =
    Printf.sprintf
      "stress: %d runs (%d seeds x %d stm x %d structures), %d ops checked, \
       %d injections, %d commits, %d aborts, %d escalations\n\
       zero serializability violations or sanitizer findings\n"
      sw.St.runs seeds (List.length stms)
      (List.length all_structures)
      sw.St.total_events sw.St.total_injected sw.St.total_commits
      sw.St.total_aborts sw.St.total_escalations
  in
  Alcotest.(check string)
    "escalating stress digest pinned" "5b73f1c8534be8d376f4c8e4563649e3"
    (digest stdout)

(* Storm reports of every registry STM under suicide with the watchdog
   armed, and under karma and greedy. *)
let test_pinned_storm_digest () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (cm, watchdog) ->
      List.iter
        (fun stm ->
          let r = Storm.run_one { Storm.default with Storm.stm; cm; watchdog } in
          Buffer.add_string buf
            (Format.asprintf "%s %-10s %a\n" cm stm Storm.pp_report r))
        Scenario.all_stms)
    [ ("suicide", true); ("karma", false); ("greedy", false) ];
  Alcotest.(check string)
    "storm digest pinned" "07fa44a2cc621d4a96ecf820110278fb" (digest (Buffer.contents buf))

(* TinySTM with a tiny clock: concurrent transactions roll the clock over
   through the fence (Rollover aborts and begin-time checks) while
   escalated ones wrap it inline; a serial scope then wraps it inline on
   its own. *)
module TS = Tinystm.Make (R)

let test_pinned_rollover_digest () =
  let t =
    TS.create
      ~config:(Tinystm.Config.make ~n_locks:256 ())
      ~max_clock:32 ~max_retries:3 ~memory_words:256 ()
  in
  let a = TS.atomically t (fun tx -> TS.alloc tx 5) in
  let bump k tx = TS.write tx (a + k) (TS.read tx (a + k) + 1) in
  let ends = Array.make 4 0 in
  (* Private words keep commits flowing (roll-over aborts); a shared word
     every third transaction drives conflicts into escalation. *)
  R.run ~nthreads:4 (fun tid ->
      for i = 1 to 100 do
        TS.atomically t (fun tx ->
            bump tid tx;
            if i mod 3 = 0 then bump 4 tx)
      done;
      ends.(tid) <- R.now_cycles ());
  let concurrent = TS.stats t in
  let rolled = TS.rollovers t in
  check_bool "concurrent roll-over aborts" true
    (concurrent.Tstm_tm.Tm_stats.aborts_rollover > 0);
  check_bool "escalations" true (concurrent.Tstm_tm.Tm_stats.escalations > 0);
  Tstm_tm.Tm_intf.serially (fun () ->
      for _ = 1 to 40 do
        TS.atomically t (bump 4)
      done);
  check_bool "serial roll-over" true (TS.rollovers t > rolled);
  check_int "every increment landed" 172
    (TS.atomically t (fun tx -> TS.read tx (a + 4)));
  let rendered =
    Printf.sprintf "%s\nend=%d rollovers=%d clock=%d\n"
      (Tstm_obs.Json.to_string (Tstm_tm.Tm_stats.to_json (TS.stats t)))
      (Array.fold_left max 0 ends) (TS.rollovers t) (TS.clock_value t)
  in
  Alcotest.(check string) "roll-over digest pinned" "eed303d7916069ca6de9baabedce3463"
    (digest rendered)

(* ------------------------------------------------------------------ *)
(* Crash recovery: a SIGKILLed worker is requeued, output unchanged    *)
(* ------------------------------------------------------------------ *)

let test_killed_worker_retried () =
  let specs =
    St.plan ~seeds:6 ~stms:[ "tinystm-wb" ] ~structures:[ W.List ] St.default
  in
  let plan = Array.map (fun s -> Job.Stress_run s) specs in
  let clean = Plan.execute ~jobs:2 plan in
  let crashes = ref 0 in
  let sabotaged =
    Plan.execute ~jobs:2
      ~on_progress:(fun p ->
        match p.Pool.status with
        | Tstm_obs.Progress.Crashed _ -> incr crashes
        | _ -> ())
      ~sabotage:(fun ~rank ~attempt -> rank = 3 && attempt = 1)
      plan
  in
  check_int "exactly one worker was killed" 1 !crashes;
  check_bool "retry recovered every job" true (Plan.ok sabotaged);
  Alcotest.(check string)
    "merged output unchanged by the crash" (fingerprint clean)
    (fingerprint sabotaged)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "rows in rank order" `Quick
            test_pool_rows_in_rank_order;
          Alcotest.test_case "exception fails without retry" `Quick
            test_pool_exception_fails_without_retry;
          Alcotest.test_case "timeout kills and reports" `Quick
            test_pool_timeout_kills_and_reports;
          Alcotest.test_case "plan dedupes equal jobs" `Quick
            test_plan_dedupes_equal_jobs;
        ] );
      ( "golden",
        [
          Alcotest.test_case "figures: jobs=1 = jobs=4" `Quick
            test_figures_jobs_invariant;
          Alcotest.test_case "stress: jobs=1 = jobs=4" `Quick
            test_stress_jobs_invariant;
          Alcotest.test_case "killed worker retried, output unchanged" `Quick
            test_killed_worker_retried;
          Alcotest.test_case "pinned digest: figures" `Quick
            test_pinned_figures_digest;
          Alcotest.test_case "pinned digest: ablation" `Quick
            test_pinned_ablation_digest;
          Alcotest.test_case "pinned digest: tuner trace" `Quick
            test_pinned_tune_digest;
          Alcotest.test_case "pinned digest: escalating stress, all STMs"
            `Quick test_pinned_escalation_stress_digest;
          Alcotest.test_case "pinned digest: CM storms, all STMs" `Quick
            test_pinned_storm_digest;
          Alcotest.test_case "pinned digest: TinySTM roll-over" `Quick
            test_pinned_rollover_digest;
        ] );
    ]
