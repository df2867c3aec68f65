(* The repository benchmark: every registry STM on three workloads.

     stmbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   A workload is a set of inputs derived from --seed: a structure, its
   size and key range, the update share and a thread count.  All loops are
   closed (a thread starts its next transaction when the previous one
   commits) and keys are uniform.

   - rbtree-read: red-black tree of 65,536 elements, key range 131,072,
     5 % updates, 1 thread.  Read barrier, word loads and tree code over a
     working set larger than L2; one thread, so no aborts.
   - list-conflict: list of 256 elements, key range 512, 50 % updates,
     2 threads.  Long read sets under conflicting writes: validation,
     extension, contention management, write barrier, alloc/free.
   - sim-paper: the paper's Fig. 3b point, list of 256 elements, 20 %
     updates, 8 threads, default tuning.

   --trace 0 gives the end-to-end metrics, which gate later changes.  They
   come from the deterministic simulator (Runtime_sim): throughput per
   virtual second is exact, so two runs of the same code agree exactly,
   whereas wall-clock throughput on a shared host drifts by a third from
   one process to the next.  Wall time enters only as the simulator's own
   cost and as set-up time.

   --trace 1 gives the per-layer ledger.  rbtree-read and list-conflict
   run on real domains (Runtime_real), in wall-clock ns, interleaving the
   STMs round by round with a traced and an untraced phase each; sim-paper
   runs in the simulator, in virtual ns, and must repeat its untraced run
   exactly.  Spans are recorded by [Ledger.Traced] at the [Tm_intf.TM]
   boundary and around each [Driver.step].

   Every run is checked.  The last line of standard output is one JSON
   object with the verdict and the metrics; the exit code is non-zero on
   any failure. *)

module H = Tstm_harness
module W = H.Workload
module RR = Tstm_runtime.Runtime_real
module RS = Tstm_runtime.Runtime_sim
module Intf = Tstm_tm.Tm_intf
module Stats = Tstm_tm.Tm_stats
module Mono = Tstm_obs.Monotonic

(* [spec seed]: the inputs; its [duration] is the simulated virtual time
   of one run.  [real_ledger]: take the --trace 1 ledger on real domains
   rather than in the simulator. *)
type workload = { name : string; spec : int -> W.spec; real_ledger : bool }

let workloads =
  [
    {
      name = "rbtree-read";
      spec =
        (fun seed ->
          W.make ~structure:W.Rbtree ~initial_size:65_536 ~key_range:131_072
            ~update_pct:5.0 ~nthreads:1 ~duration:0.005 ~seed ());
      real_ledger = true;
    };
    {
      name = "list-conflict";
      spec =
        (fun seed ->
          W.make ~structure:W.List ~initial_size:256 ~key_range:512
            ~update_pct:50.0 ~nthreads:2 ~duration:0.002 ~seed ());
      real_ledger = true;
    };
    {
      name = "sim-paper";
      spec =
        (fun seed ->
          W.make ~structure:W.List ~initial_size:256 ~update_pct:20.0
            ~nthreads:8 ~duration:0.002 ~seed ());
      real_ledger = false;
    };
  ]

(* Throughput is the mean over this many seeds derived from --seed, the
   first being --seed itself: one populated list alone moves a list
   workload's exact throughput by up to 10 % from seed to seed. *)
let sim_seeds = 4

let sub_seed seed k =
  if k = 0 then seed else Tstm_util.Bitops.mix ((seed * 8191) + k)

(* Real traced runs: rounds of one untraced and one traced phase per STM. *)
let traced_rounds = 4

(* Spans one thread may buffer in a real traced phase before it stops
   early (24 bytes each). *)
let span_budget = 1 lsl 19

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []
let attempted = ref 0
let failed = ref 0

let emit name unit v = metrics := (name, v, unit) :: !metrics

let emit_summary name unit (s : Summary.t) =
  Printf.printf "  %-28s %14.6g %-5s [q1 %.6g, q3 %.6g] n=%d\n" name s.median
    unit s.q1 s.q3 s.n;
  emit name unit s.median

let emit_value name unit v =
  Printf.printf "  %-40s %14.6g %s\n" name v unit;
  emit name unit v

(* Count one checked unit of work: a repetition, a simulation run. *)
let account what = function
  | Ok x ->
      incr attempted;
      Some x
  | Error problems ->
      incr attempted;
      incr failed;
      List.iter (fun p -> Printf.printf "FAIL %s: %s\n" what p) problems;
      None

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* One STM instance with its structure, over either runtime            *)
(* ------------------------------------------------------------------ *)

(* [st] is the STM's cumulative stats right after the loop, before the
   integrity check runs its own transaction. *)
type sample = { elapsed : float; commits : int; st : Stats.t }

let rep_seed base rep = Tstm_util.Bitops.mix (base + (0x9e3779b9 * (rep + 1)))

module Cell
    (R : Tstm_runtime.Runtime_intf.S)
    (M : Intf.STM)
    (T : Intf.TM with type t = M.t) =
struct
  module D = H.Driver.Make (R) (T)

  type t = { stm : M.t; ops : D.ops; spec : W.spec; live0 : int }

  let setup spec =
    let stm = M.create ~memory_words:(W.memory_words_for spec) () in
    let ops = D.make_structure stm spec.W.structure in
    D.populate stm ops spec;
    { stm; ops; spec; live0 = M.live_words stm }

  (* The closed loop: each thread runs [Driver.step] until [seconds] of
     [R.now] have passed since it started, exactly as [Driver.run] does,
     then with [drain] removes its pending key.  Traced, every step is an
     [Op] span, and a real thread stops early once its buffer holds
     [budget] spans.  Returns the operations run (one commit each). *)
  let loop c ~seconds ~seed_of ~drain ~traced ~budget =
    let nthreads = c.spec.W.nthreads in
    let counts = Array.make nthreads 0 in
    if traced then Ledger.start ();
    Fun.protect
      ~finally:(fun () -> if traced then Ledger.stop ())
      (fun () ->
        R.run ~nthreads (fun tid ->
            let g = Tstm_util.Xrand.create (seed_of tid) in
            let ctx = D.thread_ctx c.spec tid in
            let pending = ref None in
            let op f =
              if traced then Ledger.with_op tid R.now_cycles f else f ()
            in
            let step () = D.step c.stm c.ops c.spec ctx g pending in
            let n = ref 0 in
            let tend = R.now () +. seconds in
            let room () = (not traced) || Ledger.spans tid < budget in
            while R.now () < tend && room () do
              op step;
              incr n
            done;
            (match !pending with
            | Some v when drain ->
                op (fun () ->
                    ignore
                      (T.atomically c.stm (fun tx -> c.ops.D.op_remove tx v)));
                incr n
            | _ -> ());
            counts.(tid) <- !n));
    Array.fold_left ( + ) 0 counts

  let size c = T.atomically c.stm (fun tx -> c.ops.D.op_size tx)

  (* The structure after a phase: a drained real run restores the
     populated size and the allocator baseline, an undrained simulation
     leaves at most one pending insert per thread. *)
  let check c ~drain =
    let n0 = c.spec.W.initial_size in
    let sz = size c in
    List.concat
      [
        (if drain && sz <> n0 then
           [ Printf.sprintf "structure size %d <> populated size %d" sz n0 ]
         else []);
        (if (not drain) && (sz < n0 || sz > n0 + c.spec.W.nthreads) then
           [ Printf.sprintf "structure size %d outside [%d, %d]" sz n0
               (n0 + c.spec.W.nthreads) ]
         else []);
        (let live = M.live_words c.stm in
         if drain && live <> c.live0 then
           [ Printf.sprintf "allocator drift: %d live words vs baseline %d"
               live c.live0 ]
         else []);
      ]

  (* One timed phase, checked: one commit per operation, then [check]. *)
  let phase c ~seconds ~seed_of ~drain ~traced ~budget =
    let s0 = Stats.copy (M.stats c.stm) in
    let t0 = Mono.now_ns () in
    match loop c ~seconds ~seed_of ~drain ~traced ~budget with
    | exception e -> Error [ Printexc.to_string e ]
    | ops -> (
        let elapsed = Mono.elapsed_s ~since:t0 in
        let st = Stats.copy (M.stats c.stm) in
        let commits = st.Stats.commits - s0.Stats.commits in
        let counted =
          if commits <> ops then
            [ Printf.sprintf "commits (%d) <> operations (%d)" commits ops ]
          else []
        in
        match counted @ check c ~drain with
        | [] -> Ok { elapsed; commits; st }
        | problems -> Error problems)

  (* A real repetition: distinct key streams per repetition. *)
  let real_rep c ~rep ~seconds ~traced =
    phase c ~seconds ~drain:true ~traced ~budget:span_budget
      ~seed_of:(fun tid -> rep_seed (D.thread_seed c.spec tid) rep)

  (* The figure path itself: [Driver.run] for the spec's virtual duration,
     returning the run's stats and its wall time. *)
  let figure c =
    let t0 = Mono.now_ns () in
    match D.run c.stm c.ops c.spec with
    | exception e -> Error [ Printexc.to_string e ]
    | r, _ -> (
        let wall = Mono.elapsed_s ~since:t0 in
        match check c ~drain:false with
        | [] -> Ok (r.W.stats, wall)
        | problems -> Error problems)
end

(* ------------------------------------------------------------------ *)
(* STM resolution                                                      *)
(* ------------------------------------------------------------------ *)

(* Real runtime: the wall-clock harness's resolver.  Simulator: the
   registry, populated when [Scenario] is linked. *)
let real_stms =
  List.map
    (fun name ->
      match H.Bench_real.find_stm name with
      | Ok (canon, m) -> (canon, m)
      | Error e -> failwith e)
    H.Bench_real.stm_names

let sim_stms =
  List.map (fun name -> (name, Tstm_tm.Registry.get name)) H.Scenario.all_stms

let rotate l k =
  let k = k mod List.length l in
  List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

(* ------------------------------------------------------------------ *)
(* Per-layer output                                                    *)
(* ------------------------------------------------------------------ *)

(* [scale] converts ledger timestamps to ns: 1 on the real runtime,
   1 / clock_ghz for virtual cycles. *)
let emit_ledger name ~tx_per_s ~scale (l : Ledger.t) (st : Stats.t) =
  let ns x = fi x *. scale in
  let per a b = ratio (fi a) (fi b) in
  let p = Printf.sprintf "%s.%s.%s" in
  emit_value (p "driver" name "tx_per_s") "1/s" tx_per_s;
  emit_value (p "driver" name "op_p50") "ns"
    (ns (Summary.percentile_int l.op_durs 50.0));
  emit_value (p "driver" name "op_p99") "ns"
    (ns (Summary.percentile_int l.op_durs 99.0));
  emit_value (p "stm" name "read") "ns" (ratio (ns l.read_time) (fi l.reads));
  emit_value (p "stm" name "write") "ns"
    (ratio (ns l.write_time) (fi l.writes));
  emit_value (p "stm" name "alloc_free") "ns"
    (ratio (ns l.alloc_free_time) (fi l.allocs_frees));
  emit_value (p "stm" name "tx_self") "ns"
    (ratio (ns l.atomic_self) (fi l.atomics));
  emit_value (p "stm" name "attempts_per_commit") "count"
    (per l.attempts l.atomics);
  emit_value (p "stm" name "wasted_share") "ratio" (per l.wasted l.atomic_time);
  let c = st.Stats.commits in
  emit_value (p "stm" name "reads_per_commit") "count" (per st.Stats.reads c);
  emit_value (p "stm" name "validations_per_commit") "count"
    (per st.Stats.validations c);
  emit_value (p "stm" name "extensions_per_commit") "count"
    (per st.Stats.extensions c);
  emit_value (p "stm" name "val_locks_per_commit") "count"
    (per st.Stats.val_locks_processed c);
  emit_value (p "stm" name "backoff_cycles_per_commit") "cycles"
    (per st.Stats.backoff_cycles c);
  emit_value (p "stm" name "abort_ratio") "ratio"
    (per (Stats.aborts st) (c + Stats.aborts st));
  emit_value (p "structures" name "self_per_op") "ns"
    (ratio (ns l.attempt_self) (fi l.ops))

(* Isolated probes and the runtime floor, on the real runtime whatever the
   workload: they do not depend on it. *)
let emit_probes () =
  List.iter
    (fun (name, m) ->
      let i = Probes.iso m in
      let p = Printf.sprintf "stm.%s.%s" name in
      emit_value (p "iso_read_ns") "ns" i.Probes.read_ns;
      emit_value (p "iso_ro_read_ns") "ns" i.Probes.ro_read_ns;
      emit_value (p "iso_empty_tx_ns") "ns" i.Probes.empty_tx_ns;
      emit_value (p "iso_rmw10_tx_ns") "ns" i.Probes.rmw10_tx_ns)
    real_stms;
  let get_ns, cas_ns = Probes.runtime () in
  emit_value "runtime.get_ns" "ns" get_ns;
  emit_value "runtime.cas_ns" "ns" cas_ns

let emit_sim_wall name ~wall_s (st : Stats.t) =
  emit_value
    (Printf.sprintf "sim.%s.wall_ns_per_read" name)
    "ns"
    (ratio (wall_s *. 1e9) (fi st.Stats.reads))

(* ------------------------------------------------------------------ *)
(* End-to-end: the workload in the simulator                           *)
(* ------------------------------------------------------------------ *)

type sim_run = { commits : int; aborts : int; reads : int }

let sim_run_of (st : Stats.t) =
  {
    commits = st.Stats.commits;
    aborts = Stats.aborts st;
    reads = st.Stats.reads;
  }

let pp_sim_run r =
  Printf.sprintf "%d commits, %d aborts, %d reads" r.commits r.aborts r.reads

(* Set up one STM and run it on the figure path; returns set-up seconds,
   the run's stats and its wall seconds. *)
let sim_figure spec (name, (module M : Intf.STM)) =
  let module C = Cell (RS) (M) (M) in
  let t0 = Mono.now_ns () in
  let c = C.setup spec in
  let setup_s = Mono.elapsed_s ~since:t0 in
  Option.map
    (fun (st, wall) -> (setup_s, st, wall))
    (account (name ^ " simulation") (C.figure c))

let end_to_end (wl : workload) ~seed ~seconds =
  let runs = Hashtbl.create 16 in
  let setups = ref [] and walls = ref [] in
  let t0 = Mono.now_ns () and r = ref 0 in
  (* One round sets up and runs every STM on one seed.  Rounds cycle
     through the seeds until [seconds] have passed, and at least once past
     the first, so an STM runs the same input twice and must repeat itself
     exactly. *)
  while !r <= sim_seeds || Mono.elapsed_s ~since:t0 < seconds do
    let k = !r mod sim_seeds in
    let spec = wl.spec (sub_seed seed k) in
    let setup = ref 0.0 and wall = ref 0.0 in
    List.iter
      (fun (name, m) ->
        match sim_figure spec (name, m) with
        | None -> ()
        | Some (s, st, w) -> (
            setup := !setup +. s;
            wall := !wall +. w;
            let run = sim_run_of st in
            match Hashtbl.find_opt runs (name, k) with
            | None -> Hashtbl.add runs (name, k) run
            | Some r0 when r0 = run -> ()
            | Some r0 ->
                ignore
                  (account (name ^ " determinism")
                     (Error
                        [ Printf.sprintf "seed %d gave %s, then %s"
                            spec.W.seed (pp_sim_run r0) (pp_sim_run run) ]))))
      (rotate sim_stms !r);
    Printf.printf
      "round %2d  seed %-20d calibration %6.1f Mips/s  set-up %.3f s  \
       simulation %.3f s\n"
      !r spec.W.seed (Probes.calibration_mips ()) !setup !wall;
    setups := !setup :: !setups;
    walls := !wall :: !walls;
    incr r
  done;
  print_endline
    "end-to-end (throughput: exact, mean over seeds; times: median over \
     rounds):";
  let duration = (wl.spec seed).W.duration in
  List.iter
    (fun (name, _) ->
      let xs =
        List.filter_map
          (fun k ->
            Option.map
              (fun run -> fi run.commits /. duration)
              (Hashtbl.find_opt runs (name, k)))
          (List.init sim_seeds Fun.id)
      in
      if List.length xs = sim_seeds then begin
        let mean = List.fold_left ( +. ) 0.0 xs /. fi sim_seeds in
        Printf.printf "  %-28s %14.6g %-5s per seed: %s\n" ("tx_per_s." ^ name)
          mean "1/s"
          (String.concat " " (List.map (Printf.sprintf "%.6g") xs));
        emit ("tx_per_s." ^ name) "1/s" mean
      end)
    sim_stms;
  emit_summary "setup_s" "s" (Summary.of_list !setups);
  (* Reported, not gated: wall time on a shared host drifts too much. *)
  let w = Summary.of_list !walls in
  Printf.printf "  %-28s %14.6g %-5s [q1 %.6g, q3 %.6g] n=%d (not gated)\n"
    "sim_wall_s" w.median "s" w.q1 w.q3 w.n

(* ------------------------------------------------------------------ *)
(* Per-layer: real domains                                             *)
(* ------------------------------------------------------------------ *)

(* One STM for the real ledger: a traced instance whose untraced phases
   run with recording off. *)
type real_cell = {
  rname : string;
  rep : rep:int -> seconds:float -> traced:bool -> (sample, string list) result;
  stats_reset : unit -> unit;
  ledger : Ledger.t;
  counters : Stats.t;
  mutable untraced : float list;  (* throughput of the untraced phases *)
  mutable overheads : float list;
}

let real_cell spec (name, (module M : Intf.STM)) =
  let module C = Cell (RR) (M) (Ledger.Traced (RR) (M)) in
  let c = C.setup spec in
  {
    rname = name;
    rep = (fun ~rep ~seconds ~traced -> C.real_rep c ~rep ~seconds ~traced);
    stats_reset = (fun () -> M.reset_stats c.C.stm);
    ledger = Ledger.create ();
    counters = Stats.create ();
    untraced = [];
    overheads = [];
  }

let real_ledger (wl : workload) ~seed ~seconds =
  let spec = wl.spec seed in
  let cells = List.map (real_cell spec) real_stms in
  let phase_s = seconds /. fi (2 * traced_rounds * List.length cells) in
  let tx (s : sample) = fi s.commits /. s.elapsed in
  let run c what ~rep ~traced =
    account (c.rname ^ what) (c.rep ~rep ~seconds:phase_s ~traced)
  in
  (* One untraced phase each first: the first phase after set-up runs
     cold. *)
  List.iter (fun c -> ignore (run c " warm-up" ~rep:(-1) ~traced:false)) cells;
  for j = 0 to traced_rounds - 1 do
    Printf.printf "round %d  calibration %6.1f Mips/s  map %.3f Mlookups/s " j
      (Probes.calibration_mips ()) (Probes.calibration_map_mlps ());
    List.iter
      (fun c ->
        let u = run c " untraced" ~rep:j ~traced:false in
        c.stats_reset ();
        let t = run c " traced" ~rep:j ~traced:true in
        (match (u, t) with
        | Some u, Some t ->
            Ledger.analyse c.ledger ~nthreads:spec.W.nthreads;
            Stats.add_into ~dst:c.counters t.st;
            c.untraced <- tx u :: c.untraced;
            c.overheads <- ((tx u /. tx t) -. 1.0) :: c.overheads;
            Printf.printf " %s %.0f/%.0f" c.rname (tx u) (tx t)
        | _ -> Printf.printf " %s FAILED" c.rname);
        Ledger.clear ())
      (rotate cells j);
    print_endline "  (tx/s untraced/traced)"
  done;
  List.iter
    (fun c ->
      Printf.printf
        "%s: tracing overhead %.0f %% (untraced / traced throughput - 1, \
         median of %d rounds)\n"
        c.rname (100.0 *. Summary.median c.overheads) (List.length c.overheads);
      emit_ledger c.rname ~tx_per_s:(Summary.median c.untraced) ~scale:1.0
        c.ledger c.counters)
    cells

(* The simulator's wall cost per simulated read, from one untraced round. *)
let sim_wall spec =
  List.iter
    (fun stm ->
      match sim_figure spec stm with
      | Some (_, st, wall_s) -> emit_sim_wall (fst stm) ~wall_s st
      | None -> ())
    sim_stms

(* ------------------------------------------------------------------ *)
(* Per-layer: the simulator                                            *)
(* ------------------------------------------------------------------ *)

(* Each STM runs untraced on the figure path, then traced in an identical
   closed loop; the two must agree exactly, and the ledger is in virtual
   ns. *)
let sim_ledger (wl : workload) ~seed =
  let spec = wl.spec seed in
  let cycles_to_ns = 1.0 /. (RS.params ()).Tstm_runtime.Cache_model.clock_ghz in
  List.iter
    (fun (name, (module M : Intf.STM)) ->
      match sim_figure spec (name, (module M)) with
      | None -> ()
      | Some (_, st_u, wall_s) -> (
          let module Q = Cell (RS) (M) (Ledger.Traced (RS) (M)) in
          let q = Q.setup spec in
          M.reset_stats q.Q.stm;
          let traced =
            Q.phase q ~seconds:spec.W.duration ~drain:false ~traced:true
              ~budget:max_int ~seed_of:(Q.D.thread_seed spec)
          in
          let same =
            match traced with
            | Ok t when sim_run_of t.st <> sim_run_of st_u ->
                Error
                  [
                    Printf.sprintf "traced run gave %s, untraced %s"
                      (pp_sim_run (sim_run_of t.st))
                      (pp_sim_run (sim_run_of st_u));
                  ]
            | _ -> Ok ()
          in
          match
            ( account (name ^ " traced") traced,
              account (name ^ " traced = untraced") same )
          with
          | Some t, Some () ->
              let l = Ledger.create () in
              Ledger.analyse l ~nthreads:spec.W.nthreads;
              Ledger.clear ();
              emit_ledger name ~scale:cycles_to_ns l t.st
                ~tx_per_s:(fi st_u.Stats.commits /. spec.W.duration);
              emit_sim_wall name ~wall_s st_u
          | _ -> Ledger.clear ()))
    sim_stms

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let print_json ~correct =
  let m =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      !metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct !attempted !failed (String.concat ", " m)

let () =
  let workload = ref "" and seed = ref 42 in
  let seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       " " ^ String.concat " | " (List.map (fun w -> w.name) workloads));
      ("--seed", Arg.Set_int seed, " workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, " measured seconds (default 10)");
      ("--trace", Arg.Set_int trace,
       " 0: end-to-end metrics; 1: per-layer ledger");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "stmbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be > 0 and --trace 0 or 1";
    exit 2
  end;
  let h = Tstm_obs.Bench.host () in
  Printf.printf
    "workload %s seed %d seconds %g trace %d | host: %d cores, OCaml %s, %s, \
     clock resolution %d ns\n"
    wl.name !seed !seconds !trace h.Tstm_obs.Bench.cores h.ocaml h.os_type
    h.clock_res_ns;
  (if !trace = 0 then end_to_end wl ~seed:!seed ~seconds:!seconds
   else begin
     if wl.real_ledger then begin
       real_ledger wl ~seed:!seed ~seconds:!seconds;
       sim_wall (wl.spec !seed)
     end
     else sim_ledger wl ~seed:!seed;
     emit_probes ()
   end);
  Printf.printf "failed_share %g (%d of %d checked runs failed)\n"
    (ratio (fi !failed) (fi !attempted))
    !failed !attempted;
  let correct = !failed = 0 && !attempted > 0 in
  print_json ~correct;
  exit (if correct then 0 else 1)
