(* Tests for the TL2 baseline: Bloom filter properties, the redo log TL2
   shares with NOrec, commit-time locking semantics, isolation, and
   TL2-specific behaviour (no extension, buffered writes invisible before
   commit). *)

open Tstm_tl2
module Bloom = Tstm_util.Bloom

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Bloom                                                              *)
(* ------------------------------------------------------------------ *)

let test_bloom_empty () =
  let b = Bloom.create () in
  check_bool "nothing in empty" false (Bloom.may_contain b 42)

let test_bloom_add_query () =
  let b = Bloom.create () in
  Bloom.add b 7;
  check_bool "added found" true (Bloom.may_contain b 7)

let test_bloom_clear () =
  let b = Bloom.create () in
  Bloom.add b 7;
  Bloom.clear b;
  check_bool "cleared" false (Bloom.may_contain b 7)

let prop_bloom_no_false_negatives =
  QCheck.Test.make ~name:"bloom has no false negatives" ~count:300
    QCheck.(list (int_range 0 1_000_000))
    (fun addrs ->
      let b = Bloom.create () in
      List.iter (Bloom.add b) addrs;
      List.for_all (Bloom.may_contain b) addrs)

let test_bloom_selective () =
  (* With few elements, most absent addresses are rejected. *)
  let b = Bloom.create () in
  List.iter (Bloom.add b) [ 1; 2; 3 ];
  let false_positives = ref 0 in
  for a = 1000 to 2000 do
    if Bloom.may_contain b a then incr false_positives
  done;
  check_bool
    (Printf.sprintf "few false positives (%d/1001)" !false_positives)
    true
    (!false_positives < 300)

(* ------------------------------------------------------------------ *)
(* Redo log (Tx_engine.Frame.Redo), against an association-list model  *)
(* ------------------------------------------------------------------ *)

module Redo_tests (R : Tstm_runtime.Runtime_intf.S) () = struct
  module F = Tstm_engine.Tx_engine.Frame (R)
  module Redo = F.Redo

  let check_opt = Alcotest.(check (option int))
  let lookup w a = Option.map (Redo.value w) (Redo.find w a)
  let of_writes writes =
    let w = Redo.create () in
    List.iter (fun (a, v) -> Redo.put w a v) writes;
    w

  (* The model: the newest write of each address wins. *)
  let model writes a = List.assoc_opt a (List.rev writes)

  (* In the simulator, the cycles one [find] charges. *)
  let find_cost w a =
    let c = ref 0 in
    R.run ~nthreads:1 (fun _ ->
        let t0 = R.now_cycles () in
        ignore (Redo.find w a);
        c := R.now_cycles () - t0);
    !c

  let test_unit () =
    let writes = [ (5, 10); (7, 70); (5, 11); (9, 90); (7, 71) ] in
    let w = of_writes writes in
    check_opt "newest write of 5" (Some 11) (lookup w 5);
    check_opt "newest write of 7" (Some 71) (lookup w 7);
    check_opt "unwritten" None (lookup w 6);
    check_int "one entry per address" 3 (Redo.length w);
    (* An unwritten address the filter cannot reject still misses. *)
    let b = Bloom.create () in
    List.iter (fun (a, _) -> Bloom.add b a) writes;
    let fp =
      Seq.find
        (fun a -> Bloom.may_contain b a && not (List.mem_assoc a writes))
        (Seq.ints 10)
      |> Option.get
    in
    check_opt "Bloom-positive unwritten" None (lookup w fp);
    if R.is_simulated then begin
      check_int "Bloom reject costs c_bloom" 3 (find_cost w 6);
      check_int "full scan of a Bloom positive" (3 + 3) (find_cost w fp)
    end;
    let words = R.sarray_make 16 (-1) in
    Redo.write_back w words;
    List.iter
      (fun a ->
        check_int "written back" (Option.value (model writes a) ~default:(-1))
          (R.get words a))
      [ 5; 6; 7; 9 ];
    Redo.clear w;
    check_bool "empty after clear" true (Redo.is_empty w);
    List.iter
      (fun a -> check_opt "forgotten" None (lookup w a))
      [ 5; 7; 9; fp ];
    (* The filter was reset too: a cleared address is rejected without a
       scan even once the log holds entries again. *)
    Redo.put w 3 30;
    if R.is_simulated then
      check_int "cleared address rejected by the filter" 3 (find_cost w 5)

  let prop_model =
    QCheck.Test.make ~name:"redo log matches an association-list model"
      ~count:300
      QCheck.(list (pair (int_range 0 31) small_int))
      (fun writes ->
        let w = of_writes writes in
        let addrs = List.init 40 Fun.id in
        let words = R.sarray_make 40 (-1) in
        Redo.write_back w words;
        let found_ok =
          List.for_all (fun a -> lookup w a = model writes a) addrs
        in
        let memory_ok =
          List.for_all
            (fun a ->
              R.get words a = Option.value (model writes a) ~default:(-1))
            addrs
        in
        Redo.clear w;
        found_ok && memory_ok && Redo.is_empty w
        && List.for_all (fun a -> Redo.find w a = None) addrs)

  let tests =
    Alcotest.test_case "newest wins, write-back, clear" `Quick test_unit
    :: List.map QCheck_alcotest.to_alcotest [ prop_model ]
end

module Sim_redo = Redo_tests (Tstm_runtime.Runtime_sim) ()
module Real_redo = Redo_tests (Tstm_runtime.Runtime_real) ()

(* ------------------------------------------------------------------ *)
(* TL2 semantics                                                      *)
(* ------------------------------------------------------------------ *)

exception User_error

module Semantics (R : Tstm_runtime.Runtime_intf.S) () = struct
  module T = Tl2.Make (R)

  let make ?(n_locks = 1 lsl 10) ?(words = 4096) () =
    T.create ~n_locks ~memory_words:words ()

  let test_read_write_commit () =
    let t = make () in
    let a = T.atomically t (fun tx -> T.alloc tx 2) in
    T.atomically t (fun tx ->
        T.write tx a 10;
        T.write tx (a + 1) 20);
    let x, y = T.atomically t (fun tx -> (T.read tx a, T.read tx (a + 1))) in
    check_int "first" 10 x;
    check_int "second" 20 y

  let test_read_your_writes () =
    let t = make () in
    let a = T.atomically t (fun tx -> T.alloc tx 1) in
    T.atomically t (fun tx ->
        T.write tx a 1;
        check_int "own write" 1 (T.read tx a);
        T.write tx a 2;
        check_int "own overwrite" 2 (T.read tx a));
    check_int "committed" 2 (T.atomically t (fun tx -> T.read tx a))

  let test_writes_buffered_until_commit () =
    let t = make () in
    let a = T.atomically t (fun tx -> T.alloc tx 1) in
    T.atomically t (fun tx -> T.write tx a 5);
    T.atomically t (fun tx ->
        T.write tx a 99;
        (* Commit-time locking: memory must still hold the old value. *)
        check_int "memory untouched inside tx" 5 (T.V.load (T.memory t) a));
    check_int "visible after commit" 99 (T.V.load (T.memory t) a)

  let test_user_exception_aborts () =
    let t = make () in
    let a = T.atomically t (fun tx -> T.alloc tx 1) in
    T.atomically t (fun tx -> T.write tx a 5);
    (try
       T.atomically t (fun tx ->
           T.write tx a 99;
           raise User_error)
     with User_error -> ());
    check_int "rolled back" 5 (T.atomically t (fun tx -> T.read tx a))

  let test_read_only_rejects_writes () =
    let t = make () in
    let a = T.atomically t (fun tx -> T.alloc tx 1) in
    (try
       T.atomically ~read_only:true t (fun tx -> T.write tx a 1);
       Alcotest.fail "expected Invalid_argument"
     with Invalid_argument _ -> ());
    check_int "usable after" 0 (T.atomically t (fun tx -> T.read tx a))

  let test_alloc_abort_reclaims () =
    let t = make () in
    let before = T.V.live_words (T.memory t) in
    (try
       T.atomically t (fun tx ->
           ignore (T.alloc tx 8);
           raise User_error)
     with User_error -> ());
    check_int "reclaimed" before (T.V.live_words (T.memory t))

  let test_free_commit_releases () =
    let t = make () in
    let a = T.atomically t (fun tx -> T.alloc tx 8) in
    let live = T.V.live_words (T.memory t) in
    T.atomically t (fun tx -> T.free tx a 8);
    check_int "freed" (live - 8) (T.V.live_words (T.memory t))

  let test_counter_no_lost_updates () =
    let t = make ~words:64 () in
    let a = T.atomically t (fun tx -> T.alloc tx 1) in
    let n = 4 and per = 200 in
    R.run ~nthreads:n (fun _ ->
        for _ = 1 to per do
          T.atomically t (fun tx -> T.write tx a (T.read tx a + 1))
        done);
    check_int "exact" (n * per) (T.atomically t (fun tx -> T.read tx a))

  let test_bank_conservation () =
    let accounts = 16 and n = 4 and per = 150 in
    let t = make ~words:1024 ~n_locks:64 () in
    let base = T.atomically t (fun tx -> T.alloc tx accounts) in
    T.atomically t (fun tx ->
        for i = 0 to accounts - 1 do
          T.write tx (base + i) 100
        done);
    R.run ~nthreads:n (fun tid ->
        let g = Tstm_util.Xrand.create (7100 + tid) in
        for _ = 1 to per do
          let src = Tstm_util.Xrand.int g accounts
          and dst = Tstm_util.Xrand.int g accounts
          and amount = Tstm_util.Xrand.int g 10 in
          T.atomically t (fun tx ->
              let s = T.read tx (base + src) in
              let d = T.read tx (base + dst) in
              if src <> dst then begin
                T.write tx (base + src) (s - amount);
                T.write tx (base + dst) (d + amount)
              end)
        done);
    let total =
      T.atomically ~read_only:true t (fun tx ->
          let sum = ref 0 in
          for i = 0 to accounts - 1 do
            sum := !sum + T.read tx (base + i)
          done;
          !sum)
    in
    check_int "conserved" (accounts * 100) total

  let test_snapshot_consistency () =
    let t = make ~n_locks:4 ~words:64 () in
    let a = T.atomically t (fun tx -> T.alloc tx 2) in
    let violations = Atomic.make 0 in
    R.run ~nthreads:4 (fun tid ->
        let g = Tstm_util.Xrand.create (9100 + tid) in
        if tid < 2 then
          for _ = 1 to 200 do
            T.atomically t (fun tx ->
                let v = Tstm_util.Xrand.int g 1000 in
                T.write tx a v;
                T.write tx (a + 1) v)
          done
        else
          for _ = 1 to 200 do
            let x, y =
              T.atomically ~read_only:true t (fun tx ->
                  (T.read tx a, T.read tx (a + 1)))
            in
            if x <> y then Atomic.incr violations
          done);
    check_int "no torn snapshots" 0 (Atomic.get violations)

  let test_large_write_set () =
    (* Exercises Bloom + write-set search and multi-lock commit. *)
    let t = make ~words:4096 ~n_locks:64 () in
    let n = 300 in
    let base = T.atomically t (fun tx -> T.alloc tx n) in
    T.atomically t (fun tx ->
        for i = 0 to n - 1 do
          T.write tx (base + i) i
        done;
        (* Read-after-write across the whole set. *)
        for i = 0 to n - 1 do
          check_int "raw lookup" i (T.read tx (base + i))
        done);
    T.atomically t (fun tx ->
        for i = 0 to n - 1 do
          check_int "committed" i (T.read tx (base + i))
        done)

  let tests =
    [
      Alcotest.test_case "read/write/commit" `Quick test_read_write_commit;
      Alcotest.test_case "read-your-writes" `Quick test_read_your_writes;
      Alcotest.test_case "writes buffered" `Quick
        test_writes_buffered_until_commit;
      Alcotest.test_case "user exception aborts" `Quick
        test_user_exception_aborts;
      Alcotest.test_case "read-only rejects writes" `Quick
        test_read_only_rejects_writes;
      Alcotest.test_case "alloc abort reclaims" `Quick test_alloc_abort_reclaims;
      Alcotest.test_case "free at commit" `Quick test_free_commit_releases;
      Alcotest.test_case "no lost updates" `Quick test_counter_no_lost_updates;
      Alcotest.test_case "bank conservation" `Quick test_bank_conservation;
      Alcotest.test_case "snapshot consistency" `Quick test_snapshot_consistency;
      Alcotest.test_case "large write set" `Quick test_large_write_set;
    ]
end

module Sim_sem = Semantics (Tstm_runtime.Runtime_sim) ()
module Real_sem = Semantics (Tstm_runtime.Runtime_real) ()

let () =
  Alcotest.run "tstm_tl2"
    [
      ( "bloom",
        [
          Alcotest.test_case "empty" `Quick test_bloom_empty;
          Alcotest.test_case "add/query" `Quick test_bloom_add_query;
          Alcotest.test_case "clear" `Quick test_bloom_clear;
          Alcotest.test_case "selective" `Quick test_bloom_selective;
        ] );
      ( "bloom-props",
        List.map QCheck_alcotest.to_alcotest [ prop_bloom_no_false_negatives ]
      );
      ("redo log (sim)", Sim_redo.tests);
      ("redo log (domains)", Real_redo.tests);
      ("semantics (sim)", Sim_sem.tests);
      ("semantics (domains)", Real_sem.tests);
    ]
