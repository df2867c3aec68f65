(* Tests for NOrec's barriers: read-after-write through the redo log
   (including the very first write of a transaction and the writes a free
   makes), a random single-transaction property against a map model, ABA
   acceptance on fast-forward, and, in the simulator, the exact virtual
   cost of a warmed read in each of the two read phases.  TL2 sits next to
   it for contrast: its pre-write read pays the filter test. *)

module Norec = Tstm_norec.Norec
module Tl2 = Tstm_tl2.Tl2
module Bloom = Tstm_util.Bloom
module Stats = Tstm_tm.Tm_stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Semantics, on both runtimes                                         *)
(* ------------------------------------------------------------------ *)

module Semantics (R : Tstm_runtime.Runtime_intf.S) () = struct
  module T = Norec.Make (R)

  let make ?(words = 4096) () = T.create ~memory_words:words ()

  let test_read_after_write () =
    let t = make () in
    let a = T.atomically t (fun tx -> T.alloc tx 3) in
    T.atomically t (fun tx ->
        T.write tx a 10;
        T.write tx (a + 1) 20;
        T.write tx (a + 2) 30);
    T.atomically t (fun tx ->
        (* Before any write the log is empty: memory answers. *)
        check_int "pre-write read" 20 (T.read tx (a + 1));
        (* The very first written address, read with one log entry. *)
        T.write tx a 11;
        check_int "first written address" 11 (T.read tx a);
        check_int "unwritten neighbour" 20 (T.read tx (a + 1));
        T.write tx (a + 2) 31;
        T.write tx a 12;
        check_int "overwritten first address" 12 (T.read tx a);
        check_int "second written address" 31 (T.read tx (a + 2)));
    check_int "committed" (12 + 20 + 31)
      (T.atomically t (fun tx ->
           T.read tx a + T.read tx (a + 1) + T.read tx (a + 2)))

  (* A free rewrites every covered word through the write barrier, so a
     transaction whose first writes come from a free reads them back from
     its log; the values are the ones the words held. *)
  let test_read_after_free () =
    let t = make () in
    let a = T.atomically t (fun tx -> T.alloc tx 2) in
    T.atomically t (fun tx ->
        T.write tx a 7;
        T.write tx (a + 1) 8);
    let live = T.V.live_words (T.memory t) in
    T.atomically t (fun tx ->
        T.free tx a 2;
        check_int "first freed word" 7 (T.read tx a);
        check_int "second freed word" 8 (T.read tx (a + 1)));
    check_int "freed at commit" (live - 2) (T.V.live_words (T.memory t))

  (* One transaction of random reads and writes over [n] words against a
     map model: each read returns the newest write to that address in the
     transaction, else the committed value; memory matches the model after
     commit. *)
  let n = 16

  let prop_model =
    QCheck.Test.make ~name:"read/write sequence matches a map model"
      ~count:300
      QCheck.(list (pair (int_range 0 (n - 1)) (option small_nat)))
      (fun ops ->
        let t = make ~words:256 () in
        let a = T.atomically t (fun tx -> T.alloc tx n) in
        T.atomically t (fun tx ->
            for i = 0 to n - 1 do
              T.write tx (a + i) (1000 + i)
            done);
        let model = Hashtbl.create n in
        let value i =
          Option.value (Hashtbl.find_opt model i) ~default:(1000 + i)
        in
        let reads_ok =
          T.atomically t (fun tx ->
              List.for_all
                (fun (i, op) ->
                  match op with
                  | Some v ->
                      T.write tx (a + i) v;
                      Hashtbl.replace model i v;
                      true
                  | None -> T.read tx (a + i) = value i)
                ops)
        in
        reads_ok
        && T.atomically t (fun tx ->
               List.for_all (fun i -> T.read tx (a + i) = value i)
                 (List.init n Fun.id)))

  (* A writer changes a word the reader has logged and changes it back
     between the reader's two reads.  Value validation must accept the
     ABA'd word: the reader fast-forwards once and never aborts. *)
  let test_aba_fast_forward () =
    let t = make ~words:64 () in
    let a = T.atomically t (fun tx -> T.alloc tx 2) in
    T.atomically t (fun tx ->
        T.write tx a 1;
        T.write tx (a + 1) 1);
    T.reset_stats t;
    let read_x = Atomic.make false and written = Atomic.make false in
    let wait flag =
      while not (Atomic.get flag) do
        R.yield ()
      done
    in
    let seen = ref (0, 0) in
    R.run ~nthreads:2 (fun tid ->
        if tid = 0 then
          seen :=
            T.atomically t (fun tx ->
                let x = T.read tx a in
                Atomic.set read_x true;
                wait written;
                (x, T.read tx (a + 1)))
        else begin
          wait read_x;
          T.atomically t (fun tx -> T.write tx a 2);
          T.atomically t (fun tx -> T.write tx a 1);
          Atomic.set written true
        end);
    let s = T.stats t in
    check_bool "reader saw (1, 1)" true (!seen = (1, 1));
    check_int "no abort" 0 (Stats.aborts s);
    check_int "one fast-forward" 1 s.Stats.extensions

  let tests =
    [
      Alcotest.test_case "read after write" `Quick test_read_after_write;
      Alcotest.test_case "read after free" `Quick test_read_after_free;
      Alcotest.test_case "ABA accepted on fast-forward" `Quick
        test_aba_fast_forward;
      QCheck_alcotest.to_alcotest prop_model;
    ]
end

module Sim_sem = Semantics (Tstm_runtime.Runtime_sim) ()
module Real_sem = Semantics (Tstm_runtime.Runtime_real) ()

(* ------------------------------------------------------------------ *)
(* Read-barrier cost in the simulator                                  *)
(* ------------------------------------------------------------------ *)

module R = Tstm_runtime.Runtime_sim
module N = Norec.Make (R)
module L = Tl2.Make (R)

(* The cost model's pieces: the barrier's bookkeeping [c_op], the redo
   log's filter test [c_bloom], NOrec's sequence-word sample [c_seq] and
   a private-cache hit. *)
let c_op = 4
let c_bloom = 3
let c_seq = 1
let hit = Tstm_runtime.Cache_model.default.Tstm_runtime.Cache_model.read_hit

let cycles f =
  let t0 = R.now_cycles () in
  let v = f () in
  (v, R.now_cycles () - t0)

(* [b] is the written address; [a], the one re-read, must be rejected by a
   filter holding only [b], so its post-write lookup is the filter test
   alone. *)
let filter_rejects ~written a =
  let f = Bloom.create () in
  Bloom.add f written;
  not (Bloom.may_contain f a)

(* A warmed read (its memory line and the sequence word already in the
   private cache) costs [c_op], the value load, [c_seq] and the sequence
   load before the first write; after it, the same read also pays the
   filter test. *)
let test_norec_read_phases () =
  let t = N.create ~memory_words:256 () in
  let a = N.atomically t (fun tx -> N.alloc tx 2) in
  let b = a + 1 in
  check_bool "filter holding b rejects a" true (filter_rejects ~written:b a);
  R.run ~nthreads:1 (fun _ ->
      N.atomically t (fun tx ->
          ignore (N.read tx a);
          let _, pre = cycles (fun () -> N.read tx a) in
          check_int "warmed pre-write read" (c_op + hit + c_seq + hit) pre;
          N.write tx b 5;
          let _, post = cycles (fun () -> N.read tx a) in
          check_int "warmed read after the first write"
            (c_op + c_bloom + hit + c_seq + hit)
            post;
          let v, own = cycles (fun () -> N.read tx b) in
          check_int "own write" 5 v;
          (* Filter hit, then a one-entry scan at [c_scan] = 1. *)
          check_int "read of the written address" (c_op + c_bloom + 1) own))

(* TL2 keeps the filter test on every read of an update transaction,
   before the first write too; only a read-only transaction skips it. *)
let test_tl2_pre_write_read () =
  let t = L.create ~n_locks:256 ~memory_words:256 () in
  let a = L.atomically t (fun tx -> L.alloc tx 1) in
  R.run ~nthreads:1 (fun _ ->
      let ro =
        L.atomically ~read_only:true t (fun tx ->
            ignore (L.read tx a);
            snd (cycles (fun () -> L.read tx a)))
      in
      let rw =
        L.atomically t (fun tx ->
            ignore (L.read tx a);
            snd (cycles (fun () -> L.read tx a)))
      in
      (* Lock word, value, lock word again. *)
      check_int "read-only read" (c_op + (3 * hit)) ro;
      check_int "update-transaction pre-write read" (ro + c_bloom) rw)

let () =
  Alcotest.run "tstm_norec"
    [
      ("semantics (sim)", Sim_sem.tests);
      ("semantics (domains)", Real_sem.tests);
      ( "read-barrier cost (sim)",
        [
          Alcotest.test_case "norec: c_bloom only after the first write"
            `Quick test_norec_read_phases;
          Alcotest.test_case "tl2: pre-write read pays c_bloom" `Quick
            test_tl2_pre_write_read;
        ] );
    ]
