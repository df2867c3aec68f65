(* Tests for the virtual word memory: bounds, allocator recycling, spatial
   locality of the bump allocator, thread safety under both runtimes. *)

module Vmm_sim = Tstm_vmm.Vmm.Make (Tstm_runtime.Runtime_sim)
module Vmm_real = Tstm_vmm.Vmm.Make (Tstm_runtime.Runtime_real)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Reference model: one bump pointer and one LIFO free list per size
   class up to 256 words, over an arena of [capacity] words.  A request
   that does not fit raises [Out_of_memory] and claims nothing. *)
module Ref = struct
  type t = { capacity : int; mutable bump : int; lists : (int, int list) Hashtbl.t }

  let create capacity = { capacity; bump = 1; lists = Hashtbl.create 16 }

  let alloc r n =
    match Hashtbl.find_opt r.lists n with
    | Some (a :: rest) when n <= 256 ->
        Hashtbl.replace r.lists n rest;
        a
    | _ ->
        if r.bump + n - 1 > r.capacity then raise Out_of_memory;
        let a = r.bump in
        r.bump <- a + n;
        a

  let free r a n =
    if n <= 256 then
      Hashtbl.replace r.lists n
        (a :: Option.value ~default:[] (Hashtbl.find_opt r.lists n))
end

module Common (R : Tstm_runtime.Runtime_intf.S) (V : module type of Tstm_vmm.Vmm.Make (R)) =
struct
  let test_load_store () =
    let m = V.create ~words:100 in
    V.store m 5 99;
    check_int "load" 99 (V.load m 5);
    check_int "others 0" 0 (V.load m 6)

  let test_null_reserved () =
    let m = V.create ~words:10 in
    check_int "null" 0 V.null;
    Alcotest.check_raises "store null"
      (Invalid_argument "Vmm: address 0 out of bounds") (fun () ->
        V.store m V.null 1);
    let a = V.alloc m 1 in
    check_bool "alloc never returns null" true (a <> V.null)

  let test_bounds () =
    let m = V.create ~words:10 in
    Alcotest.check_raises "past end"
      (Invalid_argument "Vmm: address 11 out of bounds") (fun () ->
        ignore (V.load m 11));
    V.store m 10 1;
    check_int "last word usable" 1 (V.load m 10)

  let test_alloc_adjacent () =
    (* Consecutive allocations must be adjacent: the #shifts tuning parameter
       depends on this spatial locality. *)
    let m = V.create ~words:1000 in
    let a = V.alloc m 4 in
    let b = V.alloc m 4 in
    let c = V.alloc m 4 in
    check_int "b after a" (a + 4) b;
    check_int "c after b" (b + 4) c

  let test_alloc_distinct () =
    let m = V.create ~words:1000 in
    let seen = Hashtbl.create 64 in
    for _ = 1 to 50 do
      let a = V.alloc m 3 in
      for w = a to a + 2 do
        check_bool "word not double-allocated" false (Hashtbl.mem seen w);
        Hashtbl.replace seen w ()
      done
    done

  let test_free_recycles () =
    let m = V.create ~words:100 in
    let a = V.alloc m 8 in
    V.free m a 8;
    let b = V.alloc m 8 in
    check_int "same block recycled" a b

  let test_free_lists_per_class () =
    let m = V.create ~words:1000 in
    let a2 = V.alloc m 2 in
    let a3 = V.alloc m 3 in
    V.free m a2 2;
    V.free m a3 3;
    check_int "class 3 pops its own" a3 (V.alloc m 3);
    check_int "class 2 pops its own" a2 (V.alloc m 2)

  let test_live_words () =
    let m = V.create ~words:100 in
    check_int "empty" 0 (V.live_words m);
    let a = V.alloc m 10 in
    check_int "after alloc" 10 (V.live_words m);
    let b = V.alloc m 5 in
    check_int "after second" 15 (V.live_words m);
    V.free m a 10;
    check_int "after free" 5 (V.live_words m);
    V.free m b 5;
    check_int "empty again" 0 (V.live_words m);
    check_int "total counts recycling" 15 (V.allocated_since_start m)

  let test_large_blocks_bump_only () =
    (* Blocks beyond the free-list class limit (256 words) are bump-only:
       freeing them updates accounting but never recycles the space. *)
    let m = V.create ~words:2048 in
    let a = V.alloc m 300 in
    V.free m a 300;
    check_int "accounting updated" 0 (V.live_words m);
    let b = V.alloc m 300 in
    check_bool "not recycled" true (b <> a)

  let test_out_of_memory () =
    let m = V.create ~words:10 in
    ignore (V.alloc m 8);
    Alcotest.check_raises "exhausted" Out_of_memory (fun () ->
        ignore (V.alloc m 8))

  let test_free_out_of_range () =
    let m = V.create ~words:100 in
    let rejects msg f =
      match f () with
      | () -> Alcotest.failf "%s: accepted" msg
      | exception Invalid_argument _ -> ()
    in
    rejects "free at null" (fun () -> V.free m 0 4);
    rejects "free below range" (fun () -> V.free m (-3) 4);
    rejects "free past end" (fun () -> V.free m 101 2);
    rejects "free straddling end" (fun () -> V.free m 99 4);
    rejects "free of size 0" (fun () -> V.free m 5 0);
    (* A rejected free must not disturb the live-word accounting. *)
    let a = V.alloc m 8 in
    let live = V.live_words m in
    rejects "free straddling end after alloc" (fun () -> V.free m 99 4);
    check_int "accounting intact after rejection" live (V.live_words m);
    V.free m a 8

  let test_double_free_detected () =
    let m = V.create ~words:1000 in
    let a = V.alloc m 4 in
    V.free m a 4;
    (match V.free m a 4 with
    | () -> Alcotest.fail "double free accepted"
    | exception Invalid_argument _ -> ());
    check_int "accounting not corrupted by double free" 0 (V.live_words m);
    (* The block is still recyclable exactly once. *)
    check_int "block recycled once" a (V.alloc m 4);
    let b = V.alloc m 4 in
    check_bool "not handed out twice" true (b <> a)

  let test_double_free_deep_in_list () =
    (* The duplicate need not be the list head: free three blocks, then
       re-free the first one pushed (now deepest in the free list). *)
    let m = V.create ~words:1000 in
    let a = V.alloc m 4 in
    let b = V.alloc m 4 in
    let c = V.alloc m 4 in
    V.free m a 4;
    V.free m b 4;
    V.free m c 4;
    (match V.free m a 4 with
    | () -> Alcotest.fail "deep double free accepted"
    | exception Invalid_argument _ -> ());
    check_int "accounting intact" 0 (V.live_words m)

  let rejects_invalid msg f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" msg
    | exception Invalid_argument _ -> ()

  let test_large_free_validated () =
    (* Large (non-recyclable) blocks are tracked by extent, so their frees
       are validated even without a free list to scan. *)
    let m = V.create ~words:4096 in
    let a = V.alloc m 300 in
    rejects_invalid "never-allocated large free" (fun () ->
        V.free m (a + 1) 300);
    rejects_invalid "mismatched-size large free" (fun () -> V.free m a 301);
    check_int "rejections left accounting intact" 300 (V.live_words m);
    V.free m a 300;
    check_int "valid free accounted" 0 (V.live_words m)

  let test_large_double_free () =
    let m = V.create ~words:4096 in
    let a = V.alloc m 300 in
    V.free m a 300;
    rejects_invalid "large double free" (fun () -> V.free m a 300);
    check_int "accounting not corrupted" 0 (V.live_words m)

  let test_large_extent_per_block () =
    (* Distinct large blocks are tracked independently; freeing one must
       not disturb the other's extent. *)
    let m = V.create ~words:4096 in
    let a = V.alloc m 300 in
    let b = V.alloc m 400 in
    V.free m a 300;
    rejects_invalid "first block already freed" (fun () -> V.free m a 300);
    V.free m b 400;
    check_int "both accounted" 0 (V.live_words m)

  let test_parallel_alloc_no_overlap () =
    let m = V.create ~words:100_000 in
    let n = 4 and per = 200 in
    let results = Array.make (n * per) 0 in
    R.run ~nthreads:n (fun tid ->
        for j = 0 to per - 1 do
          results.((tid * per) + j) <- V.alloc m 5
        done);
    let seen = Hashtbl.create 1024 in
    Array.iter
      (fun base ->
        for w = base to base + 4 do
          check_bool "no overlap" false (Hashtbl.mem seen w);
          Hashtbl.replace seen w ()
        done)
      results

  let test_parallel_alloc_free_churn () =
    let m = V.create ~words:50_000 in
    let n = 4 in
    R.run ~nthreads:n (fun tid ->
        let g = Tstm_util.Xrand.create (100 + tid) in
        let mine = ref [] in
        for _ = 1 to 300 do
          if Tstm_util.Xrand.bool g || !mine = [] then
            mine := V.alloc m 4 :: !mine
          else
            match !mine with
            | a :: rest ->
                V.free m a 4;
                mine := rest
            | [] -> ()
        done;
        List.iter (fun a -> V.free m a 4) !mine);
    check_int "all freed" 0 (V.live_words m)

  (* Run [f] on thread [tid] of a two-thread run (the other thread idles),
     so each step below happens on a known thread, in a known order. *)
  let on tid f = R.run ~nthreads:2 (fun me -> if me = tid then f ())

  let test_cross_thread_double_free () =
    let m = V.create ~words:4096 in
    let a = ref V.null in
    on 0 (fun () -> a := V.alloc m 4);
    on 1 (fun () -> V.free m !a 4);
    rejects_invalid "thread 0 frees a block thread 1 already freed" (fun () ->
        on 0 (fun () -> V.free m !a 4));
    check_int "accounting intact" 0 (V.live_words m);
    (* The block sits in thread 1's cache: thread 0 gets a fresh one, thread
       1 gets it back, exactly once. *)
    let b = ref V.null and c = ref V.null and d = ref V.null in
    on 0 (fun () -> b := V.alloc m 4);
    on 1 (fun () -> c := V.alloc m 4);
    on 1 (fun () -> d := V.alloc m 4);
    check_bool "not handed to thread 0" true (!b <> !a);
    check_int "recycled by the freeing thread" !a !c;
    check_bool "handed out once" true (!d <> !a && !d <> !b)

  let test_double_free_after_spill () =
    (* Thread 1 frees the block first and then enough others to spill it
       (the oldest) to the shared list: the second free is still caught. *)
    let m = V.create ~words:4096 in
    let a = ref V.null and rest = ref [] in
    on 0 (fun () ->
        a := V.alloc m 2;
        rest := List.init 40 (fun _ -> V.alloc m 2));
    on 1 (fun () ->
        V.free m !a 2;
        List.iter (fun b -> V.free m b 2) !rest);
    rejects_invalid "double free of a spilled block" (fun () ->
        on 0 (fun () -> V.free m !a 2));
    rejects_invalid "double free of a cached block" (fun () ->
        on 0 (fun () -> V.free m (List.nth !rest 39) 2));
    check_int "accounting intact" 0 (V.live_words m)

  let test_oom_claims_nothing () =
    (* A request that does not fit leaves the remaining words allocatable. *)
    let m = V.create ~words:10 in
    ignore (V.alloc m 8);
    Alcotest.check_raises "exhausted" Out_of_memory (fun () ->
        ignore (V.alloc m 3));
    check_int "the last two words still fit" 9 (V.alloc m 2);
    Alcotest.check_raises "now full" Out_of_memory (fun () ->
        ignore (V.alloc m 1))

  let test_reference_trace () =
    (* Fill, drain (spilling most of the blocks) and refill a class, with
       larger classes interleaved: one thread sees the reference
       allocator's addresses throughout. *)
    let m = V.create ~words:100_000 and r = Ref.create 100_000 in
    let both n =
      let a = V.alloc m n in
      check_int (Printf.sprintf "alloc %d" n) (Ref.alloc r n) a;
      a
    in
    let free a n =
      V.free m a n;
      Ref.free r a n
    in
    for round = 1 to 3 do
      let small = List.init 100 (fun i -> (both (2 + (i mod 3)), 2 + (i mod 3))) in
      let big = List.init 5 (fun i -> (both (40 * i + round), 40 * i + round)) in
      List.iter (fun (a, n) -> free a n) (List.rev big);
      List.iter (fun (a, n) -> free a n) small
    done;
    check_int "accounting" 0 (V.live_words m)

  let test_cross_thread_handoff () =
    (* Even threads allocate and hand their blocks over through shared
       slots; odd threads free what they take.  The freeing threads' own
       lists keep spilling to the shared lists, which the allocating
       threads then pop concurrently.  Every word of a live block is
       claimed by CAS in an owner map: a block handed out twice, or
       overlapping another, fails the claim. *)
    let words = 200_000 in
    let m = V.create ~words in
    let owner = R.sarray_make (words + 1) (-1) in
    let slots = R.sarray_make 32 0 in
    let overlaps = R.sarray_make 1 0 in
    let give_back v =
      let a = v / 4 and n = v mod 4 in
      for w = a to a + n - 1 do
        R.set owner w (-1)
      done;
      V.free m a n
    in
    R.run ~nthreads:4 (fun tid ->
        let g = Tstm_util.Xrand.create (7 + tid) in
        for _ = 1 to 3_000 do
          let s = Tstm_util.Xrand.int g 32 in
          if tid mod 2 = 0 then begin
            let n = 1 + Tstm_util.Xrand.int g 3 in
            let a = V.alloc m n in
            for w = a to a + n - 1 do
              if not (R.cas owner w (-1) tid) then
                ignore (R.fetch_add overlaps 0 1)
            done;
            if not (R.cas slots s 0 ((a * 4) + n)) then give_back ((a * 4) + n)
          end
          else
            let v = R.get slots s in
            if v <> 0 && R.cas slots s v 0 then give_back v
        done);
    for s = 0 to 31 do
      let v = R.get slots s in
      if v <> 0 then give_back v
    done;
    check_int "no block handed out twice" 0 (R.get overlaps 0);
    check_int "all freed" 0 (V.live_words m)

  let tests =
    [
      Alcotest.test_case "load/store" `Quick test_load_store;
      Alcotest.test_case "null reserved" `Quick test_null_reserved;
      Alcotest.test_case "bounds" `Quick test_bounds;
      Alcotest.test_case "adjacent allocation" `Quick test_alloc_adjacent;
      Alcotest.test_case "distinct blocks" `Quick test_alloc_distinct;
      Alcotest.test_case "free recycles" `Quick test_free_recycles;
      Alcotest.test_case "per-class free lists" `Quick
        test_free_lists_per_class;
      Alcotest.test_case "live accounting" `Quick test_live_words;
      Alcotest.test_case "large blocks bump-only" `Quick
        test_large_blocks_bump_only;
      Alcotest.test_case "out of memory" `Quick test_out_of_memory;
      Alcotest.test_case "free out of range" `Quick test_free_out_of_range;
      Alcotest.test_case "double free detected" `Quick
        test_double_free_detected;
      Alcotest.test_case "large free validated" `Quick
        test_large_free_validated;
      Alcotest.test_case "large double free" `Quick test_large_double_free;
      Alcotest.test_case "large extents per block" `Quick
        test_large_extent_per_block;
      Alcotest.test_case "double free deep in list" `Quick
        test_double_free_deep_in_list;
      Alcotest.test_case "parallel alloc" `Quick test_parallel_alloc_no_overlap;
      Alcotest.test_case "parallel churn" `Quick test_parallel_alloc_free_churn;
      Alcotest.test_case "cross-thread double free" `Quick
        test_cross_thread_double_free;
      Alcotest.test_case "double free after a spill" `Quick
        test_double_free_after_spill;
      Alcotest.test_case "out of memory claims nothing" `Quick
        test_oom_claims_nothing;
      Alcotest.test_case "single thread = reference allocator" `Quick
        test_reference_trace;
      Alcotest.test_case "cross-thread hand-off" `Quick
        test_cross_thread_handoff;
    ]
end

module Sim_tests = Common (Tstm_runtime.Runtime_sim) (Vmm_sim)
module Real_tests = Common (Tstm_runtime.Runtime_real) (Vmm_real)

(* qcheck: a random alloc/free trace never double-allocates a live word and
   live accounting stays consistent. *)
let prop_alloc_free_trace =
  QCheck.Test.make ~name:"random alloc/free trace keeps invariants" ~count:60
    QCheck.(list (pair bool (int_range 1 20)))
    (fun ops ->
      let m = Vmm_sim.create ~words:100_000 in
      let live = Hashtbl.create 64 in
      let blocks = ref [] in
      let expected_live = ref 0 in
      List.iter
        (fun (is_alloc, size) ->
          if is_alloc || !blocks = [] then begin
            let a = Vmm_sim.alloc m size in
            for w = a to a + size - 1 do
              if Hashtbl.mem live w then failwith "double allocation";
              Hashtbl.replace live w ()
            done;
            blocks := (a, size) :: !blocks;
            expected_live := !expected_live + size
          end
          else
            match !blocks with
            | (a, s) :: rest ->
                for w = a to a + s - 1 do
                  Hashtbl.remove live w
                done;
                Vmm_sim.free m a s;
                blocks := rest;
                expected_live := !expected_live - s
            | [] -> ())
        ops;
      Vmm_sim.live_words m = !expected_live)

(* qcheck: whatever a single thread does, the allocator returns exactly
   the reference model's addresses and raises [Out_of_memory] exactly when
   it does.  Frees pick a random live block; sizes cover the cached
   classes, the shared-only classes and the large blocks. *)
type op = Alloc of int | Free of int

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 400)
      (frequency
         [
           (4, map (fun n -> Alloc n) (int_range 1 8));
           (1, map (fun n -> Alloc n) (int_range 9 300));
           (4, map (fun i -> Free i) nat);
         ]))

let arb_trace =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap
        (String.concat " "
           (List.map
              (function
                | Alloc n -> Printf.sprintf "a%d" n | Free i -> Printf.sprintf "f%d" i)
              ops)))
    QCheck.Gen.(pair (int_range 1 3000) gen_ops)

let prop_reference_model =
  QCheck.Test.make ~name:"single thread = reference allocator" ~count:200
    arb_trace (fun (cap, ops) ->
      let m = Vmm_sim.create ~words:cap and r = Ref.create cap in
      let live = ref [] in
      List.iter
        (function
          | Alloc n -> (
              match Ref.alloc r n with
              | a ->
                  if Vmm_sim.alloc m n <> a then failwith "address differs";
                  live := (a, n) :: !live
              | exception Out_of_memory -> (
                  match Vmm_sim.alloc m n with
                  | _ -> failwith "allocated past the reference"
                  | exception Out_of_memory -> ()))
          | Free i -> (
              match !live with
              | [] -> ()
              | l ->
                  let a, n = List.nth l (i mod List.length l) in
                  live := List.filter (fun (b, _) -> b <> a) l;
                  Vmm_sim.free m a n;
                  Ref.free r a n))
        ops;
      Vmm_sim.live_words m = List.fold_left (fun s (_, n) -> s + n) 0 !live)

(* qcheck: simulated threads allocating and freeing (also each other's
   blocks) until the arena runs dry never get a block reaching past
   [capacity], and never two overlapping live blocks. *)
let prop_within_capacity =
  QCheck.Test.make ~name:"no block extends past capacity" ~count:100
    QCheck.(triple (int_range 1 2000) (int_range 1 4) small_nat)
    (fun (cap, nthreads, seed) ->
      let m = Vmm_sim.create ~words:cap in
      let live = Hashtbl.create 64 and pool = ref [] in
      let ok = ref true in
      Tstm_runtime.Runtime_sim.run ~nthreads (fun tid ->
          let g = Tstm_util.Xrand.create ((seed * 8) + tid) in
          for _ = 1 to 200 do
            if Tstm_util.Xrand.int g 3 > 0 || !pool = [] then begin
              let n =
                if Tstm_util.Xrand.int g 10 = 0 then 1 + Tstm_util.Xrand.int g 300
                else 1 + Tstm_util.Xrand.int g 20
              in
              match Vmm_sim.alloc m n with
              | a ->
                  if a < 1 || a + n - 1 > cap then ok := false;
                  for w = a to a + n - 1 do
                    if Hashtbl.mem live w then ok := false;
                    Hashtbl.replace live w ()
                  done;
                  pool := (a, n) :: !pool
              | exception Out_of_memory -> ()
            end
            else begin
              let l = !pool in
              let a, n = List.nth l (Tstm_util.Xrand.int g (List.length l)) in
              pool := List.filter (fun (b, _) -> b <> a) l;
              for w = a to a + n - 1 do
                Hashtbl.remove live w
              done;
              Vmm_sim.free m a n
            end
          done);
      !ok
      && Vmm_sim.live_words m = List.fold_left (fun s (_, n) -> s + n) 0 !pool)

let () =
  Alcotest.run "tstm_vmm"
    [
      ("sim", Sim_tests.tests);
      ("domains", Real_tests.tests);
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_alloc_free_trace; prop_reference_model; prop_within_capacity ]
      );
    ]
