(* Isolated single-thread probes on the real runtime, and the host
   calibration loop.  Each probe times [batches] batches of a fixed
   iteration count and reports the median per-iteration cost in ns. *)

module R = Tstm_runtime.Runtime_real
module Mono = Tstm_obs.Monotonic
module Intf = Tstm_tm.Tm_intf

let batches = 5

(* [body n] runs [n] iterations; one untimed batch warms it up. *)
let per_iter_ns ~iters body =
  body iters;
  Summary.median
    (List.init batches (fun _ ->
         let t0 = Mono.now_ns () in
         body iters;
         float_of_int (Mono.elapsed_ns ~since:t0) /. float_of_int iters))

(* The raw memory floor under a transactional read: one shared-word load
   and one compare-and-set of [Runtime_real]. *)
let runtime () =
  let words = 4096 in
  let a = R.sarray_make words 1 in
  let get_ns =
    per_iter_ns ~iters:2_000_000 (fun n ->
        let s = ref 0 in
        for i = 1 to n do
          s := !s + R.get a (i land (words - 1))
        done;
        ignore (Sys.opaque_identity !s))
  in
  let cas_ns =
    per_iter_ns ~iters:1_000_000 (fun n ->
        for i = 1 to n do
          ignore (Sys.opaque_identity (R.cas a (i land (words - 1)) 1 1))
        done)
  in
  (get_ns, cas_ns)

type iso = {
  read_ns : float;  (** per read of a 100-read transaction *)
  ro_read_ns : float;  (** same, [~read_only:true] *)
  empty_tx_ns : float;
  rmw10_tx_ns : float;  (** 10 read-modify-writes *)
}

let iso (module M : Intf.STM) =
  let t = M.create ~memory_words:(1 lsl 14) () in
  let base =
    M.atomically t (fun tx ->
        let b = M.alloc tx 128 in
        for i = 0 to 127 do
          M.write tx (b + i) i
        done;
        b)
  in
  let txs ?read_only body n =
    for _ = 1 to n do
      ignore (Sys.opaque_identity (M.atomically ?read_only t body))
    done
  in
  let read100 tx =
    let s = ref 0 in
    for i = 0 to 99 do
      s := !s + M.read tx (base + i)
    done;
    !s
  in
  let rmw10 tx =
    for i = 0 to 9 do
      M.write tx (base + i) (M.read tx (base + i) + 1)
    done
  in
  {
    read_ns = per_iter_ns ~iters:5_000 (txs read100) /. 100.0;
    ro_read_ns =
      per_iter_ns ~iters:5_000 (txs ~read_only:true read100) /. 100.0;
    empty_tx_ns = per_iter_ns ~iters:100_000 (txs (fun _ -> ()));
    rmw10_tx_ns = per_iter_ns ~iters:20_000 (txs rmw10);
  }

(* A fixed ALU loop, timed before every round: its rate (millions of
   iterations per second) moves with the host, not with the code under
   test, so a slow round that also shows a slow calibration is host noise. *)
let calibration_mips () =
  let iters = 2_000_000 in
  let t0 = Mono.now_ns () in
  let x = ref 88172645463325252 in
  for _ = 1 to iters do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  ignore (Sys.opaque_identity !x);
  float_of_int iters /. float_of_int (Mono.elapsed_ns ~since:t0) *. 1e3

(* A memory-bound companion to the ALU loop: random lookups in a
   65,536-entry [Map] of plain OCaml values, a pointer-chasing tree walk
   like rbtree-read's but with no STM code in it.  Millions of lookups per
   second. *)
module IM = Map.Make (Int)

let calibration_map =
  lazy
    (let g = Tstm_util.Xrand.create 11 in
     let m = ref IM.empty in
     for _ = 1 to 65536 do
       let k = 1 + Tstm_util.Xrand.int g 131072 in
       m := IM.add k k !m
     done;
     !m)

let calibration_map_mlps () =
  let m = Lazy.force calibration_map in
  let g = Tstm_util.Xrand.create 13 in
  let n = 200_000 in
  let t0 = Mono.now_ns () in
  let hits = ref 0 in
  for _ = 1 to n do
    if IM.mem (1 + Tstm_util.Xrand.int g 131072) m then incr hits
  done;
  ignore (Sys.opaque_identity !hits);
  float_of_int n /. float_of_int (Mono.elapsed_ns ~since:t0) *. 1e3
