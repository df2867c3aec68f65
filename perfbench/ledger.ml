(* Span ledger for the traced benchmark run.

   [Traced (R) (M)] wraps an STM at the [Tm_intf.TM] boundary: each
   [atomically], each entry into its callback (one attempt) and each
   [read]/[write]/[alloc]/[free] becomes a span.  The benchmark loop adds
   one [Op] span around every [Driver.step].  Spans carry a kind, start,
   end and parent; the op a span belongs to is the root of its parent
   chain.  They are appended to per-thread buffers while the phase runs
   and only turned into the ledger ([analyse]) after it ends.

   Timestamps come from [R.now_cycles]: wall-clock nanoseconds on the real
   runtime, virtual cycles in the simulator, where reading the clock
   charges nothing, so a traced simulation takes exactly the same schedule
   as an untraced one. *)

module Intf = Tstm_tm.Tm_intf

type kind = Op | Atomically | Attempt | Read | Write | Alloc | Free

let kind_code = function
  | Op -> 0
  | Atomically -> 1
  | Attempt -> 2
  | Read -> 3
  | Write -> 4
  | Alloc -> 5
  | Free -> 6

let code_kind = [| Op; Atomically; Attempt; Read; Write; Alloc; Free |]

module A = Bigarray.Array1

type arr = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

(* One thread's spans, in opening order, so a parent always precedes its
   children.  Span [i] occupies words [3i .. 3i+2] of [a]: the parent index
   (-1 for roots) packed with the kind, the start and the end.  Keeping a
   span's words adjacent costs one cache line fill per span, and a bigarray
   stays out of the GC's marking work. *)
type buf = {
  mutable n : int;
  mutable a : arr;
  mutable cur_op : int;  (* open Op span, parent of the next atomically *)
}

let make_arr spans : arr = A.create Bigarray.int Bigarray.c_layout (3 * spans)
let fresh_buf () = { n = 0; a = make_arr (1 lsl 12); cur_op = -1 }

let grow b =
  let a' = make_arr (2 * b.n) in
  A.blit b.a (A.sub a' 0 (A.dim b.a));
  b.a <- a'

let open_span b kind parent t0 =
  let i = b.n in
  if 3 * i = A.dim b.a then grow b;
  A.unsafe_set b.a (3 * i) (((parent + 1) lsl 3) lor kind_code kind);
  A.unsafe_set b.a ((3 * i) + 1) t0;
  A.unsafe_set b.a ((3 * i) + 2) t0;
  b.n <- i + 1;
  i

let close_span b i t1 = A.unsafe_set b.a ((3 * i) + 2) t1

(* Simulated CPUs and real domains both have dense tids below this. *)
let max_threads = 64

let bufs = Array.init max_threads (fun _ -> fresh_buf ())
let recording = ref false

let start () =
  Array.iteri (fun i _ -> bufs.(i) <- fresh_buf ()) bufs;
  recording := true

let stop () = recording := false
let spans tid = bufs.(tid).n

(* Release the span memory once a phase has been analysed. *)
let clear () = Array.iteri (fun i _ -> bufs.(i) <- fresh_buf ()) bufs

module Traced
    (R : Tstm_runtime.Runtime_intf.S)
    (M : Intf.TM) : Intf.TM with type t = M.t = struct
  type t = M.t

  (* [att] is the attempt span the barriers hang under; -1 when the
     transaction runs untraced (population, integrity checks). *)
  type tx = { tx : M.tx; b : buf; att : int }

  let name = M.name
  let stats = M.stats
  let reset_stats = M.reset_stats

  (* Run [f i] inside a fresh span [i], closing it however [f] exits. *)
  let span b kind parent f =
    let i = open_span b kind parent (R.now_cycles ()) in
    match f i with
    | v ->
        close_span b i (R.now_cycles ());
        v
    | exception e ->
        close_span b i (R.now_cycles ());
        raise e

  (* The barriers are spelled out rather than passed a closure: a traced
     read must not allocate, or tracing cost would be dominated by minor
     collections, which stop every domain. *)
  let read tx a =
    if tx.att < 0 then M.read tx.tx a
    else
      let i = open_span tx.b Read tx.att (R.now_cycles ()) in
      match M.read tx.tx a with
      | v ->
          close_span tx.b i (R.now_cycles ());
          v
      | exception e ->
          close_span tx.b i (R.now_cycles ());
          raise e

  let write tx a v =
    if tx.att < 0 then M.write tx.tx a v
    else
      let i = open_span tx.b Write tx.att (R.now_cycles ()) in
      match M.write tx.tx a v with
      | () -> close_span tx.b i (R.now_cycles ())
      | exception e ->
          close_span tx.b i (R.now_cycles ());
          raise e

  let alloc tx n =
    if tx.att < 0 then M.alloc tx.tx n
    else span tx.b Alloc tx.att (fun _ -> M.alloc tx.tx n)

  let free tx a n =
    if tx.att < 0 then M.free tx.tx a n
    else span tx.b Free tx.att (fun _ -> M.free tx.tx a n)

  let atomically ?read_only t f =
    if not !recording then
      M.atomically ?read_only t (fun tx -> f { tx; b = bufs.(0); att = -1 })
    else
      let b = bufs.(R.tid ()) in
      span b Atomically b.cur_op (fun a ->
          M.atomically ?read_only t (fun tx ->
              span b Attempt a (fun att -> f { tx; b; att })))
end

(* Run one benchmark operation (a [Driver.step]) inside an [Op] span on
   thread [tid]'s buffer, as the parent of the atomically it calls. *)
let with_op tid now f =
  let b = bufs.(tid) in
  let o = open_span b Op (-1) (now ()) in
  b.cur_op <- o;
  f ();
  b.cur_op <- -1;
  close_span b o (now ())

(* ------------------------------------------------------------------ *)
(* The ledger: self times and counts derived from the spans            *)
(* ------------------------------------------------------------------ *)

type t = {
  mutable ops : int;
  mutable op_durs : int list;  (* one entry per op span *)
  mutable atomics : int;
  mutable atomic_time : int;
  mutable atomic_self : int;  (* atomically minus its attempts *)
  mutable attempts : int;
  mutable attempt_self : int;  (* attempts minus their barriers *)
  mutable wasted : int;  (* first attempt start -> last attempt start *)
  mutable reads : int;
  mutable read_time : int;
  mutable writes : int;
  mutable write_time : int;
  mutable allocs_frees : int;
  mutable alloc_free_time : int;
}

let create () =
  {
    ops = 0;
    op_durs = [];
    atomics = 0;
    atomic_time = 0;
    atomic_self = 0;
    attempts = 0;
    attempt_self = 0;
    wasted = 0;
    reads = 0;
    read_time = 0;
    writes = 0;
    write_time = 0;
    allocs_frees = 0;
    alloc_free_time = 0;
  }

(* Fold the spans of threads [0 .. nthreads-1] into [l].  One pass per
   buffer: a span's duration is added to its parent's child time, which is
   complete once the pass ends because children follow their parent. *)
let analyse l ~nthreads =
  for tid = 0 to nthreads - 1 do
    let b = bufs.(tid) in
    let n = b.n in
    let child = Array.make n 0 in
    let start i = A.get b.a ((3 * i) + 1) in
    let dur i = A.get b.a ((3 * i) + 2) - start i in
    let kind i = code_kind.(A.get b.a (3 * i) land 7) in
    let parent i = (A.get b.a (3 * i) lsr 3) - 1 in
    (* Per atomically: start of its first and of its last attempt. *)
    let first = Array.make n (-1) and last = Array.make n 0 in
    for i = 0 to n - 1 do
      let p = parent i in
      if p >= 0 then child.(p) <- child.(p) + dur i;
      match kind i with
      | Attempt ->
          if first.(p) < 0 then first.(p) <- start i;
          last.(p) <- start i
      | _ -> ()
    done;
    for i = 0 to n - 1 do
      let d = dur i in
      match kind i with
      | Op ->
          l.ops <- l.ops + 1;
          l.op_durs <- d :: l.op_durs
      | Atomically ->
          l.atomics <- l.atomics + 1;
          l.atomic_time <- l.atomic_time + d;
          l.atomic_self <- l.atomic_self + d - child.(i);
          if first.(i) >= 0 then l.wasted <- l.wasted + last.(i) - first.(i)
      | Attempt ->
          l.attempts <- l.attempts + 1;
          l.attempt_self <- l.attempt_self + d - child.(i)
      | Read ->
          l.reads <- l.reads + 1;
          l.read_time <- l.read_time + d
      | Write ->
          l.writes <- l.writes + 1;
          l.write_time <- l.write_time + d
      | Alloc | Free ->
          l.allocs_frees <- l.allocs_frees + 1;
          l.alloc_free_time <- l.alloc_free_time + d
    done
  done
