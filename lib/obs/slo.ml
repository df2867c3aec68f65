(* Request-level SLO accounting: verdict counters plus two latency
   histograms (in-deadline commits; every executed request).  Log2 buckets
   keep recording cheap enough for hot paths and make p999 as cheap as p50;
   the conservative upper-bound percentile of [Histo] keeps assertions
   deterministic. *)

type verdict =
  | Committed
  | Late
  | Gave_up
  | Dropped
  | Budget_exhausted
  | Shed
  | Faulted
  | Tripped

type t = {
  lat_ok : Histo.t;  (* in-deadline commits *)
  lat_done : Histo.t;  (* every executed request (incl. late, give-ups) *)
  mutable committed : int;
  mutable late : int;
  mutable gave_up : int;
  mutable dropped : int;
  mutable budget_exhausted : int;
  mutable shed : int;
  mutable faulted : int;
  mutable tripped : int;
}

let create () =
  {
    lat_ok = Histo.create ();
    lat_done = Histo.create ();
    committed = 0;
    late = 0;
    gave_up = 0;
    dropped = 0;
    budget_exhausted = 0;
    shed = 0;
    faulted = 0;
    tripped = 0;
  }

let note t v ~lat_cycles =
  match v with
  | Committed ->
      t.committed <- t.committed + 1;
      Histo.record t.lat_ok lat_cycles;
      Histo.record t.lat_done lat_cycles
  | Late ->
      t.late <- t.late + 1;
      Histo.record t.lat_done lat_cycles
  | Gave_up ->
      t.gave_up <- t.gave_up + 1;
      Histo.record t.lat_done lat_cycles
  | Dropped ->
      t.dropped <- t.dropped + 1;
      Histo.record t.lat_done lat_cycles
  | Budget_exhausted ->
      t.budget_exhausted <- t.budget_exhausted + 1;
      Histo.record t.lat_done lat_cycles
  | Shed -> t.shed <- t.shed + 1
  | Faulted ->
      t.faulted <- t.faulted + 1;
      Histo.record t.lat_done lat_cycles
  | Tripped -> t.tripped <- t.tripped + 1

type summary = {
  requests : int;
  admitted : int;
  shed : int;
  committed : int;
  late : int;
  gave_up : int;
  dropped : int;
  budget_exhausted : int;
  faulted : int;
  tripped : int;
  deadline_missed : int;
  p50 : int;
  p99 : int;
  p999 : int;
  max_latency : int;
  mean : float;
  p99_done : int;
}

let summary (t : t) =
  let deadline_missed = t.late + t.gave_up + t.dropped in
  let admitted =
    t.committed + deadline_missed + t.budget_exhausted + t.faulted
  in
  {
    requests = admitted + t.shed + t.tripped;
    admitted;
    shed = t.shed;
    committed = t.committed;
    late = t.late;
    gave_up = t.gave_up;
    dropped = t.dropped;
    budget_exhausted = t.budget_exhausted;
    faulted = t.faulted;
    tripped = t.tripped;
    deadline_missed;
    p50 = Histo.percentile t.lat_ok 50.0;
    p99 = Histo.percentile t.lat_ok 99.0;
    p999 = Histo.percentile t.lat_ok 99.9;
    max_latency = Histo.max_value t.lat_ok;
    mean = Histo.mean t.lat_ok;
    p99_done = Histo.percentile t.lat_done 99.0;
  }

let columns =
  [
    "period";
    "t_end_s";
    "requests";
    "admitted";
    "shed";
    "committed";
    "late";
    "gave_up";
    "dropped";
    "budget_exhausted";
    "p50_cycles";
    "p99_cycles";
    "p999_cycles";
  ]

let row ~period ~t_end s =
  [|
    float_of_int period;
    t_end;
    float_of_int s.requests;
    float_of_int s.admitted;
    float_of_int s.shed;
    float_of_int s.committed;
    float_of_int s.late;
    float_of_int s.gave_up;
    float_of_int s.dropped;
    float_of_int s.budget_exhausted;
    float_of_int s.p50;
    float_of_int s.p99;
    float_of_int s.p999;
  |]

let render ~cycles_to_ms s =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "requests=%d admitted=%d shed=%d committed=%d deadline-missed=%d \
        (late=%d gave-up=%d dropped=%d) budget-exhausted=%d\n"
       s.requests s.admitted s.shed s.committed s.deadline_missed s.late
       s.gave_up s.dropped s.budget_exhausted);
  if s.faulted + s.tripped > 0 then
    Buffer.add_string b
      (Printf.sprintf "faults: faulted=%d breaker-tripped=%d\n" s.faulted
         s.tripped);
  Buffer.add_string b
    (Printf.sprintf
       "latency (in-deadline commits): p50=%.3fms p99=%.3fms p999=%.3fms \
        max=%.3fms; p99 all executed=%.3fms\n"
       (cycles_to_ms s.p50) (cycles_to_ms s.p99) (cycles_to_ms s.p999)
       (cycles_to_ms s.max_latency)
       (cycles_to_ms s.p99_done));
  Buffer.contents b
