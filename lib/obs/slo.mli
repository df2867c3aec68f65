(** Request-level SLO accounting for the service layer.

    Every request submitted to {!Tstm_service.Service} ends in exactly one
    verdict; an [Slo.t] accumulates those verdicts plus the request-latency
    histograms ({!Histo} log2 buckets, so p999 stays cheap) and folds them
    into a {!summary} — the record the CSV/JSON exporters and the `repro
    serve` report render.  Latencies are virtual cycles; callers convert to
    wall units with their runtime's clock.

    The accounting identity every run must satisfy (asserted by the service
    tests): [requests = shed + tripped + admitted] and
    [admitted = committed + deadline_missed + budget_exhausted + faulted],
    where [deadline_missed = late + gave_up + dropped]. *)

(** The terminal state of one request. *)
type verdict =
  | Committed  (** transaction committed within the request deadline *)
  | Late  (** transaction committed, but past the deadline *)
  | Gave_up  (** dispatched, gave up at an attempt boundary past deadline *)
  | Dropped  (** dequeued already hopeless (deadline-aware shed) *)
  | Budget_exhausted  (** retry budget spent without a commit *)
  | Shed  (** rejected at admission (queue full) *)
  | Faulted
      (** admitted but killed by a typed fault (injected crash or arena
          [Capacity]) after exhausting its fault-retry budget *)
  | Tripped  (** rejected at admission by an open circuit breaker *)

type t

val create : unit -> t

val note : t -> verdict -> lat_cycles:int -> unit
(** Record one finished request.  [lat_cycles] is admission-to-completion
    latency in virtual cycles; it is ignored for [Shed] (the request never
    ran).  Negative values clamp to [0]. *)

(** Folded counters and latency percentiles (cycles). *)
type summary = {
  requests : int;  (** every request: [shed + admitted] *)
  admitted : int;
  shed : int;
  committed : int;  (** in-deadline commits — the goodput numerator *)
  late : int;
  gave_up : int;
  dropped : int;
  budget_exhausted : int;
  faulted : int;
  tripped : int;
  deadline_missed : int;  (** [late + gave_up + dropped] *)
  p50 : int;  (** in-deadline commit latency percentiles, cycles *)
  p99 : int;
  p999 : int;
  max_latency : int;
  mean : float;
  p99_done : int;
      (** p99 latency over {e every} executed request, including late
          commits and give-ups — the number that blows up when shedding is
          disabled *)
}

val summary : t -> summary

val columns : string list
(** Per-period CSV columns for {!Metrics}: period index, end time,
    verdict counts and latency percentiles. *)

val row : period:int -> t_end:float -> summary -> float array
(** One {!Metrics} row (width matches {!columns}). *)

val render : cycles_to_ms:(int -> float) -> summary -> string
(** Multi-line human report (deterministic; no trailing spaces). *)
