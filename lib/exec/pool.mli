(** Multi-process job pool: fork-per-job workers, marshalled result rows
    over pipes, rank-keyed merge.

    Workers are {e processes} ([Unix.fork]), not domains: the simulator's
    process-global state (virtual-time scheduler, [Tap] hooks, chaos plan,
    sanitizer shadow memory) is snapshotted and isolated by the fork, so
    every job runs against pristine state and its result is independent of
    worker count, scheduling, and completion order.  Robustness is built
    in: a per-job timeout (SIGKILL + requeue), crash detection with a
    bounded retry budget, and fail-fast on deterministic in-job exceptions.
    Rows land in a rank-indexed array — callers reassemble output in plan
    order, byte-identical regardless of parallelism. *)

type progress = {
  rank : int;  (** 0-based job rank *)
  total : int;
  label : string;
  attempt : int;  (** 1-based *)
  status : Tstm_obs.Progress.status;
  elapsed : float;  (** real seconds since this attempt started *)
}

type failure = {
  rank : int;
  attempts : int;  (** attempts consumed, including the failing one *)
  reason : string;
}

(** Partial-results verdict: [rows.(rank)] is [None] exactly when [rank]
    appears in [failures] (sorted by rank). *)
type 'r verdict = { rows : 'r option array; failures : failure list }

val ok : 'r verdict -> bool
(** No failures — every row present. *)

val map :
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?on_progress:(progress -> unit) ->
  ?sabotage:(rank:int -> attempt:int -> bool) ->
  label:(int -> string) ->
  (int -> 'r) ->
  int ->
  'r verdict
(** [map ~label f n] evaluates [f rank] for ranks [0..n-1] on up to [jobs]
    (default 1) concurrent worker processes and merges the rows by rank.

    [f] must be deterministic and its result [Marshal]-safe (pure data).
    A worker that crashes or exceeds [timeout] seconds (default
    600) is requeued up to [retries] (default 2) extra
    attempts; a job whose [f] raises fails permanently without retry (the
    failure is deterministic).  [on_progress] fires in the parent on every
    job lifecycle event — completion order, so nondeterministic: route it
    to stderr, never stdout.  [sabotage ~rank ~attempt] (tests only) makes
    the worker SIGKILL itself before evaluating, exercising the
    crash-retry path deterministically. *)
