(** Log2-bucketed histograms over non-negative integers (virtual-cycle
    latencies, retry counts, read/write-set sizes).

    Bucket [0] holds the value [0]; bucket [k >= 1] holds values [v] with
    [2^(k-1) <= v < 2^k].  Recording is a handful of instructions, so
    histograms can stay on even in hot paths without perturbing the
    simulator's virtual time (they never charge cycles). *)

type t

val create : unit -> t
val clear : t -> unit

val record : t -> int -> unit
(** Negative values are clamped to [0]. *)

val bucket_of : int -> int
val lower_bound : int -> int
(** Smallest value of a bucket: [lower_bound 0 = 0], [lower_bound k = 2^(k-1)]. *)

val upper_bound : int -> int
(** Largest value of a bucket: [upper_bound 0 = 0], [upper_bound k = 2^k - 1]. *)

val count : t -> int
(** Number of recorded samples. *)

val bucket_count : t -> int -> int

val sum : t -> int
(** Exact sum of the recorded values (tracked alongside the buckets). *)

val mean : t -> float
(** [0.] when empty. *)

val max_value : t -> int
(** Largest recorded value ([0] when empty). *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in [0..100]: the upper bound of the first
    bucket whose cumulative count reaches [p]% of the samples ([0] when
    empty).  An upper bound keeps the estimate conservative and
    deterministic. *)

val merge : dst:t -> t -> unit

val copy : t -> t

val diff : t -> since:t -> t
(** [diff cur ~since] is the histogram of samples recorded in [cur] after
    the snapshot [since] was taken ([since] must be an earlier copy of
    [cur]). *)

val pp : Format.formatter -> t -> unit
(** One line: count, mean, p50/p90/p99, max. *)
