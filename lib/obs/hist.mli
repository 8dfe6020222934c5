(** The one histogram value of the observability layer: power-of-two
    buckets plus exact count / sum / min / max, with one {!observe},
    one {!merge} and one quantile estimator. {!Metrics} (counts, probe
    totals, distances), {!Telemetry} (durations in whole nanoseconds)
    and {!Inspect} (parsed artifacts) all hold their histograms in this
    shape. Every field is an integer, so {!merge} is associative and
    commutative and merged bytes never depend on merge order. *)

(** {2 Bucket scheme}

    Value [v ≥ 0] lands in bucket [bits v] — 0 → 0, 1 → 1, 2..3 → 2,
    4..7 → 3, so bucket [i ≥ 1] covers [\[2^(i-1), 2^i)]. Negative
    values clamp to bucket 0. *)

val bucket_count : int
val bucket_of : int -> int

val bucket_lower_bound : int -> int
(** Inclusive lower bound of bucket [i] (0, 1, 2, 4, 8, ...). *)

type t = {
  mutable count : int;
  mutable sum : int;
  mutable min : int;  (** [max_int] while empty *)
  mutable max : int;  (** [min_int] while empty *)
  buckets : int array;  (** dense, {!bucket_count} long *)
}

val create : unit -> t
(** An empty histogram. Not thread-safe: fill one per domain and
    merge. *)

val copy : t -> t

val observe : t -> int -> unit
(** Record one value. *)

val merge_into : into:t -> t -> unit
(** Add the second histogram into [into]: counts, sums and buckets add,
    min/max combine. *)

val merge : t -> t -> t
(** {!merge_into} on a fresh copy of the first argument. *)

val quantile : t -> float -> int option
(** [quantile h q] estimates the [q]-quantile from the buckets: the
    {e inclusive upper bound} of the bucket holding the rank-
    [max 1 (ceil (q * count))] observation — bucket 0 → 0, bucket 1 →
    1, bucket [i ≥ 2] → [2^i - 1] — clamped into [\[min, max\]], so it
    never under-reports by more than one bucket width and is exact at
    the extremes. [None] when [h] is empty or [q] is outside
    [\[0, 1\]] or non-finite. *)

val of_sparse :
  count:int -> sum:int -> ?min:int -> ?max:int -> (int * int) list -> t
(** Rebuild a histogram from its wire form: sparse
    [(lower bound, count)] pairs. Absent extrema mean "empty". *)

val buckets_json : t -> Json.t
(** The wire form of the buckets: a list of [\[lower_bound, count\]]
    pairs for the non-empty buckets, ascending. *)
