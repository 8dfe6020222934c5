(** Clocks, allocation counters, order statistics and the result line.

    Everything here reads the process from outside the libraries under
    test: a monotonic clock and the calling domain's GC counters. *)

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds. *)

val since_s : int64 -> float
(** Seconds elapsed since a {!now_ns} reading. *)

val alloc_words : unit -> float
(** Words allocated so far by the calling domain: minor words plus
    words allocated directly in the major heap. Differences of two
    readings give the allocation of the code in between. *)

val heap_peak_mb : unit -> float
(** Peak major-heap size of the process so far, in MB (10^6 bytes). *)

val instruments_off : unit -> bool
(** Whether trace, metrics, telemetry and profiling spans are all off.
    [Percolation.Reveal] picks its engine from the first two, so a run
    with any of them on measures a different program. *)

val run_for : seconds:float -> min:int -> ?max:int -> (unit -> 'a) -> 'a list
(** [run_for ~seconds ~min f] calls [f] at least [min] times, then until
    [seconds] have gone by, and at most [max] times (unbounded by
    default); the results in call order. *)

val repeat : (unit -> float) -> float array
(** The readings of a set-up timer [f] (which returns the seconds it
    measured): [run_for ~seconds:3. ~min:10 ~max:10_000]. Set-up times
    drift with the host over about a second, so the window spans
    several seconds. *)

val timed : on:bool -> (unit -> 'a) -> (float -> float -> unit) -> 'a
(** [timed ~on f k] is [f ()]; when [on], [k] also receives the
    nanoseconds and words [f] took. Both branches make the same call,
    so the cost of [on] is the cost of the timing alone. *)

val trace_overhead : (clocked:bool -> 'a) -> 'a * float * float list
(** [trace_overhead pass] runs [pass ~clocked:false] once to warm up,
    then two pairs of passes, untimed then timed and timed then
    untimed, so that what one pass leaves warm for the next (caches,
    heap, allocator) favours neither side. Returns the first timed
    pass's result; the mean over the two pairs of timed over untimed
    wall time, minus 1; and the four walls in run order. *)

val per : int -> float -> float
(** [per n x] is [x /. n], or 0 when [n = 0]. *)

val ratio : int -> int -> float
(** [ratio a b] is [a /. b], or 0 when [b = 0]. *)

val quantile : float array -> float -> float
(** Type-7 (linear interpolation) quantile of the samples; sorts a
    copy. [nan] on no samples. *)

val median : float array -> float

val lowest : float array -> float
(** The smallest sample; [nan] on no samples. *)

val spread : float array -> float
(** Inter-quartile range over the median; 0 for fewer than two samples. *)

(** A minimal JSON value for the benchmark's own output, kept apart
    from the library's serialiser so a change there cannot alter how
    results are reported. *)
type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | List of json list
  | Obj of (string * json) list

val to_string : json -> string
(** One line. Floats print with 17 significant digits. *)

val samples : int -> float -> json
(** A run-record entry: the sample count behind a metric and the
    {!spread} of those samples. *)
