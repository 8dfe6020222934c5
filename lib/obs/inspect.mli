(** One inspector for the whole observability artifact family — the
    engine behind [faultroute obs].

    {!load} sniffs a file by the [schema] tag on its first JSON line
    and parses {e and validates} it in one step: [trace/v1] (JSONL,
    replay-checked on load), [metrics/v1], [profile/v1],
    [telemetry/v1] (JSONL heartbeats; the last line wins),
    [runledger/v1] (JSONL run records; every recorded artifact digest
    is cross-checked against the file on disk, so a tampered or stale
    artifact fails the load) and [bench_percolation/v1..v3] documents
    or history trails. A successful load {e is} schema validation —
    "obs validate" prints nothing but the verdict. *)

type table = {
  counters : (string * float) list;  (** name-sorted *)
  hists : (string * Hist.t) list;  (** name-sorted *)
}
(** The normalized counter/gauge + histogram shape metrics and
    telemetry both parse into — exposed so {!Top} can render
    heartbeats with the same machinery. *)

type artifact

type kind = [ `Trace | `Metrics | `Telemetry | `Profile | `Bench | `Ledger ]

val kind : artifact -> kind
val kind_name : kind -> string

val utilization_rows : (string * float) list -> (int * float * float * float) list
(** Fold [pool.domain.<slot>.busy_s/.wall_s/.tasks] gauges into one
    [(slot, busy_s, wall_s, tasks)] row per domain slot, slot-sorted. *)

val parse_heartbeat :
  Json.t -> (int option * float * string option * table, string) result
(** Decompose one [telemetry/v1] heartbeat line: monotonic [seq]
    (absent on legacy files), uptime seconds, optional session label,
    and the gauge/histogram table. *)

val load : string -> (artifact, string) result
(** Read, sniff, parse and validate one artifact file. The error
    message is prefixed with the path. *)

val report : Format.formatter -> artifact -> unit
(** Pretty-print one artifact: counter/gauge tables (with per-domain
    pool utilization derived from the [pool.domain.<slot>.*] gauges),
    histogram quantile rows (p50/p95/p99/max, [_ns] names scaled to
    ms), the indented span tree for profiles, the replay verdict for
    traces (including the query-span lifecycle audit), run rows with
    their artifact digests for ledgers, and snapshots +
    trailing-baseline regressions for bench histories. An empty table
    prints an explicit ["(no samples)"] row; telemetry with heartbeat
    [seq] gaps prints a warning line. *)

val aggregate : artifact -> artifact -> (artifact, string) result
(** Merge two artifacts into one ([metrics/v1] only: pointwise counter
    and bucket sums, the same merge the engine itself uses). *)

val diff : Format.formatter -> artifact -> artifact -> (unit, string) result
(** Print what changed from the first artifact to the second. Both
    must be the same kind: counter/gauge/histogram deltas for metrics
    and telemetry, significant span-time movement for profiles
    (>1% and >0.1 ms), replay-verdict counts for traces, and
    regression flags ({!Bench_history.regressions}) for bench
    histories. *)

val folded_of_profile : artifact -> (string list, string) result
(** Flamegraph folded-stack lines ["a;b;c <self-us>"] from a
    [profile/v1] artifact (zero-self nodes skipped). *)
