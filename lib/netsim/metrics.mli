(** Global cost accounting of a simulation run.

    A view over one {!Obs.Metrics} registry: every count lives in a
    counter named [netsim.rounds], [netsim.messages_sent],
    [netsim.messages_delivered], [netsim.raw_probes],
    [netsim.distinct_probes] or [netsim.churn.blocked]. The engine
    bumps {!Obs.Metrics.handle}s resolved once at {!create}, so a tick
    costs no name hashing; a counter enters the registry on its first
    tick, so a count that never happened (no probes, no churn) is
    absent from {!snapshot} rather than present at 0. {!snapshot}
    exposes the counters in the same mergeable form the trial engine
    uses — [faultroute simulate --metrics-out] writes them alongside
    everything else. The accessors below are live reads. *)

type t

val create : unit -> t

(** {2 Engine-side increments} *)

val tick_round : t -> unit
val tick_sent : t -> unit
val tick_delivered : t -> unit
val tick_raw_probe : t -> unit
val tick_distinct_probe : t -> unit
val tick_churn_blocked : t -> unit

(** {2 Views} *)

val rounds : t -> int
(** Rounds executed so far. *)

val messages_sent : t -> int
(** All [send] calls. *)

val messages_delivered : t -> int
(** Sends whose link was open (or drained through a capacity-limited
    link). *)

val raw_probes : t -> int
(** All [probe] calls. *)

val distinct_probes : t -> int
(** Distinct edges probed. *)

val churn_blocked : t -> int
(** Sends suppressed because the link was percolation-open but churned
    down at that round ([netsim.churn.blocked]). Capacity-queue
    backlogs are delayed, not dropped, so drains never tick this.
    Zero on unchurned runs. *)

val snapshot : t -> Obs.Metrics.snapshot
(** The underlying counters as a pure mergeable snapshot (the
    [netsim.*] namespace). *)

val delivery_rate : t -> float
(** [messages_delivered / messages_sent]; [nan] when nothing was sent. *)

val pp : Format.formatter -> t -> unit
