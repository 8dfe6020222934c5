(** Conditioned routing trials — the deterministic multicore engine.

    The paper's routing complexity (Definition 2) is conditioned on
    [{u ~ v}]. A trial therefore draws fresh percolation worlds until the
    chosen pair is connected (checked through the uncounted ground-truth
    {!Percolation.Reveal}), then lets the router attempt the routing and
    records the probe count — censored at the budget when one is set.

    The rejection-sampling attempts double as an estimate of
    [Pr\[u ~ v\]], reported alongside.

    {2 Determinism}

    Attempt [i] draws all of its randomness — the percolation world and
    any random choices of the router — from [Prng.Stream.split root i],
    a pure function of the root seed. Attempts can therefore be
    evaluated on any number of domains in any order; the engine merges
    per-domain accumulators over a fixed chunking of the attempt index
    space, so {!run} returns {e bit-identical} results for every
    [jobs] value (and [run ~jobs:1] is exactly the sequential run).

    {2 Observability}

    With {!Obs.Trace} enabled, every attempt's probe-level events are
    captured into per-attempt buffers on whatever domain computed them
    and concatenated — during the same ordered truncation scan that
    merges the statistics — into one [trace/v1] run, written to the
    sink in a single call. The trace bytes are byte-identical for every
    [jobs] value. With {!Obs.Metrics} enabled, per-attempt counter
    snapshots ride the accumulator merge tree (integer-only, so the
    merged snapshot is order-independent) and the run's totals are both
    returned in {!result.metrics} and absorbed into the global
    registry. With both off, the per-attempt overhead is two atomic
    reads. *)

type spec = {
  graph : Topology.Graph.t;
  p : float;
  source : int;
  target : int;
  router : Prng.Stream.t -> source:int -> target:int -> Routing.Router.t;
      (** Built per trial from that trial's private stream: backbone
          routers depend on the endpoints; randomized routers must draw
          from the given stream (never from shared state) so trials stay
          independent of execution order. Deterministic routers ignore
          the stream. *)
  budget : int option;  (** Probe cap; [None] = unlimited. *)
  reveal_limit : int option;
      (** Cap on ground-truth exploration; verdict [Unknown] counts as
          not connected. [None] = explore fully. *)
  worlds : Worldpool.provider;
      (** Where attempt worlds come from. Attempt [i] asks for the
          world of its split seed; the provider must be observationally
          equal to [World.create graph ~p ~seed] (the {!Worldpool}
          contract), so checkpoint keys and report bytes — which digest
          [(graph, p, seed)], never the provider — stay valid. *)
}

val spec :
  ?budget:int ->
  ?reveal_limit:int ->
  ?worlds:Worldpool.provider ->
  graph:Topology.Graph.t ->
  p:float ->
  source:int ->
  target:int ->
  (Prng.Stream.t -> source:int -> target:int -> Routing.Router.t) ->
  spec
(** [worlds] defaults to [Worldpool.detached graph ~p] — fresh
    single-use construction, the historical behaviour. Pass a
    {!Worldpool.provider} to serve attempts from a resident pool. *)

type result = {
  observations : Stats.Censored.t;
      (** One per conditioned trial: distinct probes, censored at budget. *)
  connection : Stats.Proportion.t;
      (** Connected worlds over all attempted worlds. *)
  path_lengths : Stats.Summary.t;  (** Lengths of found paths. *)
  chemical_distances : Stats.Summary.t;
      (** Ground-truth percolation distances of the conditioned pairs. *)
  failures : int;
      (** Routings that returned [No_path] despite ground-truth saying
          connected — must be 0 unless a reveal limit truncated. *)
  requested : int;
      (** The [trials] count that was asked for. When [max_attempts]
          ran out of worlds first, fewer conditioned measurements were
          taken: [Stats.Censored.count observations < requested]. *)
  metrics : Obs.Metrics.snapshot;
      (** Counters/histograms emitted by the used attempts
          ({!Obs.Metrics.empty} when metrics are disabled). Merged in
          fixed chunk order — identical for every [jobs] value. *)
}

val shortfall : result -> int
(** [requested] minus the conditioned measurements actually taken —
    positive exactly when [max_attempts] was exhausted before [trials]
    acceptances. Silent in no report only when 0. *)

val shortfall_note : label:string -> result -> string option
(** A ready-made report note flagging a shortfall, [None] when the
    requested trial count was met. Experiments append these to their
    report notes so attempt-cap exhaustion is never silent. *)

val run :
  ?jobs:int -> Prng.Stream.t -> trials:int -> ?max_attempts:int -> spec -> result
(** [run stream ~trials spec] performs up to [trials] conditioned
    measurements, drawing at most [max_attempts] (default
    [100 × trials]) worlds in total, on [jobs] domains (default
    {!Engine_par.Pool.default_jobs}: 1 unless raised, e.g. by the
    CLI's [--jobs]). The result is bit-identical for every [jobs].
    The attempts run through {!Simrun.chunks}; under supervision a
    quarantined chunk's attempts are left out of [connection] and the
    chunk is listed in the supervisor's global summary.
    @raise Invalid_argument if [trials <= 0]. *)

val median_observation : result -> Stats.Censored.observation option
(** Median probe count of the conditioned trials. *)

val mean_probes_lower_bound : result -> float
(** Mean probe count, substituting budget for censored trials. *)
