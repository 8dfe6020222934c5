(** The deterministic chunk runner — one supervised, checkpointed
    chunked map for every campaign.

    {!chunks} is the loop itself: the deterministic pool (index-ordered
    results, byte-identical at any [--jobs]), supervised retries and
    fault injection from the ambient [faultplan/v1], and
    checkpoint/resume through {!Checkpoint}. Routing-trial campaigns
    ({!Trial.run}) call it with an early-stop predicate and the
    trial-cell codec; experiments whose unit of work is something else
    — one churned netsim run, one scenario world census — call {!run},
    which journals plain float vectors as value cells (bit-exact float
    round-trips).

    The contract: the per-item function must be a {e pure} function of
    its index — derive every random decision from a per-index stream
    split, never from shared mutable state — and the checkpoint key
    must name everything the results depend on except the job count.
    Then chunk results are pure in [(key, chunk)], so a resume with any
    parameter changed misses and recomputes, and a resume of the same
    configuration restores bit-identical cells. *)

val chunk_size : int
(** Indices per supervised/checkpointed chunk (4). *)

val chunks :
  ?jobs:int ->
  count:int ->
  key:string Lazy.t ->
  lookup:(key:string -> chunk:int -> 'a array option) ->
  store:(key:string -> chunk:int -> 'a array -> unit) ->
  pack:('a array -> 'c) ->
  until:('c -> bool) ->
  (int -> 'a) ->
  'c option array * Engine_par.Supervisor.summary option
(** [chunks ~count ~key ~lookup ~store ~pack ~until item] cuts
    [0 .. count - 1] into chunks of {!chunk_size}, builds each chunk's
    cells with [item] (polling the watchdog before every item) and
    returns [pack cells] for a contiguous prefix of the chunks in
    index order, with the {!Engine_par.Pool.collect_prefix} early-stop
    guarantee for [until].

    Supervision is on when a supervisor is armed, a fault plan is
    ambient or a checkpoint is active; only then is a summary
    returned, and a quarantined chunk comes back as [None]. With a
    checkpoint active, [key] is forced once and every chunk's cells
    are first looked up with [lookup] and, on a miss, computed and
    journaled with [store]. *)

val run :
  ?jobs:int -> key:string -> count:int -> (int -> float array) -> float array array
(** [run ~key ~count compute] evaluates [compute i] for every
    [i < count] and returns the cells in index order. [jobs] defaults
    to the ambient pool default. Under supervision, a quarantined
    chunk's cells come back as empty arrays (callers skip them; the
    loss is visible in the supervisor's global summary and faults/v1).
    @raise Invalid_argument on negative [count]. *)
