(** Ground-truth exploration of a percolation world.

    Experiments must condition on [u ~ v] (Definition 2) and distinguish
    "the router gave up" from "no path exists". This module answers such
    questions by reading edge states directly — {e without} going through
    a counting oracle, so the measured routing complexity is unaffected.

    Exploration cost is proportional to the open cluster explored, so a
    [limit] on visited vertices is available for huge graphs.

    Three BFS engines serve the queries. Lazy worlds use the
    Hashtbl-frontier reference engine; cached worlds ({!World.cached})
    use int-array arena BFS (same visit order as the reference,
    property-tested), and — for queries that observe no visit order —
    a level-synchronous bitset engine that scans frontiers a 64-bit
    word at a time. Every engine discovers each vertex at its true BFS
    distance and implements one shared limit convention (a truncated
    run visits exactly [limit] vertices), so verdicts, distances and
    full-exploration counts are engine-independent; only visit {e order}
    within a level, and hence {e which} vertices a truncated run
    reaches, distinguishes the bitset engine from the other two. *)

type verdict = Connected of int | Disconnected | Unknown
(** [Connected d]: an open path exists and the percolation distance is
    [d]. [Unknown]: the exploration limit was hit first. *)

type engine = Table | Arena | Bitset
(** Explicit engine selector, for differential tests and benchmarks.
    Production entry points pick automatically: [Table] for lazy
    worlds, [Arena] for cached worlds when visit order is observable
    (tracing on, a [limit] set, or an order-sensitive caller), [Bitset]
    otherwise. [Arena] borrows its queue and visited set from a
    per-domain scratch (grown to the largest world seen, cleaned
    through the queue on every exit, exceptions included), so a limited
    query costs in proportion to the vertices it visits; [Bitset]
    allocates O(vertex count) per call. Both suit any graph small
    enough to index by vertex. *)

val bfs_via :
  engine ->
  ?limit:int ->
  World.t ->
  int ->
  stop:(int -> bool) ->
  visit:(int -> int -> unit) ->
  [ `Stopped of int | `Truncated | `Exhausted_full ]
(** The exploration primitive under every query, for tests: [visit v d]
    runs for each discovered vertex (the start at [d = 0]), and the
    search ends with [`Stopped d] as soon as [stop] holds for a
    discovered vertex, [`Truncated] when a fresh vertex would pass
    [limit], or [`Exhausted_full]. An exception from a hook propagates,
    with the [Arena] scratch left clean.
    @raise Invalid_argument if [start] is out of range, or if a hook
    starts another [Arena]
    exploration (or a {!ball} over a cached world) on the same
    domain. *)

val connected : ?limit:int -> World.t -> int -> int -> verdict
(** [connected w u v] explores the open cluster of [u] breadth-first
    until [v] is found, the cluster is exhausted, or [limit] vertices
    have been visited. *)

val connected_via : engine -> ?limit:int -> World.t -> int -> int -> verdict
(** {!connected} on an explicit engine. Without [limit] all engines
    return the same verdict and distance. With [limit], [Table] and
    [Arena] still agree exactly, but [Bitset] may reach the target
    inside the budget when the queue engines truncate first (or vice
    versa) — its visit order differs, so only truncated {e counts} are
    comparable across all three. *)

val cluster_of : ?limit:int -> World.t -> int -> int list * bool
(** [cluster_of w v] is the open cluster containing [v] (unordered) and
    a flag that is [true] when exploration was truncated by [limit]. *)

val cluster_size : ?limit:int -> World.t -> int -> int * bool
(** Size variant of {!cluster_of}: the number of vertices visited and
    the truncation flag. Counts during the walk (no intermediate member
    list), and — the count being engine-independent — runs on the
    bitset engine whenever the world is cached, no [limit] is set and
    tracing is off. *)

val cluster_size_via : engine -> ?limit:int -> World.t -> int -> int * bool
(** {!cluster_size} on an explicit engine. The result is
    engine-independent even under [limit] (the shared truncation
    convention fixes the count at exactly [limit]). *)

val ball : World.t -> int -> radius:int -> (int, int) Hashtbl.t
(** [ball w v ~radius] maps every vertex within percolation distance
    [radius] of [v] to its distance. *)
