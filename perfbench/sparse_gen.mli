(** Seeded traffic for the [serve-sparse] workload.

    Two resident 65,536-vertex worlds, [hc] (hypercube:16) and [m2]
    (mesh2:256), both at p = 0.7. Of the queries, 80% are short-range
    [bfs] routes with budget 64, 10% are reveals and 10% are cluster
    queries, both with limit 256. Route and reveal targets lie within
    {!radius} hops of their source, so a query costs tens of probes
    while each world has 65,536 vertices.

    Everything is a pure function of the seed: the same seed gives a
    byte-identical manifest and query stream. *)

type world = {
  wid : string;
  topology : string;  (** Registry spec with inline size. *)
  vertices : int;
  radius : int;  (** Hop radius of route and reveal targets. *)
}

val worlds : world list
(** [hc] (Hamming radius 2), then [m2] (mesh radius 4). *)

val default_count : int
(** 20,000 queries. *)

val route_budget : int
(** 64 distinct probes. *)

val reveal_limit : int
(** 256 visited vertices. *)

val manifest : seed:int -> string
(** The [session/v1] manifest text. World seeds derive from [seed]. *)

val queries : seed:int -> count:int -> string array
(** [count] NDJSON query lines, ids [1..count]. *)

val hops : string -> int -> int -> int
(** [hops wid u v] is the hop distance between [u] and [v] in the
    unpercolated graph of world [wid]: Hamming distance on [hc], L1
    distance on [m2].
    @raise Not_found on an unknown world id. *)
