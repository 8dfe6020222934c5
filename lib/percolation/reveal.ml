type verdict = Connected of int | Disconnected | Unknown

(* Three BFS engines over open edges, selected by the world's
   representation (and by observability state — see [order_free] below),
   observationally equivalent on order-free queries (property-tested):

   - [bfs_table]: the historical Hashtbl-frontier engine, the reference
     path, used for lazy worlds (implicit graphs too large to index by
     vertex).
   - [bfs_arena]: int-array distances and an int-array queue indexed by
     vertex id, used for cached worlds (the size gate guarantees the
     arrays fit). No hashing, no boxing. Same visit order as
     [bfs_table].
   - [bfs_bitset]: level-synchronous frontier over word-scanned bitsets,
     used for cached worlds on queries that do not observe visit order.
     Within a level it visits vertices in id order, not discovery order,
     but every vertex is still discovered at its true BFS distance, so
     distances, full-exploration counts and connectivity verdicts agree
     with the queue engines.

   Shared limit convention — every engine MUST implement it identically
   so differential tests can compare truncated counts: a fresh vertex is
   checked against [limit] *before* it is recorded. When [limit]
   vertices have already been discovered (the start vertex counts), the
   next fresh vertex triggers `Truncated` without being visited; a
   truncated run therefore visits exactly [limit] vertices in every
   engine. (Which [limit] vertices those are depends on visit order, so
   only the count is engine-independent.)

   All engines stop when [stop] returns true for a newly discovered
   vertex, when the cluster is exhausted, or when the limit trips. *)

let bfs_table ?limit world start ~stop ~visit =
  let dist = Hashtbl.create 256 in
  Hashtbl.replace dist start 0;
  visit start 0;
  if stop start then `Stopped 0
  else begin
    let queue = Queue.create () in
    Queue.push start queue;
    let truncated = ref false in
    let result = ref `Exhausted in
    (try
       while not (Queue.is_empty queue) do
         let u = Queue.pop queue in
         let du = Hashtbl.find dist u in
         let extend v =
           if not (Hashtbl.mem dist v) then begin
             (* Limit convention: check before recording the fresh vertex. *)
             match limit with
             | Some l when Hashtbl.length dist >= l ->
                 truncated := true;
                 raise Exit
             | Some _ | None ->
                 Hashtbl.replace dist v (du + 1);
                 visit v (du + 1);
                 if stop v then begin
                   result := `Stopped (du + 1);
                   raise Exit
                 end;
                 Queue.push v queue
           end
         in
         Array.iter extend (World.open_neighbors world u)
       done
     with Exit -> ());
    match !result with
    | `Stopped d -> `Stopped d
    | `Exhausted -> if !truncated then `Truncated else `Exhausted_full
  end

let bit_set b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) lor (1 lsl (i land 7))))

let bit_get b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_clear b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) land lnot (1 lsl (i land 7))))

(* Per-domain scratch behind the [Arena] engine and [ball_arena]: a
   queue, a visited bitset and a distance array, grown to the largest
   world seen on the domain and clean (visited all zero, dist all -1)
   between calls. A call cleans up after itself through its queue
   prefix, which lists every vertex it marked — so the cost is that of
   the exploration, not of [|V|] — on every exit path, exceptions from
   [stop]/[visit] included. [busy] guards the single lease: a re-entrant
   call (from a [stop] or [visit] callback) would corrupt it. *)
type scratch = {
  mutable queue : int array;
  mutable visited : Bytes.t;
  mutable dist : int array;
  mutable busy : bool;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { queue = [||]; visited = Bytes.empty; dist = [||]; busy = false })

(* Run [body sc tail] on the domain's scratch, sized for [n] vertices;
   [body] must record every vertex it marks in [sc.queue.(0 .. !tail-1)]
   before marking it. *)
let with_scratch n body =
  let sc = Domain.DLS.get scratch_key in
  if sc.busy then invalid_arg "Reveal: re-entrant arena exploration";
  if Array.length sc.queue < n then begin
    sc.queue <- Array.make n 0;
    sc.visited <- Bytes.make ((n + 7) / 8) '\000';
    sc.dist <- Array.make n (-1)
  end;
  sc.busy <- true;
  let tail = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      for i = 0 to !tail - 1 do
        let v = Array.unsafe_get sc.queue i in
        bit_clear sc.visited v;
        Array.unsafe_set sc.dist v (-1)
      done;
      sc.busy <- false)
    (fun () -> body sc tail)

let bfs_arena ?limit world start ~stop ~visit =
  let n = (World.graph world).Topology.Graph.vertex_count in
  (* Visited lives in a bitset (n bits, cache-resident) rather than an
     int array of distances (8n bytes): the membership test is the one
     random access per scanned edge, so its footprint decides whether
     large-graph BFS runs from L1 or from memory. Depths come from
     level-boundary bookkeeping on the FIFO queue instead — the queue is
     level-ordered, so [depth] bumps exactly when [head] crosses the end
     of the previous level, and visit order is unchanged. *)
  with_scratch n @@ fun sc tail ->
  let queue = sc.queue and visited = sc.visited in
  queue.(0) <- start;
  tail := 1;
  bit_set visited start;
  visit start 0;
  if stop start then `Stopped 0
  else begin
    let head = ref 0 in
    let level_end = ref 1 and depth = ref 0 in
    let discovered = ref 1 in
    let truncated = ref false in
    let result = ref `Exhausted in
    (* [discover] is the one limit/stop/visit body both loop variants
       share — allocated once per BFS, called directly per fresh vertex.
       The vertex is queued before it is marked, so cleanup sees it
       whichever way the BFS ends. *)
    let discover v du1 =
      (* Limit convention: check before recording the fresh vertex. *)
      match limit with
      | Some l when !discovered >= l ->
          truncated := true;
          raise Exit
      | Some _ | None ->
          Array.unsafe_set queue !tail v;
          incr tail;
          bit_set visited v;
          incr discovered;
          visit v du1;
          if stop v then begin
            result := `Stopped du1;
            raise Exit
          end
    in
    (try
       match World.adjacency_view world with
       | Some (rows, arena0) ->
           (* Straight-line array loop over the world's open-adjacency
              cache: no cross-module call, no closure invocation per
              neighbor. Rows materialise on first touch; growth replaces
              the arena array, so re-fetch the view after a miss. *)
           let arena = ref arena0 in
           while !head < !tail do
             if !head = !level_end then begin
               incr depth;
               level_end := !tail
             end;
             let u = Array.unsafe_get queue !head in
             incr head;
             let du1 = !depth + 1 in
             let s = Array.unsafe_get rows (2 * u) in
             let s =
               if s >= 0 then s
               else begin
                 World.ensure_row world u;
                 (match World.adjacency_view world with
                 | Some (_, a) -> arena := a
                 | None -> assert false);
                 Array.unsafe_get rows (2 * u)
               end
             in
             let ar = !arena in
             for i = s to s + Array.unsafe_get rows ((2 * u) + 1) - 1 do
               let v = Array.unsafe_get ar i in
               if not (bit_get visited v) then discover v du1
             done
           done
       | None ->
           while !head < !tail do
             if !head = !level_end then begin
               incr depth;
               level_end := !tail
             end;
             let u = Array.unsafe_get queue !head in
             incr head;
             let du1 = !depth + 1 in
             World.iter_open_neighbors world u (fun v ->
                 if not (bit_get visited v) then discover v du1)
           done
     with Exit -> ());
    match !result with
    | `Stopped d -> `Stopped d
    | `Exhausted -> if !truncated then `Truncated else `Exhausted_full
  end

let bfs_bitset ?limit world start ~stop ~visit =
  let n = (World.graph world).Topology.Graph.vertex_count in
  let words = (n + 63) / 64 in
  let bytes = 8 * words in
  let visited = Bytes.make bytes '\000' in
  let frontier = Bytes.make bytes '\000' in
  let next = Bytes.make bytes '\000' in
  bit_set visited start;
  bit_set frontier start;
  visit start 0;
  if stop start then `Stopped 0
  else begin
    let discovered = ref 1 in
    let truncated = ref false in
    let result = ref `Exhausted in
    let depth = ref 0 in
    let frontier_live = ref true in
    let grew = ref false in
    (* [discover] is the one limit/stop/visit body both expansion
       variants share — allocated once per BFS, called per fresh
       vertex. *)
    let discover v d =
      (* Limit convention: check before recording the fresh vertex. *)
      match limit with
      | Some l when !discovered >= l ->
          truncated := true;
          raise Exit
      | Some _ | None ->
          bit_set visited v;
          bit_set next v;
          incr discovered;
          grew := true;
          visit v d;
          if stop v then begin
            result := `Stopped d;
            raise Exit
          end
    in
    let view = World.adjacency_view world in
    let arena = ref [||] in
    (match view with Some (_, a) -> arena := a | None -> ());
    let expand u d =
      match view with
      | Some (rows, _) ->
          (* Straight-line array loop over the world's open-adjacency
             cache; rows materialise on first touch, and growth replaces
             the arena array, so re-fetch the view after a miss. *)
          let s = Array.unsafe_get rows (2 * u) in
          let s =
            if s >= 0 then s
            else begin
              World.ensure_row world u;
              (match World.adjacency_view world with
              | Some (_, a) -> arena := a
              | None -> assert false);
              Array.unsafe_get rows (2 * u)
            end
          in
          let ar = !arena in
          for i = s to s + Array.unsafe_get rows ((2 * u) + 1) - 1 do
            let v = Array.unsafe_get ar i in
            if not (bit_get visited v) then discover v d
          done
      | None ->
          World.iter_open_neighbors world u (fun v ->
              if not (bit_get visited v) then discover v d)
    in
    (try
       while !frontier_live do
         let d = !depth + 1 in
         grew := false;
         (* Word-parallel scan of the frontier: one 64-bit load rules
            out 64 vertices at a time; only non-zero words fall through
            to per-byte, per-bit expansion. *)
         for wi = 0 to words - 1 do
           if Bytes.get_int64_le frontier (8 * wi) <> 0L then
             for byte = 8 * wi to (8 * wi) + 7 do
               let bits = Char.code (Bytes.unsafe_get frontier byte) in
               if bits <> 0 then
                 for bit = 0 to 7 do
                   if bits land (1 lsl bit) <> 0 then
                     expand ((byte lsl 3) lor bit) d
                 done
             done
         done;
         Bytes.blit next 0 frontier 0 bytes;
         Bytes.fill next 0 bytes '\000';
         depth := d;
         frontier_live := !grew
       done
     with Exit -> ());
    match !result with
    | `Stopped d -> `Stopped d
    | `Exhausted -> if !truncated then `Truncated else `Exhausted_full
  end

type engine = Table | Arena | Bitset

let bfs_via engine ?limit world start ~stop ~visit =
  (* The engines index their arrays by [start] unchecked. *)
  Topology.Graph.check_vertex (World.graph world) start;
  match engine with
  | Table -> bfs_table ?limit world start ~stop ~visit
  | Arena -> bfs_arena ?limit world start ~stop ~visit
  | Bitset -> bfs_bitset ?limit world start ~stop ~visit

(* The order-preserving engine for the world's representation — what
   production used before the bitset engine existed. *)
let repr_engine world = if World.cached world then Arena else Table

(* Whether a query may run on the bitset engine without any observer
   noticing: the world must be cached (bitsets index by vertex), no
   limit may cut a level mid-way (which vertices a truncated run visits
   is order-dependent), and tracing must be off (Reveal_step event order
   is a stable artefact). Metrics are not part of the choice: turning
   an instrument on must not change which engine runs, so an
   early-stopping search's [reveal.visited] counts the bitset engine's
   visits whether or not anyone is counting. *)
let order_free ?limit world =
  World.cached world && limit = None && not (Obs.Trace.on ())

(* Observability shims: when tracing/metrics are on, the per-vertex
   [visit] hook additionally emits [Reveal_step] events and counts
   discoveries; when both are off the original closure is passed
   unchanged and the BFS engines see zero extra work. Timing wraps the
   whole exploration — reveal BFS is one of the three wall-time sinks
   the profiling layer attributes. *)

let observed_bfs ~engine ?limit world start ~stop ~visit =
  let traced = Obs.Trace.on () in
  let metered = Obs.Metrics.on () in
  let visited = ref 0 in
  let visit =
    if traced || metered then (fun x d ->
      if traced then Obs.Trace.emit (Obs.Trace.Reveal_step { v = x; dist = d });
      incr visited;
      visit x d)
    else visit
  in
  let run () = bfs_via engine ?limit world start ~stop ~visit in
  let result = if Obs.Timing.on () then Obs.Timing.span "reveal.bfs" run else run () in
  if metered then begin
    Obs.Metrics.tick "reveal.bfs_runs";
    Obs.Metrics.tick_n "reveal.visited" !visited
  end;
  result

let connected_with ~engine ?limit world u v =
  Topology.Graph.check_vertex (World.graph world) u;
  Topology.Graph.check_vertex (World.graph world) v;
  if u = v then Connected 0
  else
    match
      observed_bfs ~engine ?limit world u ~stop:(fun x -> x = v)
        ~visit:(fun _ _ -> ())
    with
    | `Stopped d -> Connected d
    | `Truncated -> Unknown
    | `Exhausted_full -> Disconnected

let connected ?limit world u v =
  (* Bitset stays because the catalog measurably needs it. With it
     removed (10 alternating pairs, `perfbench/run.py --workload
     catalog --seconds 25`, 2 vCPUs) catalog wall_s went from a median
     7.22 s [q1 6.77, q3 8.62] to 8.06 s [7.65, 8.70], slower in 8 of 10
     pairs, and latency_p50_ms from 1554 to 1768; run alone, E2's
     fresh-world unlimited reveals took 2.24 s -> 2.73 s (slower in 5 of
     5 pairs). Only E9 got faster on Arena, 1.89 s -> 1.40 s. *)
  let engine = if order_free ?limit world then Bitset else repr_engine world in
  connected_with ~engine ?limit world u v

let connected_via engine ?limit world u v =
  connected_with ~engine ?limit world u v

let cluster_of ?limit world v =
  Topology.Graph.check_vertex (World.graph world) v;
  let members = ref [] in
  (* Member order follows visit order, so stay on the order-preserving
     engines; order-free callers wanting speed use cluster_size. *)
  match
    observed_bfs ~engine:(repr_engine world) ?limit world v
      ~stop:(fun _ -> false)
      ~visit:(fun x _ -> members := x :: !members)
  with
  | `Stopped _ -> assert false
  | `Truncated -> (!members, true)
  | `Exhausted_full -> (!members, false)

let cluster_size_with ~engine ?limit world v =
  Topology.Graph.check_vertex (World.graph world) v;
  (* Count in the visit hook — a full exploration visits the same set of
     vertices in every engine, so the count is engine-independent (and a
     truncated one visits exactly [limit] by the shared convention). *)
  let count = ref 0 in
  match
    observed_bfs ~engine ?limit world v
      ~stop:(fun _ -> false)
      ~visit:(fun _ _ -> incr count)
  with
  | `Stopped _ -> assert false
  | `Truncated -> (!count, true)
  | `Exhausted_full -> (!count, false)

let cluster_size ?limit world v =
  let engine = if order_free ?limit world then Bitset else repr_engine world in
  cluster_size_with ~engine ?limit world v

let cluster_size_via engine ?limit world v =
  cluster_size_with ~engine ?limit world v

let ball_table world v ~radius =
  let dist = Hashtbl.create 256 in
  Hashtbl.replace dist v 0;
  let queue = Queue.create () in
  Queue.push v queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let du = Hashtbl.find dist u in
    if du < radius then
      Array.iter
        (fun w ->
          if not (Hashtbl.mem dist w) then begin
            Hashtbl.replace dist w (du + 1);
            Queue.push w queue
          end)
        (World.open_neighbors world u)
  done;
  dist

let ball_arena world v ~radius =
  let n = (World.graph world).Topology.Graph.vertex_count in
  with_scratch n @@ fun sc tail ->
  let dist = sc.dist and queue = sc.queue in
  queue.(0) <- v;
  tail := 1;
  dist.(v) <- 0;
  let head = ref 0 in
  while !head < !tail do
    let u = Array.unsafe_get queue !head in
    incr head;
    let du = Array.unsafe_get dist u in
    if du < radius then
      World.iter_open_neighbors world u (fun w ->
          if Array.unsafe_get dist w < 0 then begin
            Array.unsafe_set queue !tail w;
            incr tail;
            Array.unsafe_set dist w (du + 1)
          end)
  done;
  (* The queue prefix holds exactly the discovered vertices. *)
  let table = Hashtbl.create (2 * !tail) in
  for i = 0 to !tail - 1 do
    let u = Array.unsafe_get queue i in
    Hashtbl.replace table u dist.(u)
  done;
  table

let ball world v ~radius =
  Topology.Graph.check_vertex (World.graph world) v;
  if radius < 0 then invalid_arg "Reveal.ball: negative radius";
  if World.cached world then ball_arena world v ~radius
  else ball_table world v ~radius
