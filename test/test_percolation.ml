(* Tests for the percolation library: union-find, worlds, the probe
   oracle (counting, locality, budget), reveal, clusters, chemical
   distance and threshold estimation. *)

module G = Topology.Graph
module P = Percolation

(* ------------------------------------------------------------------ *)
(* Union-find                                                          *)

let test_uf_basics () =
  let uf = P.Union_find.create 10 in
  Alcotest.(check int) "sets" 10 (P.Union_find.set_count uf);
  Alcotest.(check bool) "fresh union" true (P.Union_find.union uf 0 1);
  Alcotest.(check bool) "repeat union" false (P.Union_find.union uf 0 1);
  Alcotest.(check bool) "same" true (P.Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (P.Union_find.same uf 0 2);
  Alcotest.(check int) "size" 2 (P.Union_find.size uf 1);
  Alcotest.(check int) "sets after" 9 (P.Union_find.set_count uf);
  Alcotest.(check int) "elements" 10 (P.Union_find.element_count uf)

let test_uf_transitive () =
  let uf = P.Union_find.create 6 in
  ignore (P.Union_find.union uf 0 1);
  ignore (P.Union_find.union uf 2 3);
  ignore (P.Union_find.union uf 1 2);
  Alcotest.(check bool) "0~3" true (P.Union_find.same uf 0 3);
  Alcotest.(check int) "size 4" 4 (P.Union_find.size uf 0)

let test_uf_chain () =
  let n = 1000 in
  let uf = P.Union_find.create n in
  for i = 0 to n - 2 do
    ignore (P.Union_find.union uf i (i + 1))
  done;
  Alcotest.(check int) "one set" 1 (P.Union_find.set_count uf);
  Alcotest.(check int) "full size" n (P.Union_find.size uf (n / 2))

let test_uf_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Union_find.create: negative size")
    (fun () -> ignore (P.Union_find.create (-1)))

(* ------------------------------------------------------------------ *)
(* World                                                               *)

let hypercube6 = Topology.Hypercube.graph 6

let test_world_determinism () =
  let w1 = P.World.create hypercube6 ~p:0.5 ~seed:42L in
  let w2 = P.World.create hypercube6 ~p:0.5 ~seed:42L in
  G.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool) "same state" (P.World.is_open w1 u v) (P.World.is_open w2 u v))

let test_world_extremes () =
  let all_open = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let all_closed = P.World.create hypercube6 ~p:0.0 ~seed:1L in
  G.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool) "open at 1" true (P.World.is_open all_open u v);
      Alcotest.(check bool) "closed at 0" false (P.World.is_open all_closed u v))

let test_world_monotone_coupling () =
  let lo = P.World.create hypercube6 ~p:0.3 ~seed:7L in
  let hi = P.World.create hypercube6 ~p:0.7 ~seed:7L in
  G.iter_edges hypercube6 (fun u v ->
      if P.World.is_open lo u v then
        Alcotest.(check bool) "coupled" true (P.World.is_open hi u v))

let test_world_open_rate () =
  let w = P.World.create hypercube6 ~p:0.4 ~seed:9L in
  let total = G.edge_count hypercube6 in
  let opened = P.World.count_open_edges w in
  let rate = float_of_int opened /. float_of_int total in
  Alcotest.(check bool) (Printf.sprintf "rate %.3f near 0.4" rate) true
    (rate > 0.32 && rate < 0.48)

let test_world_open_neighbors () =
  let w = P.World.create hypercube6 ~p:0.5 ~seed:11L in
  for v = 0 to 63 do
    let opened = P.World.open_neighbors w v in
    Array.iter
      (fun u -> Alcotest.(check bool) "consistent" true (P.World.is_open w u v))
      opened;
    Alcotest.(check int) "degree" (Array.length opened) (P.World.open_degree w v)
  done

let test_world_invalid_p () =
  Alcotest.check_raises "p>1" (Invalid_argument "World.create: p outside [0,1]")
    (fun () -> ignore (P.World.create hypercube6 ~p:1.5 ~seed:0L))

let test_world_symmetric () =
  let w = P.World.create hypercube6 ~p:0.5 ~seed:13L in
  G.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool) "symmetric" (P.World.is_open w u v) (P.World.is_open w v u))

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)

let test_oracle_counting () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let o = P.Oracle.create w ~source:0 in
  ignore (P.Oracle.probe o 0 1);
  ignore (P.Oracle.probe o 0 1);
  ignore (P.Oracle.probe o 1 0);
  ignore (P.Oracle.probe o 0 2);
  Alcotest.(check int) "distinct" 2 (P.Oracle.distinct_probes o);
  Alcotest.(check int) "raw" 4 (P.Oracle.raw_probes o)

let test_oracle_consistency_with_world () =
  let w = P.World.create hypercube6 ~p:0.5 ~seed:21L in
  let o = P.Oracle.create ~policy:P.Oracle.Unrestricted w ~source:0 in
  G.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool) "matches world" (P.World.is_open w u v) (P.Oracle.probe o u v))

let test_oracle_locality_enforced () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let o = P.Oracle.create w ~source:0 in
  (* Edge (5,7) has no endpoint reached yet. *)
  (match P.Oracle.probe o 5 7 with
  | _ -> Alcotest.fail "expected locality violation"
  | exception P.Oracle.Locality_violation (5, 7) -> ());
  (* Probing from the source is fine and extends the reach. *)
  Alcotest.(check bool) "open" true (P.Oracle.probe o 0 1);
  Alcotest.(check bool) "1 reached" true (P.Oracle.reached o 1);
  Alcotest.(check bool) "open" true (P.Oracle.probe o 1 5);
  Alcotest.(check bool) "now allowed" true (P.Oracle.probe o 5 7)

let test_oracle_locality_closed_edge_no_extension () =
  (* A closed probe must not extend the reached set. *)
  let closed = P.World.create hypercube6 ~p:0.0 ~seed:1L in
  let o = P.Oracle.create closed ~source:0 in
  Alcotest.(check bool) "closed" false (P.Oracle.probe o 0 1);
  Alcotest.(check bool) "1 not reached" false (P.Oracle.reached o 1);
  match P.Oracle.probe o 1 3 with
  | _ -> Alcotest.fail "expected locality violation"
  | exception P.Oracle.Locality_violation _ -> ()

let test_oracle_unrestricted_any_edge () =
  let w = P.World.create hypercube6 ~p:0.5 ~seed:3L in
  let o = P.Oracle.create ~policy:P.Oracle.Unrestricted w ~source:0 in
  ignore (P.Oracle.probe o 40 41);
  Alcotest.(check int) "counted" 1 (P.Oracle.distinct_probes o)

let test_oracle_non_edge_rejected () =
  let w = P.World.create hypercube6 ~p:0.5 ~seed:3L in
  let o = P.Oracle.create ~policy:P.Oracle.Unrestricted w ~source:0 in
  (match P.Oracle.probe o 0 3 with
  | _ -> Alcotest.fail "non-edge accepted"
  | exception G.Not_an_edge (0, 3) -> ());
  Alcotest.(check int) "not counted" 0 (P.Oracle.distinct_probes o)

let test_oracle_budget () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let o = P.Oracle.create ~budget:2 w ~source:0 in
  ignore (P.Oracle.probe o 0 1);
  ignore (P.Oracle.probe o 0 2);
  Alcotest.(check (option int)) "spent" (Some 0) (P.Oracle.budget_remaining o);
  (* Re-probing a cached edge stays free... *)
  ignore (P.Oracle.probe o 0 1);
  (* ...but a fresh edge raises. *)
  (match P.Oracle.probe o 0 4 with
  | _ -> Alcotest.fail "expected budget exhaustion"
  | exception P.Oracle.Budget_exhausted -> ());
  Alcotest.(check int) "distinct unchanged" 2 (P.Oracle.distinct_probes o)

let test_oracle_budget_invalid () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  Alcotest.check_raises "zero budget"
    (Invalid_argument "Oracle.create: budget must be positive") (fun () ->
      ignore (P.Oracle.create ~budget:0 w ~source:0))

let test_oracle_path_to () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let o = P.Oracle.create w ~source:0 in
  ignore (P.Oracle.probe o 0 1);
  ignore (P.Oracle.probe o 1 3);
  ignore (P.Oracle.probe o 3 7);
  (match P.Oracle.path_to o 7 with
  | Some path ->
      Alcotest.(check (list int)) "path" [ 0; 1; 3; 7 ] path
  | None -> Alcotest.fail "expected a path");
  Alcotest.(check bool) "unreached" true (P.Oracle.path_to o 63 = None);
  Alcotest.(check (list int)) "source path" [ 0 ] (Option.get (P.Oracle.path_to o 0))

let test_oracle_reached_bookkeeping () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let o = P.Oracle.create w ~source:0 in
  Alcotest.(check int) "initial" 1 (P.Oracle.reached_count o);
  ignore (P.Oracle.probe o 0 1);
  ignore (P.Oracle.probe o 0 2);
  Alcotest.(check int) "three" 3 (P.Oracle.reached_count o);
  let vertices = List.sort compare (P.Oracle.reached_vertices o) in
  Alcotest.(check (list int)) "members" [ 0; 1; 2 ] vertices

let test_oracle_deferred_extension () =
  (* An open edge probed while only one endpoint is reached, then touched
     again after the other side becomes relevant, must keep reach
     consistent (cached probes can still extend). *)
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let o = P.Oracle.create w ~source:0 in
  ignore (P.Oracle.probe o 0 1);
  ignore (P.Oracle.probe o 1 3);
  (* Probe (3,2): extends reach to 2 via 3. *)
  ignore (P.Oracle.probe o 3 2);
  Alcotest.(check bool) "2 reached" true (P.Oracle.reached o 2);
  match P.Oracle.path_to o 2 with
  | Some path ->
      Alcotest.(check (list int)) "path via 3" [ 0; 1; 3; 2 ] path
  | None -> Alcotest.fail "expected path"

(* ------------------------------------------------------------------ *)
(* Reveal                                                              *)

let test_reveal_connected_full_world () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  (match P.Reveal.connected w 0 63 with
  | P.Reveal.Connected d -> Alcotest.(check int) "distance" 6 d
  | _ -> Alcotest.fail "expected connected");
  match P.Reveal.connected w 5 5 with
  | P.Reveal.Connected d -> Alcotest.(check int) "self" 0 d
  | _ -> Alcotest.fail "self connected"

let test_reveal_disconnected_empty_world () =
  let w = P.World.create hypercube6 ~p:0.0 ~seed:1L in
  match P.Reveal.connected w 0 63 with
  | P.Reveal.Disconnected -> ()
  | _ -> Alcotest.fail "expected disconnected"

let test_reveal_limit () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  match P.Reveal.connected ~limit:3 w 0 63 with
  | P.Reveal.Unknown -> ()
  | _ -> Alcotest.fail "expected unknown under tiny limit"

let test_reveal_matches_clusters () =
  (* Reveal's pairwise verdicts must agree with the union-find census. *)
  let w = P.World.create hypercube6 ~p:0.45 ~seed:31L in
  let uf = P.Clusters.components w in
  let stream = Prng.Stream.create 3L in
  for _ = 1 to 100 do
    let u, v = Prng.Sample.distinct_pair stream 64 in
    let by_reveal =
      match P.Reveal.connected w u v with
      | P.Reveal.Connected _ -> true
      | P.Reveal.Disconnected -> false
      | P.Reveal.Unknown -> Alcotest.fail "no limit set"
    in
    Alcotest.(check bool)
      (Printf.sprintf "agree on (%d,%d)" u v)
      (P.Union_find.same uf u v) by_reveal
  done

let test_reveal_cluster_of () =
  let w = P.World.create hypercube6 ~p:0.45 ~seed:31L in
  let members, truncated = P.Reveal.cluster_of w 0 in
  Alcotest.(check bool) "not truncated" false truncated;
  Alcotest.(check bool) "contains 0" true (List.mem 0 members);
  let size, _ = P.Reveal.cluster_size w 0 in
  Alcotest.(check int) "size matches" (List.length members) size;
  let uf = P.Clusters.components w in
  Alcotest.(check int) "matches census" (P.Union_find.size uf 0) size

let test_reveal_ball () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let ball = P.Reveal.ball w 0 ~radius:2 in
  (* Full world: |B(0,2)| = 1 + 6 + 15 = 22. *)
  Alcotest.(check int) "ball size" 22 (Hashtbl.length ball);
  Hashtbl.iter
    (fun v d ->
      Alcotest.(check bool) "radius" true (d <= 2);
      Alcotest.(check int) "distance correct" (Topology.Hypercube.hamming 0 v) d)
    ball

(* ------------------------------------------------------------------ *)
(* Clusters                                                            *)

let test_census_full_world () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let census = P.Clusters.census w in
  Alcotest.(check int) "one component" 1 census.P.Clusters.component_count;
  Alcotest.(check int) "largest" 64 census.P.Clusters.largest;
  Alcotest.(check int) "second" 0 census.P.Clusters.second_largest;
  Alcotest.(check int) "open edges" 192 census.P.Clusters.open_edge_count;
  Alcotest.(check (float 1e-9)) "fraction" 1.0 (P.Clusters.giant_fraction census);
  Alcotest.(check bool) "giant" true (P.Clusters.has_giant census)

let test_census_empty_world () =
  let w = P.World.create hypercube6 ~p:0.0 ~seed:1L in
  let census = P.Clusters.census w in
  Alcotest.(check int) "all singletons" 64 census.P.Clusters.component_count;
  Alcotest.(check int) "largest" 1 census.P.Clusters.largest;
  Alcotest.(check bool) "no giant" false (P.Clusters.has_giant ~threshold:0.05 census)

let test_census_sizes_sum () =
  let w = P.World.create hypercube6 ~p:0.4 ~seed:71L in
  let census = P.Clusters.census w in
  let total = Array.fold_left ( + ) 0 census.P.Clusters.sizes in
  Alcotest.(check int) "partition" 64 total;
  (* Sizes sorted decreasing. *)
  let sorted = Array.copy census.P.Clusters.sizes in
  Array.sort (fun a b -> compare b a) sorted;
  Alcotest.(check (array int)) "sorted" sorted census.P.Clusters.sizes

let test_in_largest () =
  let w = P.World.create hypercube6 ~p:0.9 ~seed:5L in
  let census = P.Clusters.census w in
  if census.P.Clusters.largest = 64 then
    Alcotest.(check bool) "member" true (P.Clusters.in_largest w 17)

let test_in_largest_tie () =
  (* Two components of equal size: the canonical tie-break (smallest
     root id) must pick exactly one — the historical size-comparison
     implementation answered [true] on both sides of a tie. *)
  let path6 = Topology.Mesh.graph ~d:1 ~m:6 in
  let w =
    P.World.remove_edges (P.World.create path6 ~p:1.0 ~seed:1L) [ (2, 3) ]
  in
  let members = List.filter (P.Clusters.in_largest w) [ 0; 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "one side only" 3 (List.length members);
  Alcotest.(check bool) "the two halves disagree" true
    (P.Clusters.in_largest w 0 <> P.Clusters.in_largest w 5);
  (* The reusable membership answers identically without a rebuild per
     query. *)
  let m = P.Clusters.membership w in
  Alcotest.(check int) "largest size" 3 m.P.Clusters.largest_size;
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "member %d" v)
        (P.Clusters.in_largest w v) (P.Clusters.member m v))
    [ 0; 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Chemical                                                            *)

let test_chemical_distance_full () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  Alcotest.(check (option int)) "full world = metric" (Some 6)
    (P.Chemical.distance w 0 63);
  Alcotest.(check (option (float 1e-9))) "stretch 1" (Some 1.0)
    (P.Chemical.stretch w 0 63)

let test_chemical_distance_disconnected () =
  let w = P.World.create hypercube6 ~p:0.0 ~seed:1L in
  Alcotest.(check (option int)) "none" None (P.Chemical.distance w 0 63)

let test_chemical_stretch_ge_one () =
  let w = P.World.create hypercube6 ~p:0.6 ~seed:91L in
  let stream = Prng.Stream.create 4L in
  for _ = 1 to 50 do
    let u, v = Prng.Sample.distinct_pair stream 64 in
    match P.Chemical.stretch w u v with
    | Some s -> Alcotest.(check bool) "stretch >= 1" true (s >= 1.0 -. 1e-9)
    | None -> ()
  done

let test_chemical_eccentricity_sample () =
  let w = P.World.create hypercube6 ~p:0.9 ~seed:15L in
  let stream = Prng.Stream.create 5L in
  let ds = P.Chemical.eccentricity_sample stream ~pairs:30 w in
  Alcotest.(check bool) "some connected pairs" true (List.length ds > 0);
  List.iter (fun d -> Alcotest.(check bool) "positive" true (d >= 1)) ds

(* ------------------------------------------------------------------ *)
(* Threshold                                                           *)

let test_threshold_success_rate () =
  let stream = Prng.Stream.create 6L in
  let rate =
    P.Threshold.success_rate stream ~trials:200 ~event:(fun ~seed ->
        Prng.Coin.bernoulli ~seed ~p:0.3 0)
  in
  Alcotest.(check bool) (Printf.sprintf "rate %.2f near 0.3" rate) true
    (rate > 0.2 && rate < 0.4)

let test_threshold_bisect_known () =
  (* Event: a single coin is open at probability p — the "threshold" of
     the median success probability 1/2 is p = 1/2. *)
  let stream = Prng.Stream.create 7L in
  let estimate =
    P.Threshold.bisect ~trials_per_pivot:400 stream
      ~event:(fun ~p ~seed ->
        let opens = ref 0 in
        for i = 0 to 99 do
          if Prng.Coin.bernoulli ~seed ~p i then incr opens
        done;
        !opens >= 50)
      ~lo:0.0 ~hi:1.0
  in
  Alcotest.(check bool) (Printf.sprintf "estimate %.3f near 0.5" estimate) true
    (estimate > 0.45 && estimate < 0.55)

let test_threshold_sweep () =
  let stream = Prng.Stream.create 8L in
  let results =
    P.Threshold.sweep stream ~trials:100
      ~event:(fun ~p ~seed -> Prng.Coin.bernoulli ~seed ~p 0)
      ~ps:[ 0.1; 0.9 ]
  in
  match results with
  | [ (0.1, low); (0.9, high) ] ->
      Alcotest.(check bool) "ordered" true (low < high)
  | _ -> Alcotest.fail "wrong shape"

let test_threshold_mesh_half () =
  (* End-to-end: the 2-d mesh giant threshold should land near 1/2. A
     small grid keeps this fast; tolerance is generous. *)
  let graph = Topology.Mesh.graph ~d:2 ~m:24 in
  let stream = Prng.Stream.create 9L in
  let event ~p ~seed =
    let world = P.World.create graph ~p ~seed in
    P.Clusters.has_giant ~threshold:0.2 (P.Clusters.census world)
  in
  let estimate =
    P.Threshold.bisect ~trials_per_pivot:20 ~iterations:8 stream ~event ~lo:0.1 ~hi:0.9
  in
  Alcotest.(check bool) (Printf.sprintf "p_c estimate %.3f near 0.5" estimate) true
    (estimate > 0.38 && estimate < 0.62)

(* ------------------------------------------------------------------ *)
(* Site percolation                                                    *)

let test_site_bond_world_all_alive () =
  let w = P.World.create hypercube6 ~p:0.5 ~seed:1L in
  for v = 0 to 63 do
    Alcotest.(check bool) "alive in bond world" true (P.World.vertex_alive w v)
  done;
  Alcotest.(check bool) "no site p" true (P.World.site_p w = None)

let test_site_extremes () =
  let alive = P.World.create ~site_p:1.0 hypercube6 ~p:1.0 ~seed:1L in
  let dead = P.World.create ~site_p:0.0 hypercube6 ~p:1.0 ~seed:1L in
  Topology.Graph.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool) "all open" true (P.World.is_open alive u v);
      Alcotest.(check bool) "all closed" false (P.World.is_open dead u v))

let test_site_edge_open_iff_both_alive () =
  let w = P.World.create ~site_p:0.6 hypercube6 ~p:1.0 ~seed:7L in
  Topology.Graph.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool) "consistency"
        (P.World.vertex_alive w u && P.World.vertex_alive w v)
        (P.World.is_open w u v))

let test_site_dead_vertex_isolated () =
  let w = P.World.create ~site_p:0.5 hypercube6 ~p:1.0 ~seed:9L in
  for v = 0 to 63 do
    if not (P.World.vertex_alive w v) then
      Alcotest.(check int) "no open edges" 0 (P.World.open_degree w v)
  done

let test_site_alive_rate () =
  let g = Topology.Complete.graph 2000 in
  let w = P.World.create ~site_p:0.3 g ~p:1.0 ~seed:11L in
  let alive = ref 0 in
  for v = 0 to 1999 do
    if P.World.vertex_alive w v then incr alive
  done;
  let rate = float_of_int !alive /. 2000.0 in
  Alcotest.(check bool) (Printf.sprintf "rate %.3f near 0.3" rate) true
    (rate > 0.27 && rate < 0.33)

let test_site_independent_of_bond_coins () =
  (* Same seed: the vertex coins must not mirror the edge coins. *)
  let g = Topology.Complete.graph 500 in
  let w = P.World.create ~site_p:0.5 g ~p:0.5 ~seed:13L in
  let agree = ref 0 in
  for v = 0 to 498 do
    (* Compare vertex v's liveness with edge (v, v+1)'s raw coin. *)
    let edge_coin =
      Prng.Coin.bernoulli ~seed:13L ~p:0.5 (g.Topology.Graph.edge_id v (v + 1))
    in
    if P.World.vertex_alive w v = edge_coin then incr agree
  done;
  let rate = float_of_int !agree /. 499.0 in
  Alcotest.(check bool) "uncorrelated" true (rate > 0.4 && rate < 0.6)

(* ------------------------------------------------------------------ *)
(* Worst-case faults                                                   *)

let test_remove_edges_closes_them () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let attacked = P.World.remove_edges w [ (0, 1); (0, 2) ] in
  Alcotest.(check bool) "removed closed" false (P.World.is_open attacked 0 1);
  Alcotest.(check bool) "removed closed 2" false (P.World.is_open attacked 0 2);
  Alcotest.(check bool) "others open" true (P.World.is_open attacked 0 4);
  Alcotest.(check int) "count" 2 (P.World.removed_count attacked);
  (* The original world is untouched. *)
  Alcotest.(check bool) "original intact" true (P.World.is_open w 0 1);
  Alcotest.(check int) "original count" 0 (P.World.removed_count w)

let test_remove_edges_cumulative () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let once = P.World.remove_edges w [ (0, 1) ] in
  let twice = P.World.remove_edges once [ (0, 2); (0, 1) ] in
  Alcotest.(check int) "dedup + cumulative" 2 (P.World.removed_count twice);
  Alcotest.(check bool) "first still closed" false (P.World.is_open twice 0 1)

let test_remove_edges_non_edge () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  match P.World.remove_edges w [ (0, 3) ] with
  | _ -> Alcotest.fail "non-edge accepted"
  | exception Topology.Graph.Not_an_edge _ -> ()

let test_adversary_min_cut_disconnects () =
  let g = Topology.Hypercube.graph 6 in
  let w = P.World.create g ~p:1.0 ~seed:1L in
  let stream = Prng.Stream.create 51L in
  let attacked =
    P.Adversary.attack stream w P.Adversary.Min_cut ~source:0 ~target:63 ~budget:6
  in
  Alcotest.(check int) "six removals suffice" 6 (P.World.removed_count attacked);
  match P.Reveal.connected attacked 0 63 with
  | P.Reveal.Disconnected -> ()
  | P.Reveal.Connected _ | P.Reveal.Unknown ->
      Alcotest.fail "min-cut attack must disconnect"

let test_adversary_min_cut_insufficient_budget () =
  let g = Topology.Hypercube.graph 6 in
  let w = P.World.create g ~p:1.0 ~seed:1L in
  let stream = Prng.Stream.create 52L in
  let attacked =
    P.Adversary.attack stream w P.Adversary.Min_cut ~source:0 ~target:63 ~budget:5
  in
  match P.Reveal.connected attacked 0 63 with
  | P.Reveal.Connected _ -> ()
  | P.Reveal.Disconnected | P.Reveal.Unknown ->
      Alcotest.fail "connectivity 6 survives 5 deletions"

let test_adversary_around_source () =
  let g = Topology.Hypercube.graph 6 in
  let stream = Prng.Stream.create 53L in
  let edges =
    P.Adversary.pick_edges stream g P.Adversary.Around_source ~source:0 ~target:63
      ~budget:6
  in
  Alcotest.(check int) "budget filled" 6 (List.length edges);
  (* The first six harvested edges are exactly the source's incident ones. *)
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "incident to source" true (u = 0 || v = 0))
    edges

let test_adversary_random_distinct () =
  let g = Topology.Hypercube.graph 5 in
  let stream = Prng.Stream.create 54L in
  let edges =
    P.Adversary.pick_edges stream g P.Adversary.Random ~source:0 ~target:31 ~budget:40
  in
  Alcotest.(check int) "forty edges" 40 (List.length edges);
  let ids = Hashtbl.create 64 in
  List.iter (fun (u, v) -> Hashtbl.replace ids (g.Topology.Graph.edge_id u v) ()) edges;
  Alcotest.(check int) "distinct" 40 (Hashtbl.length ids)

let test_adversary_over_budget_capped () =
  let g = Topology.Theta.graph 3 in
  let stream = Prng.Stream.create 55L in
  let edges =
    P.Adversary.pick_edges stream g P.Adversary.Random ~source:0 ~target:1 ~budget:100
  in
  Alcotest.(check int) "capped at |E|" 6 (List.length edges)

(* ------------------------------------------------------------------ *)
(* Scaling                                                             *)

let line size slope points =
  { P.Scaling.size; points = List.map (fun x -> (x, slope *. x)) points }

let test_scaling_interpolate () =
  let curve = { P.Scaling.size = 1; points = [ (0.0, 0.0); (1.0, 2.0); (2.0, 2.0) ] } in
  Alcotest.(check (float 1e-9)) "midpoint" 1.0 (P.Scaling.interpolate curve 0.5);
  Alcotest.(check (float 1e-9)) "node" 2.0 (P.Scaling.interpolate curve 1.0);
  Alcotest.(check (float 1e-9)) "flat" 2.0 (P.Scaling.interpolate curve 1.7);
  Alcotest.(check (float 1e-9)) "clamp low" 0.0 (P.Scaling.interpolate curve (-1.0));
  Alcotest.(check (float 1e-9)) "clamp high" 2.0 (P.Scaling.interpolate curve 9.0)

let test_scaling_crossing_exact () =
  (* y = x and y = 1 - x cross at exactly 1/2. *)
  let grid = [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  let a = { P.Scaling.size = 1; points = List.map (fun x -> (x, x)) grid } in
  let b = { P.Scaling.size = 2; points = List.map (fun x -> (x, 1.0 -. x)) grid } in
  match P.Scaling.crossing a b with
  | Some x -> Alcotest.(check (float 1e-6)) "crossing" 0.5 x
  | None -> Alcotest.fail "expected a crossing"

let test_scaling_no_crossing () =
  let grid = [ 0.0; 1.0 ] in
  let a = line 1 1.0 grid and b = line 2 2.0 grid in
  (* Both pass through the origin with different slopes: difference is 0
     at 0 — counts as a crossing at 0. Shift b up to remove it. *)
  let b = { b with P.Scaling.points = List.map (fun (x, y) -> (x, y +. 1.0)) b.P.Scaling.points } in
  Alcotest.(check bool) "none" true (P.Scaling.crossing a b = None)

let test_scaling_estimate_threshold () =
  let grid = [ 0.0; 0.5; 1.0 ] in
  let make size shift =
    { P.Scaling.size; points = List.map (fun x -> (x, x -. shift)) grid }
  in
  (* Curves x - 0.1, x - 0.2, x - 0.3 against each other never cross;
     estimate must be None. *)
  Alcotest.(check bool) "no crossings" true
    (P.Scaling.estimate_threshold [ make 1 0.1; make 2 0.2; make 3 0.3 ] = None);
  (* Steepening sigmoid-like family crossing at 0.5. *)
  let sigmoid size =
    let steepness = float_of_int size in
    {
      P.Scaling.size;
      points =
        List.map
          (fun x -> (x, 1.0 /. (1.0 +. exp (-.steepness *. (x -. 0.5)))))
          [ 0.0; 0.2; 0.4; 0.5; 0.6; 0.8; 1.0 ];
    }
  in
  match P.Scaling.estimate_threshold [ sigmoid 4; sigmoid 8; sigmoid 16 ] with
  | Some estimate -> Alcotest.(check (float 0.02)) "sigmoid family" 0.5 estimate
  | None -> Alcotest.fail "expected crossings"

let test_scaling_measured_curve_monotone () =
  (* Giant fraction must increase with p (up to sampling noise, which the
     shared coupling removes entirely: same seeds, monotone worlds). *)
  let stream = Prng.Stream.create 71L in
  let curve =
    P.Scaling.measure_giant_curve stream
      ~graph_of_size:(fun m -> Topology.Mesh.graph ~d:2 ~m)
      ~size:12
      ~ps:[ 0.3; 0.5; 0.7 ]
      ~trials:5
  in
  match curve.P.Scaling.points with
  | [ (_, a); (_, b); (_, c) ] ->
      Alcotest.(check bool) "increasing" true (a <= b && b <= c)
  | _ -> Alcotest.fail "three points expected"

(* ------------------------------------------------------------------ *)
(* Branching                                                           *)

let test_branching_survival_closed_form () =
  (* s = (2p-1)/p^2 must be the fixed point of the depth recursion. *)
  List.iter
    (fun p ->
      let limit = P.Branching.survival ~p in
      let deep = P.Branching.survival_to_depth ~p 200 in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "p=%.2f" p) limit deep)
    [ 0.55; 0.6; 0.7; 0.8; 0.9; 1.0 ]

let test_branching_subcritical_dies () =
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9)) "no survival" 0.0 (P.Branching.survival ~p);
      Alcotest.(check bool) "depth survival shrinks" true
        (P.Branching.survival_to_depth ~p 50 < 0.05))
    [ 0.1; 0.3; 0.45 ];
  (* Critical case: survival to depth k decays only like Θ(1/k). *)
  Alcotest.(check (float 1e-9)) "critical limit" 0.0 (P.Branching.survival ~p:0.5);
  let critical_50 = P.Branching.survival_to_depth ~p:0.5 50 in
  Alcotest.(check bool)
    (Printf.sprintf "critical decay %.3f in (0.04, 0.15)" critical_50)
    true
    (critical_50 > 0.04 && critical_50 < 0.15)

let test_branching_monotone_in_depth () =
  let p = 0.7 in
  let rec check k =
    if k < 30 then begin
      Alcotest.(check bool) "monotone" true
        (P.Branching.survival_to_depth ~p (k + 1)
        <= P.Branching.survival_to_depth ~p k +. 1e-12);
      check (k + 1)
    end
  in
  check 0

let test_branching_dual () =
  let p = 0.8 in
  let dual = P.Branching.dual_parameter ~p in
  Alcotest.(check bool) "dual subcritical" true (dual < 0.5);
  (* p = 0.8: e = 1 - 0.9375 = 0.0625, sqrt e = 0.25, dual = 0.2. *)
  Alcotest.(check (float 1e-9)) "dual value" 0.2 dual;
  Alcotest.(check (float 1e-9)) "failed branch size" (1.0 /. 0.6)
    (P.Branching.expected_failed_branch_size ~p);
  Alcotest.check_raises "needs supercritical"
    (Invalid_argument "Branching.dual_parameter: need p > 1/2") (fun () ->
      ignore (P.Branching.dual_parameter ~p:0.5))

let test_branching_total_progeny () =
  Alcotest.(check (float 1e-9)) "subcritical" 2.5
    (P.Branching.expected_total_progeny ~p:0.3);
  Alcotest.(check bool) "supercritical infinite" true
    (P.Branching.expected_total_progeny ~p:0.6 = infinity)

let test_branching_double_tree_matches_e6 () =
  List.iter
    (fun (n, p) ->
      Alcotest.(check (float 1e-12)) "same recursion"
        (Experiments.E06_double_tree_threshold.exact_connection ~n ~p)
        (P.Branching.double_tree_connection ~p ~n))
    [ (5, 0.75); (10, 0.8); (3, 0.6) ]

let test_branching_simulation_matches_survival () =
  (* Fraction of simulated processes that reach many nodes ~ survival. *)
  let p = 0.8 in
  let stream = Prng.Stream.create 91L in
  let trials = 2000 in
  let survived = ref 0 in
  for _ = 1 to trials do
    match P.Branching.sample_progeny stream ~p ~max_nodes:500 with
    | `Truncated -> incr survived
    | `Extinct _ -> ()
  done;
  let measured = Stats.Proportion.make ~successes:!survived ~trials in
  let exact = P.Branching.survival ~p in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.3f covers %.3f" (Stats.Proportion.estimate measured) exact)
    true
    (Stats.Proportion.within measured ~lo:exact ~hi:exact)

let test_branching_extinct_sizes () =
  (* Mean size of extinct processes ~ c(p) = expected failed branch size. *)
  let p = 0.8 in
  let stream = Prng.Stream.create 92L in
  let sizes = ref Stats.Summary.empty in
  for _ = 1 to 4000 do
    match P.Branching.sample_progeny stream ~p ~max_nodes:2000 with
    | `Extinct size -> sizes := Stats.Summary.add !sizes (float_of_int size)
    | `Truncated -> ()
  done;
  let measured = Stats.Summary.mean !sizes in
  let expected = P.Branching.expected_failed_branch_size ~p in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.2f near c(p) = %.2f" measured expected)
    true
    (Float.abs (measured -. expected) < 0.2)

(* ------------------------------------------------------------------ *)
(* Cached vs lazy differential                                         *)

(* The cached (bitset + adjacency memo) representation must be
   observationally identical to the lazy reference on every query — the
   memoisation is allowed to show up only as speed. Each test runs the
   same queries against a cached and a lazy world built from the same
   (graph, p, seed) and demands equal answers. *)

let diff_graphs =
  [
    ("hypercube6", hypercube6);
    ("mesh2-8", Topology.Mesh.graph ~d:2 ~m:8);
    ("complete30", Topology.Complete.graph 30);
  ]

let world_pair ?site_p graph ~p ~seed =
  let cached = P.World.create ?site_p graph ~p ~seed in
  let lazy_ = P.World.create ?site_p ~cache:false graph ~p ~seed in
  Alcotest.(check bool) "cached flag" true (P.World.cached cached);
  Alcotest.(check bool) "lazy flag" false (P.World.cached lazy_);
  (cached, lazy_)

let test_diff_gate () =
  (* Under the gate: cached by default, lazy on request. Over the gate
     (implicit hypercube with 2^22 vertices): always lazy. *)
  let small = P.World.create hypercube6 ~p:0.5 ~seed:1L in
  Alcotest.(check bool) "small cached" true (P.World.cached small);
  let forced = P.World.create ~cache:false hypercube6 ~p:0.5 ~seed:1L in
  Alcotest.(check bool) "forced lazy" false (P.World.cached forced);
  let huge = Topology.Hypercube.graph 22 in
  Alcotest.(check bool) "over gate" true
    (huge.G.vertex_count > P.World.cache_gate);
  let big = P.World.create huge ~p:0.5 ~seed:1L in
  Alcotest.(check bool) "gated to lazy" false (P.World.cached big)

let test_diff_is_open () =
  List.iter
    (fun (name, graph) ->
      List.iter
        (fun p ->
          let cached, lazy_ = world_pair graph ~p ~seed:101L in
          G.iter_edges graph (fun u v ->
              Alcotest.(check bool)
                (Printf.sprintf "%s p=%.2f (%d,%d)" name p u v)
                (P.World.is_open lazy_ u v)
                (P.World.is_open cached u v)))
        [ 0.0; 0.3; 0.7; 1.0 ])
    diff_graphs

let test_diff_open_neighbors () =
  List.iter
    (fun (name, graph) ->
      let cached, lazy_ = world_pair graph ~p:0.5 ~seed:103L in
      for v = 0 to graph.G.vertex_count - 1 do
        Alcotest.(check (array int))
          (Printf.sprintf "%s v=%d" name v)
          (P.World.open_neighbors lazy_ v)
          (P.World.open_neighbors cached v);
        Alcotest.(check int) "degree" (P.World.open_degree lazy_ v)
          (P.World.open_degree cached v);
        (* Repeat query: the memoised answer must not drift. *)
        Alcotest.(check (array int))
          (Printf.sprintf "%s v=%d repeat" name v)
          (P.World.open_neighbors lazy_ v)
          (P.World.open_neighbors cached v)
      done)
    diff_graphs

let test_diff_reveal () =
  List.iter
    (fun (name, graph) ->
      let cached, lazy_ = world_pair graph ~p:0.5 ~seed:107L in
      let stream = Prng.Stream.create 23L in
      for _ = 1 to 50 do
        let u, v = Prng.Sample.distinct_pair stream graph.G.vertex_count in
        let show = function
          | P.Reveal.Connected d -> Printf.sprintf "connected %d" d
          | P.Reveal.Disconnected -> "disconnected"
          | P.Reveal.Unknown -> "unknown"
        in
        Alcotest.(check string)
          (Printf.sprintf "%s verdict (%d,%d)" name u v)
          (show (P.Reveal.connected lazy_ u v))
          (show (P.Reveal.connected cached u v));
        (* Truncated reveals must agree too (same visit order). *)
        Alcotest.(check string)
          (Printf.sprintf "%s limited verdict (%d,%d)" name u v)
          (show (P.Reveal.connected ~limit:7 lazy_ u v))
          (show (P.Reveal.connected ~limit:7 cached u v))
      done;
      let sorted_cluster w v = List.sort compare (fst (P.Reveal.cluster_of w v)) in
      for v = 0 to min 20 (graph.G.vertex_count - 1) do
        Alcotest.(check (list int))
          (Printf.sprintf "%s cluster of %d" name v)
          (sorted_cluster lazy_ v) (sorted_cluster cached v)
      done)
    diff_graphs

let test_diff_ball () =
  List.iter
    (fun (name, graph) ->
      let cached, lazy_ = world_pair graph ~p:0.6 ~seed:109L in
      let sorted_ball w v r =
        let tbl = P.Reveal.ball w v ~radius:r in
        Hashtbl.fold (fun vertex d acc -> (vertex, d) :: acc) tbl []
        |> List.sort compare
      in
      for v = 0 to min 10 (graph.G.vertex_count - 1) do
        List.iter
          (fun r ->
            Alcotest.(check (list (pair int int)))
              (Printf.sprintf "%s ball(%d,%d)" name v r)
              (sorted_ball lazy_ v r) (sorted_ball cached v r))
          [ 0; 1; 2; 3 ]
      done)
    diff_graphs

let test_diff_oracle () =
  List.iter
    (fun (name, graph) ->
      let cached, lazy_ = world_pair graph ~p:0.5 ~seed:113L in
      let oc = P.Oracle.create ~policy:P.Oracle.Unrestricted cached ~source:0 in
      let ol = P.Oracle.create ~policy:P.Oracle.Unrestricted lazy_ ~source:0 in
      (* Same probe sequence against both stores (edge sweep, twice, so
         the memo path is exercised). *)
      for _pass = 1 to 2 do
        G.iter_edges graph (fun u v ->
            Alcotest.(check bool)
              (Printf.sprintf "%s probe (%d,%d)" name u v)
              (P.Oracle.probe ol u v) (P.Oracle.probe oc u v))
      done;
      Alcotest.(check int) "distinct" (P.Oracle.distinct_probes ol)
        (P.Oracle.distinct_probes oc);
      Alcotest.(check int) "raw" (P.Oracle.raw_probes ol) (P.Oracle.raw_probes oc);
      Alcotest.(check int) "reached count" (P.Oracle.reached_count ol)
        (P.Oracle.reached_count oc);
      Alcotest.(check (list int)) "reached set"
        (List.sort compare (P.Oracle.reached_vertices ol))
        (List.sort compare (P.Oracle.reached_vertices oc));
      for v = 0 to graph.G.vertex_count - 1 do
        Alcotest.(check (option (list int)))
          (Printf.sprintf "%s path to %d" name v)
          (P.Oracle.path_to ol v) (P.Oracle.path_to oc v)
      done)
    diff_graphs

let test_diff_router_outcomes () =
  (* End to end: a deterministic router must behave identically over the
     two representations — same verdict, same probe count. *)
  List.iter
    (fun (name, graph) ->
      List.iter
        (fun seed ->
          let cached, lazy_ = world_pair graph ~p:0.55 ~seed in
          let target = graph.G.vertex_count - 1 in
          let run w =
            let outcome =
              Routing.Router.run Routing.Local_bfs.router w ~source:0 ~target
            in
            (Routing.Outcome.probes outcome, Routing.Outcome.found outcome)
          in
          Alcotest.(check (pair int bool))
            (Printf.sprintf "%s seed %Ld" name seed)
            (run lazy_) (run cached))
        [ 1L; 2L; 3L; 4L; 5L ])
    diff_graphs

let test_diff_site () =
  let cached, lazy_ = world_pair ~site_p:0.6 hypercube6 ~p:0.8 ~seed:127L in
  for v = 0 to 63 do
    Alcotest.(check bool)
      (Printf.sprintf "alive %d" v)
      (P.World.vertex_alive lazy_ v)
      (P.World.vertex_alive cached v)
  done;
  G.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool)
        (Printf.sprintf "site is_open (%d,%d)" u v)
        (P.World.is_open lazy_ u v) (P.World.is_open cached u v))

let test_diff_removal_overlay () =
  let cached, lazy_ = world_pair hypercube6 ~p:0.9 ~seed:131L in
  let removals = [ (0, 1); (0, 2); (5, 7) ] in
  let cached' = P.World.remove_edges cached removals in
  let lazy' = P.World.remove_edges lazy_ removals in
  (* The overlaid cached world still reports as cached (shared cache). *)
  Alcotest.(check bool) "overlay keeps cache" true (P.World.cached cached');
  G.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool)
        (Printf.sprintf "overlay is_open (%d,%d)" u v)
        (P.World.is_open lazy' u v) (P.World.is_open cached' u v));
  for v = 0 to 63 do
    Alcotest.(check (array int))
      (Printf.sprintf "overlay neighbors %d" v)
      (P.World.open_neighbors lazy' v)
      (P.World.open_neighbors cached' v)
  done;
  (* Base worlds stay unaffected. *)
  Alcotest.(check bool) "base intact" (P.World.is_open lazy_ 0 1)
    (P.World.is_open cached 0 1)

(* ------------------------------------------------------------------ *)
(* Fault scenarios                                                     *)

let mesh10 = Topology.Mesh.graph ~d:2 ~m:10

let scenario_models =
  [
    P.Scenario.Random;
    P.Scenario.Ball { centers = 3 };
    P.Scenario.Infection;
    P.Scenario.Blast { decay = 0.5 };
  ]

let test_scenario_exact_budget () =
  let total = G.edge_count mesh10 in
  List.iter
    (fun model ->
      List.iter
        (fun budget ->
          let edges =
            P.Scenario.sample (Prng.Stream.create 5L) mesh10 model ~budget
          in
          let ids = List.map (fun (u, v) -> mesh10.G.edge_id u v) edges in
          let distinct = List.sort_uniq compare ids in
          Alcotest.(check int)
            (Printf.sprintf "%s budget %d distinct edges"
               (P.Scenario.model_name model) budget)
            (min budget total) (List.length distinct);
          Alcotest.(check int)
            (Printf.sprintf "%s budget %d no duplicates"
               (P.Scenario.model_name model) budget)
            (List.length edges) (List.length distinct))
        [ 0; 1; 9; 60; total; total + 25 ])
    scenario_models

let test_scenario_sampling_pure () =
  List.iter
    (fun model ->
      let draw () =
        P.Scenario.sample (Prng.Stream.create 77L) mesh10 model ~budget:40
      in
      Alcotest.(check (list (pair int int)))
        (P.Scenario.model_name model) (draw ()) (draw ()))
    scenario_models

let test_scenario_overlay_differential () =
  (* A scenario overlay must behave identically over the cached and the
     lazy world representation, and every sampled edge must be dead. *)
  List.iter
    (fun model ->
      let edges =
        P.Scenario.sample (Prng.Stream.create 13L) hypercube6 model ~budget:40
      in
      let cached, lazy_ = world_pair hypercube6 ~p:0.9 ~seed:67L in
      let cached' = P.Scenario.apply cached edges in
      let lazy' = P.Scenario.apply lazy_ edges in
      G.iter_edges hypercube6 (fun u v ->
          Alcotest.(check bool)
            (Printf.sprintf "%s is_open (%d,%d)" (P.Scenario.model_name model) u v)
            (P.World.is_open lazy' u v)
            (P.World.is_open cached' u v));
      List.iter
        (fun (u, v) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s sampled edge (%d,%d) closed"
               (P.Scenario.model_name model) u v)
            false (P.World.is_open cached' u v))
        edges)
    scenario_models

let test_scenario_infection_blob_connected () =
  (* Eden growth spreads only along frontier edges, so (below the
     padding regime) the blob is one connected edge set. *)
  let edges =
    P.Scenario.sample (Prng.Stream.create 3L) mesh10 P.Scenario.Infection
      ~budget:50
  in
  let adj = Hashtbl.create 64 in
  let push u v =
    Hashtbl.replace adj u (v :: Option.value (Hashtbl.find_opt adj u) ~default:[])
  in
  List.iter
    (fun (u, v) ->
      push u v;
      push v u)
    edges;
  let seen = Hashtbl.create 64 in
  let rec visit v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.replace seen v ();
      List.iter visit (Option.value (Hashtbl.find_opt adj v) ~default:[])
    end
  in
  visit (fst (List.hd edges));
  Alcotest.(check int) "blob endpoints all reachable" (Hashtbl.length adj)
    (Hashtbl.length seen)

let test_scenario_validation () =
  List.iter
    (fun model ->
      match P.Scenario.sample (Prng.Stream.create 1L) mesh10 model ~budget:5 with
      | _ -> Alcotest.fail "malformed model should be rejected"
      | exception Invalid_argument _ -> ())
    [
      P.Scenario.Ball { centers = 0 };
      P.Scenario.Blast { decay = 0.0 };
      P.Scenario.Blast { decay = 1.5 };
    ];
  match
    P.Scenario.sample (Prng.Stream.create 1L) mesh10 P.Scenario.Random ~budget:(-1)
  with
  | _ -> Alcotest.fail "negative budget should be rejected"
  | exception Invalid_argument _ -> ()

let test_scenario_pad_to_budget () =
  let stream = Prng.Stream.create 21L in
  (* Over-long input with duplicates: dedupe keeps first occurrences,
     truncates to the budget. *)
  let chosen = [ (0, 1); (1, 0); (0, 10); (0, 1); (1, 2) ] in
  let padded = P.Scenario.pad_to_budget stream mesh10 ~budget:2 chosen in
  Alcotest.(check (list (pair int int))) "dedupe + truncate" [ (0, 1); (0, 10) ] padded;
  (* Under-budget input is topped up to the exact budget with fresh
     distinct edges, keeping the chosen prefix. *)
  let topped = P.Scenario.pad_to_budget stream mesh10 ~budget:12 [ (0, 1) ] in
  Alcotest.(check int) "topped up" 12 (List.length topped);
  Alcotest.(check (pair int int)) "prefix kept" (0, 1) (List.hd topped);
  let ids = List.map (fun (u, v) -> mesh10.G.edge_id u v) topped in
  Alcotest.(check int) "all distinct" 12 (List.length (List.sort_uniq compare ids))

(* ------------------------------------------------------------------ *)
(* Coupled sweep families                                              *)

let test_coupled_identity_bond () =
  let family = P.Coupled.create hypercube6 ~seed:33L in
  Alcotest.(check int64) "seed" 33L (P.Coupled.seed family);
  Alcotest.(check string) "graph" hypercube6.G.name (P.Coupled.graph family).G.name;
  List.iter
    (fun p ->
      let cut = P.Coupled.world_at family ~p in
      let reference = P.World.create hypercube6 ~p ~seed:33L in
      Alcotest.(check bool) "cut is cached" true (P.World.cached cut);
      G.iter_edges hypercube6 (fun u v ->
          Alcotest.(check bool)
            (Printf.sprintf "p=%.2f edge (%d,%d)" p u v)
            (P.World.is_open reference u v)
            (P.World.is_open cut u v)))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

let test_coupled_identity_site () =
  let family = P.Coupled.create ~site:true hypercube6 ~seed:35L in
  let cut = P.Coupled.world_at ~site_p:0.7 family ~p:0.6 in
  let reference = P.World.create ~site_p:0.7 hypercube6 ~p:0.6 ~seed:35L in
  for v = 0 to 63 do
    Alcotest.(check bool)
      (Printf.sprintf "alive %d" v)
      (P.World.vertex_alive reference v)
      (P.World.vertex_alive cut v)
  done;
  G.iter_edges hypercube6 (fun u v ->
      Alcotest.(check bool)
        (Printf.sprintf "edge (%d,%d)" u v)
        (P.World.is_open reference u v)
        (P.World.is_open cut u v))

let test_coupled_monotone_bond () =
  (* Deterministic nesting per sample — the point of the coupling: not
     a statistical trend but a subset relation on every draw. *)
  let family = P.Coupled.create hypercube6 ~seed:37L in
  let cuts = List.map (fun p -> P.Coupled.world_at family ~p) [ 0.1; 0.3; 0.5; 0.7; 0.9 ] in
  let rec nested = function
    | lo :: (hi :: _ as rest) ->
        G.iter_edges hypercube6 (fun u v ->
            if P.World.is_open lo u v then
              Alcotest.(check bool) "nested" true (P.World.is_open hi u v));
        nested rest
    | [ _ ] | [] -> ()
  in
  nested cuts

let test_coupled_monotone_site () =
  let family = P.Coupled.create ~site:true hypercube6 ~seed:39L in
  let lo = P.Coupled.world_at ~site_p:0.4 family ~p:0.7 in
  let hi = P.Coupled.world_at ~site_p:0.8 family ~p:0.7 in
  for v = 0 to 63 do
    if P.World.vertex_alive lo v then
      Alcotest.(check bool)
        (Printf.sprintf "alive %d nested" v)
        true (P.World.vertex_alive hi v)
  done;
  G.iter_edges hypercube6 (fun u v ->
      if P.World.is_open lo u v then
        Alcotest.(check bool)
          (Printf.sprintf "edge (%d,%d) nested" u v)
          true (P.World.is_open hi u v))

let test_coupled_site_requires_sampling () =
  let family = P.Coupled.create hypercube6 ~seed:41L in
  Alcotest.check_raises "site_p without ~site"
    (Invalid_argument "Coupled.world_at: family sampled without ~site:true")
    (fun () -> ignore (P.Coupled.world_at ~site_p:0.5 family ~p:0.5))

let test_coupled_gate () =
  Alcotest.check_raises "over gate"
    (Invalid_argument "Coupled.create: graph exceeds the cache gate")
    (fun () -> ignore (P.Coupled.create (Topology.Hypercube.graph 19) ~seed:1L))

(* ------------------------------------------------------------------ *)
(* Reveal engines                                                      *)

let engines = [ ("table", P.Reveal.Table); ("arena", P.Reveal.Arena); ("bitset", P.Reveal.Bitset) ]

let check_engines_agree label w source target =
  (* Without a limit, verdicts, distances and full-cluster counts are
     engine-independent. *)
  (match List.map (fun (n, e) -> (n, P.Reveal.connected_via e w source target)) engines with
  | (_, first) :: rest ->
      List.iter
        (fun (n, verdict) ->
          Alcotest.(check bool) (Printf.sprintf "%s: %s verdict" label n) true (verdict = first))
        rest
  | [] -> ());
  match List.map (fun (n, e) -> (n, P.Reveal.cluster_size_via e w source)) engines with
  | (_, first) :: rest ->
      List.iter
        (fun (n, count) ->
          Alcotest.(check (pair int bool)) (Printf.sprintf "%s: %s count" label n) first count)
        rest
  | [] -> ()

let test_engines_differential () =
  for k = 1 to 8 do
    let seed = Int64.of_int (100 + k) in
    let p = 0.1 *. float_of_int k in
    let cached = P.World.create hypercube6 ~p ~seed in
    check_engines_agree "cached" cached 0 63;
    let lazy_ = P.World.create ~cache:false hypercube6 ~p ~seed in
    check_engines_agree "lazy" lazy_ 0 63;
    (* Removal overlays and site percolation drop the raw-bit fast
       paths; the engines must agree on the general path too. *)
    let overlay = P.World.remove_edges cached [ (0, 1); (0, 2); (5, 7) ] in
    check_engines_agree "overlay" overlay 0 63;
    let site = P.World.create ~site_p:0.8 hypercube6 ~p ~seed in
    check_engines_agree "site" site 0 63
  done

let test_engines_limit_counts () =
  (* The shared limit convention: a truncated run visits exactly
     [limit] vertices on every engine, even though the bitset engine
     reaches a different vertex set. *)
  let w = P.World.create hypercube6 ~p:0.9 ~seed:55L in
  let full, _ = P.Reveal.cluster_size w 0 in
  Alcotest.(check bool) "cluster big enough" true (full > 16);
  List.iter
    (fun limit ->
      List.iter
        (fun (n, e) ->
          let count, truncated = P.Reveal.cluster_size_via e ~limit w 0 in
          Alcotest.(check int) (Printf.sprintf "%s count at limit %d" n limit) (min limit full) count;
          Alcotest.(check bool) (Printf.sprintf "%s truncated at %d" n limit) (limit < full) truncated)
        engines)
    [ 1; 2; 7; 16; 1000 ]

let visits_to engine w u v =
  let n = ref 0 in
  ignore (P.Reveal.bfs_via engine w u ~stop:(fun x -> x = v) ~visit:(fun _ _ -> incr n));
  !n

let test_engines_metrics_blind () =
  (* Turning metrics on must not change which engine runs: an unlimited
     early-stopping [connected] on a cached world stays on the bitset
     engine, so [reveal.visited] is the bitset engine's visit count. The
     world is one where the queue engine stops after fewer visits. *)
  let w = P.World.create hypercube6 ~p:0.6 ~seed:3L in
  let bitset = visits_to P.Reveal.Bitset w 0 63 in
  Alcotest.(check bool) "arena visits a different count" true
    (visits_to P.Reveal.Arena w 0 63 <> bitset);
  let registry = Obs.Metrics.create () in
  Obs.Metrics.enable ();
  Fun.protect ~finally:Obs.Metrics.disable (fun () ->
      Obs.Metrics.with_ambient registry (fun () ->
          ignore (P.Reveal.connected w 0 63)));
  Alcotest.(check int) "reveal.visited" bitset
    (Obs.Metrics.peek registry "reveal.visited")

(* ------------------------------------------------------------------ *)
(* Per-domain scratch                                                  *)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* A dirty visited bit hides its vertex from every later [Arena]
   exploration on the domain, so full-cluster counts from every vertex
   (and balls, and verdicts) must match the scratch-free [Table]
   engine. *)
let check_arena_clean label w =
  let n = (P.World.graph w).G.vertex_count in
  for v = 0 to n - 1 do
    Alcotest.(check (pair int bool))
      (Printf.sprintf "%s: cluster of %d" label v)
      (P.Reveal.cluster_size_via P.Reveal.Table w v)
      (P.Reveal.cluster_size_via P.Reveal.Arena w v);
    Alcotest.(check bool)
      (Printf.sprintf "%s: verdict 0-%d" label v)
      true
      (P.Reveal.connected_via P.Reveal.Table ~limit:20 w 0 v
      = P.Reveal.connected_via P.Reveal.Arena ~limit:20 w 0 v)
  done;
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k d acc -> (k, d) :: acc) tbl []) in
  let lazy_ = P.World.create ~cache:false hypercube6 ~p:0.6 ~seed:77L in
  Alcotest.(check (list (pair int int)))
    (label ^ ": ball")
    (sorted (P.Reveal.ball lazy_ 0 ~radius:3))
    (sorted (P.Reveal.ball w 0 ~radius:3))

let test_scratch_reveal_exit_paths () =
  let w = P.World.create hypercube6 ~p:0.6 ~seed:77L in
  let full, _ = P.Reveal.cluster_size w 0 in
  Alcotest.(check bool) "cluster big enough" true (full > 20);
  let arena ?limit ~stop ~visit () = P.Reveal.bfs_via P.Reveal.Arena ?limit w 0 ~stop ~visit in
  let nth_visit k =
    let seen = ref 0 in
    fun v ->
      incr seen;
      !seen > k && v >= 0
  in
  (match arena ~stop:(nth_visit 10) ~visit:(fun _ _ -> ()) () with
  | `Stopped _ -> ()
  | `Truncated | `Exhausted_full -> Alcotest.fail "expected Stopped");
  check_arena_clean "after Stopped" w;
  (match arena ~limit:7 ~stop:(fun _ -> false) ~visit:(fun _ _ -> ()) () with
  | `Truncated -> ()
  | `Stopped _ | `Exhausted_full -> Alcotest.fail "expected Truncated");
  check_arena_clean "after Truncated" w;
  let boom = nth_visit 12 in
  Alcotest.check_raises "stop raises" (Failure "stop") (fun () ->
      ignore
        (arena
           ~stop:(fun v -> if boom v then failwith "stop" else false)
           ~visit:(fun _ _ -> ())
           ()));
  check_arena_clean "after stop raised" w;
  let boom = nth_visit 9 in
  Alcotest.check_raises "visit raises" (Failure "visit") (fun () ->
      ignore
        (arena ~stop:(fun _ -> false) ~visit:(fun v _ ->
             if boom v then failwith "visit") ()));
  check_arena_clean "after visit raised" w;
  let inner = ref false in
  Alcotest.(check bool) "re-entrant call rejected" true
    (raises_invalid (fun () ->
         arena ~stop:(fun _ -> false) ~visit:(fun v _ ->
             if v <> 0 then begin
               inner := true;
               ignore (P.Reveal.ball w v ~radius:1)
             end) ()));
  Alcotest.(check bool) "inner call attempted" true !inner;
  check_arena_clean "after re-entrant call" w;
  Alcotest.(check bool) "start out of range" true
    (raises_invalid (fun () ->
         P.Reveal.bfs_via P.Reveal.Arena w 64 ~stop:(fun _ -> false) ~visit:(fun _ _ -> ())))

let test_scratch_stale_handle () =
  let w = P.World.create hypercube6 ~p:1.0 ~seed:1L in
  let o1 = P.Oracle.create w ~source:0 in
  Alcotest.(check bool) "open" true (P.Oracle.probe o1 0 1);
  let o2 = P.Oracle.create w ~source:5 in
  let stale name f = Alcotest.(check bool) name true (raises_invalid f) in
  stale "probe" (fun () -> P.Oracle.probe o1 1 3);
  stale "probe_known" (fun () -> P.Oracle.probe_known o1 0 1);
  stale "reached" (fun () -> P.Oracle.reached o1 1);
  stale "reached_count" (fun () -> P.Oracle.reached_count o1);
  stale "reached_vertices" (fun () -> P.Oracle.reached_vertices o1);
  stale "path_to" (fun () -> P.Oracle.path_to o1 1);
  stale "distinct_probes" (fun () -> P.Oracle.distinct_probes o1);
  stale "raw_probes" (fun () -> P.Oracle.raw_probes o1);
  stale "recount_distinct" (fun () -> P.Oracle.recount_distinct o1);
  stale "budget_remaining" (fun () -> P.Oracle.budget_remaining o1);
  stale "source" (fun () -> P.Oracle.source o1);
  (* The live handle starts clean: nothing of o1's lease shows. *)
  Alcotest.(check (option bool)) "o2 memo clean" None (P.Oracle.probe_known o2 0 1);
  Alcotest.(check bool) "o2 reach clean" false (P.Oracle.reached o2 1);
  Alcotest.(check int) "o2 recount" 0 (P.Oracle.recount_distinct o2);
  (* Lazy-world oracles own their stores: they neither reclaim a
     cached-world lease nor go stale themselves. *)
  let lazy_ = P.World.create ~cache:false hypercube6 ~p:1.0 ~seed:1L in
  let l1 = P.Oracle.create lazy_ ~source:0 in
  let l2 = P.Oracle.create lazy_ ~source:5 in
  Alcotest.(check bool) "l1 probe" true (P.Oracle.probe l1 0 1);
  Alcotest.(check bool) "l2 probe" true (P.Oracle.probe l2 5 7);
  Alcotest.(check bool) "o2 still live" true (P.Oracle.probe o2 5 7);
  Alcotest.(check int) "l1 distinct" 1 (P.Oracle.distinct_probes l1);
  Alcotest.(check (option (list int))) "o2 path" (Some [ 5; 7 ]) (P.Oracle.path_to o2 7);
  let _o3 = P.Oracle.create w ~source:0 in
  stale "o2 after o3" (fun () -> P.Oracle.probe o2 5 4);
  Alcotest.(check (option (list int))) "l1 path" (Some [ 0; 1 ]) (P.Oracle.path_to l1 1)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"union-find: union implies same" ~count:200
      (pair (int_range 2 50) (list (pair small_nat small_nat)))
      (fun (n, unions) ->
        let uf = P.Union_find.create n in
        List.iter (fun (a, b) -> ignore (P.Union_find.union uf (a mod n) (b mod n))) unions;
        List.for_all (fun (a, b) -> P.Union_find.same uf (a mod n) (b mod n)) unions);
    Test.make ~name:"union-find: sizes partition n" ~count:200
      (pair (int_range 2 50) (list (pair small_nat small_nat)))
      (fun (n, unions) ->
        let uf = P.Union_find.create n in
        List.iter (fun (a, b) -> ignore (P.Union_find.union uf (a mod n) (b mod n))) unions;
        let roots = Hashtbl.create 16 in
        for v = 0 to n - 1 do
          Hashtbl.replace roots (P.Union_find.find uf v) ()
        done;
        let total = Hashtbl.fold (fun r () acc -> acc + P.Union_find.size uf r) roots 0 in
        total = n && Hashtbl.length roots = P.Union_find.set_count uf);
    Test.make ~name:"world: open iff coin below p" ~count:200
      (pair int64 (float_bound_inclusive 1.0))
      (fun (seed, p) ->
        let g = Topology.Hypercube.graph 4 in
        let w = P.World.create g ~p ~seed in
        G.fold_edges g ~init:true ~f:(fun acc u v ->
            acc
            && P.World.is_open w u v
               = Prng.Coin.bernoulli ~seed ~p (g.G.edge_id u v)));
    Test.make ~name:"cached world = lazy world (is_open, neighbors)" ~count:200
      (pair int64 (float_bound_inclusive 1.0))
      (fun (seed, p) ->
        let g = Topology.Hypercube.graph 4 in
        let cached = P.World.create g ~p ~seed in
        let lazy_ = P.World.create ~cache:false g ~p ~seed in
        P.World.cached cached
        && (not (P.World.cached lazy_))
        && G.fold_edges g ~init:true ~f:(fun acc u v ->
               acc && P.World.is_open cached u v = P.World.is_open lazy_ u v)
        &&
        let ok = ref true in
        for v = 0 to g.G.vertex_count - 1 do
          if P.World.open_neighbors cached v <> P.World.open_neighbors lazy_ v then
            ok := false
        done;
        !ok);
    Test.make ~name:"cached reveal = lazy reveal" ~count:100
      (pair int64 (float_bound_inclusive 1.0))
      (fun (seed, p) ->
        let g = Topology.Hypercube.graph 4 in
        let cached = P.World.create g ~p ~seed in
        let lazy_ = P.World.create ~cache:false g ~p ~seed in
        let ok = ref true in
        for v = 1 to 15 do
          if P.Reveal.connected cached 0 v <> P.Reveal.connected lazy_ 0 v then
            ok := false
        done;
        !ok);
    Test.make ~name:"oracle distinct <= raw" ~count:100
      (pair int64 (list (pair (int_bound 15) (int_bound 3))))
      (fun (seed, probes) ->
        let g = Topology.Hypercube.graph 4 in
        let w = P.World.create g ~p:0.5 ~seed in
        let o = P.Oracle.create ~policy:P.Oracle.Unrestricted w ~source:0 in
        List.iter
          (fun (v, bit) -> ignore (P.Oracle.probe o v (Topology.Hypercube.flip v bit)))
          probes;
        P.Oracle.distinct_probes o <= P.Oracle.raw_probes o);
    Test.make ~name:"coupled cut = independent world" ~count:200
      (pair int64 (float_bound_inclusive 1.0))
      (fun (seed, p) ->
        let g = Topology.Hypercube.graph 4 in
        let family = P.Coupled.create g ~seed in
        let cut = P.Coupled.world_at family ~p in
        let reference = P.World.create g ~p ~seed in
        G.fold_edges g ~init:true ~f:(fun acc u v ->
            acc && P.World.is_open cut u v = P.World.is_open reference u v));
    Test.make ~name:"coupled cuts nest deterministically" ~count:200
      (triple int64 (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
      (fun (seed, p1, p2) ->
        let lo_p = Float.min p1 p2 and hi_p = Float.max p1 p2 in
        let g = Topology.Hypercube.graph 4 in
        let family = P.Coupled.create g ~seed in
        let lo = P.Coupled.world_at family ~p:lo_p in
        let hi = P.Coupled.world_at family ~p:hi_p in
        G.fold_edges g ~init:true ~f:(fun acc u v ->
            acc && ((not (P.World.is_open lo u v)) || P.World.is_open hi u v)));
    Test.make ~name:"reveal engines agree" ~count:100
      (pair int64 (float_bound_inclusive 1.0))
      (fun (seed, p) ->
        let g = Topology.Hypercube.graph 4 in
        let w = P.World.create g ~p ~seed in
        P.Reveal.cluster_size_via P.Reveal.Table w 0
        = P.Reveal.cluster_size_via P.Reveal.Arena w 0
        && P.Reveal.cluster_size_via P.Reveal.Arena w 0
           = P.Reveal.cluster_size_via P.Reveal.Bitset w 0
        && P.Reveal.connected_via P.Reveal.Table w 0 15
           = P.Reveal.connected_via P.Reveal.Arena w 0 15
        && P.Reveal.connected_via P.Reveal.Arena w 0 15
           = P.Reveal.connected_via P.Reveal.Bitset w 0 15);
  ]

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "percolation"
    [
      ( "union-find",
        [
          case "basics" test_uf_basics;
          case "transitive" test_uf_transitive;
          case "chain" test_uf_chain;
          case "negative" test_uf_negative;
        ] );
      ( "world",
        [
          case "determinism" test_world_determinism;
          case "extremes" test_world_extremes;
          case "monotone coupling" test_world_monotone_coupling;
          case "open rate" test_world_open_rate;
          case "open neighbors" test_world_open_neighbors;
          case "invalid p" test_world_invalid_p;
          case "symmetric" test_world_symmetric;
        ] );
      ( "oracle",
        [
          case "counting" test_oracle_counting;
          case "consistency" test_oracle_consistency_with_world;
          case "locality enforced" test_oracle_locality_enforced;
          case "closed edge no extension" test_oracle_locality_closed_edge_no_extension;
          case "unrestricted" test_oracle_unrestricted_any_edge;
          case "non-edge" test_oracle_non_edge_rejected;
          case "budget" test_oracle_budget;
          case "budget invalid" test_oracle_budget_invalid;
          case "path_to" test_oracle_path_to;
          case "reached bookkeeping" test_oracle_reached_bookkeeping;
          case "deferred extension" test_oracle_deferred_extension;
        ] );
      ( "reveal",
        [
          case "connected full" test_reveal_connected_full_world;
          case "disconnected empty" test_reveal_disconnected_empty_world;
          case "limit" test_reveal_limit;
          case "matches clusters" test_reveal_matches_clusters;
          case "cluster_of" test_reveal_cluster_of;
          case "ball" test_reveal_ball;
        ] );
      ( "clusters",
        [
          case "full world" test_census_full_world;
          case "empty world" test_census_empty_world;
          case "sizes sum" test_census_sizes_sum;
          case "in largest" test_in_largest;
          case "in largest: ties canonical" test_in_largest_tie;
        ] );
      ( "coupled",
        [
          case "bond cut = independent world" test_coupled_identity_bond;
          case "site cut = independent world" test_coupled_identity_site;
          case "bond cuts nest" test_coupled_monotone_bond;
          case "site cuts nest" test_coupled_monotone_site;
          case "site_p needs ~site" test_coupled_site_requires_sampling;
          case "cache gate enforced" test_coupled_gate;
        ] );
      ( "reveal engines",
        [
          case "differential agreement" test_engines_differential;
          case "limit convention" test_engines_limit_counts;
          case "metrics keep the engine" test_engines_metrics_blind;
        ] );
      ( "scratch",
        [
          case "reveal scratch clean on every exit" test_scratch_reveal_exit_paths;
          case "stale oracle handle" test_scratch_stale_handle;
        ] );
      ( "chemical",
        [
          case "full distance" test_chemical_distance_full;
          case "disconnected" test_chemical_distance_disconnected;
          case "stretch >= 1" test_chemical_stretch_ge_one;
          case "eccentricity sample" test_chemical_eccentricity_sample;
        ] );
      ( "site percolation",
        [
          case "bond world all alive" test_site_bond_world_all_alive;
          case "extremes" test_site_extremes;
          case "open iff both alive" test_site_edge_open_iff_both_alive;
          case "dead vertex isolated" test_site_dead_vertex_isolated;
          case "alive rate" test_site_alive_rate;
          case "independent coins" test_site_independent_of_bond_coins;
        ] );
      ( "worst-case faults",
        [
          case "removal closes" test_remove_edges_closes_them;
          case "removal cumulative" test_remove_edges_cumulative;
          case "removal non-edge" test_remove_edges_non_edge;
          case "min-cut disconnects" test_adversary_min_cut_disconnects;
          case "min-cut budget" test_adversary_min_cut_insufficient_budget;
          case "around source" test_adversary_around_source;
          case "random distinct" test_adversary_random_distinct;
          case "over budget capped" test_adversary_over_budget_capped;
        ] );
      ( "cached vs lazy",
        [
          case "size gate" test_diff_gate;
          case "is_open" test_diff_is_open;
          case "open_neighbors" test_diff_open_neighbors;
          case "reveal" test_diff_reveal;
          case "ball" test_diff_ball;
          case "oracle" test_diff_oracle;
          case "router outcomes" test_diff_router_outcomes;
          case "site percolation" test_diff_site;
          case "removal overlay" test_diff_removal_overlay;
        ] );
      ( "scenario",
        [
          case "exact budget" test_scenario_exact_budget;
          case "sampling pure" test_scenario_sampling_pure;
          case "overlay differential" test_scenario_overlay_differential;
          case "infection blob connected" test_scenario_infection_blob_connected;
          case "validation" test_scenario_validation;
          case "pad to budget" test_scenario_pad_to_budget;
        ] );
      ( "scaling",
        [
          case "interpolate" test_scaling_interpolate;
          case "crossing exact" test_scaling_crossing_exact;
          case "no crossing" test_scaling_no_crossing;
          case "estimate threshold" test_scaling_estimate_threshold;
          case "measured curve monotone" test_scaling_measured_curve_monotone;
        ] );
      ( "branching",
        [
          case "survival closed form" test_branching_survival_closed_form;
          case "subcritical dies" test_branching_subcritical_dies;
          case "monotone in depth" test_branching_monotone_in_depth;
          case "duality" test_branching_dual;
          case "total progeny" test_branching_total_progeny;
          case "double tree recursion" test_branching_double_tree_matches_e6;
          case "simulation matches survival" test_branching_simulation_matches_survival;
          case "extinct sizes ~ c(p)" test_branching_extinct_sizes;
        ] );
      ( "threshold",
        [
          case "success rate" test_threshold_success_rate;
          case "bisect known" test_threshold_bisect_known;
          case "sweep" test_threshold_sweep;
          case "mesh p_c ~ 1/2" test_threshold_mesh_half;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
