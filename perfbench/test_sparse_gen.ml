(* The serve-sparse generator: deterministic in its seed, every vertex
   in range, every route and reveal target within its world's radius. *)

open Perfbench

let count = 4000

let world_of wid =
  List.find (fun w -> w.Sparse_gen.wid = wid) Sparse_gen.worlds

let test_deterministic () =
  let a = Sparse_gen.queries ~seed:7 ~count in
  let b = Sparse_gen.queries ~seed:7 ~count in
  let c = Sparse_gen.queries ~seed:8 ~count in
  Alcotest.(check (array string)) "same seed, same stream" a b;
  Alcotest.(check bool) "other seed, other stream" false (a = c);
  Alcotest.(check string) "same seed, same manifest"
    (Sparse_gen.manifest ~seed:7) (Sparse_gen.manifest ~seed:7);
  Alcotest.(check bool) "other seed, other worlds" false
    (Sparse_gen.manifest ~seed:7 = Sparse_gen.manifest ~seed:8)

let test_manifest () =
  match Serve.Session.of_string ~default_seed:0L (Sparse_gen.manifest ~seed:3) with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check (list string)) "worlds"
        (List.map (fun w -> w.Sparse_gen.wid) Sparse_gen.worlds)
        (List.map (fun w -> w.Serve.Session.wid) s.Serve.Session.worlds);
      List.iter
        (fun (w : Serve.Session.world_spec) ->
          match Topology.Registry.of_spec w.Serve.Session.topology with
          | Error e -> Alcotest.fail e
          | Ok spec ->
              let size = Option.value spec.Topology.Registry.size ~default:0 in
              let inst =
                Topology.Registry.build spec ~default_size:size
                  (Prng.Stream.create 0L)
              in
              Alcotest.(check int) (w.Serve.Session.wid ^ " vertices")
                (world_of w.Serve.Session.wid).Sparse_gen.vertices
                inst.Topology.Registry.graph.Topology.Graph.vertex_count)
        s.Serve.Session.worlds

let graphs =
  lazy
    (List.map
       (fun w ->
         match Topology.Registry.of_spec w.Sparse_gen.topology with
         | Error e -> failwith e
         | Ok spec ->
             let size = Option.value spec.Topology.Registry.size ~default:0 in
             ( w.Sparse_gen.wid,
               (Topology.Registry.build spec ~default_size:size
                  (Prng.Stream.create 0L))
                 .Topology.Registry.graph ))
       Sparse_gen.worlds)

let test_ranges () =
  let lines = Sparse_gen.queries ~seed:11 ~count in
  let routes = ref 0 in
  Array.iteri
    (fun i line ->
      match Serve.Query.parse line with
      | Error e -> Alcotest.fail e
      | Ok q ->
          let wid = Option.get q.Serve.Query.world in
          let w = world_of wid in
          let in_range v =
            if v < 0 || v >= w.Sparse_gen.vertices then
              Alcotest.failf "line %d: vertex %d out of range" (i + 1) v
          in
          let near s t =
            in_range s;
            in_range t;
            let h = Sparse_gen.hops wid s t in
            if h < 1 || h > w.Sparse_gen.radius then
              Alcotest.failf "line %d: %d hops, radius %d" (i + 1) h
                w.Sparse_gen.radius;
            (* An independent check of the hop metric on the graph
               itself, for a sample of the pairs. *)
            if i mod 200 = 0 then
              Alcotest.(check (option int)) "graph distance" (Some h)
                (Topology.Graph.bfs_distance (List.assoc wid (Lazy.force graphs)) s t)
          in
          (match q.Serve.Query.op with
          | Serve.Query.Route { source; target; router; budget } ->
              incr routes;
              near source target;
              Alcotest.(check string) "router" "bfs" router;
              Alcotest.(check (option int)) "budget" (Some Sparse_gen.route_budget)
                budget
          | Serve.Query.Reveal { source; target; limit } ->
              near source target;
              Alcotest.(check (option int)) "limit" (Some Sparse_gen.reveal_limit)
                limit
          | Serve.Query.Cluster { vertex; limit } ->
              in_range vertex;
              Alcotest.(check (option int)) "limit" (Some Sparse_gen.reveal_limit)
                limit
          | Serve.Query.Stats -> Alcotest.fail "unexpected stats query"))
    lines;
  let share = float_of_int !routes /. float_of_int count in
  if share < 0.75 || share > 0.85 then Alcotest.failf "route share %.3f" share

let () =
  Alcotest.run "perfbench"
    [
      ( "sparse_gen",
        [
          Alcotest.test_case "deterministic in the seed" `Quick test_deterministic;
          Alcotest.test_case "manifest parses" `Quick test_manifest;
          Alcotest.test_case "vertices and radii" `Quick test_ranges;
        ] );
    ]
