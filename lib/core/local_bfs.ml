let route_with_order neighbor_order oracle ~target =
  match Router.trivial_outcome oracle ~target with
  | Some outcome -> outcome
  | None ->
      let world = Percolation.Oracle.world oracle in
      let g = Percolation.World.graph world in
      let source = Percolation.Oracle.source oracle in
      let queue = Queue.create () in
      Queue.push source queue;
      let result = ref None in
      (try
         while not (Queue.is_empty queue) do
           let u = Queue.pop queue in
           let around = neighbor_order u (g.Topology.Graph.neighbors u) in
           Array.iter
             (fun v ->
               (* Under [Local] the queued set is exactly the oracle's
                  reached set: an open probe from a reached [u] reaches
                  [v], and only then is [v] queued. *)
               let fresh = not (Percolation.Oracle.reached oracle v) in
               if Percolation.Oracle.probe oracle u v then begin
                 if v = target then begin
                   result := Some (Percolation.Oracle.path_to oracle target);
                   raise Exit
                 end;
                 if fresh then Queue.push v queue
               end)
             around
         done
       with Exit -> ());
      (match !result with
      | Some (Some path) -> Router.found_outcome oracle path
      | Some None -> assert false (* target was just reached *)
      | None ->
          Outcome.No_path { probes = Percolation.Oracle.distinct_probes oracle })

let router =
  {
    Router.name = "local-bfs";
    policy = Percolation.Oracle.Local;
    route = route_with_order (fun _ neighbors -> neighbors);
  }

let router_randomized stream =
  let shuffle _ neighbors =
    Prng.Stream.shuffle_in_place stream neighbors;
    neighbors
  in
  {
    Router.name = "local-bfs-randomized";
    policy = Percolation.Oracle.Local;
    route = route_with_order shuffle;
  }
