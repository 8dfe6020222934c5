(* Cost model of a round: every node steps (the Protocol.step
   contract), and stepping one node costs its own work plus O(1) — two
   field writes into the one Api.t record of the round, whose closures
   read the stepping node from [current], a neighbour row shared by the
   engines over one graph, an array read for its inbox and its random
   stream, and counter bumps through resolved handles. A step allocates
   only the reversed inbox when it holds two or more messages, and what
   the protocol itself sends or probes. *)

type ('state, 'message) t = {
  world : Percolation.World.t;
  protocol : ('state, 'message) Protocol.t;
  states : 'state array;
  rows : int array array;
      (* node -> [graph.neighbors node], shared by the engines over one
         graph and handed to every step read-only (see Api.neighbors) *)
  link_capacity : int option;
      (* max deliveries per directed link per round; None = unbounded *)
  churn : Churn.state option;
      (* round-indexed up/down overlay on top of the percolation world *)
  mutable pending : (int * 'message) list array;
      (* node -> inbox for the next round, newest first *)
  mutable spare : (int * 'message) list array;
      (* all-empty; swapped with [pending] at the start of a round *)
  mutable pending_count : int;
  queued : (int * int, 'message Queue.t) Hashtbl.t;
      (* directed link (u,v) -> store-and-forward backlog, used only
         when link_capacity is set *)
  mutable queued_count : int;
  probed : (int, unit) Hashtbl.t; (* distinct probed edge ids *)
  node_streams : Prng.Stream.t option array; (* created on first draw *)
  stream_seed : int64;
  metrics : Metrics.t;
  mutable round : int;
  mutable current : int; (* the node stepping now, read by the round's closures *)
}

(* The rows of the graph that the last engine on this domain was built
   over. Engines over one graph share them (E18 steps three protocols on
   each world, and every world of a sweep has the same graph), so the
   rows are built, and reach the major heap, once per domain and graph
   rather than once per engine. *)
let last_rows : (Topology.Graph.t * int array array) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let rows_of graph =
  match Domain.DLS.get last_rows with
  | Some (g, rows) when g == graph -> rows
  | Some _ | None ->
      let rows =
        Array.init graph.Topology.Graph.vertex_count graph.Topology.Graph.neighbors
      in
      Domain.DLS.set last_rows (Some (graph, rows));
      rows

let create ?seed ?link_capacity ?churn world protocol =
  (match link_capacity with
  | Some c when c < 1 -> invalid_arg "Engine.create: link capacity must be >= 1"
  | Some _ | None -> ());
  let graph = Percolation.World.graph world in
  let n = graph.Topology.Graph.vertex_count in
  let stream_seed =
    match seed with
    | Some s -> s
    | None -> Prng.Coin.derive (Percolation.World.seed world) 0x51
  in
  {
    world;
    protocol;
    states = Array.init n (fun node -> protocol.Protocol.init ~node);
    rows = rows_of graph;
    link_capacity;
    churn =
      Option.map
        (fun plan ->
          Churn.instantiate plan ~world_seed:(Percolation.World.seed world))
        churn;
    pending = Array.make n [];
    spare = Array.make n [];
    pending_count = 0;
    queued = Hashtbl.create 64;
    queued_count = 0;
    probed = Hashtbl.create 256;
    node_streams = Array.make n None;
    stream_seed;
    metrics = Metrics.create ();
    round = 0;
    current = 0;
  }

let world t = t.world
let churned t = Option.is_some t.churn

(* Up at this round per the churn overlay (vacuously true unchurned).
   Percolation-openness is checked separately by the callers. *)
let churn_up t ~edge =
  match t.churn with
  | None -> true
  | Some state -> Churn.link_up state ~edge ~round:t.round

let protocol_name t = t.protocol.Protocol.name
let round t = t.round
let metrics t = t.metrics
let state t node = t.states.(node)
let in_flight t = t.pending_count + t.queued_count

let queue_delivery t ~node ~sender message =
  t.pending.(node) <- (sender, message) :: t.pending.(node);
  t.pending_count <- t.pending_count + 1

let inject t ~node ~sender message = queue_delivery t ~node ~sender message

let node_stream t node =
  match t.node_streams.(node) with
  | Some stream -> stream
  | None ->
      let stream = Prng.Stream.create (Prng.Coin.derive t.stream_seed node) in
      t.node_streams.(node) <- Some stream;
      stream

(* Under a capacity limit, a send enters the directed link's backlog;
   the drain phase below moves up to [capacity] messages per link per
   round into the next round's inboxes. *)
let enqueue_on_link t ~sender ~receiver message =
  let key = (sender, receiver) in
  let backlog =
    match Hashtbl.find_opt t.queued key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace t.queued key q;
        q
  in
  Queue.push message backlog;
  t.queued_count <- t.queued_count + 1

let drain_links t capacity =
  let graph = Percolation.World.graph t.world in
  Hashtbl.iter
    (fun (sender, receiver) backlog ->
      (* A churned-down link holds its backlog (store-and-forward
         waits for repair); nothing is lost, so no blocked tick. *)
      if churn_up t ~edge:(graph.Topology.Graph.edge_id sender receiver) then begin
        let moved = ref 0 in
        while !moved < capacity && not (Queue.is_empty backlog) do
          let message = Queue.pop backlog in
          t.queued_count <- t.queued_count - 1;
          Metrics.tick_delivered t.metrics;
          queue_delivery t ~node:receiver ~sender message;
          incr moved
        done
      end)
    t.queued

let run_round t =
  let graph = Percolation.World.graph t.world in
  let edge_id = graph.Topology.Graph.edge_id in
  let inboxes = t.pending in
  t.pending <- t.spare;
  t.spare <- inboxes;
  t.pending_count <- 0;
  t.round <- t.round + 1;
  Metrics.tick_round t.metrics;
  (* One set of closures per round; each reads the stepping node from
     [t.current]. [edge_id] raises Not_an_edge before anything is
     counted. *)
  let probe v =
    let node = t.current in
    let id = edge_id node v in
    Metrics.tick_raw_probe t.metrics;
    let fresh = not (Hashtbl.mem t.probed id) in
    if fresh then begin
      Hashtbl.replace t.probed id ();
      Metrics.tick_distinct_probe t.metrics
    end;
    let open_ =
      Percolation.World.is_open_id t.world node v ~id && churn_up t ~edge:id
    in
    if Obs.Trace.on () then
      Obs.Trace.emit (Obs.Trace.Probe { u = node; v; open_; fresh });
    open_
  in
  let send v message =
    (* Validates adjacency; delivery depends on the percolated state
       but the sender learns nothing from the call. *)
    let node = t.current in
    let id = edge_id node v in
    Metrics.tick_sent t.metrics;
    if Percolation.World.is_open_id t.world node v ~id then begin
      if churn_up t ~edge:id then
        match t.link_capacity with
        | None ->
            Metrics.tick_delivered t.metrics;
            queue_delivery t ~node:v ~sender:node message
        | Some _ -> enqueue_on_link t ~sender:node ~receiver:v message
      else Metrics.tick_churn_blocked t.metrics
    end
  in
  let random_int bound = Prng.Stream.int_in (node_stream t t.current) bound in
  let api =
    { Api.node = 0; round = t.round; neighbors = [||]; probe; send; random_int }
  in
  for node = 0 to Array.length t.states - 1 do
    t.current <- node;
    api.Api.node <- node;
    api.Api.neighbors <- t.rows.(node);
    let inbox = inboxes.(node) in
    inboxes.(node) <- [];
    let inbox = match inbox with [] | [ _ ] -> inbox | _ -> List.rev inbox in
    t.states.(node) <- t.protocol.Protocol.step api t.states.(node) inbox
  done;
  match t.link_capacity with
  | Some capacity -> drain_links t capacity
  | None -> ()

let quiescent t =
  in_flight t = 0 && Array.for_all t.protocol.Protocol.idle t.states

let run ?(max_rounds = 10_000) ~until t =
  let rec loop () =
    if until t then `Stopped t.round
    else if t.round >= max_rounds then `Out_of_rounds
    else begin
      run_round t;
      if until t then `Stopped t.round
      else if quiescent t then `Quiescent t.round
      else loop ()
    end
  in
  loop ()

let fold_states t ~init ~f =
  let acc = ref init in
  Array.iteri (fun node state -> acc := f !acc node state) t.states;
  !acc
