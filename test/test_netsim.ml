(* Tests for the netsim library: engine semantics (synchrony, delivery,
   accounting, quiescence) and the four protocols, cross-validated
   against the percolation ground truth. *)

module P = Percolation

let cube n = Topology.Hypercube.graph n
let world ?(p = 1.0) ?(seed = 1L) g = P.World.create g ~p ~seed

(* ------------------------------------------------------------------ *)
(* Engine semantics                                                    *)

(* A probe protocol: every node probes its first potential link each
   round and counts its deliveries. Used to test the accounting. *)
type probe_state = { received : int }

let probing_protocol =
  {
    Netsim.Protocol.name = "probe-test";
    init = (fun ~node:_ -> { received = 0 });
    step =
      (fun api state inbox ->
        if Array.length api.Netsim.Api.neighbors > 0 then
          ignore (api.Netsim.Api.probe api.Netsim.Api.neighbors.(0) : bool);
        { received = state.received + List.length inbox });
    idle = (fun _ -> true);
  }

let test_engine_round_counting () =
  let engine = Netsim.Engine.create (world (cube 3)) probing_protocol in
  Alcotest.(check int) "round 0" 0 (Netsim.Engine.round engine);
  Netsim.Engine.run_round engine;
  Netsim.Engine.run_round engine;
  Alcotest.(check int) "round 2" 2 (Netsim.Engine.round engine);
  Alcotest.(check int) "metrics rounds" 2 (Netsim.Metrics.rounds (Netsim.Engine.metrics engine))

let test_engine_distinct_probe_accounting () =
  let engine = Netsim.Engine.create (world (cube 3)) probing_protocol in
  Netsim.Engine.run_round engine;
  Netsim.Engine.run_round engine;
  let metrics = Netsim.Engine.metrics engine in
  (* 8 nodes probe their first link twice: raw 16; each undirected edge
     along bit 0 is probed from both sides but counted once: 4 distinct. *)
  Alcotest.(check int) "raw" 16 (Netsim.Metrics.raw_probes metrics);
  Alcotest.(check int) "distinct" 4 (Netsim.Metrics.distinct_probes metrics)

(* Records every delivery as (round, sender) at the receiving node. *)
let recording_protocol =
  {
    Netsim.Protocol.name = "record";
    init = (fun ~node:_ -> []);
    step =
      (fun api state inbox ->
        List.map (fun (sender, ()) -> (api.Netsim.Api.round, sender)) inbox @ state);
    idle = (fun _ -> true);
  }

let test_engine_injection_and_delivery () =
  let engine = Netsim.Engine.create (world (cube 3)) recording_protocol in
  Netsim.Engine.inject engine ~node:5 ~sender:2 ();
  Alcotest.(check int) "in flight before round 1" 1 (Netsim.Engine.in_flight engine);
  Netsim.Engine.run_round engine;
  Alcotest.(check (list (pair int int))) "node 5 got it at round 1 from 2"
    [ (1, 2) ] (Netsim.Engine.state engine 5);
  for node = 0 to 7 do
    if node <> 5 then
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "node %d got nothing" node)
        [] (Netsim.Engine.state engine node)
  done;
  Alcotest.(check int) "nothing in flight after" 0 (Netsim.Engine.in_flight engine);
  let metrics = Netsim.Engine.metrics engine in
  Alcotest.(check int) "not counted as sent" 0 (Netsim.Metrics.messages_sent metrics);
  Alcotest.(check int) "not counted as delivered" 0
    (Netsim.Metrics.messages_delivered metrics)

(* A counter enters the snapshot on its first tick: an unchurned flood
   never probes and is never blocked, so those names are absent, not 0. *)
let test_engine_snapshot_key_set () =
  let names engine =
    List.map fst
      (Obs.Metrics.counters (Netsim.Metrics.snapshot (Netsim.Engine.metrics engine)))
  in
  let flood = Netsim.Engine.create (world ~p:0.7 (cube 5)) Netsim.Flood.protocol in
  Netsim.Flood.start flood ~source:0;
  ignore (Netsim.Engine.run flood ~until:(fun _ -> false));
  Alcotest.(check (list string)) "unchurned flood"
    [ "netsim.messages_delivered"; "netsim.messages_sent"; "netsim.rounds" ]
    (names flood);
  let fresh = Netsim.Engine.create (world (cube 5)) Netsim.Flood.protocol in
  Alcotest.(check (list string)) "no round run" [] (names fresh);
  let churned =
    Netsim.Engine.create
      ~churn:(Netsim.Churn.make ~fail:0.3 ~repair:0.3 ~seed:2L ())
      (world (cube 5)) Netsim.Gossip.protocol
  in
  Netsim.Gossip.start churned ~source:0;
  for _ = 1 to 30 do
    Netsim.Engine.run_round churned
  done;
  Alcotest.(check (list string)) "churned gossip"
    [
      "netsim.churn.blocked";
      "netsim.messages_delivered";
      "netsim.messages_sent";
      "netsim.rounds";
    ]
    (names churned)

let test_engine_message_loss_on_closed_links () =
  (* In an all-closed world flooding informs only the source. *)
  let engine = Netsim.Engine.create (world ~p:0.0 (cube 4)) Netsim.Flood.protocol in
  Netsim.Flood.start engine ~source:0;
  (match Netsim.Engine.run ~until:(fun _ -> false) engine with
  | `Quiescent _ -> ()
  | `Stopped _ | `Out_of_rounds -> Alcotest.fail "expected quiescence");
  Alcotest.(check int) "only source informed" 1 (Netsim.Flood.informed_count engine);
  let metrics = Netsim.Engine.metrics engine in
  Alcotest.(check int) "sent" 4 (Netsim.Metrics.messages_sent metrics);
  Alcotest.(check int) "none delivered" 0 (Netsim.Metrics.messages_delivered metrics)

let test_engine_determinism () =
  let run () =
    let engine = Netsim.Engine.create ~seed:9L (world ~p:0.6 ~seed:4L (cube 6)) Netsim.Gossip.protocol in
    Netsim.Gossip.start engine ~source:0;
    for _ = 1 to 30 do
      Netsim.Engine.run_round engine
    done;
    (Netsim.Gossip.informed_count engine, (Netsim.Metrics.messages_sent (Netsim.Engine.metrics engine)))
  in
  Alcotest.(check (pair int int)) "replayable" (run ()) (run ())

(* Golden counts: small seeded runs of every shipped protocol (and an
   inbox-order probe) pinned to the exact outcome, rounds, message and
   probe counts and a fold of the final states. Any change to the
   round loop — delivery order, stream derivation, capacity drains,
   churn checks — shows up here as a changed line. *)

let mix acc x = ((acc * 1_000_003) + x) land 0x3FFF_FFFF

let golden_line engine outcome ~code =
  let m = Netsim.Engine.metrics engine in
  let fold =
    Netsim.Engine.fold_states engine ~init:17 ~f:(fun acc node s ->
        mix (mix acc node) (code s))
  in
  Printf.sprintf
    "%s rounds=%d sent=%d delivered=%d raw=%d distinct=%d blocked=%d \
     in_flight=%d fold=%d"
    (match outcome with
    | `Stopped r -> Printf.sprintf "stopped@%d" r
    | `Quiescent r -> Printf.sprintf "quiescent@%d" r
    | `Out_of_rounds -> "out-of-rounds")
    (Netsim.Metrics.rounds m) (Netsim.Metrics.messages_sent m)
    (Netsim.Metrics.messages_delivered m) (Netsim.Metrics.raw_probes m)
    (Netsim.Metrics.distinct_probes m) (Netsim.Metrics.churn_blocked m)
    (Netsim.Engine.in_flight engine) fold

let informed_code (s : Netsim.Flood.state) =
  match s.informed_at with None -> 0 | Some r -> r + 1

let gossip_code (s : Netsim.Gossip.state) =
  match s.informed_at with None -> 0 | Some r -> r + 1

(* Every node folds the senders of its inbox, in delivery order, into
   its state, and keeps talking: all neighbours in round 1, then one
   random neighbour per round while the round is below 8. *)
let order_protocol =
  {
    Netsim.Protocol.name = "inbox-order";
    init = (fun ~node -> node);
    step =
      (fun api state inbox ->
        let state =
          List.fold_left (fun acc (sender, ()) -> mix acc (sender + 1)) state inbox
        in
        let neighbors = api.Netsim.Api.neighbors in
        let degree = Array.length neighbors in
        if api.Netsim.Api.round = 1 then
          Array.iter (fun v -> api.Netsim.Api.send v ()) neighbors
        else if api.Netsim.Api.round < 8 && degree > 0 then
          api.Netsim.Api.send neighbors.(api.Netsim.Api.random_int degree) ();
        mix state api.Netsim.Api.round);
    idle = (fun _ -> true);
  }

let golden_runs () =
  let until_never _ = false in
  [
    ( "flood",
      let w = P.World.create (cube 7) ~p:0.6 ~seed:3L in
      let e = Netsim.Engine.create w Netsim.Flood.protocol in
      Netsim.Flood.start e ~source:0;
      let r =
        Netsim.Engine.run e ~until:(fun e -> Netsim.Flood.informed_at e 127 <> None)
      in
      golden_line e r ~code:informed_code );
    ( "gossip",
      let w = P.World.create (cube 7) ~p:0.7 ~seed:4L in
      let e = Netsim.Engine.create ~seed:9L w Netsim.Gossip.protocol in
      Netsim.Gossip.start e ~source:0;
      let r =
        Netsim.Engine.run ~max_rounds:200 e ~until:(fun e ->
            Netsim.Gossip.informed_at e 127 <> None)
      in
      golden_line e r ~code:gossip_code );
    ( "greedy-forward",
      let w = P.World.create (cube 8) ~p:0.9 ~seed:2L in
      let e =
        Netsim.Engine.create w
          (Netsim.Greedy_forward.protocol ~target:255
             ~metric:Topology.Hypercube.hamming)
      in
      Netsim.Greedy_forward.start e ~source:0;
      let r =
        Netsim.Engine.run e ~until:(fun e ->
            Netsim.Greedy_forward.arrived e ~target:255 <> None)
      in
      golden_line e r ~code:(fun (s : Netsim.Greedy_forward.state) ->
          let opt = function None -> 0 | Some r -> r + 1 in
          (opt s.arrived_at * 1000) + opt s.dropped_at) );
    ( "random-walk",
      let w = P.World.create (cube 6) ~p:0.8 ~seed:5L in
      let e = Netsim.Engine.create ~seed:6L w (Netsim.Random_walk.protocol ~target:63) in
      Netsim.Random_walk.start e ~source:0;
      let r =
        Netsim.Engine.run ~max_rounds:3000 e ~until:(fun e ->
            Netsim.Random_walk.arrived e ~target:63 <> None)
      in
      golden_line e r ~code:(fun (s : Netsim.Random_walk.state) ->
          (s.visits * 4)
          + (if s.holding then 2 else 0)
          + if s.arrived_at <> None then 1 else 0) );
    ( "butterfly capacity 1",
      let n = 4 in
      let w = P.World.create (Topology.Butterfly.graph n) ~p:0.85 ~seed:7L in
      let e =
        Netsim.Engine.create ~link_capacity:1 w (Netsim.Butterfly_route.protocol ~n)
      in
      Netsim.Butterfly_route.inject_permutation (Prng.Stream.create 8L) e ~n
        ~passes:3;
      let r = Netsim.Engine.run ~max_rounds:500 e ~until:until_never in
      golden_line e r ~code:(fun (s : Netsim.Butterfly_route.state) ->
          List.fold_left mix ((s.arrivals * 100) + s.dropped) s.arrival_rounds) );
    ( "churned flood",
      let w = P.World.create (cube 7) ~p:0.9 ~seed:10L in
      let e =
        Netsim.Engine.create
          ~churn:(Netsim.Churn.make ~fail:0.1 ~repair:0.3 ~seed:5L ())
          w Netsim.Flood.protocol
      in
      Netsim.Flood.start e ~source:0;
      let r = Netsim.Engine.run ~max_rounds:100 e ~until:until_never in
      golden_line e r ~code:informed_code );
    ( "churned gossip",
      let w = P.World.create (cube 6) ~p:1.0 ~seed:11L in
      let e =
        Netsim.Engine.create ~seed:12L
          ~churn:(Netsim.Churn.make ~fail:0.2 ~repair:0.3 ~seed:6L ())
          w Netsim.Gossip.protocol
      in
      Netsim.Gossip.start e ~source:0;
      let r = Netsim.Engine.run ~max_rounds:40 e ~until:until_never in
      golden_line e r ~code:gossip_code );
    ( "inbox order",
      let w = P.World.create (cube 5) ~p:0.7 ~seed:13L in
      let e = Netsim.Engine.create ~seed:14L w order_protocol in
      let r = Netsim.Engine.run ~max_rounds:10 e ~until:until_never in
      golden_line e r ~code:Fun.id );
    ( "inbox order capacity 2",
      let w = P.World.create (cube 5) ~p:0.7 ~seed:13L in
      let e = Netsim.Engine.create ~seed:14L ~link_capacity:2 w order_protocol in
      let r = Netsim.Engine.run ~max_rounds:10 e ~until:until_never in
      golden_line e r ~code:Fun.id );
    ( "inbox order churned capacity 1",
      let w = P.World.create (cube 5) ~p:0.8 ~seed:15L in
      let e =
        Netsim.Engine.create ~seed:16L ~link_capacity:1
          ~churn:(Netsim.Churn.make ~fail:0.25 ~repair:0.3 ~seed:17L ())
          w order_protocol
      in
      let r = Netsim.Engine.run ~max_rounds:12 e ~until:until_never in
      golden_line e r ~code:Fun.id );
  ]

(* Recorded from the earlier engine (a Hashtbl of inboxes and fresh
   closures per node per round); the array-based round loop reproduces
   them exactly. *)
let golden_expected =
  [
    ("flood",
      "stopped@8 rounds=8 sent=896 delivered=522 raw=0 distinct=0 blocked=0 in_flight=34 fold=692652889");
    ("gossip",
      "stopped@20 rounds=20 sent=537 delivered=371 raw=0 distinct=0 blocked=0 in_flight=67 fold=163194582");
    ("greedy-forward",
      "stopped@9 rounds=9 sent=8 delivered=8 raw=10 distinct=10 blocked=0 in_flight=0 fold=593085857");
    ("random-walk",
      "stopped@365 rounds=365 sent=276 delivered=276 raw=364 distinct=147 blocked=0 in_flight=0 fold=24244390");
    ("butterfly capacity 1",
      "quiescent@14 rounds=14 sent=85 delivered=85 raw=97 distinct=67 blocked=0 in_flight=0 fold=959471288");
    ("churned flood",
      "quiescent@9 rounds=9 sent=896 delivered=635 raw=0 distinct=0 blocked=159 in_flight=0 fold=12276421");
    ("churned gossip",
      "out-of-rounds rounds=40 sent=1948 delivered=1178 raw=0 distinct=0 blocked=770 in_flight=42 fold=1005258677");
    ("inbox order",
      "quiescent@8 rounds=8 sent=352 delivered=263 raw=0 distinct=0 blocked=0 in_flight=0 fold=194195103");
    ("inbox order capacity 2",
      "quiescent@8 rounds=8 sent=352 delivered=263 raw=0 distinct=0 blocked=0 in_flight=0 fold=891818449");
    ("inbox order churned capacity 1",
      "quiescent@8 rounds=8 sent=352 delivered=242 raw=0 distinct=0 blocked=55 in_flight=0 fold=770830919");
  ]

let test_engine_golden_counts () =
  List.iter
    (fun (name, line) ->
      Alcotest.(check string) name
        (Option.value (List.assoc_opt name golden_expected) ~default:"?")
        line)
    (golden_runs ())

(* ------------------------------------------------------------------ *)
(* Flood                                                               *)

let test_flood_full_world_is_bfs () =
  let n = 6 in
  let engine = Netsim.Engine.create (world (cube n)) Netsim.Flood.protocol in
  Netsim.Flood.start engine ~source:0;
  (match
     Netsim.Engine.run engine ~until:(fun e -> Netsim.Flood.informed_count e = 1 lsl n)
   with
  | `Stopped _ -> ()
  | `Quiescent _ | `Out_of_rounds -> Alcotest.fail "flood did not cover");
  (* Every node's latency equals its Hamming distance from the source. *)
  for v = 0 to (1 lsl n) - 1 do
    match Netsim.Flood.latency engine ~source:0 ~target:v with
    | Some d -> Alcotest.(check int) (Printf.sprintf "latency %d" v) (Topology.Hypercube.hamming 0 v) d
    | None -> Alcotest.fail "uninformed node"
  done

let test_flood_latency_equals_chemical_distance () =
  (* The headline cross-validation: flooding is distributed BFS of the
     open subgraph, so latency = percolation distance, on every seed. *)
  let n = 7 in
  let g = cube n in
  for trial = 1 to 20 do
    let seed = Prng.Coin.derive 777L trial in
    let w = world ~p:0.3 ~seed g in
    let engine = Netsim.Engine.create w Netsim.Flood.protocol in
    Netsim.Flood.start engine ~source:0;
    (match Netsim.Engine.run engine ~until:(fun _ -> false) with
    | `Quiescent _ -> ()
    | `Stopped _ | `Out_of_rounds -> Alcotest.fail "flood should go quiescent");
    let target = (1 lsl n) - 1 in
    let simulated = Netsim.Flood.latency engine ~source:0 ~target in
    let truth = P.Chemical.distance w 0 target in
    Alcotest.(check (option int)) (Printf.sprintf "seed %d" trial) truth simulated
  done

let test_flood_informed_count_is_cluster_size () =
  let g = cube 7 in
  let w = world ~p:0.25 ~seed:31L g in
  let engine = Netsim.Engine.create w Netsim.Flood.protocol in
  Netsim.Flood.start engine ~source:0;
  (match Netsim.Engine.run engine ~until:(fun _ -> false) with
  | `Quiescent _ -> ()
  | _ -> Alcotest.fail "expected quiescence");
  let cluster, truncated = P.Reveal.cluster_of w 0 in
  Alcotest.(check bool) "not truncated" false truncated;
  Alcotest.(check int) "informed = cluster" (List.length cluster)
    (Netsim.Flood.informed_count engine)

let test_flood_message_cost () =
  (* Each informed node sends exactly degree messages, once. *)
  let n = 5 in
  let engine = Netsim.Engine.create (world (cube n)) Netsim.Flood.protocol in
  Netsim.Flood.start engine ~source:0;
  (match Netsim.Engine.run engine ~until:(fun _ -> false) with
  | `Quiescent _ -> ()
  | _ -> Alcotest.fail "expected quiescence");
  Alcotest.(check int) "messages = V * degree" ((1 lsl n) * n)
    (Netsim.Metrics.messages_sent (Netsim.Engine.metrics engine))

(* ------------------------------------------------------------------ *)
(* Gossip                                                              *)

let test_gossip_spreads_on_full_world () =
  let n = 6 in
  let engine = Netsim.Engine.create ~seed:3L (world (cube n)) Netsim.Gossip.protocol in
  Netsim.Gossip.start engine ~source:0;
  match
    Netsim.Engine.run ~max_rounds:500 engine ~until:(fun e ->
        Netsim.Gossip.informed_count e = 1 lsl n)
  with
  | `Stopped rounds ->
      Alcotest.(check bool)
        (Printf.sprintf "spread in %d rounds" rounds)
        true
        (rounds < 200)
  | `Quiescent _ | `Out_of_rounds -> Alcotest.fail "gossip did not spread"

let test_gossip_respects_components () =
  (* Gossip cannot jump across a disconnected world. *)
  let g = cube 6 in
  let w = world ~p:0.15 ~seed:5L g in
  let cluster, _ = P.Reveal.cluster_of w 0 in
  let engine = Netsim.Engine.create ~seed:3L w Netsim.Gossip.protocol in
  Netsim.Gossip.start engine ~source:0;
  for _ = 1 to 300 do
    Netsim.Engine.run_round engine
  done;
  Alcotest.(check bool) "within cluster" true
    (Netsim.Gossip.informed_count engine <= List.length cluster)

(* ------------------------------------------------------------------ *)
(* Greedy forwarding                                                   *)

let hamming_metric u v = Topology.Hypercube.hamming u v

let test_greedy_full_world_direct () =
  let n = 6 in
  let target = (1 lsl n) - 1 in
  let engine =
    Netsim.Engine.create (world (cube n))
      (Netsim.Greedy_forward.protocol ~target ~metric:hamming_metric)
  in
  Netsim.Greedy_forward.start engine ~source:0;
  (match
     Netsim.Engine.run engine ~until:(fun e ->
         Netsim.Greedy_forward.arrived e ~target <> None)
   with
  | `Stopped _ -> ()
  | `Quiescent _ | `Out_of_rounds -> Alcotest.fail "greedy failed on full world");
  Alcotest.(check (option int)) "hops = distance" (Some n)
    (Netsim.Greedy_forward.hops engine ~target)

let test_greedy_fails_cleanly () =
  (* Strictly-decreasing greedy cannot leave a local trap: on a heavily
     faulty world it must drop the token and quiesce. *)
  let n = 8 in
  let target = (1 lsl n) - 1 in
  let g = cube n in
  let dropped = ref 0 and arrived = ref 0 in
  for trial = 1 to 30 do
    let w = world ~p:0.35 ~seed:(Prng.Coin.derive 888L trial) g in
    let engine =
      Netsim.Engine.create w (Netsim.Greedy_forward.protocol ~target ~metric:hamming_metric)
    in
    Netsim.Greedy_forward.start engine ~source:0;
    (match
       Netsim.Engine.run engine ~until:(fun e ->
           Netsim.Greedy_forward.arrived e ~target <> None)
     with
    | `Stopped _ -> incr arrived
    | `Quiescent _ ->
        incr dropped;
        Alcotest.(check bool) "drop recorded" true
          (Netsim.Greedy_forward.dropped engine <> None)
    | `Out_of_rounds -> Alcotest.fail "greedy must terminate")
  done;
  Alcotest.(check bool)
    (Printf.sprintf "both outcomes seen (%d arrived, %d dropped)" !arrived !dropped)
    true
    (!arrived > 0 && !dropped > 0)

let test_greedy_probe_cost_bounded () =
  let n = 6 in
  let target = (1 lsl n) - 1 in
  let engine =
    Netsim.Engine.create (world (cube n))
      (Netsim.Greedy_forward.protocol ~target ~metric:hamming_metric)
  in
  Netsim.Greedy_forward.start engine ~source:0;
  ignore (Netsim.Engine.run engine ~until:(fun e -> Netsim.Greedy_forward.arrived e ~target <> None));
  (* One probe per hop on the fault-free cube. *)
  Alcotest.(check int) "probes" n (Netsim.Metrics.distinct_probes (Netsim.Engine.metrics engine))

(* ------------------------------------------------------------------ *)
(* Random walk                                                         *)

let test_walk_reaches_target_full_world () =
  let n = 4 in
  let target = (1 lsl n) - 1 in
  let engine =
    Netsim.Engine.create ~seed:11L (world (cube n)) (Netsim.Random_walk.protocol ~target)
  in
  Netsim.Random_walk.start engine ~source:0;
  match
    Netsim.Engine.run ~max_rounds:5000 engine ~until:(fun e ->
        Netsim.Random_walk.arrived e ~target <> None)
  with
  | `Stopped rounds -> Alcotest.(check bool) "positive" true (rounds >= n)
  | `Quiescent _ | `Out_of_rounds -> Alcotest.fail "walk lost"

let test_walk_holds_through_closed_links () =
  (* In an all-closed world the walk holds forever (never quiescent,
     never lost) — the idle predicate keeps the engine honest. *)
  let engine =
    Netsim.Engine.create ~seed:11L (world ~p:0.0 (cube 4))
      (Netsim.Random_walk.protocol ~target:15)
  in
  Netsim.Random_walk.start engine ~source:0;
  match Netsim.Engine.run ~max_rounds:50 engine ~until:(fun _ -> false) with
  | `Out_of_rounds -> ()
  | `Quiescent _ -> Alcotest.fail "holder is not idle"
  | `Stopped _ -> Alcotest.fail "nothing to stop on"

let test_walk_visits_accounting () =
  let n = 4 in
  let target = (1 lsl n) - 1 in
  let engine =
    Netsim.Engine.create ~seed:13L (world (cube n)) (Netsim.Random_walk.protocol ~target)
  in
  Netsim.Random_walk.start engine ~source:0;
  (match
     Netsim.Engine.run ~max_rounds:5000 engine ~until:(fun e ->
         Netsim.Random_walk.arrived e ~target <> None)
   with
  | `Stopped rounds ->
      (* On the fault-free cube the walk moves every round, so visits =
         rounds. *)
      Alcotest.(check int) "visits = rounds" rounds (Netsim.Random_walk.total_visits engine)
  | `Quiescent _ | `Out_of_rounds -> Alcotest.fail "walk lost")

(* ------------------------------------------------------------------ *)
(* Link capacity (store-and-forward congestion)                        *)

(* A fan-in protocol: every non-zero vertex of a star sends one message
   to the hub each round for the first round only; with capacity 1 per
   directed link the hub still receives them all (each sender has its
   own link), but a chain forces serialisation. *)

type relay_state = { forwarded : int; received_at : int list }

let relay_protocol ~sink =
  (* Forward every received message towards the sink along the single
     path of a path-shaped topology (vertex ids decrease towards 0). *)
  {
    Netsim.Protocol.name = "relay";
    init = (fun ~node:_ -> { forwarded = 0; received_at = [] });
    step =
      (fun api state inbox ->
        if api.Netsim.Api.node = sink then
          {
            state with
            received_at =
              List.map (fun _ -> api.Netsim.Api.round) inbox @ state.received_at;
          }
        else begin
          List.iter
            (fun _ -> api.Netsim.Api.send (api.Netsim.Api.node - 1) Netsim.Flood.Rumor)
            inbox;
          { state with forwarded = state.forwarded + List.length inbox }
        end);
    idle = (fun _ -> true);
  }

(* A 1-d path graph: mesh with d = 1. *)
let path_graph length = Topology.Mesh.graph ~d:1 ~m:length

let test_capacity_serialises_chain () =
  (* Inject 4 messages at node 3 of a path 3-2-1-0 with capacity 1: the
     sink receives one per round, so the last arrives 3 rounds after the
     first. Unbounded capacity delivers all simultaneously. *)
  let run capacity =
    let w = world (path_graph 4) in
    let engine = Netsim.Engine.create ?link_capacity:capacity w (relay_protocol ~sink:0) in
    for _ = 1 to 4 do
      Netsim.Engine.inject engine ~node:3 ~sender:3 Netsim.Flood.Rumor
    done;
    (match Netsim.Engine.run ~max_rounds:50 engine ~until:(fun _ -> false) with
    | `Quiescent _ -> ()
    | `Stopped _ | `Out_of_rounds -> Alcotest.fail "should quiesce");
    (Netsim.Engine.state engine 0).received_at |> List.sort compare
  in
  (match run None with
  | [ a; b; c; d ] ->
      Alcotest.(check bool) "simultaneous" true (a = b && b = c && c = d)
  | _ -> Alcotest.fail "four arrivals expected");
  match run (Some 1) with
  | [ a; _; _; d ] -> Alcotest.(check int) "serialised by 3 rounds" 3 (d - a)
  | _ -> Alcotest.fail "four arrivals expected"

let test_capacity_preserves_messages () =
  (* Nothing is lost to congestion: all injected messages arrive. *)
  let w = world (path_graph 6) in
  let engine = Netsim.Engine.create ~link_capacity:1 w (relay_protocol ~sink:0) in
  for _ = 1 to 10 do
    Netsim.Engine.inject engine ~node:5 ~sender:5 Netsim.Flood.Rumor
  done;
  (match Netsim.Engine.run ~max_rounds:200 engine ~until:(fun _ -> false) with
  | `Quiescent _ -> ()
  | _ -> Alcotest.fail "should quiesce");
  Alcotest.(check int) "all delivered" 10
    (List.length (Netsim.Engine.state engine 0).received_at)

let test_capacity_invalid () =
  let w = world (path_graph 3) in
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Engine.create: link capacity must be >= 1") (fun () ->
      ignore (Netsim.Engine.create ~link_capacity:0 w (relay_protocol ~sink:0)))

(* ------------------------------------------------------------------ *)
(* Butterfly permutation routing                                       *)

let test_butterfly_full_world_delivers_all () =
  let n = 4 in
  let g = Topology.Butterfly.graph n in
  let engine = Netsim.Engine.create (world g) (Netsim.Butterfly_route.protocol ~n) in
  Netsim.Butterfly_route.inject_permutation (Prng.Stream.create 5L) engine ~n ~passes:2;
  (match Netsim.Engine.run ~max_rounds:200 engine ~until:(fun _ -> false) with
  | `Quiescent _ -> ()
  | _ -> Alcotest.fail "should quiesce");
  Alcotest.(check int) "all delivered" 16 (Netsim.Butterfly_route.delivered engine);
  Alcotest.(check int) "none dropped" 0 (Netsim.Butterfly_route.dropped engine);
  (* One pass suffices without faults: latency <= n + 1. *)
  List.iter
    (fun r -> Alcotest.(check bool) "single pass" true (r <= n + 1))
    (Netsim.Butterfly_route.latencies engine)

let test_butterfly_conservation_under_faults () =
  (* Delivered + dropped = injected on every world. *)
  let n = 4 in
  let g = Topology.Butterfly.graph n in
  for trial = 1 to 10 do
    let w = P.World.create g ~p:0.85 ~seed:(Prng.Coin.derive 606L trial) in
    let engine = Netsim.Engine.create w (Netsim.Butterfly_route.protocol ~n) in
    Netsim.Butterfly_route.inject_permutation
      (Prng.Stream.create (Prng.Coin.derive 707L trial))
      engine ~n ~passes:3;
    (match Netsim.Engine.run ~max_rounds:500 engine ~until:(fun _ -> false) with
    | `Quiescent _ -> ()
    | _ -> Alcotest.fail "should quiesce");
    Alcotest.(check int)
      (Printf.sprintf "conservation, trial %d" trial)
      16
      (Netsim.Butterfly_route.delivered engine + Netsim.Butterfly_route.dropped engine)
  done

let test_butterfly_capacity_only_delays () =
  let n = 4 in
  let g = Topology.Butterfly.graph n in
  let run capacity =
    let engine =
      Netsim.Engine.create ?link_capacity:capacity (world g)
        (Netsim.Butterfly_route.protocol ~n)
    in
    Netsim.Butterfly_route.inject_permutation (Prng.Stream.create 9L) engine ~n
      ~passes:2;
    (match Netsim.Engine.run ~max_rounds:500 engine ~until:(fun _ -> false) with
    | `Quiescent _ -> ()
    | _ -> Alcotest.fail "should quiesce");
    ( Netsim.Butterfly_route.delivered engine,
      List.fold_left max 0 (Netsim.Butterfly_route.latencies engine) )
  in
  let delivered_unbounded, max_unbounded = run None in
  let delivered_capped, max_capped = run (Some 1) in
  Alcotest.(check int) "same delivery" delivered_unbounded delivered_capped;
  Alcotest.(check bool) "capped at least as slow" true (max_capped >= max_unbounded)

(* ------------------------------------------------------------------ *)
(* Engine edge guards                                                  *)

let test_probe_non_neighbour_raises () =
  (* A protocol that probes a vertex two hops away on the path: the
     engine must reject it with the graph's own exception rather than
     silently answering. *)
  let bad =
    {
      Netsim.Protocol.name = "bad-probe";
      init = (fun ~node:_ -> ());
      step =
        (fun api () _ ->
          if api.Netsim.Api.node = 0 then
            ignore (api.Netsim.Api.probe 2 : bool));
      idle = (fun _ -> true);
    }
  in
  let engine = Netsim.Engine.create (world (path_graph 4)) bad in
  match Netsim.Engine.run_round engine with
  | () -> Alcotest.fail "probing a non-neighbour should raise"
  | exception Topology.Graph.Not_an_edge _ -> ()

let test_inject_delivers_at_round_one () =
  let engine = Netsim.Engine.create (world (cube 3)) probing_protocol in
  Netsim.Engine.inject engine ~node:5 ~sender:5 ();
  Alcotest.(check int) "queued" 1 (Netsim.Engine.in_flight engine);
  Netsim.Engine.run_round engine;
  Alcotest.(check int) "received at round 1" 1 (Netsim.Engine.state engine 5).received;
  Alcotest.(check int) "others got nothing" 0 (Netsim.Engine.state engine 0).received;
  (* Injection is a bootstrap, not traffic. *)
  Alcotest.(check int) "not counted as sent" 0
    (Netsim.Metrics.messages_sent (Netsim.Engine.metrics engine))

(* Api.neighbors is a read-only row shared across rounds: after every
   shipped protocol has run, each row a step was handed (checked by
   content, at the end, so a later mutation also shows) must still be
   the topology's neighbour list. *)
let rows_intact name graph protocol ~start ~rounds =
  let seen = ref [] in
  let watched =
    {
      protocol with
      Netsim.Protocol.step =
        (fun api state inbox ->
          seen := (api.Netsim.Api.node, api.Netsim.Api.neighbors) :: !seen;
          protocol.Netsim.Protocol.step api state inbox);
    }
  in
  let engine =
    Netsim.Engine.create (P.World.create graph ~p:0.8 ~seed:21L) watched
  in
  start engine;
  for _ = 1 to rounds do
    Netsim.Engine.run_round engine
  done;
  Alcotest.(check bool) (name ^ " stepped") true (!seen <> []);
  List.iter
    (fun (node, row) ->
      Alcotest.(check (array int))
        (Printf.sprintf "%s row %d" name node)
        (graph.Topology.Graph.neighbors node)
        row)
    !seen

let test_api_neighbors_untouched () =
  let g = cube 6 in
  rows_intact "flood" g Netsim.Flood.protocol ~rounds:10 ~start:(fun e ->
      Netsim.Flood.start e ~source:0);
  rows_intact "gossip" g Netsim.Gossip.protocol ~rounds:20 ~start:(fun e ->
      Netsim.Gossip.start e ~source:0);
  rows_intact "greedy-forward" g
    (Netsim.Greedy_forward.protocol ~target:63 ~metric:Topology.Hypercube.hamming)
    ~rounds:10
    ~start:(fun e -> Netsim.Greedy_forward.start e ~source:0);
  rows_intact "random-walk" g (Netsim.Random_walk.protocol ~target:63) ~rounds:40
    ~start:(fun e -> Netsim.Random_walk.start e ~source:0);
  let n = 4 in
  rows_intact "butterfly" (Topology.Butterfly.graph n)
    (Netsim.Butterfly_route.protocol ~n) ~rounds:20 ~start:(fun e ->
      Netsim.Butterfly_route.inject_permutation (Prng.Stream.create 3L) e ~n
        ~passes:2)

(* ------------------------------------------------------------------ *)
(* Churn                                                               *)

let test_churn_spec_parsing () =
  (match Netsim.Churn.of_spec "fail=0.1,repair=0.4,seed=9" with
  | Ok plan ->
      Alcotest.(check string) "describe" "fail=0.1,repair=0.4,seed=9"
        (Netsim.Churn.describe plan);
      (match Netsim.Churn.of_string (Netsim.Churn.to_string plan) with
      | Ok back ->
          Alcotest.(check string) "churnplan/v1 round trip"
            (Netsim.Churn.describe plan) (Netsim.Churn.describe back)
      | Error m -> Alcotest.fail m)
  | Error m -> Alcotest.fail m);
  (match Netsim.Churn.of_spec "fail=0.2" with
  | Ok plan ->
      Alcotest.(check string) "repair defaults to fail, seed to 0"
        "fail=0.2,repair=0.2,seed=0" (Netsim.Churn.describe plan)
  | Error m -> Alcotest.fail m);
  List.iter
    (fun spec ->
      match Netsim.Churn.of_spec spec with
      | Ok _ -> Alcotest.fail (Printf.sprintf "spec %S should be rejected" spec)
      | Error _ -> ())
    [ ""; "fail=oops"; "repair=0.2"; "fail=1.5"; "fail=0.1,bogus=3" ]

let test_churn_every_link_starts_up () =
  let g = cube 5 in
  let plan = Netsim.Churn.make ~fail:0.9 ~repair:0.1 ~seed:3L () in
  let state = Netsim.Churn.instantiate plan ~world_seed:17L in
  for edge = 0 to Topology.Graph.edge_count g - 1 do
    if not (Netsim.Churn.link_up state ~edge ~round:1) then
      Alcotest.fail (Printf.sprintf "edge %d down at round 1" edge)
  done

let test_churn_zero_fail_never_fires () =
  let plan = Netsim.Churn.make ~fail:0.0 ~repair:0.5 ~seed:3L () in
  let state = Netsim.Churn.instantiate plan ~world_seed:17L in
  List.iter
    (fun round ->
      Alcotest.(check bool)
        (Printf.sprintf "up at round %d" round)
        true
        (Netsim.Churn.link_up state ~edge:12 ~round))
    [ 1; 2; 100; 100_000 ]

let test_churn_query_order_irrelevant () =
  (* Trajectories extend lazily; answers must not depend on the order
     rounds are asked in. Query one instance backwards and scattered,
     the other forwards, and compare everywhere. *)
  let plan = Netsim.Churn.make ~fail:0.3 ~repair:0.4 ~seed:11L () in
  let forward = Netsim.Churn.instantiate plan ~world_seed:5L in
  let scattered = Netsim.Churn.instantiate plan ~world_seed:5L in
  let edges = [ 0; 3; 7 ] and rounds = 60 in
  List.iter
    (fun edge ->
      ignore (Netsim.Churn.link_up scattered ~edge ~round:rounds : bool);
      ignore (Netsim.Churn.link_up scattered ~edge ~round:7 : bool))
    edges;
  List.iter
    (fun edge ->
      for round = 1 to rounds do
        Alcotest.(check bool)
          (Printf.sprintf "edge %d round %d" edge round)
          (Netsim.Churn.link_up forward ~edge ~round)
          (Netsim.Churn.link_up scattered ~edge ~round)
      done)
    edges

let test_churn_blocked_accounting () =
  (* On a fault-free world with unlimited capacity every sent message
     is either delivered, blocked by churn, or still in flight. *)
  let engine =
    Netsim.Engine.create
      ~churn:(Netsim.Churn.make ~fail:0.3 ~repair:0.3 ~seed:2L ())
      (world (cube 5)) Netsim.Gossip.protocol
  in
  Netsim.Gossip.start engine ~source:0;
  for _ = 1 to 30 do
    Netsim.Engine.run_round engine
  done;
  let m = Netsim.Engine.metrics engine in
  Alcotest.(check bool) "churn actually bit" true (Netsim.Metrics.churn_blocked m > 0);
  (* Unlimited capacity counts delivery at send time, so on a
     fault-free world every send is either delivered or blocked. *)
  Alcotest.(check int) "sent = delivered + blocked"
    (Netsim.Metrics.messages_sent m)
    (Netsim.Metrics.messages_delivered m + Netsim.Metrics.churn_blocked m)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"flood latency = chemical distance" ~count:60
      (pair int64 (float_range 0.2 0.9))
      (fun (seed, p) ->
        let g = cube 6 in
        let w = P.World.create g ~p ~seed in
        let engine = Netsim.Engine.create w Netsim.Flood.protocol in
        Netsim.Flood.start engine ~source:0;
        (match Netsim.Engine.run engine ~until:(fun _ -> false) with
        | `Quiescent _ -> ()
        | `Stopped _ | `Out_of_rounds -> ());
        Netsim.Flood.latency engine ~source:0 ~target:63
        = P.Chemical.distance w 0 63);
    Test.make ~name:"flood informs exactly the source cluster" ~count:60
      (pair int64 (float_range 0.1 0.9))
      (fun (seed, p) ->
        let g = cube 6 in
        let w = P.World.create g ~p ~seed in
        let engine = Netsim.Engine.create w Netsim.Flood.protocol in
        Netsim.Flood.start engine ~source:0;
        (match Netsim.Engine.run engine ~until:(fun _ -> false) with
        | `Quiescent _ -> ()
        | `Stopped _ | `Out_of_rounds -> ());
        let cluster, _ = P.Reveal.cluster_of w 0 in
        Netsim.Flood.informed_count engine = List.length cluster);
    Test.make ~name:"butterfly conservation" ~count:40
      (pair int64 (float_range 0.6 1.0))
      (fun (seed, p) ->
        let n = 4 in
        let g = Topology.Butterfly.graph n in
        let w = P.World.create g ~p ~seed in
        let engine = Netsim.Engine.create w (Netsim.Butterfly_route.protocol ~n) in
        Netsim.Butterfly_route.inject_permutation
          (Prng.Stream.create (Int64.add seed 1L))
          engine ~n ~passes:3;
        (match Netsim.Engine.run ~max_rounds:500 engine ~until:(fun _ -> false) with
        | `Quiescent _ | `Stopped _ | `Out_of_rounds -> ());
        Netsim.Butterfly_route.delivered engine + Netsim.Butterfly_route.dropped engine
        = 16);
    Test.make ~name:"churned gossip is replayable" ~count:30
      (pair int64 (float_range 0.05 0.5))
      (fun (seed, fail) ->
        let run () =
          let engine =
            Netsim.Engine.create ~seed:9L
              ~churn:(Netsim.Churn.make ~fail ~repair:0.4 ~seed ())
              (P.World.create (cube 5) ~p:1.0 ~seed:4L)
              Netsim.Gossip.protocol
          in
          Netsim.Gossip.start engine ~source:0;
          for _ = 1 to 25 do
            Netsim.Engine.run_round engine
          done;
          let m = Netsim.Engine.metrics engine in
          ( Netsim.Gossip.informed_count engine,
            Netsim.Metrics.messages_sent m,
            Netsim.Metrics.churn_blocked m )
        in
        run () = run ());
  ]

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "netsim"
    [
      ( "engine",
        [
          case "round counting" test_engine_round_counting;
          case "probe accounting" test_engine_distinct_probe_accounting;
          case "injection" test_engine_injection_and_delivery;
          case "loss on closed links" test_engine_message_loss_on_closed_links;
          case "determinism" test_engine_determinism;
          case "golden counts" test_engine_golden_counts;
          case "snapshot key set" test_engine_snapshot_key_set;
        ] );
      ( "flood",
        [
          case "full world = BFS" test_flood_full_world_is_bfs;
          case "latency = chemical distance" test_flood_latency_equals_chemical_distance;
          case "informed = cluster" test_flood_informed_count_is_cluster_size;
          case "message cost" test_flood_message_cost;
        ] );
      ( "gossip",
        [
          case "spreads" test_gossip_spreads_on_full_world;
          case "respects components" test_gossip_respects_components;
        ] );
      ( "greedy forward",
        [
          case "full world direct" test_greedy_full_world_direct;
          case "fails cleanly" test_greedy_fails_cleanly;
          case "probe cost" test_greedy_probe_cost_bounded;
        ] );
      ( "random walk",
        [
          case "reaches target" test_walk_reaches_target_full_world;
          case "holds through closed links" test_walk_holds_through_closed_links;
          case "visits accounting" test_walk_visits_accounting;
        ] );
      ( "link capacity",
        [
          case "serialises a chain" test_capacity_serialises_chain;
          case "preserves messages" test_capacity_preserves_messages;
          case "invalid" test_capacity_invalid;
        ] );
      ( "butterfly routing",
        [
          case "full world delivers all" test_butterfly_full_world_delivers_all;
          case "conservation under faults" test_butterfly_conservation_under_faults;
          case "capacity only delays" test_butterfly_capacity_only_delays;
        ] );
      ( "edge guards",
        [
          case "non-neighbour probe raises" test_probe_non_neighbour_raises;
          case "inject delivers at round 1" test_inject_delivers_at_round_one;
          case "neighbour rows untouched" test_api_neighbors_untouched;
        ] );
      ( "churn",
        [
          case "spec parsing" test_churn_spec_parsing;
          case "every link starts up" test_churn_every_link_starts_up;
          case "zero fail never fires" test_churn_zero_fail_never_fires;
          case "query order irrelevant" test_churn_query_order_irrelevant;
          case "blocked accounting" test_churn_blocked_accounting;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
