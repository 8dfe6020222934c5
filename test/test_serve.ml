(* Tests for the serve layer: session/v1 parsing and round-trips, the
   world pool (memoisation, eviction, prefilled = lazy), query-protocol
   resilience (malformed lines answered, session survives), admission
   overflow, evidence/v1 round-trip + validation + claims, and the
   determinism contract: answer and evidence bytes identical for jobs
   1 vs 4 and for any batch (queue) capacity. *)

module S = Serve.Session
module Q = Serve.Query
module E = Serve.Evidence
module Svc = Serve.Service
module W = Experiments.Worldpool

let world ?(wid = "w0") ?(topology = "hypercube:4") ?(p = 0.55) ?site_p
    ?(seed = 5L) () =
  { S.wid; topology; p; site_p; seed }

let session ?(name = "t") ?(seed = 7L) ?(queue = S.default_queue) ?max_queries
    ?reveal_limit ?(mix = []) worlds =
  { S.name; seed; worlds; limits = { S.queue; max_queries; reveal_limit }; mix }

let run ?jobs ?pool sess lines =
  let remaining = ref lines in
  let read () =
    match !remaining with
    | [] -> None
    | l :: rest ->
        remaining := rest;
        Some l
  in
  let buffer = Buffer.create 256 in
  match Svc.run ?jobs ?pool sess ~read ~write:(Buffer.add_string buffer) with
  | Error e -> Alcotest.failf "serve failed to start: %s" e
  | Ok outcome -> (Buffer.contents buffer, outcome)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

(* Evidence bytes with the configuration fields blanked: two runs of
   the same queries may differ in recorded queue capacity (it is
   config, not measurement) but must agree on every measured count. *)
let measured_evidence e =
  E.to_string { e with E.queue = 0; config_digest = "" }

let outcome_count evidence key =
  match List.assoc_opt key evidence.E.outcomes with
  | Some n -> n
  | None -> Alcotest.failf "outcome %S missing from evidence" key

(* ------------------------------------------------------------------ *)
(* session/v1                                                          *)

let test_session_roundtrip () =
  let text =
    {|{"schema": "session/v1", "name": "rt", "seed": "-3", "worlds": [
        {"id": "a", "topology": "hypercube:4", "p": 0.5},
        {"id": "b", "topology": "mesh2:5", "p": 0.75, "site_p": 0.9, "seed": 11}],
       "limits": {"queue": 17, "max_queries": 100},
       "query_mix": ["route", "stats", "route"]}|}
  in
  match S.of_string ~default_seed:1L text with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check string) "name" "rt" s.S.name;
      Alcotest.(check int64) "seed parses from string" (-3L) s.S.seed;
      (match s.S.worlds with
      | [ a; b ] ->
          Alcotest.(check int64) "world seed defaults to session seed" (-3L)
            a.S.seed;
          Alcotest.(check int64) "explicit world seed" 11L b.S.seed;
          Alcotest.(check (option (float 0.0))) "site_p" (Some 0.9) b.S.site_p
      | _ -> Alcotest.fail "expected two worlds");
      Alcotest.(check int) "queue" 17 s.S.limits.S.queue;
      Alcotest.(check (option int)) "max_queries" (Some 100)
        s.S.limits.S.max_queries;
      Alcotest.(check (list string)) "mix deduped sorted" [ "route"; "stats" ]
        s.S.mix;
      (* Canonical round trip: parse(print(s)) = s, byte-stable digest. *)
      let reparsed =
        match S.of_string ~default_seed:99L (S.to_string s) with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) "round-trips" true (s = reparsed);
      Alcotest.(check string) "digest stable" (S.digest s) (S.digest reparsed)

let test_session_defaults () =
  let text =
    {|{"schema": "session/v1", "worlds": [
        {"id": "w", "topology": "hypercube:4", "p": 1.0}]}|}
  in
  match S.of_string ~default_seed:123L text with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check string) "default name" "session" s.S.name;
      Alcotest.(check int64) "default seed" 123L s.S.seed;
      Alcotest.(check int) "default queue" S.default_queue s.S.limits.S.queue;
      Alcotest.(check (option int)) "no cap" None s.S.limits.S.max_queries;
      Alcotest.(check bool) "empty mix admits all" true (S.allows s "cluster")

let test_session_rejects () =
  let reject label text =
    match S.of_string ~default_seed:1L text with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" label
    | Error e ->
        Alcotest.(check bool)
          (label ^ " error is tagged")
          true
          (String.length e >= 10 && String.sub e 0 10 = "session/v1")
  in
  reject "not an object" {|[1, 2]|};
  reject "missing schema" {|{"worlds": []}|};
  reject "wrong schema" {|{"schema": "session/v2", "worlds": []}|};
  reject "empty worlds"
    {|{"schema": "session/v1", "worlds": []}|};
  reject "duplicate world ids"
    {|{"schema": "session/v1", "worlds": [
       {"id": "w", "topology": "hypercube:4", "p": 0.5},
       {"id": "w", "topology": "hypercube:5", "p": 0.5}]}|};
  reject "topology without size"
    {|{"schema": "session/v1", "worlds": [
       {"id": "w", "topology": "hypercube", "p": 0.5}]}|};
  reject "unknown topology"
    {|{"schema": "session/v1", "worlds": [
       {"id": "w", "topology": "moebius:4", "p": 0.5}]}|};
  reject "p out of range"
    {|{"schema": "session/v1", "worlds": [
       {"id": "w", "topology": "hypercube:4", "p": 1.5}]}|};
  reject "bad queue"
    {|{"schema": "session/v1", "worlds": [
       {"id": "w", "topology": "hypercube:4", "p": 0.5}], "limits": {"queue": 0}}|};
  reject "unknown mix op"
    {|{"schema": "session/v1", "worlds": [
       {"id": "w", "topology": "hypercube:4", "p": 0.5}], "query_mix": ["teleport"]}|}

(* ------------------------------------------------------------------ *)
(* Worldpool                                                           *)

let hypercube4 () =
  match Topology.Registry.of_spec "hypercube:4" with
  | Ok spec ->
      (Topology.Registry.build spec ~default_size:4
         (Prng.Stream.create 0L))
        .Topology.Registry.graph
  | Error e -> Alcotest.fail e

let test_worldpool_memoises () =
  let g = hypercube4 () in
  let pool = W.create () in
  let w1 = W.get pool g ~p:0.5 ~seed:1L in
  let w2 = W.get pool g ~p:0.5 ~seed:1L in
  let w3 = W.get pool g ~p:0.5 ~seed:2L in
  Alcotest.(check bool) "same key, same world" true (w1 == w2);
  Alcotest.(check bool) "different seed, different world" true (w1 != w3);
  let s = W.stats pool in
  Alcotest.(check int) "constructed" 2 s.W.constructed;
  Alcotest.(check int) "hits" 1 s.W.hits;
  Alcotest.(check int) "resident" 2 s.W.resident;
  (* site_p participates in the key. *)
  let w4 = W.get ~site_p:0.9 pool g ~p:0.5 ~seed:1L in
  Alcotest.(check bool) "site_p distinguishes" true (w1 != w4)

let test_worldpool_eviction () =
  let g = hypercube4 () in
  let pool = W.create ~capacity:2 () in
  let w1 = W.get pool g ~p:0.5 ~seed:1L in
  ignore (W.get pool g ~p:0.5 ~seed:2L);
  ignore (W.get pool g ~p:0.5 ~seed:3L);
  let s = W.stats pool in
  Alcotest.(check int) "evicted oldest" 1 s.W.evicted;
  Alcotest.(check int) "capacity held" 2 s.W.resident;
  (* The evicted key is rebuilt on demand — never a stale hit. *)
  let w1' = W.get pool g ~p:0.5 ~seed:1L in
  Alcotest.(check bool) "rebuilt after eviction" true (w1 != w1');
  Alcotest.(check int) "rebuild counted" 4 (W.stats pool).W.constructed

let test_worldpool_prefilled_equals_fresh () =
  let g = hypercube4 () in
  let pool = W.create () in
  let pooled = W.get pool g ~p:0.37 ~seed:9L in
  let fresh = Percolation.World.create g ~p:0.37 ~seed:9L in
  let detached = W.detached g ~p:0.37 ~seed:9L in
  Topology.Graph.fold_edges g ~init:() ~f:(fun () u v ->
      Alcotest.(check bool)
        (Printf.sprintf "edge %d-%d" u v)
        (Percolation.World.is_open fresh u v)
        (Percolation.World.is_open pooled u v);
      Alcotest.(check bool)
        (Printf.sprintf "detached edge %d-%d" u v)
        (Percolation.World.is_open fresh u v)
        (Percolation.World.is_open detached u v))

(* ------------------------------------------------------------------ *)
(* Service: protocol resilience and accounting                         *)

let test_malformed_lines_survive () =
  let sess = session [ world () ] in
  let lines =
    [
      {|{"id": 1, "op": "route", "world": "w0", "source": 0, "target": 15}|};
      "this is not json";
      {|{"id": 3, "op": "hover", "world": "w0"}|};
      {|{"op": "route", "world": "w0", "source": 0}|};
      "";
      {|{"id": 5, "op": "reveal", "world": "w0", "source": 0, "target": 3}|};
    ]
  in
  let output, { Svc.evidence; overflowed } = run sess lines in
  Alcotest.(check bool) "no overflow" false overflowed;
  Alcotest.(check int) "blank line skipped, rest admitted" 5
    evidence.E.admitted;
  Alcotest.(check int) "every admitted line answered" 5 evidence.E.answered;
  Alcotest.(check int) "malformed counted" 3 evidence.E.malformed;
  Alcotest.(check int) "answer lines" 5
    (List.length
       (List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' output)));
  (match E.validate evidence with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "claims hold" true
    (List.for_all Experiments.Claim.holds (E.claims evidence))

let test_semantic_errors_survive () =
  let sess = session ~mix:[ "route"; "stats" ] [ world () ] in
  let lines =
    [
      {|{"id": 1, "op": "route", "world": "nope", "source": 0, "target": 1}|};
      {|{"id": 2, "op": "route", "world": "w0", "source": 0, "target": 99}|};
      {|{"id": 3, "op": "route", "world": "w0", "source": 0, "target": 15, "router": "segment"}|};
      {|{"id": 4, "op": "cluster", "world": "w0", "vertex": 0}|};
      {|{"id": 5, "op": "route", "world": "w0", "source": 0, "target": 15}|};
    ]
  in
  let output, { Svc.evidence; _ } = run sess lines in
  (* segment wants a hypercube — applicable; cluster is outside the mix. *)
  Alcotest.(check int) "errors counted" 3 evidence.E.errors;
  Alcotest.(check int) "answered all" 5 evidence.E.answered;
  Alcotest.(check bool) "unknown world named" true
    (contains output "unknown world")

let test_overflow_reports () =
  let sess = session ~max_queries:2 [ world () ] in
  let q = {|{"op": "reveal", "world": "w0", "source": 0, "target": 1}|} in
  let output, { Svc.evidence; overflowed } = run sess [ q; q; q; q; q ] in
  Alcotest.(check bool) "overflowed" true overflowed;
  Alcotest.(check int) "admitted capped" 2 evidence.E.admitted;
  Alcotest.(check int) "rejected counted" 3 evidence.E.rejected;
  Alcotest.(check int) "answers only for admitted" 2
    (List.length
       (List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' output)));
  (match E.validate evidence with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* The overflow claim is the one that must now fail. *)
  let failed =
    List.filter
      (fun c -> not (Experiments.Claim.holds c))
      (E.claims evidence)
  in
  Alcotest.(check (list string)) "only the overflow claim fails"
    [ "serve:t/overflow" ]
    (List.map (fun c -> c.Experiments.Claim.id) failed)

let test_constructed_once_and_shared () =
  (* Two ids over the same (topology, p, seed) triple: one construction,
     one pool hit; a third distinct world constructs again. *)
  let sess =
    session
      [
        world ~wid:"a" ();
        world ~wid:"b" ();
        world ~wid:"c" ~seed:77L ();
      ]
  in
  let pool = W.create () in
  let q wid i =
    Printf.sprintf
      {|{"id": %d, "op": "route", "world": %S, "source": 0, "target": 15}|} i
      wid
  in
  let _, { Svc.evidence; _ } =
    run ~pool sess [ q "a" 1; q "b" 2; q "c" 3; q "a" 4 ]
  in
  let row wid = List.find (fun r -> r.E.wid = wid) evidence.E.worlds in
  Alcotest.(check int) "a constructed" 1 (row "a").E.constructed;
  Alcotest.(check int) "b shares a's world" 0 (row "b").E.constructed;
  Alcotest.(check int) "c constructed" 1 (row "c").E.constructed;
  Alcotest.(check int) "a answered twice" 2 (row "a").E.queries;
  let s = W.stats pool in
  Alcotest.(check int) "pool constructed" 2 s.W.constructed;
  Alcotest.(check int) "pool hit for b" 1 s.W.hits

let test_stats_independent_of_capacity () =
  let mk queue = session ~queue [ world ~p:1.0 () ] in
  let lines =
    [
      {|{"id": 1, "op": "route", "world": "w0", "source": 0, "target": 15}|};
      {|{"id": 2, "op": "reveal", "world": "w0", "source": 0, "target": 3}|};
      {|{"id": 3, "op": "stats"}|};
      {|{"id": 4, "op": "cluster", "world": "w0", "vertex": 2}|};
      {|{"id": 5, "op": "stats"}|};
    ]
  in
  let out1, o1 = run (mk 1) lines in
  let out2, o2 = run (mk 100) lines in
  Alcotest.(check string) "answer bytes capacity-independent" out1 out2;
  Alcotest.(check string) "measured evidence capacity-independent"
    (measured_evidence o1.Svc.evidence)
    (measured_evidence o2.Svc.evidence);
  Alcotest.(check int) "stats answered" 2
    (outcome_count o1.Svc.evidence "stats")

let test_route_on_full_world () =
  (* p = 1: every edge open, so routing must succeed and reveal must
     report the hypercube distance (Hamming weight of 0 xor 15 = 4). *)
  let sess = session [ world ~p:1.0 () ] in
  let output, { Svc.evidence; _ } =
    run sess
      [
        {|{"id": 1, "op": "route", "world": "w0", "source": 0, "target": 15}|};
        {|{"id": 2, "op": "reveal", "world": "w0", "source": 0, "target": 15}|};
      ]
  in
  Alcotest.(check int) "found" 1 (outcome_count evidence "found");
  Alcotest.(check int) "connected" 1 (outcome_count evidence "connected");
  Alcotest.(check bool) "distance 4 reported" true
    (contains output {|"distance": 4|})

let test_trace_replay_audits () =
  let sess = session [ world () ] in
  let lines =
    [
      {|{"id": 1, "op": "route", "world": "w0", "source": 0, "target": 15}|};
      {|{"id": 2, "op": "route", "world": "w0", "source": 1, "target": 14, "budget": 3}|};
      {|{"id": 3, "op": "reveal", "world": "w0", "source": 0, "target": 15}|};
      "garbage";
      {|{"id": 5, "op": "cluster", "world": "w0", "vertex": 0}|};
    ]
  in
  let buffer = Buffer.create 1024 in
  Obs.Trace.enable ~sink:(Buffer.add_string buffer);
  let trace_bytes, evidence =
    Fun.protect ~finally:Obs.Trace.disable (fun () ->
        let _, { Svc.evidence; _ } = run sess lines in
        (Buffer.contents buffer, evidence))
  in
  Alcotest.(check int) "all answered despite tracing" 5 evidence.E.answered;
  let trace_lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' trace_bytes)
  in
  match Obs.Trace.Replay.parse trace_lines with
  | Error e -> Alcotest.failf "trace parse: %s" e
  | Ok runs ->
      let v = Obs.Trace.Replay.check runs in
      Alcotest.(check bool) "replay audit passes" true
        (Obs.Trace.Replay.ok v);
      (* 4 valid queries traced; garbage line emits no attempt. *)
      Alcotest.(check int) "attempts" 4 v.Obs.Trace.Replay.attempts;
      (* Every admitted query (the garbage line included) leaves
         lifecycle spans, and the audit found no ordering or
         exactly-once-tally violation. *)
      Alcotest.(check bool) "query spans recorded" true
        (v.Obs.Trace.Replay.qspans > 0);
      Alcotest.(check (list string)) "no lifecycle violations" []
        v.Obs.Trace.Replay.qspan_errors

let test_telemetry_jobs_invariant () =
  (* The whole telemetry layer on — latency histograms, gauges,
     heartbeats — must leave answer and evidence bytes untouched at any
     jobs count, and identical to a telemetry-off run. *)
  let sess () =
    session ~mix:[ "route"; "reveal"; "cluster"; "stats" ]
      [ world ~wid:"x" (); world ~wid:"y" ~p:0.4 ~seed:9L () ]
  in
  let lines =
    List.concat_map
      (fun i ->
        [
          Printf.sprintf
            {|{"id": %d, "op": "route", "world": "x", "source": %d, "target": 15}|}
            (4 * i) (i mod 16);
          Printf.sprintf
            {|{"id": %d, "op": "reveal", "world": "y", "source": 0, "target": %d}|}
            ((4 * i) + 1)
            (i mod 16);
          Printf.sprintf {|{"id": %d, "op": "stats"}|} ((4 * i) + 2);
          Printf.sprintf
            {|{"id": %d, "op": "cluster", "world": "y", "vertex": %d}|}
            ((4 * i) + 3)
            (i mod 16);
        ])
      [ 0; 1; 2; 3; 4; 5 ]
  in
  let telemetered jobs =
    Obs.Telemetry.reset ();
    Obs.Telemetry.set_sink ignore;
    Obs.Telemetry.enable ();
    Fun.protect
      ~finally:(fun () ->
        Obs.Telemetry.disable ();
        Obs.Telemetry.reset ())
      (fun () ->
        let out, oc = run ~jobs (sess ()) lines in
        let v = Obs.Telemetry.snapshot () in
        (out, oc, v))
  in
  let out_off, oc_off = run ~jobs:1 (sess ()) lines in
  let out1, oc1, v1 = telemetered 1 in
  let out4, oc4, v4 = telemetered 4 in
  Alcotest.(check string) "telemetry on, jobs 1 = jobs 4" out1 out4;
  Alcotest.(check string) "telemetry on = off" out_off out1;
  Alcotest.(check string) "evidence jobs 1 = jobs 4"
    (E.to_string oc1.Svc.evidence)
    (E.to_string oc4.Svc.evidence);
  Alcotest.(check string) "evidence on = off"
    (E.to_string oc_off.Svc.evidence)
    (E.to_string oc1.Svc.evidence);
  (* And the telemetry itself actually measured the run. *)
  List.iter
    (fun v ->
      Alcotest.(check bool) "latency histograms recorded" true
        (List.exists
           (fun (name, h) ->
             String.length name > 14
             && String.sub name 0 14 = "serve.latency."
             && h.Obs.Hist.count > 0)
           v.Obs.Telemetry.hists);
      Alcotest.(check (option (float 0.0)))
        "answered gauge" (Some 24.0)
        (List.assoc_opt "serve.answered" v.Obs.Telemetry.gauges))
    [ v1; v4 ]

(* ------------------------------------------------------------------ *)
(* Evidence                                                            *)

let test_evidence_roundtrip_and_validate () =
  let sess = session ~max_queries:50 [ world () ] in
  let _, { Svc.evidence; _ } =
    run sess
      [
        {|{"id": 1, "op": "route", "world": "w0", "source": 0, "target": 15}|};
        "bad";
      ]
  in
  let reparsed =
    match E.of_string (E.to_string evidence) with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "round-trips" true (evidence = reparsed);
  (match E.validate reparsed with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Tampering is caught. *)
  (match E.validate { reparsed with E.answered = reparsed.E.answered + 1 } with
  | Ok () -> Alcotest.fail "tampered answered not caught"
  | Error _ -> ());
  match
    E.validate
      {
        reparsed with
        E.worlds =
          List.map
            (fun (r : E.world_row) -> { r with E.constructed = 2 })
            reparsed.E.worlds;
      }
  with
  | Ok () -> Alcotest.fail "double construction not caught"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* QCheck: byte identity across jobs and batch capacities              *)

let qcheck_tests =
  let open QCheck in
  let workload =
    (* Each entry drives one generated line; seeds vary the worlds. *)
    triple int64 (int_range 1 7) (list_of_size Gen.(1 -- 40) (pair small_nat small_nat))
  in
  let line_of i (a, b) =
    let v n = n mod 16 in
    match a mod 6 with
    | 0 ->
        Printf.sprintf
          {|{"id": %d, "op": "route", "world": "x", "source": %d, "target": %d}|}
          i (v a) (v b)
    | 1 ->
        Printf.sprintf
          {|{"id": %d, "op": "route", "world": "y", "source": %d, "target": %d, "router": "bfs-random", "budget": %d}|}
          i (v a) (v b)
          ((b mod 30) + 1)
    | 2 ->
        Printf.sprintf
          {|{"id": %d, "op": "reveal", "world": "x", "source": %d, "target": %d}|}
          i (v a) (v b)
    | 3 ->
        Printf.sprintf
          {|{"id": %d, "op": "cluster", "world": "y", "vertex": %d, "limit": %d}|}
          i (v a)
          ((b mod 10) + 1)
    | 4 -> Printf.sprintf {|{"id": %d, "op": "stats"}|} i
    | _ -> Printf.sprintf "{broken %d" i
  in
  [
    Test.make
      ~name:"serve: answer+evidence bytes identical across jobs and capacity"
      ~count:20 workload
      (fun (seed, capacity, picks) ->
        let mk queue =
          session ~seed ~queue
            [ world ~wid:"x" (); world ~wid:"y" ~p:0.4 ~seed:9L () ]
        in
        let lines = List.mapi (fun i pick -> line_of i pick) picks in
        (* Same capacity, jobs 1 vs 4: everything byte-identical. *)
        let out_a, oc_a = run ~jobs:1 (mk capacity) lines in
        let out_b, oc_b = run ~jobs:4 (mk capacity) lines in
        (* Different capacity (shuffled batch arrival): answers and
           measured evidence still byte-identical. *)
        let out_c, oc_c = run ~jobs:4 (mk ((capacity mod 3) + 1)) lines in
        out_a = out_b
        && E.to_string oc_a.Svc.evidence = E.to_string oc_b.Svc.evidence
        && out_a = out_c
        && measured_evidence oc_a.Svc.evidence
           = measured_evidence oc_c.Svc.evidence);
    Test.make
      ~name:
        "serve: with query spans on, answer and trace bytes identical across \
         jobs"
      ~count:10 workload
      (fun (seed, capacity, picks) ->
        let mk queue =
          session ~seed ~queue
            [ world ~wid:"x" (); world ~wid:"y" ~p:0.4 ~seed:9L () ]
        in
        let lines = List.mapi (fun i pick -> line_of i pick) picks in
        let traced jobs =
          let buffer = Buffer.create 1024 in
          Obs.Trace.enable ~sink:(Buffer.add_string buffer);
          Fun.protect ~finally:Obs.Trace.disable (fun () ->
              let out, _ = run ~jobs (mk capacity) lines in
              (out, Buffer.contents buffer))
        in
        let out1, trace1 = traced 1 in
        let out4, trace4 = traced 4 in
        let out_off, _ = run ~jobs:4 (mk capacity) lines in
        let audit_ok trace =
          let trace_lines =
            List.filter
              (fun l -> String.trim l <> "")
              (String.split_on_char '\n' trace)
          in
          match Obs.Trace.Replay.parse trace_lines with
          | Error _ -> false
          | Ok runs ->
              let v = Obs.Trace.Replay.check runs in
              Obs.Trace.Replay.ok v && v.Obs.Trace.Replay.qspans > 0
        in
        out1 = out4 && trace1 = trace4 && out1 = out_off && audit_ok trace1);
  ]

let () =
  Alcotest.run "serve"
    [
      ( "session",
        [
          Alcotest.test_case "round-trip" `Quick test_session_roundtrip;
          Alcotest.test_case "defaults" `Quick test_session_defaults;
          Alcotest.test_case "rejections" `Quick test_session_rejects;
        ] );
      ( "worldpool",
        [
          Alcotest.test_case "memoises" `Quick test_worldpool_memoises;
          Alcotest.test_case "eviction" `Quick test_worldpool_eviction;
          Alcotest.test_case "prefilled = fresh" `Quick
            test_worldpool_prefilled_equals_fresh;
        ] );
      ( "service",
        [
          Alcotest.test_case "malformed lines survive" `Quick
            test_malformed_lines_survive;
          Alcotest.test_case "semantic errors survive" `Quick
            test_semantic_errors_survive;
          Alcotest.test_case "overflow reported" `Quick test_overflow_reports;
          Alcotest.test_case "worlds constructed once" `Quick
            test_constructed_once_and_shared;
          Alcotest.test_case "stats capacity-independent" `Quick
            test_stats_independent_of_capacity;
          Alcotest.test_case "route on full world" `Quick
            test_route_on_full_world;
          Alcotest.test_case "trace replay audits" `Quick
            test_trace_replay_audits;
          Alcotest.test_case "telemetry jobs-invariant" `Quick
            test_telemetry_jobs_invariant;
        ] );
      ( "evidence",
        [
          Alcotest.test_case "round-trip and validate" `Quick
            test_evidence_roundtrip_and_validate;
        ] );
      ( "properties",
        List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests );
    ]
