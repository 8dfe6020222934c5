(* The two serve workloads, driven in-process through
   [Serve.Service.start] and [Serve.Service.serve] by one closed-loop
   client whose next line is always ready. *)

open Perfbench
open Measure

type input = { session : Serve.Session.t; lines : string array }

let session_of = function
  | Ok s -> s
  | Error e -> Gate.fail "manifest: %s" e

(* The committed traffic: examples/serve/session.json and the 10k
   replay, rotated to start at line [seed mod 10000]. *)
let mixed ~seed =
  let session =
    session_of
      (Serve.Session.load ~default_seed:0L "examples/serve/session.json")
  in
  let lines =
    In_channel.with_open_text "examples/serve/queries-10k.jsonl"
      In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> Array.of_list
  in
  let n = Array.length lines in
  if n = 0 then Gate.fail "examples/serve/queries-10k.jsonl is empty";
  let r = seed mod n in
  { session; lines = Array.init n (fun i -> lines.((i + r) mod n)) }

let sparse ~seed =
  {
    session =
      session_of
        (Serve.Session.of_string ~default_seed:0L (Sparse_gen.manifest ~seed));
    lines = Sparse_gen.queries ~seed ~count:Sparse_gen.default_count;
  }

let world_count input = List.length input.session.Serve.Session.worlds

(* ------------------------------------------------------------------ *)
(* Set-up and one replay pass. *)

let start input =
  let pool =
    Experiments.Worldpool.create
      ~capacity:
        (max Experiments.Worldpool.default_capacity (world_count input))
      ()
  in
  let t0 = now_ns () in
  match Serve.Service.start ~pool input.session with
  | Error e -> Gate.fail "Service.start: %s" e
  | Ok svc ->
      let setup_s = since_s t0 in
      let built =
        (Experiments.Worldpool.stats pool).Experiments.Worldpool.constructed
      in
      if built <> world_count input then
        Gate.fail "worldpool.constructed = %d, manifest has %d worlds" built
          (world_count input);
      (svc, setup_s)

type pass = {
  answers : string;
  evidence : Serve.Evidence.t;
  overflowed : bool;
  wall_s : float;
  latency_ms : float array;  (** One per answer, in admission order. *)
  answer_s : float array;
      (** When each answer arrived, seconds from the start of the pass. *)
  batches : int list;
      (** Answer counts at which the service finished a batch, the last
          being the total: it answers a batch before it reads on. *)
}

(* Latency of a query runs from [read] returning its line to [write]
   receiving its answer. Answers arrive in admission order and the
   inputs hold no blank lines, so answer k belongs to line k. *)
let replay ~jobs svc lines =
  let n = Array.length lines in
  let read_at = Array.make n 0L and latency = Array.make n 0. in
  let answer_s = Array.make n 0. in
  let next = ref 0 and answered = ref 0 in
  let writing = ref false and batches = ref [] in
  let out = Buffer.create (n * 96) in
  let t0 = now_ns () in
  let read () =
    if !next >= n then None
    else begin
      let i = !next in
      incr next;
      if !writing then begin
        batches := !answered :: !batches;
        writing := false
      end;
      read_at.(i) <- now_ns ();
      Some lines.(i)
    end
  in
  let write line =
    let t = now_ns () in
    let k = !answered in
    if k < n then begin
      latency.(k) <- Int64.to_float (Int64.sub t read_at.(k)) *. 1e-6;
      answer_s.(k) <- Int64.to_float (Int64.sub t t0) *. 1e-9
    end;
    writing := true;
    incr answered;
    Buffer.add_string out line
  in
  let o = Serve.Service.serve ~jobs svc ~read ~write in
  let wall_s = since_s t0 in
  let k = min n !answered in
  {
    answers = Buffer.contents out;
    evidence = o.Serve.Service.evidence;
    overflowed = o.Serve.Service.overflowed;
    wall_s;
    latency_ms = Array.sub latency 0 k;
    answer_s = Array.sub answer_s 0 k;
    batches = List.rev (k :: !batches);
  }

(* Passes repeat identical work batch by batch. The composite pass takes
   each batch of the reference's batching from the pass that ran it
   fastest, and that batch's latencies from the same pass: its wall time
   and its latency sample. A batch spans from the previous batch's last
   answer (or the start of the pass) to its own last answer (or, for the
   last batch, the end of the pass). *)
let composite ~(reference : pass) passes =
  let n = Array.length reference.latency_ms in
  let latency = Array.make n 0. and wall = ref 0. and lo = ref 0 in
  List.iter
    (fun hi ->
      let span p =
        (if hi = n then p.wall_s else p.answer_s.(hi - 1))
        -. if !lo = 0 then 0. else p.answer_s.(!lo - 1)
      in
      let best =
        List.fold_left
          (fun b p -> if span p < span b then p else b)
          (List.hd passes) passes
      in
      wall := !wall +. span best;
      Array.blit best.latency_ms !lo latency !lo (hi - !lo);
      lo := hi)
    reference.batches;
  (!wall, latency)

(* The evidence must account for every admitted query and every
   manifest world exactly once. *)
let check_evidence input (p : pass) =
  let e = p.evidence in
  (match Serve.Evidence.validate e with
  | Ok () -> ()
  | Error m -> Gate.fail "evidence invalid: %s" m);
  if e.Serve.Evidence.answered <> e.Serve.Evidence.admitted then
    Gate.fail "answered %d <> admitted %d" e.Serve.Evidence.answered
      e.Serve.Evidence.admitted;
  if e.Serve.Evidence.admitted <> Array.length input.lines then
    Gate.fail "admitted %d of %d lines" e.Serve.Evidence.admitted
      (Array.length input.lines);
  if p.overflowed then Gate.fail "admission cap rejected queries";
  let constructed =
    List.fold_left
      (fun acc (w : Serve.Evidence.world_row) -> acc + w.Serve.Evidence.constructed)
      0 e.Serve.Evidence.worlds
  in
  if constructed <> world_count input then
    Gate.fail "evidence shows %d constructions, manifest has %d worlds"
      constructed (world_count input)

(* Every measured pass must reproduce the jobs-1 reference byte for
   byte: answers and evidence. *)
let check_against ~reference (p : pass) =
  if p.answers <> reference.answers then
    Gate.fail "answer bytes differ from the jobs-1 reference";
  if Serve.Evidence.to_string p.evidence
     <> Serve.Evidence.to_string reference.evidence
  then Gate.fail "evidence bytes differ from the jobs-1 reference"

(* ok:false answers and admitted-but-unanswered queries. Routes that
   exceed their budget, find no path, or reveals that stop at their
   limit are answers, not failures. *)
let failures (p : pass) =
  let e = p.evidence in
  e.Serve.Evidence.malformed + e.Serve.Evidence.errors
  + (e.Serve.Evidence.admitted - e.Serve.Evidence.answered)

(* Set-up and the jobs-1 reference pass. The reference follows a single
   start, so the heap peak read after it covers a fixed sequence of
   single-domain work; with more domains, or after a varying number of
   starts, the peak follows GC timing. *)
let prepare input =
  let svc, setup_s = start input in
  let r = replay ~jobs:1 svc input.lines in
  check_evidence input r;
  (svc, r, heap_peak_mb (), setup_s)

(* The first start's time and those of further starts
   ({!Measure.repeat}), for the median. They run after the measured
   passes: the garbage of many services left behind them slows the
   passes by up to half. *)
let setup_times input first =
  Array.append [| first |] (repeat (fun () -> snd (start input)))

(* Passes at [jobs] until [seconds] have gone by, and at least [min].
   Answers are dropped once checked. *)
let measured ~jobs ~seconds ~min ~reference input svc =
  run_for ~seconds ~min (fun () ->
      let p = replay ~jobs svc input.lines in
      check_evidence input p;
      check_against ~reference p;
      { p with answers = "" })

(* ------------------------------------------------------------------ *)
(* End-to-end run: every instrument off. *)

let end_to_end ~jobs ~seconds input =
  let svc, reference, heap_mb, first_setup = prepare input in
  let passes = measured ~jobs ~seconds ~min:3 ~reference input svc in
  let heap_mb_at_end = heap_peak_mb () in
  let setup_times = setup_times input first_setup in
  let attempted =
    List.fold_left (fun a p -> a + p.evidence.Serve.Evidence.admitted) 0 passes
  in
  let failed = List.fold_left (fun a p -> a + failures p) 0 passes in
  (* The figures are the composite pass's. Interference from other
     tenants of the machine only adds time, in bursts of seconds, so
     the best of several runs of identical work is the steadiest
     estimate of what the program costs, and taking it batch by batch
     needs only a clean second, not a clean pass. Medians over passes
     follow the bursts. Per-pass figures go to the run record. *)
  let wall_s, latency_ms = composite ~reference passes in
  let per_pass f = Array.of_list (List.map f passes) in
  let walls = per_pass (fun p -> p.wall_s) in
  let qps =
    per_pass (fun p -> float_of_int p.evidence.Serve.Evidence.answered /. p.wall_s)
  in
  let p50 = per_pass (fun p -> quantile p.latency_ms 0.5) in
  let p99 = per_pass (fun p -> quantile p.latency_ms 0.99) in
  let lat_n = Array.length reference.latency_ms in
  let metrics =
    [
      ("setup_s", median setup_times);
      ("qps", float_of_int lat_n /. wall_s);
      ("latency_p50_ms", quantile latency_ms 0.5);
      ("latency_p99_ms", quantile latency_ms 0.99);
      ("wall_s", wall_s);
      ("heap_peak_mb", heap_mb);
    ]
  in
  {
    Gate.attempted;
    failed;
    metrics;
    record =
      [
        ("passes", Int (List.length passes));
        ("queries_per_pass", Int (Array.length input.lines));
        ("batches_per_pass", Int (List.length reference.batches));
        ("reference_wall_s", Num reference.wall_s);
        ("heap_peak_mb_at_end", Num heap_mb_at_end);
        ("pass_wall_s", List (Array.to_list (Array.map (fun x -> Num x) walls)));
        ("pass_p50_ms", List (Array.to_list (Array.map (fun x -> Num x) p50)));
        ("pass_p99_ms", List (Array.to_list (Array.map (fun x -> Num x) p99)));
        ( "metric_samples",
          Obj
            [
              ( "setup_s",
                samples (Array.length setup_times) (spread setup_times) );
              ("qps", samples (Array.length qps) (spread qps));
              ("latency_p50_ms", samples lat_n (spread p50));
              ("latency_p99_ms", samples lat_n (spread p99));
              ("wall_s", samples (Array.length walls) (spread walls));
              ("heap_peak_mb", samples 1 0.);
            ] );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run: the same session, plus each layer's public entry points
   called and timed from outside, in admission order on this domain.
   No library instrument is switched on. *)

type resident = { instance : Topology.Registry.instance; world : Percolation.World.t }

(* Build the manifest worlds exactly as Service.start does, timing
   [Worldpool.get] and the live heap they add. *)
let build_residents (session : Serve.Session.t) =
  let pool =
    Experiments.Worldpool.create
      ~capacity:
        (max Experiments.Worldpool.default_capacity
           (List.length session.Serve.Session.worlds))
      ()
  in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let build_s = ref 0. in
  let residents = Hashtbl.create 4 in
  List.iter
    (fun (w : Serve.Session.world_spec) ->
      match Topology.Registry.of_spec w.Serve.Session.topology with
      | Error e -> Gate.fail "world %s: %s" w.Serve.Session.wid e
      | Ok spec ->
          let size = Option.value spec.Topology.Registry.size ~default:0 in
          let stream =
            Prng.Stream.split (Prng.Stream.create w.Serve.Session.seed) 0
          in
          let instance = Topology.Registry.build spec ~default_size:size stream in
          let t0 = now_ns () in
          let world =
            Experiments.Worldpool.get ?site_p:w.Serve.Session.site_p pool
              instance.Topology.Registry.graph ~p:w.Serve.Session.p
              ~seed:w.Serve.Session.seed
          in
          build_s := !build_s +. since_s t0;
          Hashtbl.replace residents w.Serve.Session.wid { instance; world })
    session.Serve.Session.worlds;
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let heap_mb =
    float_of_int ((live1 - live0) * (Sys.word_size / 8)) /. 1e6
  in
  (residents, !build_s, heap_mb)

(* Per-layer accumulators for one pass over the queries. *)
type layers = {
  mutable parse_ns : float;
  mutable create_us : float list;
  mutable route_us : float list;
  mutable reveal_us : float list;
  mutable route_words : float;
  mutable create_words : float;
  mutable reveal_words : float;
  mutable distinct : int;
  mutable raw : int;
  mutable reveal_unknown : int;
  outcomes : (string, int) Hashtbl.t;
}

let fresh_layers () =
  {
    parse_ns = 0.;
    create_us = [];
    route_us = [];
    reveal_us = [];
    route_words = 0.;
    create_words = 0.;
    reveal_words = 0.;
    distinct = 0;
    raw = 0;
    reveal_unknown = 0;
    outcomes = Hashtbl.create 16;
  }

let count l key =
  Hashtbl.replace l.outcomes key
    (1 + Option.value (Hashtbl.find_opt l.outcomes key) ~default:0)

(* One pass over the stream, replaying what the service evaluates per
   query: Query.parse, then for a route the router built from the
   query's own stream, Oracle.create and the router's search on that
   oracle (Router.run minus path validation), and for reveal/cluster
   the Reveal entry point with the session's limit. *)
let layer_pass ~clocked (session : Serve.Session.t) residents lines =
  let l = fresh_layers () in
  let root = Prng.Stream.create session.Serve.Session.seed in
  let default_limit = session.Serve.Session.limits.Serve.Session.reveal_limit in
  Array.iteri
    (fun i line ->
      let qindex = i + 1 in
      let parsed =
        timed ~on:clocked (fun () -> Serve.Query.parse line) (fun ns _ ->
            l.parse_ns <- l.parse_ns +. ns)
      in
      match parsed with
      | Error _ -> count l "malformed"
      | Ok q -> (
          let resident =
            Option.bind q.Serve.Query.world (Hashtbl.find_opt residents)
          in
          match (q.Serve.Query.op, resident) with
          | Serve.Query.Stats, _ -> count l "stats"
          | _, None -> count l "error"
          | Serve.Query.Route { source; target; router; budget }, Some r -> (
              match
                Result.bind (Routing.Registry.of_spec router) (fun entry ->
                    entry.Routing.Registry.build ~instance:r.instance ~source
                      ~target
                      (Prng.Stream.split root qindex))
              with
              | Error _ -> count l "error"
              | Ok rt ->
                  let oracle =
                    timed ~on:clocked
                      (fun () ->
                        Percolation.Oracle.create ~policy:rt.Routing.Router.policy
                          ?budget r.world ~source)
                      (fun ns words ->
                        l.create_words <- l.create_words +. words;
                        l.create_us <- (ns /. 1e3) :: l.create_us)
                  in
                  let outcome =
                    timed ~on:clocked
                      (fun () ->
                        match rt.Routing.Router.route oracle ~target with
                        | o -> o
                        | exception Percolation.Oracle.Budget_exhausted ->
                            Routing.Outcome.Budget_exceeded
                              {
                                probes = Percolation.Oracle.distinct_probes oracle;
                              })
                      (fun ns words ->
                        l.route_words <- l.route_words +. words;
                        l.route_us <- (ns /. 1e3) :: l.route_us)
                  in
                  l.distinct <- l.distinct + Routing.Outcome.probes outcome;
                  l.raw <- l.raw + Percolation.Oracle.raw_probes oracle;
                  count l
                    (match outcome with
                    | Routing.Outcome.Found _ -> "found"
                    | Routing.Outcome.No_path _ -> "no_path"
                    | Routing.Outcome.Budget_exceeded _ -> "budget_exceeded"))
          | op, Some r ->
              let reveal_timing ns words =
                l.reveal_words <- l.reveal_words +. words;
                l.reveal_us <- (ns /. 1e3) :: l.reveal_us
              in
              let pick limit =
                match limit with Some _ -> limit | None -> default_limit
              in
              let key =
                match op with
                | Serve.Query.Reveal { source; target; limit } -> (
                    let limit = pick limit in
                    match
                      timed ~on:clocked
                        (fun () ->
                          Percolation.Reveal.connected ?limit r.world source
                            target)
                        reveal_timing
                    with
                    | Percolation.Reveal.Connected _ -> "connected"
                    | Percolation.Reveal.Disconnected -> "disconnected"
                    | Percolation.Reveal.Unknown ->
                        l.reveal_unknown <- l.reveal_unknown + 1;
                        "unknown")
                | Serve.Query.Cluster { vertex; limit } ->
                    let limit = pick limit in
                    let _, truncated =
                      timed ~on:clocked
                        (fun () ->
                          Percolation.Reveal.cluster_size ?limit r.world vertex)
                        reveal_timing
                    in
                    if truncated then l.reveal_unknown <- l.reveal_unknown + 1;
                    "cluster"
                | Serve.Query.Route _ | Serve.Query.Stats -> assert false
              in
              count l key))
    lines;
  l

(* The replayed layer calls must have done the service's work: same
   outcome histogram and the same distinct probes as the evidence. *)
let check_layers (l : layers) (e : Serve.Evidence.t) =
  List.iter
    (fun (key, n) ->
      let mine = Option.value (Hashtbl.find_opt l.outcomes key) ~default:0 in
      if mine <> n then
        Gate.fail "layer replay counted %d %s outcomes, the service %d" mine key
          n)
    e.Serve.Evidence.outcomes;
  if l.distinct <> e.Serve.Evidence.probes then
    Gate.fail "layer replay charged %d probes, the service %d" l.distinct
      e.Serve.Evidence.probes

let traced ~jobs ~seconds input =
  let residents, build_s, heap_mb = build_residents input.session in
  let svc, reference, _, _ = prepare input in
  (* The reference is the first pass, on cold caches and a young heap:
     a second jobs-1 pass is the one compared with the passes at
     [jobs] and with the layer calls. *)
  let warm =
    List.hd (measured ~jobs:1 ~seconds:0. ~min:1 ~reference input svc)
  in
  let passes =
    measured ~jobs ~seconds:(seconds /. 4.) ~min:1 ~reference input svc
  in
  let wall_j =
    median (Array.of_list (List.map (fun p -> p.wall_s) passes))
  in
  let l, overhead, layer_walls =
    trace_overhead (fun ~clocked ->
        layer_pass ~clocked input.session residents input.lines)
  in
  check_layers l reference.evidence;
  let routes = List.length l.route_us in
  let reveals = List.length l.reveal_us in
  let arr = Array.of_list in
  let sum_us = List.fold_left ( +. ) 0. in
  let route_ns = sum_us l.route_us *. 1e3 in
  let covered_s =
    (l.parse_ns *. 1e-9)
    +. ((sum_us l.create_us +. sum_us l.route_us +. sum_us l.reveal_us) *. 1e-6)
  in
  let all = reference :: warm :: passes in
  let attempted =
    List.fold_left (fun a p -> a + p.evidence.Serve.Evidence.admitted) 0 all
  in
  let failed = List.fold_left (fun a p -> a + failures p) 0 all in
  let found = Option.value (Hashtbl.find_opt l.outcomes "found") ~default:0 in
  let exceeded =
    Option.value (Hashtbl.find_opt l.outcomes "budget_exceeded") ~default:0
  in
  {
    Gate.attempted;
    failed;
    metrics =
      [
        ("query.parse_ns", per (Array.length input.lines) l.parse_ns);
        ("worldpool.build_s", build_s);
        ("worldpool.heap_mb", heap_mb);
        ("router.calls", float_of_int routes);
        ("router.self_us_p50", quantile (arr l.route_us) 0.5);
        ("router.self_us_p99", quantile (arr l.route_us) 0.99);
        ("router.ns_per_probe", per l.distinct route_ns);
        ("router.found_frac", ratio found routes);
        ("router.budget_exceeded_frac", ratio exceeded routes);
        ("router.alloc_words", per routes l.route_words);
        ("oracle.create_us", quantile (arr l.create_us) 0.5);
        ("oracle.create_alloc_words", per routes l.create_words);
        ("oracle.distinct_probes_per_route", ratio l.distinct routes);
        ("oracle.raw_per_distinct", ratio l.raw l.distinct);
        ("reveal.calls", float_of_int reveals);
        ("reveal.self_us_p50", quantile (arr l.reveal_us) 0.5);
        ("reveal.self_us_p99", quantile (arr l.reveal_us) 0.99);
        ("reveal.unknown_frac", ratio l.reveal_unknown reveals);
        ("reveal.alloc_words", per reveals l.reveal_words);
        ( "service.residual_frac",
          (warm.wall_s -. covered_s) /. warm.wall_s);
        ("pool.speedup", warm.wall_s /. wall_j);
        ("trace.overhead_frac", overhead);
      ];
    record =
      [
        ("passes", Int (List.length passes));
        ("queries_per_pass", Int (Array.length input.lines));
        ("reference_wall_s", Num reference.wall_s);
        ("wall_jobs1_s", Num warm.wall_s);
        ("wall_jobs_s", Num wall_j);
        ( "layer_pass_walls_s",
          List (List.map (fun x -> Num x) layer_walls) );
        ( "metric_samples",
          Obj
            [
              ("router.self_us", Int routes);
              ("oracle.create_us", Int (List.length l.create_us));
              ("reveal.self_us", Int reveals);
            ] );
      ];
  }
