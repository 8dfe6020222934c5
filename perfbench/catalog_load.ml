(* The catalog workload: a fixed subset of the full-size experiments,
   each on the stream [Catalog.run_all] gives it, with its claims
   judged against the committed full baseline. *)

open Perfbench
open Measure

let subset = [ "E2"; "E9"; "E18"; "E26" ]
let baseline_path = "verdicts/baseline-full.json"

type plan = {
  baseline : Verdict.Baseline.t;  (** Restricted to the subset's claims. *)
  experiments : (int * Experiments.Catalog.experiment) list;
      (** Catalog index (the run_all stream split) and experiment. *)
}

let in_subset id = List.exists (fun e -> String.starts_with ~prefix:(e ^ "/") id) subset

(* Set-up: load the baseline and pick the subset out of the catalog. *)
let plan () =
  match Verdict.Baseline.load baseline_path with
  | Error e -> Gate.fail "%s: %s" baseline_path e
  | Ok b ->
      if b.Verdict.Baseline.mode <> "full" then
        Gate.fail "%s is not a full-mode baseline" baseline_path;
      let baseline =
        Verdict.Baseline.make ~mode:b.Verdict.Baseline.mode
          ~seed:b.Verdict.Baseline.seed ~tolerance:b.Verdict.Baseline.tolerance
          (List.filter (fun (id, _) -> in_subset id) b.Verdict.Baseline.entries)
      in
      let experiments =
        List.map
          (fun id ->
            let rec find i = function
              | [] -> Gate.fail "experiment %s is not in the catalog" id
              | e :: rest ->
                  if e.Experiments.Catalog.id = id then (i, e) else find (i + 1) rest
            in
            find 0 Experiments.Catalog.all)
          subset
      in
      { baseline; experiments }

type rep = {
  wall_s : float;
  experiment_s : (string * float) list;
  experiment_words : (string * float) list;
      (** Allocation seen by this domain; complete only at jobs 1. *)
  rendered : string;
  claims : int;
}

(* One pass over the subset. Experiments run one after another, each
   fanning its trials out over [jobs] domains; reports are identical
   for every job count. Every claim must Pass against the baseline. *)
let run_rep ~jobs plan =
  Engine_par.Pool.set_default_jobs jobs;
  let root = Prng.Stream.create plan.baseline.Verdict.Baseline.seed in
  let t0 = now_ns () in
  let timed =
    List.map
      (fun (index, e) ->
        let w0 = alloc_words () in
        let te = now_ns () in
        let report = e.Experiments.Catalog.run ~quick:false (Prng.Stream.split root index) in
        (e.Experiments.Catalog.id, report, since_s te, alloc_words () -. w0))
      plan.experiments
  in
  let wall_s = since_s t0 in
  Engine_par.Pool.set_default_jobs 1;
  let reports = List.map (fun (_, r, _, _) -> r) timed in
  let claims = List.concat_map (fun r -> r.Experiments.Report.claims) reports in
  let verdict =
    Verdict.Engine.evaluate ~mode:plan.baseline.Verdict.Baseline.mode
      ~seed:plan.baseline.Verdict.Baseline.seed ~baseline:plan.baseline claims
  in
  let not_pass =
    List.filter
      (fun en -> en.Verdict.Engine.status <> Verdict.Engine.Pass)
      verdict.Verdict.Engine.entries
  in
  (match (not_pass, verdict.Verdict.Engine.missing) with
  | [], [] -> ()
  | en :: _, _ ->
      Gate.fail "claim %s is %s against %s (%d claims not Pass)"
        en.Verdict.Engine.claim.Experiments.Claim.id
        (Verdict.Engine.status_name en.Verdict.Engine.status)
        baseline_path (List.length not_pass)
  | [], id :: _ -> Gate.fail "baseline claim %s was not produced" id);
  {
    wall_s;
    experiment_s = List.map (fun (id, _, s, _) -> (id, s)) timed;
    experiment_words = List.map (fun (id, _, _, w) -> (id, w)) timed;
    rendered = String.concat "" (List.map Experiments.Report.render reports);
    claims = List.length claims;
  }

(* Reps at [jobs] until [seconds] have gone by, and at least [min];
   every rep must render the reference's reports byte for byte. *)
let reps ~jobs ~seconds ~min ~reference plan =
  run_for ~seconds ~min (fun () ->
      let r = run_rep ~jobs plan in
      if r.rendered <> reference.rendered then
        Gate.fail "catalog reports at jobs %d differ from the jobs-1 reference"
          jobs;
      r)

let timed_plan () =
  let t0 = now_ns () in
  let p = plan () in
  (p, since_s t0)

(* Set-up and the jobs-1 reference rep. The reference follows a single
   set-up, so the heap peak read after it covers a fixed sequence of
   single-domain work. Further set-ups ({!Measure.repeat}) give the
   median set-up time; as on serve, they run after the measured reps. *)
let end_to_end ~jobs ~seconds =
  let plan, first_setup = timed_plan () in
  let reference = run_rep ~jobs:1 plan in
  let heap_mb = heap_peak_mb () in
  let reps = reps ~jobs ~seconds ~min:3 ~reference plan in
  let heap_mb_at_end = heap_peak_mb () in
  let setup_times =
    Array.append [| first_setup |] (repeat (fun () -> snd (timed_plan ())))
  in
  let claims = List.fold_left (fun a r -> a + r.claims) 0 reps in
  (* Each experiment's best rep: interference from other tenants only
     adds time, in bursts of seconds, so the best of identical reps is
     the steadiest estimate of what the program costs. A report's
     latency is its experiment's best wall time. *)
  let per_experiment =
    Array.of_list
      (List.map
         (fun id ->
           lowest
             (Array.of_list
                (List.map (fun r -> List.assoc id r.experiment_s) reps)))
         subset)
  in
  let wall_s = Array.fold_left ( +. ) 0. per_experiment in
  let latency_ms = Array.map (fun s -> s *. 1e3) per_experiment in
  (* The same figures for each rep alone, for their spread. *)
  let per_rep f = Array.of_list (List.map f reps) in
  let rep_walls = per_rep (fun r -> r.wall_s) in
  let rep_qps = per_rep (fun r -> float_of_int r.claims /. r.wall_s) in
  let rep_latency q =
    per_rep (fun r ->
        quantile
          (Array.of_list (List.map (fun (_, s) -> s *. 1e3) r.experiment_s))
          q)
  in
  {
    Gate.attempted = claims;
    failed = 0;
    metrics =
      [
        ("setup_s", median setup_times);
        ("qps", float_of_int (List.hd reps).claims /. wall_s);
        ("latency_p50_ms", quantile latency_ms 0.5);
        ("latency_p99_ms", quantile latency_ms 0.99);
        ("wall_s", wall_s);
        ("heap_peak_mb", heap_mb);
      ];
    record =
      [
        ("reps", Int (List.length reps));
        ("reference_wall_s", Num reference.wall_s);
        ("experiments", List (List.map (fun e -> Str e) subset));
        ("claims_per_rep", Int (List.hd reps).claims);
        ("heap_peak_mb_at_end", Num heap_mb_at_end);
        ( "rep_experiment_s",
          List
            (List.map
               (fun r -> Obj (List.map (fun (id, s) -> (id, Num s)) r.experiment_s))
               reps) );
        ( "metric_samples",
          Obj
            [
              ( "setup_s",
                samples (Array.length setup_times) (spread setup_times) );
              ("qps", samples (Array.length rep_qps) (spread rep_qps));
              ( "latency_p50_ms",
                samples (Array.length latency_ms) (spread (rep_latency 0.5)) );
              ( "latency_p99_ms",
                samples (Array.length latency_ms) (spread (rep_latency 0.99)) );
              ("wall_s", samples (Array.length rep_walls) (spread rep_walls));
              ("heap_peak_mb", samples 1 0.);
            ] );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run: the subset at jobs 1 and at [jobs], plus E2-shaped trial
   attempts replayed from outside through the public World, Reveal,
   Oracle and router entry points. *)

let e2_dim = 16
let e2_alpha = 0.30
let attempts = 24

type trial_layers = {
  mutable create_us : float list;
  mutable reveal_us : float list;
  mutable oracle_us : float list;
  mutable route_us : float list;
  mutable route_words : float;
  mutable oracle_words : float;
  mutable found : int;
  mutable exceeded : int;
  mutable distinct : int;
  mutable raw : int;
}

(* Attempt [i] of an E2-shaped trial, as Trial.run_attempt does it: a
   fresh world from the attempt's seed, unlimited ground-truth
   reveal, and the segment router on a fresh oracle when connected. *)
let trial_pass ~clocked ~seed =
  let l =
    {
      create_us = [];
      reveal_us = [];
      oracle_us = [];
      route_us = [];
      route_words = 0.;
      oracle_words = 0.;
      found = 0;
      exceeded = 0;
      distinct = 0;
      raw = 0;
    }
  in
  let graph = Topology.Hypercube.graph e2_dim in
  let p = float_of_int e2_dim ** -.e2_alpha in
  let source = 0 in
  let target = Topology.Hypercube.antipode ~n:e2_dim source in
  let root = Prng.Stream.create (Int64.of_int seed) in
  for i = 0 to attempts - 1 do
    let stream = Prng.Stream.split root i in
    let world =
      timed ~on:clocked
        (fun () ->
          Experiments.Worldpool.build graph ~p ~seed:(Prng.Stream.seed stream))
        (fun ns _ -> l.create_us <- (ns /. 1e3) :: l.create_us)
    in
    match
      timed ~on:clocked
        (fun () -> Percolation.Reveal.connected world source target)
        (fun ns _ -> l.reveal_us <- (ns /. 1e3) :: l.reveal_us)
    with
    | Percolation.Reveal.Disconnected | Percolation.Reveal.Unknown -> ()
    | Percolation.Reveal.Connected _ ->
        let rt = Routing.Path_follow.hypercube ~n:e2_dim ~source ~target in
        let oracle =
          timed ~on:clocked
            (fun () ->
              Percolation.Oracle.create ~policy:rt.Routing.Router.policy world
                ~source)
            (fun ns w ->
              l.oracle_words <- l.oracle_words +. w;
              l.oracle_us <- (ns /. 1e3) :: l.oracle_us)
        in
        let outcome =
          timed ~on:clocked
            (fun () -> rt.Routing.Router.route oracle ~target)
            (fun ns w ->
              l.route_words <- l.route_words +. w;
              l.route_us <- (ns /. 1e3) :: l.route_us)
        in
        l.distinct <- l.distinct + Routing.Outcome.probes outcome;
        l.raw <- l.raw + Percolation.Oracle.raw_probes oracle;
        (match outcome with
        | Routing.Outcome.Found _ -> l.found <- l.found + 1
        | Routing.Outcome.Budget_exceeded _ -> l.exceeded <- l.exceeded + 1
        | Routing.Outcome.No_path _ -> ())
  done;
  l

let traced ~jobs ~seed =
  let plan = plan () in
  let reference = run_rep ~jobs:1 plan in
  (* The reference runs on cold caches and a young heap: a second jobs-1
     rep is the one compared with the rep at [jobs]. *)
  let seq = List.hd (reps ~jobs:1 ~seconds:0. ~min:1 ~reference plan) in
  let par = List.hd (reps ~jobs ~seconds:0. ~min:1 ~reference plan) in
  let l, overhead, trial_walls =
    trace_overhead (fun ~clocked -> trial_pass ~clocked ~seed)
  in
  let arr = Array.of_list in
  let routes = List.length l.route_us in
  let route_ns = List.fold_left ( +. ) 0. l.route_us *. 1e3 in
  let experiment_metrics =
    List.concat_map
      (fun id ->
        [
          ( Printf.sprintf "experiment.%s.wall_s" id,
            List.assoc id par.experiment_s);
          ( Printf.sprintf "experiment.%s.alloc_mwords" id,
            List.assoc id seq.experiment_words /. 1e6);
        ])
      subset
  in
  {
    Gate.attempted = reference.claims + seq.claims + par.claims;
    failed = 0;
    metrics =
      [
        ("trial.world_create_us", median (arr l.create_us));
        ("trial.reveal_us", median (arr l.reveal_us));
        ("router.calls", float_of_int routes);
        ("router.self_us_p50", quantile (arr l.route_us) 0.5);
        ("router.self_us_p99", quantile (arr l.route_us) 0.99);
        ("router.ns_per_probe", per l.distinct route_ns);
        ("router.found_frac", ratio l.found routes);
        ("router.budget_exceeded_frac", ratio l.exceeded routes);
        ("router.alloc_words", per routes l.route_words);
        ("oracle.create_us", median (arr l.oracle_us));
        ("oracle.create_alloc_words", per routes l.oracle_words);
        ("oracle.distinct_probes_per_route", ratio l.distinct routes);
        ("oracle.raw_per_distinct", ratio l.raw l.distinct);
        ("pool.speedup", seq.wall_s /. par.wall_s);
        ("trace.overhead_frac", overhead);
      ]
      @ experiment_metrics;
    record =
      [
        ("reference_wall_s", Num reference.wall_s);
        ("wall_jobs1_s", Num seq.wall_s);
        ("wall_jobs_s", Num par.wall_s);
        ("trial_attempts", Int attempts);
        ( "trial_pass_walls_s",
          List (List.map (fun x -> Num x) trial_walls) );
        ("metric_samples", Obj [ ("router.self_us", Int routes) ]);
      ];
  }
