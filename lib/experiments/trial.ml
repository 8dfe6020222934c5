type spec = {
  graph : Topology.Graph.t;
  p : float;
  source : int;
  target : int;
  router : Prng.Stream.t -> source:int -> target:int -> Routing.Router.t;
  budget : int option;
  reveal_limit : int option;
  worlds : Worldpool.provider;
}

let spec ?budget ?reveal_limit ?worlds ~graph ~p ~source ~target router =
  let worlds =
    match worlds with Some w -> w | None -> Worldpool.detached graph ~p
  in
  { graph; p; source; target; router; budget; reveal_limit; worlds }

type result = {
  observations : Stats.Censored.t;
  connection : Stats.Proportion.t;
  path_lengths : Stats.Summary.t;
  chemical_distances : Stats.Summary.t;
  failures : int;
  requested : int;
  metrics : Obs.Metrics.snapshot;
}

let shortfall result = result.requested - Stats.Censored.count result.observations

let shortfall_note ~label result =
  let missing = shortfall result in
  if missing = 0 then None
  else
    Some
      (Printf.sprintf
         "%s: %s — only %d of %d requested conditioned trials \
          measured (shortfall %d); treat the statistics as under-sampled."
         label Report.shortfall_marker
         (Stats.Censored.count result.observations)
         result.requested missing)

(* ------------------------------------------------------------------ *)
(* One attempt.

   Everything random about attempt [i] — the percolation world, and any
   random choices the router makes — derives from [Stream.split root i],
   a pure function of the root seed. Attempts are therefore computable
   in any order on any domain with identical results; the seed equals
   [Coin.derive root i], the same world the historical sequential
   runner drew.

   Observability is strictly out-of-band: trace events and metric ticks
   land in ambient per-attempt buffers installed around this function
   (see [observed_attempt]); nothing here reads them back, so enabling
   instrumentation cannot change any computed value. *)

type attempt =
  | Rejected  (** World not connected (or reveal limit hit): resampled. *)
  | Accepted of { distance : int; outcome : Routing.Outcome.t }

let run_attempt spec root_stream index =
  let attempt_stream = Prng.Stream.split root_stream index in
  let seed = Prng.Stream.seed attempt_stream in
  let world = spec.worlds ~seed in
  let traced = Obs.Trace.on () in
  let metered = Obs.Metrics.on () in
  if traced then Obs.Trace.emit (Obs.Trace.Attempt_start { index });
  if metered then Obs.Metrics.tick "trial.attempts";
  let reveal () =
    Percolation.Reveal.connected ?limit:spec.reveal_limit world spec.source
      spec.target
  in
  let verdict =
    if Obs.Timing.on () then Obs.Timing.span "trial.reveal" reveal else reveal ()
  in
  match verdict with
  | Percolation.Reveal.Disconnected ->
      if traced then
        Obs.Trace.emit (Obs.Trace.Reject { reason = Obs.Trace.Disconnected });
      if metered then Obs.Metrics.tick "trial.rejects.disconnected";
      Rejected
  | Percolation.Reveal.Unknown ->
      if traced then
        Obs.Trace.emit (Obs.Trace.Reject { reason = Obs.Trace.Reveal_limit });
      if metered then Obs.Metrics.tick "trial.rejects.reveal_limit";
      Rejected
  | Percolation.Reveal.Connected distance ->
      let router =
        spec.router attempt_stream ~source:spec.source ~target:spec.target
      in
      let outcome =
        Routing.Router.run ?budget:spec.budget router world ~source:spec.source
          ~target:spec.target
      in
      if traced then
        Obs.Trace.emit
          (Obs.Trace.Accept { distance; probes = Routing.Outcome.probes outcome });
      if metered then begin
        Obs.Metrics.tick "trial.accepts";
        Obs.Metrics.record "trial.probes" (Routing.Outcome.probes outcome);
        Obs.Metrics.record "trial.chemical_distance" distance;
        Obs.Metrics.tick
          (match outcome with
          | Routing.Outcome.Found _ -> "trial.outcome.found"
          | Routing.Outcome.No_path _ -> "trial.outcome.no_path"
          | Routing.Outcome.Budget_exceeded _ -> "trial.outcome.budget_exceeded")
      end;
      Accepted { distance; outcome }

(* A cell is an attempt plus whatever it emitted. When instrumentation
   is off both extras are the shared constants [None] / [Metrics.empty]
   and the wrapper costs two atomic reads per attempt. *)
type cell = {
  attempt : attempt;
  trace : Obs.Trace.record option;
  metrics : Obs.Metrics.snapshot;
}

let observed_attempt spec root_stream index =
  let traced = Obs.Trace.on () in
  let metered = Obs.Metrics.on () in
  if not (traced || metered) then
    { attempt = run_attempt spec root_stream index; trace = None; metrics = Obs.Metrics.empty }
  else begin
    let with_metrics () =
      if metered then begin
        let registry = Obs.Metrics.create () in
        let attempt =
          Obs.Metrics.with_ambient registry (fun () -> run_attempt spec root_stream index)
        in
        (attempt, Obs.Metrics.snapshot registry)
      end
      else (run_attempt spec root_stream index, Obs.Metrics.empty)
    in
    if traced then begin
      let (attempt, metrics), record = Obs.Trace.capture ~index with_metrics in
      { attempt; trace = Some record; metrics }
    end
    else begin
      let attempt, metrics = with_metrics () in
      { attempt; trace = None; metrics }
    end
  end

(* ------------------------------------------------------------------ *)
(* Per-domain accumulators.

   Each worker folds the attempts of its chunk into a local [acc];
   the caller merges chunk accumulators in chunk-index order, so the
   merged value never depends on which domain computed what. Metric
   snapshots ride the same fold: integer-only merges are commutative
   anyway, but keeping them on the accumulator path means the merged
   snapshot follows the exact chunk discipline of the statistics. *)

type acc = {
  observations : Stats.Censored.t;
  path_lengths : Stats.Summary.t;
  chemical : Stats.Summary.t;
  accepted : int;
  failures : int;
  metrics : Obs.Metrics.snapshot;
}

let acc_empty =
  {
    observations = Stats.Censored.empty;
    path_lengths = Stats.Summary.empty;
    chemical = Stats.Summary.empty;
    accepted = 0;
    failures = 0;
    metrics = Obs.Metrics.empty;
  }

let acc_add acc (cell : cell) =
  let acc = { acc with metrics = Obs.Metrics.merge acc.metrics cell.metrics } in
  match cell.attempt with
  | Rejected -> acc
  | Accepted { distance; outcome } ->
      let observations =
        Stats.Censored.add acc.observations (Routing.Outcome.to_observation outcome)
      in
      let chemical = Stats.Summary.add acc.chemical (float_of_int distance) in
      let path_lengths, failures =
        match outcome with
        | Routing.Outcome.Found { path; _ } ->
            ( Stats.Summary.add acc.path_lengths
                (float_of_int (List.length path - 1)),
              acc.failures )
        | Routing.Outcome.No_path _ -> (acc.path_lengths, acc.failures + 1)
        | Routing.Outcome.Budget_exceeded _ -> (acc.path_lengths, acc.failures)
      in
      { acc with observations; path_lengths; chemical; accepted = acc.accepted + 1; failures }

let acc_merge a b =
  {
    observations = Stats.Censored.merge a.observations b.observations;
    path_lengths = Stats.Summary.merge a.path_lengths b.path_lengths;
    chemical = Stats.Summary.merge a.chemical b.chemical;
    accepted = a.accepted + b.accepted;
    failures = a.failures + b.failures;
    metrics = Obs.Metrics.merge a.metrics b.metrics;
  }

(* ------------------------------------------------------------------ *)
(* The engine.

   The attempt index space 1..max_attempts runs through the one chunk
   runner, [Simrun.chunks], in fixed chunks of [Simrun.chunk_size] — a
   constant, never a function of the job count, so the
   accumulator-merge tree is identical however many domains run.
   Chunks are dispensed dynamically; once enough acceptances exist in
   the completed prefix the pool stops dispensing, and a final ordered
   scan truncates at the exact attempt of the [trials]-th acceptance,
   replaying the boundary chunk attempt by attempt. A quarantined
   chunk is dropped: its attempts count neither as worlds nor as
   acceptances.

   Tracing rides the same machinery: each attempt's events are captured
   into its cell on whatever domain computed it, and the final ordered
   scan — plain sequential code on the caller's domain — concatenates
   exactly the used attempts' records into one [trace/v1] run, written
   to the sink in a single call. The trace bytes therefore cannot
   depend on the job count, and runs from concurrent Trial calls cannot
   interleave. *)

type chunk = { cells : cell array; acc : acc }

let policy_string = function
  | Percolation.Oracle.Local -> "local"
  | Percolation.Oracle.Unrestricted -> "unrestricted"

let trace_header spec stream ~trials ~max_attempts =
  (* Split 0 is reserved: attempts use 1..max_attempts, so building a
     throwaway router here cannot correlate with any attempt's coins. *)
  let router =
    spec.router (Prng.Stream.split stream 0) ~source:spec.source ~target:spec.target
  in
  Obs.Trace.header_line
    [
      ("graph", Obs.Json.String spec.graph.Topology.Graph.name);
      ("p", Obs.Json.Float spec.p);
      ("source", Obs.Json.Int spec.source);
      ("target", Obs.Json.Int spec.target);
      ("router", Obs.Json.String router.Routing.Router.name);
      ("policy", Obs.Json.String (policy_string router.Routing.Router.policy));
      ( "budget",
        match spec.budget with Some b -> Obs.Json.Int b | None -> Obs.Json.Null );
      ( "reveal_limit",
        match spec.reveal_limit with
        | Some l -> Obs.Json.Int l
        | None -> Obs.Json.Null );
      ("trials", Obs.Json.Int trials);
      ("max_attempts", Obs.Json.Int max_attempts);
    ]

(* ------------------------------------------------------------------ *)
(* Supervision and checkpointing.

   Both are ambient process state installed by the CLI: a run takes the
   plain [Pool] path — and its exact cost profile — unless a supervisor
   policy is armed, a fault plan is installed, or a checkpoint is
   configured. The supervised path wraps every chunk in the retry loop
   of [Engine_par.Supervisor]; because [work] is a pure function of
   [(spec, root seed, chunk)], a retried chunk recomputes the identical
   value and the merged report stays byte-identical to a fault-free run
   whenever every chunk eventually succeeds. A quarantined chunk is
   dropped from the ordered merge: its attempts never happened as far
   as the statistics are concerned, and the CLI surfaces the loss via
   the faults summary and exit code. *)

let checkpoint_key spec stream ~trials ~max_attempts =
  (* Everything a chunk's cells depend on — and nothing they don't (the
     job count shapes scheduling, never results, so resuming under a
     different [--jobs] must hit). The probe router from reserved
     split 0 names the router family, as in the trace header. *)
  let router =
    spec.router (Prng.Stream.split stream 0) ~source:spec.source
      ~target:spec.target
  in
  let opt = function Some v -> string_of_int v | None -> "none" in
  Checkpoint.digest_key
    (Printf.sprintf
       "graph=%s;p=%.17g;source=%d;target=%d;router=%s;policy=%s;budget=%s;reveal_limit=%s;seed=%Ld;trials=%d;max_attempts=%d;chunk=%d"
       spec.graph.Topology.Graph.name spec.p spec.source spec.target
       router.Routing.Router.name
       (policy_string router.Routing.Router.policy)
       (opt spec.budget) (opt spec.reveal_limit)
       (Prng.Stream.seed stream) trials max_attempts Simrun.chunk_size)

let cell_to_checkpoint (cell : cell) =
  match cell.attempt with
  | Rejected -> Checkpoint.Rejected
  | Accepted { distance; outcome } -> Checkpoint.Accepted { distance; outcome }

let cell_of_checkpoint = function
  | Checkpoint.Rejected ->
      { attempt = Rejected; trace = None; metrics = Obs.Metrics.empty }
  | Checkpoint.Accepted { distance; outcome } ->
      {
        attempt = Accepted { distance; outcome };
        trace = None;
        metrics = Obs.Metrics.empty;
      }

let run ?jobs stream ~trials ?max_attempts spec =
  if trials <= 0 then invalid_arg "Trial.run: trials must be positive";
  let max_attempts = Option.value max_attempts ~default:(100 * trials) in
  let accepted_so_far = Atomic.make 0 in
  let chunks, fault_summary =
    Simrun.chunks ?jobs ~count:max_attempts
      ~key:(lazy (checkpoint_key spec stream ~trials ~max_attempts))
      ~lookup:(fun ~key ~chunk ->
        Option.map (Array.map cell_of_checkpoint) (Checkpoint.lookup ~key ~chunk))
      ~store:(fun ~key ~chunk cells ->
        Checkpoint.store ~key ~chunk (Array.map cell_to_checkpoint cells))
      ~pack:(fun cells -> { cells; acc = Array.fold_left acc_add acc_empty cells })
      ~until:(fun chunk ->
        Atomic.fetch_and_add accepted_so_far chunk.acc.accepted + chunk.acc.accepted
        >= trials)
      (* Attempts are numbered from 1: split 0 is reserved. *)
      (fun i -> observed_attempt spec stream (i + 1))
  in
  (* Ordered truncation: merge whole chunks while they cannot contain
     the [trials]-th acceptance, then replay the boundary chunk. *)
  let tracing = Obs.Trace.on () in
  let traces = ref [] in
  let push_trace cell =
    match cell.trace with Some r -> traces := r :: !traces | None -> ()
  in
  let final = ref acc_empty in
  let attempts_used = ref 0 in
  (try
     Array.iter
       (function
         | None -> ()
         | Some chunk when !final.accepted + chunk.acc.accepted < trials ->
             final := acc_merge !final chunk.acc;
             attempts_used := !attempts_used + Array.length chunk.cells;
             if tracing then Array.iter push_trace chunk.cells
         | Some chunk ->
             Array.iter
               (fun cell ->
                 final := acc_add !final cell;
                 incr attempts_used;
                 if tracing then push_trace cell;
                 if !final.accepted >= trials then raise Exit)
               chunk.cells)
       chunks
   with Exit -> ());
  let final = !final in
  if tracing then begin
    let buffer = Buffer.create 4096 in
    Buffer.add_string buffer (trace_header spec stream ~trials ~max_attempts);
    List.iter
      (fun record ->
        List.iter (Buffer.add_string buffer) (Obs.Trace.record_lines record))
      (List.rev !traces);
    (* Supervision events ride the trace as run-level lines: sorted by
       (chunk, attempt), so their bytes are schedule-independent too. *)
    (match fault_summary with
    | Some (s : Engine_par.Supervisor.summary) ->
        List.iter
          (fun (f : Engine_par.Supervisor.failure) ->
            Buffer.add_string buffer
              (Obs.Trace.fault_line ~chunk:f.chunk ~attempt:f.attempt
                 ~kind:(Engine_par.Supervisor.kind_string f.kind)))
          s.failures
    | None -> ());
    Buffer.add_string buffer
      (Obs.Trace.end_line ~attempts:!attempts_used ~accepted:final.accepted);
    Obs.Trace.write_line (Buffer.contents buffer)
  end;
  if Obs.Metrics.on () then Obs.Metrics.absorb final.metrics;
  {
    observations = final.observations;
    connection =
      Stats.Proportion.make ~successes:final.accepted ~trials:!attempts_used;
    path_lengths = final.path_lengths;
    chemical_distances = final.chemical;
    failures = final.failures;
    requested = trials;
    metrics = final.metrics;
  }

let median_observation (result : result) = Stats.Censored.median result.observations

let mean_probes_lower_bound (result : result) =
  Stats.Censored.mean_lower_bound result.observations
