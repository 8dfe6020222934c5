(* Tests for the fault-tolerance stack: deterministic fault plans,
   the supervised worker pool, and checkpoint/resume. The load-bearing
   property throughout: recoverable faults must leave every result
   byte-identical to a fault-free run, for every job count. *)

module Plan = Faultsim.Plan
module Supervisor = Engine_par.Supervisor

let with_clean_supervision f =
  Supervisor.reset_global ();
  Fun.protect
    ~finally:(fun () ->
      Supervisor.disarm ();
      Plan.set_ambient None;
      Experiments.Checkpoint.deconfigure ();
      Supervisor.reset_global ())
    f

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)

let test_plan_json_round_trip () =
  let plan =
    Plan.make ~seed:42L
      [
        Plan.Crash_on_chunk 3;
        Plan.Stall_on_chunk 5;
        Plan.Flaky { rate = 0.25; max_failures = 2 };
        Plan.Die_after_chunks 10;
      ]
  in
  match Plan.of_string (Plan.to_string plan) with
  | Error message -> Alcotest.fail message
  | Ok restored ->
      Alcotest.(check bool) "round-trips" true (plan = restored)

let test_plan_spec () =
  (match Plan.of_spec "crash@3,stall@5,flaky:0.02x2,die@25,seed=7" with
  | Error message -> Alcotest.fail message
  | Ok plan ->
      Alcotest.(check int64) "seed" 7L plan.Plan.seed;
      Alcotest.(check int) "faults" 4 (List.length plan.Plan.faults);
      Alcotest.(check (option int)) "die" (Some 25) (Plan.die_after_chunks plan));
  List.iter
    (fun bad ->
      match Plan.of_spec bad with
      | Ok _ -> Alcotest.failf "spec %S should not parse" bad
      | Error _ -> ())
    [ ""; "crash@"; "crash@-1"; "flaky:0.5"; "flaky:2.0x1"; "explode@3" ]

let test_injector_targets () =
  let plan = Plan.make [ Plan.Crash_on_chunk 3; Plan.Stall_on_chunk 5 ] in
  Alcotest.(check bool) "crash on (3,1)" true
    (Plan.injector plan ~chunk:3 ~attempt:1 = Supervisor.Crash);
  Alcotest.(check bool) "retry of 3 passes" true
    (Plan.injector plan ~chunk:3 ~attempt:2 = Supervisor.Pass);
  Alcotest.(check bool) "stall on (5,1)" true
    (Plan.injector plan ~chunk:5 ~attempt:1 = Supervisor.Stall);
  Alcotest.(check bool) "other chunks pass" true
    (Plan.injector plan ~chunk:4 ~attempt:1 = Supervisor.Pass)

let test_flaky_recoverable_bound () =
  (* rate 1.0 fails every attempt up to max_failures — and never the
     one after, so a budget of max_failures + 1 always recovers. *)
  let plan = Plan.make ~seed:9L [ Plan.Flaky { rate = 1.0; max_failures = 2 } ] in
  for chunk = 0 to 20 do
    Alcotest.(check bool) "attempt 1 crashes" true
      (Plan.injector plan ~chunk ~attempt:1 = Supervisor.Crash);
    Alcotest.(check bool) "attempt 2 crashes" true
      (Plan.injector plan ~chunk ~attempt:2 = Supervisor.Crash);
    Alcotest.(check bool) "attempt 3 passes" true
      (Plan.injector plan ~chunk ~attempt:3 = Supervisor.Pass)
  done

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)

let completed_values outcomes =
  Array.map
    (function
      | Supervisor.Completed v -> v
      | Supervisor.Quarantined _ -> Alcotest.fail "unexpected quarantine")
    outcomes

let test_retry_recovers () =
  with_clean_supervision @@ fun () ->
  let plan = Plan.make [ Plan.Crash_on_chunk 2; Plan.Stall_on_chunk 4 ] in
  let inject = Plan.injector plan in
  List.iter
    (fun jobs ->
      Supervisor.reset_global ();
      let reference =
        Engine_par.Pool.collect_prefix ~jobs:1 ~limit:10
          ~until:(fun _ -> false)
          (fun i -> i * i)
      in
      let outcomes, summary =
        Supervisor.collect_prefix ~jobs ~inject ~limit:10
          ~until:(fun _ -> false)
          (fun i -> i * i)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d values identical" jobs)
        reference (completed_values outcomes);
      Alcotest.(check int) "two retries" 2 summary.Supervisor.retries;
      Alcotest.(check (list int)) "nothing quarantined" []
        summary.Supervisor.quarantined;
      Alcotest.(check bool) "recoverable" false (Supervisor.unrecoverable summary))
    [ 1; 4 ]

let test_quarantine_after_budget () =
  with_clean_supervision @@ fun () ->
  let inject ~chunk ~attempt:_ =
    if chunk = 5 then Supervisor.Crash else Supervisor.Pass
  in
  let policy =
    { Supervisor.default_policy with Supervisor.backoff_s = 0.0 }
  in
  let outcomes, summary =
    Supervisor.collect_prefix ~jobs:2 ~policy ~inject ~limit:8
      ~until:(fun _ -> false)
      (fun i -> i)
  in
  (match outcomes.(5) with
  | Supervisor.Quarantined failures ->
      Alcotest.(check int) "one failure per attempt"
        policy.Supervisor.max_attempts (List.length failures);
      List.iteri
        (fun i (f : Supervisor.failure) ->
          Alcotest.(check int) "chunk" 5 f.Supervisor.chunk;
          Alcotest.(check int) "attempt" (i + 1) f.Supervisor.attempt)
        failures
  | Supervisor.Completed _ -> Alcotest.fail "chunk 5 should be quarantined");
  Array.iteri
    (fun i o ->
      if i <> 5 then
        match o with
        | Supervisor.Completed v -> Alcotest.(check int) "value" i v
        | Supervisor.Quarantined _ -> Alcotest.failf "chunk %d quarantined" i)
    outcomes;
  Alcotest.(check (list int)) "quarantined list" [ 5 ]
    summary.Supervisor.quarantined;
  Alcotest.(check bool) "unrecoverable" true (Supervisor.unrecoverable summary);
  Alcotest.(check bool) "global sees it" true
    (Supervisor.unrecoverable (Supervisor.global_summary ()))

let test_deadline_expiry () =
  with_clean_supervision @@ fun () ->
  let policy =
    {
      Supervisor.max_attempts = 2;
      backoff_s = 0.0;
      max_backoff_s = 0.0;
      deadline_s = Some 0.005;
    }
  in
  let work i =
    if i = 3 then begin
      Unix.sleepf 0.02;
      Supervisor.poll ();
      i
    end
    else i
  in
  let outcomes, summary =
    Supervisor.collect_prefix ~jobs:2 ~policy ~limit:6
      ~until:(fun _ -> false)
      work
  in
  (match outcomes.(3) with
  | Supervisor.Quarantined failures ->
      List.iter
        (fun (f : Supervisor.failure) ->
          Alcotest.(check string) "kind" "deadline"
            (Supervisor.kind_string f.Supervisor.kind))
        failures
  | Supervisor.Completed _ -> Alcotest.fail "chunk 3 should miss its deadline");
  Alcotest.(check int) "both attempts failed" 2 summary.Supervisor.retries

let test_faults_json () =
  let summary =
    {
      Supervisor.retries = 2;
      failures =
        [ { Supervisor.chunk = 3; attempt = 1; kind = Supervisor.Injected_crash } ];
      quarantined = [ 7 ];
      failed_units = [ "E9: boom" ];
    }
  in
  let json = Obs.Json.to_string (Supervisor.summary_json summary) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "mentions %s" needle) true
        (let hl = String.length json and nl = String.length needle in
         let rec at i =
           i + nl <= hl && (String.sub json i nl = needle || at (i + 1))
         in
         at 0))
    [ "faults/v1"; "injected_crash"; "\"unrecoverable\": true"; "E9: boom" ]

let test_exit_codes () =
  Alcotest.(check int) "worst empty" 0 (Verdict.Exit_code.worst []);
  Alcotest.(check int) "worst picks faults" 5
    (Verdict.Exit_code.worst
       [ Verdict.Exit_code.drift; Verdict.Exit_code.unrecoverable_faults ]);
  Alcotest.(check int) "codes are distinct" 6
    (List.length
       (List.sort_uniq compare
          Verdict.Exit_code.
            [ ok; error; claim_fail; strict_shortfall; drift; unrecoverable_faults ]))

(* ------------------------------------------------------------------ *)
(* Trial integration: recoverable chaos never changes a result          *)

let cube = Topology.Hypercube.graph 5

let bfs_spec ~p =
  Experiments.Trial.spec ~graph:cube ~p ~source:0 ~target:31
    (fun _rand ~source:_ ~target:_ -> Routing.Local_bfs.router)

let run_trial ?jobs () =
  Experiments.Trial.run ?jobs (Prng.Stream.create 17L) ~trials:6
    (bfs_spec ~p:0.7)

let test_recoverable_plan_byte_identity_qcheck =
  (* Any recoverable plan — targeted crashes and stalls plus flaky noise
     kept under the attempt budget — must leave the result bit-identical
     to the fault-free run, at jobs 1 and 4. *)
  let reference = run_trial ~jobs:1 () in
  let gen =
    QCheck2.Gen.(
      let* crash = int_bound 30 in
      let* stall = int_bound 30 in
      let* rate = float_bound_inclusive 0.9 in
      let* max_failures = int_bound 2 in
      let* seed = int_bound 10_000 in
      return (crash, stall, rate, max_failures, seed))
  in
  QCheck2.Test.make ~count:12
    ~name:"recoverable plan => byte-identical trial result" gen
    (fun (crash, stall, rate, max_failures, seed) ->
      let plan =
        Plan.make ~seed:(Int64.of_int seed)
          [
            Plan.Crash_on_chunk crash;
            Plan.Stall_on_chunk stall;
            Plan.Flaky { rate; max_failures };
          ]
      in
      with_clean_supervision @@ fun () ->
      Plan.set_ambient (Some plan);
      List.for_all
        (fun jobs -> Stdlib.compare reference (run_trial ~jobs ()) = 0)
        [ 1; 4 ])

let test_supervised_only_when_armed () =
  (* Without a plan, a policy or a checkpoint, the engine takes the
     plain pool path and the supervisor records nothing. *)
  with_clean_supervision @@ fun () ->
  let reference = run_trial ~jobs:2 () in
  let summary = Supervisor.global_summary () in
  Alcotest.(check int) "no retries" 0 summary.Supervisor.retries;
  (* And the supervised path with an empty plan changes nothing. *)
  Plan.set_ambient (Some (Plan.make []));
  Alcotest.(check bool) "empty plan identical" true
    (Stdlib.compare reference (run_trial ~jobs:2 ()) = 0)

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume                                                   *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "faultsim_test_%d_%d" (Unix.getpid ()) !counter)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun entry -> remove_tree (Filename.concat path entry))
      (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then remove_tree dir)
    (fun () -> f dir)

let configure_exn ~dir ~resume =
  match Experiments.Checkpoint.configure ~dir ~resume with
  | Ok () -> ()
  | Error message -> Alcotest.fail message

let test_checkpoint_round_trip () =
  with_dir @@ fun dir ->
  with_clean_supervision @@ fun () ->
  configure_exn ~dir ~resume:false;
  let first = run_trial ~jobs:2 () in
  let written = Experiments.Checkpoint.appended () in
  Alcotest.(check bool) "journal grew" true (written > 0);
  Experiments.Checkpoint.deconfigure ();
  (* Resume: every chunk restores, none recomputes, result identical —
     including under a different job count. *)
  configure_exn ~dir ~resume:true;
  let second = run_trial ~jobs:4 () in
  Alcotest.(check bool) "resumed result identical" true
    (Stdlib.compare first second = 0);
  Alcotest.(check int) "nothing recomputed" 0 (Experiments.Checkpoint.appended ());
  Alcotest.(check bool) "chunks restored" true
    (Experiments.Checkpoint.restored () > 0)

let test_checkpoint_key_isolation () =
  (* A different seed must miss the journal, not restore a wrong
     result. *)
  with_dir @@ fun dir ->
  with_clean_supervision @@ fun () ->
  configure_exn ~dir ~resume:false;
  ignore (run_trial ~jobs:1 ());
  Experiments.Checkpoint.deconfigure ();
  configure_exn ~dir ~resume:true;
  let other =
    Experiments.Trial.run ~jobs:1 (Prng.Stream.create 18L) ~trials:6
      (bfs_spec ~p:0.7)
  in
  Alcotest.(check int) "different seed restores nothing" 0
    (Experiments.Checkpoint.restored ());
  Alcotest.(check bool) "recomputed instead" true
    (Experiments.Checkpoint.appended () > 0);
  ignore other

let test_resume_after_torn_line () =
  with_dir @@ fun dir ->
  with_clean_supervision @@ fun () ->
  configure_exn ~dir ~resume:false;
  let reference = run_trial ~jobs:1 () in
  Experiments.Checkpoint.deconfigure ();
  (* Tear the journal mid-line, as a kill -9 during the final append
     would: the loader must shrug and recompute only the torn chunk. *)
  let path = Experiments.Checkpoint.file ~dir in
  let contents = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check bool) "journal long enough to tear" true
    (String.length contents > 30);
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub contents 0 (String.length contents - 17)));
  configure_exn ~dir ~resume:true;
  let resumed = run_trial ~jobs:2 () in
  Alcotest.(check bool) "torn journal still resumes byte-identically" true
    (Stdlib.compare reference resumed = 0);
  Alcotest.(check bool) "some chunks restored" true
    (Experiments.Checkpoint.restored () > 0);
  Alcotest.(check bool) "the torn chunk recomputed" true
    (Experiments.Checkpoint.appended () > 0)

(* ------------------------------------------------------------------ *)
(* Simrun: the generic chunked runner for non-trial workloads          *)

(* One churned gossip run per index — the unit of work E26 puts through
   the runner, so these tests pin the dynamic-fault determinism story
   end to end: pure per-index streams in, byte-identical cells out. *)
let simrun_compute stream index =
  let substream = Prng.Stream.split stream index in
  let world =
    Percolation.World.create cube ~p:1.0
      ~seed:(Prng.Coin.derive (Prng.Stream.seed substream) 1)
  in
  let churn =
    Netsim.Churn.make ~fail:0.2 ~repair:0.4
      ~seed:(Prng.Coin.derive (Prng.Stream.seed substream) 2)
      ()
  in
  let engine = Netsim.Engine.create ~churn world Netsim.Gossip.protocol in
  Netsim.Gossip.start engine ~source:0;
  for _ = 1 to 20 do
    Netsim.Engine.run_round engine
  done;
  let m = Netsim.Engine.metrics engine in
  [|
    float_of_int (Netsim.Gossip.informed_count engine);
    float_of_int (Netsim.Metrics.messages_sent m);
    float_of_int (Netsim.Metrics.churn_blocked m);
  |]

let run_simrun ?jobs () =
  let stream = Prng.Stream.create 23L in
  Experiments.Simrun.run ?jobs ~key:"test-simrun;seed=23" ~count:10
    (simrun_compute stream)

let test_simrun_jobs_identical () =
  with_clean_supervision @@ fun () ->
  let reference = run_simrun ~jobs:1 () in
  Alcotest.(check bool) "cells non-trivial" true
    (Array.exists (fun cell -> cell.(2) > 0.0) reference);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d identical" jobs)
        true
        (Stdlib.compare reference (run_simrun ~jobs ()) = 0))
    [ 2; 4 ]

let test_simrun_crash_plan_identical () =
  (* A recoverable crash@K plan retries the chunk exactly; the churned
     cells must come out bit-identical to the fault-free run. *)
  let reference = with_clean_supervision (fun () -> run_simrun ~jobs:1 ()) in
  with_clean_supervision @@ fun () ->
  Plan.set_ambient
    (Some (Plan.make ~seed:5L [ Plan.Crash_on_chunk 1; Plan.Crash_on_chunk 2 ]));
  let chaotic = run_simrun ~jobs:4 () in
  Alcotest.(check bool) "crash plan byte-identical" true
    (Stdlib.compare reference chaotic = 0);
  let summary = Supervisor.global_summary () in
  Alcotest.(check bool) "the plan actually fired" true
    (summary.Supervisor.retries > 0)

let test_simrun_checkpoint_resume () =
  with_dir @@ fun dir ->
  let reference = with_clean_supervision (fun () -> run_simrun ~jobs:1 ()) in
  with_clean_supervision @@ fun () ->
  configure_exn ~dir ~resume:false;
  let first = run_simrun ~jobs:1 () in
  Alcotest.(check bool) "value chunks journaled" true
    (Experiments.Checkpoint.appended () > 0);
  Experiments.Checkpoint.deconfigure ();
  configure_exn ~dir ~resume:true;
  let resumed = run_simrun ~jobs:4 () in
  Alcotest.(check bool) "resume byte-identical" true
    (Stdlib.compare first resumed = 0);
  Alcotest.(check bool) "and matches the unsupervised run" true
    (Stdlib.compare reference resumed = 0);
  Alcotest.(check int) "nothing recomputed" 0 (Experiments.Checkpoint.appended ());
  Alcotest.(check bool) "cells restored from the journal" true
    (Experiments.Checkpoint.restored () > 0)

(* ------------------------------------------------------------------ *)
(* Quarantine through the one chunk runner                             *)

(* Flaky failures outlast the armed policy's attempt budget, so every
   chunk whose coins fail all its attempts is quarantined. Which chunks
   those are is read off the plan itself. *)
let doomed_plan = Plan.make ~seed:4L [ Plan.Flaky { rate = 0.7; max_failures = 3 } ]

let doomed_policy =
  { Supervisor.default_policy with Supervisor.max_attempts = 2; backoff_s = 0.0 }

let doomed_chunks ~n_chunks =
  List.filter
    (fun chunk ->
      List.for_all
        (fun attempt -> Plan.injector doomed_plan ~chunk ~attempt <> Supervisor.Pass)
        (List.init doomed_policy.Supervisor.max_attempts (fun a -> a + 1)))
    (List.init n_chunks Fun.id)

let with_doomed_chunks ~n_chunks f =
  let lost = doomed_chunks ~n_chunks in
  Alcotest.(check bool) "some chunks lost, not all" true
    (lost <> [] && List.length lost < n_chunks);
  with_clean_supervision @@ fun () ->
  Supervisor.arm doomed_policy;
  Plan.set_ambient (Some doomed_plan);
  let result = f lost in
  Alcotest.(check (list int)) "global summary lists the lost chunks" lost
    (Supervisor.global_summary ()).Supervisor.quarantined;
  result

let test_simrun_quarantine () =
  (* Simrun keeps a quarantined chunk's slots as empty cells. *)
  let reference = with_clean_supervision (fun () -> run_simrun ~jobs:1 ()) in
  with_doomed_chunks ~n_chunks:3 @@ fun lost ->
  let cells = run_simrun ~jobs:2 () in
  Alcotest.(check int) "every slot kept" (Array.length reference) (Array.length cells);
  Array.iteri
    (fun i cell ->
      Alcotest.(check bool)
        (Printf.sprintf "cell %d" i)
        true
        (if List.mem (i / Experiments.Simrun.chunk_size) lost then cell = [||]
         else cell = reference.(i)))
    cells

let test_trial_quarantine () =
  (* Trial drops a quarantined chunk: its attempts count neither as
     worlds nor as acceptances. [trials] is out of reach, so every one
     of the 24 attempts (6 chunks) is drawn. *)
  let connection max_attempts =
    with_clean_supervision (fun () ->
        (Experiments.Trial.run ~jobs:1 (Prng.Stream.create 17L) ~trials:1000
           ~max_attempts (bfs_spec ~p:0.5))
          .Experiments.Trial.connection)
  in
  let reference = connection 24 in
  let accepted_in =
    let c = Experiments.Simrun.chunk_size in
    Array.init 6 (fun chunk ->
        (connection ((chunk + 1) * c)).Stats.Proportion.successes
        - (connection (chunk * c)).Stats.Proportion.successes)
  in
  with_doomed_chunks ~n_chunks:6 @@ fun lost ->
  let result =
    Experiments.Trial.run ~jobs:2 (Prng.Stream.create 17L) ~trials:1000
      ~max_attempts:24 (bfs_spec ~p:0.5)
  in
  Alcotest.(check int) "worlds leave out the lost attempts"
    (24 - (Experiments.Simrun.chunk_size * List.length lost))
    result.Experiments.Trial.connection.Stats.Proportion.trials;
  Alcotest.(check int) "acceptances leave out the lost attempts"
    (List.fold_left (fun acc c -> acc - accepted_in.(c)) reference.successes lost)
    result.connection.successes

(* ------------------------------------------------------------------ *)
(* Atomic_file                                                         *)

let test_atomic_file () =
  with_dir @@ fun dir ->
  let nested = Filename.concat (Filename.concat dir "a") "b" in
  let path = Filename.concat nested "file.txt" in
  Obs.Atomic_file.write ~path ~contents:"one\n";
  Alcotest.(check string) "write creates parents" "one\n"
    (In_channel.with_open_bin path In_channel.input_all);
  Obs.Atomic_file.write ~path ~contents:"two\n";
  Alcotest.(check string) "write replaces" "two\n"
    (In_channel.with_open_bin path In_channel.input_all);
  let log = Filename.concat nested "log.jsonl" in
  Obs.Atomic_file.append_line ~path:log ~line:"{\"a\":1}\n";
  Obs.Atomic_file.append_line ~path:log ~line:"{\"b\":2}\n";
  Alcotest.(check string) "append keeps history" "{\"a\":1}\n{\"b\":2}\n"
    (In_channel.with_open_bin log In_channel.input_all);
  Alcotest.(check bool) "no temp litter" true
    (Array.for_all
       (fun entry -> not (String.length entry > 4 && String.sub entry 0 4 = ".tmp"))
       (Sys.readdir nested))

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "faultsim"
    [
      ( "plan",
        [
          case "json round-trip" test_plan_json_round_trip;
          case "spec syntax" test_plan_spec;
          case "injector targets (chunk, attempt)" test_injector_targets;
          case "flaky bounded by max_failures" test_flaky_recoverable_bound;
        ] );
      ( "supervisor",
        [
          case "retry recovers byte-identically" test_retry_recovers;
          case "quarantine after budget" test_quarantine_after_budget;
          case "deadline expiry" test_deadline_expiry;
          case "faults/v1 json" test_faults_json;
          case "exit codes" test_exit_codes;
        ] );
      ( "trial",
        [
          QCheck_alcotest.to_alcotest test_recoverable_plan_byte_identity_qcheck;
          case "plain path when unarmed" test_supervised_only_when_armed;
          case "quarantined chunk dropped" test_trial_quarantine;
        ] );
      ( "checkpoint",
        [
          case "round-trip" test_checkpoint_round_trip;
          case "key isolation" test_checkpoint_key_isolation;
          case "resume after torn line" test_resume_after_torn_line;
        ] );
      ( "simrun",
        [
          case "jobs identical" test_simrun_jobs_identical;
          case "crash plan identical" test_simrun_crash_plan_identical;
          case "checkpoint resume" test_simrun_checkpoint_resume;
          case "quarantined chunk kept empty" test_simrun_quarantine;
        ] );
      ("atomic_file", [ case "write and append" test_atomic_file ]);
    ]
