(* perfbench: the repository benchmark. See README.md in this directory
   for the workloads, the metrics and the layer each one tracks.

   main.exe --workload NAME --seed N --seconds S --trace 0|1 --nproc N

   Runs at jobs = N: run.py passes the number of CPUs it may use.

   Prints one run-record line and, last, one result line. Exits 1
   without a result line on any correctness-gate mismatch. *)

open Perfbench

let end_to_end =
  [
    ("setup_s", "s");
    ("qps", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("wall_s", "s");
    ("heap_peak_mb", "MB");
  ]

(* Every per-layer metric, in report order. A workload whose path never
   enters a layer reports that layer's metrics as 0 and lists them
   under [not_on_path] in the run record. *)
let per_layer =
  [
    ("query.parse_ns", "ns");
    ("worldpool.build_s", "s");
    ("worldpool.heap_mb", "MB");
    ("trial.world_create_us", "us");
    ("trial.reveal_us", "us");
    ("router.calls", "count");
    ("router.self_us_p50", "us");
    ("router.self_us_p99", "us");
    ("router.ns_per_probe", "ns");
    ("router.found_frac", "ratio");
    ("router.budget_exceeded_frac", "ratio");
    ("router.alloc_words", "words");
    ("oracle.create_us", "us");
    ("oracle.create_alloc_words", "words");
    ("oracle.distinct_probes_per_route", "probes");
    ("oracle.raw_per_distinct", "ratio");
    ("reveal.calls", "count");
    ("reveal.self_us_p50", "us");
    ("reveal.self_us_p99", "us");
    ("reveal.unknown_frac", "ratio");
    ("reveal.alloc_words", "words");
  ]
  @ List.concat_map
      (fun id ->
        [
          (Printf.sprintf "experiment.%s.wall_s" id, "s");
          (Printf.sprintf "experiment.%s.alloc_mwords" id, "Mwords");
        ])
      Catalog_load.subset
  @ [
      ("service.residual_frac", "ratio");
      ("pool.speedup", "ratio");
      ("trace.overhead_frac", "ratio");
      ("failed_frac", "ratio");
    ]

let workloads = [ "serve-mixed"; "serve-sparse"; "catalog" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-mixed|serve-sparse|catalog --seed N \
     --seconds S --trace 0|1 --nproc N";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  jobs : int;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and nproc = ref None in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_of v); go rest
    | "--seconds" :: v :: rest -> seconds := Some (float_of_int (int_of v)); go rest
    | "--trace" :: v :: rest -> trace := Some (int_of v); go rest
    | "--nproc" :: v :: rest -> nproc := Some (int_of v); go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace, !nproc) with
  | Some w, Some seed, Some seconds, Some t, Some nproc
    when List.mem w workloads && seed >= 0 && seconds > 0. && (t = 0 || t = 1)
         && nproc > 0 ->
      { workload = w; seed; seconds; trace = t = 1; jobs = nproc }
  | _ -> usage ()

let run a =
  match (a.workload, a.trace) with
  | "serve-mixed", false ->
      Serve_load.end_to_end ~jobs:a.jobs ~seconds:a.seconds
        (Serve_load.mixed ~seed:a.seed)
  | "serve-mixed", true ->
      Serve_load.traced ~jobs:a.jobs ~seconds:a.seconds
        (Serve_load.mixed ~seed:a.seed)
  | "serve-sparse", false ->
      Serve_load.end_to_end ~jobs:a.jobs ~seconds:a.seconds
        (Serve_load.sparse ~seed:a.seed)
  | "serve-sparse", true ->
      Serve_load.traced ~jobs:a.jobs ~seconds:a.seconds
        (Serve_load.sparse ~seed:a.seed)
  | _, false -> Catalog_load.end_to_end ~jobs:a.jobs ~seconds:a.seconds
  | _, true -> Catalog_load.traced ~jobs:a.jobs ~seed:a.seed

let () =
  let a = parse_args () in
  let open Measure in
  match
    if not (instruments_off ()) then Gate.fail "an instrument is on";
    let r = run a in
    if not (instruments_off ()) then Gate.fail "an instrument was switched on";
    r
  with
  | exception Gate.Mismatch m ->
      Printf.eprintf "perfbench: %s: correctness gate failed: %s\n" a.workload m;
      exit 1
  | exception e ->
      Printf.eprintf "perfbench: %s: %s\n" a.workload (Printexc.to_string e);
      exit 1
  | r ->
      let failed_frac =
        float_of_int r.Gate.failed /. float_of_int (max 1 r.Gate.attempted)
      in
      let produced = ("failed_frac", failed_frac) :: r.Gate.metrics in
      let wanted = if a.trace then per_layer else end_to_end in
      List.iter
        (fun (name, v) ->
          if not (List.mem_assoc name wanted) then
            failwith ("perfbench: unlisted metric " ^ name);
          if not (Float.is_finite v) then begin
            Printf.eprintf "perfbench: %s: metric %s is not a number\n"
              a.workload name;
            exit 1
          end)
        r.Gate.metrics;
      let value name = List.assoc_opt name produced in
      let missing =
        List.filter_map
          (fun (n, _) -> if value n = None then Some (Str n) else None)
          wanted
      in
      let env name =
        Option.value (Sys.getenv_opt name) ~default:"unknown"
      in
      print_endline
        (to_string
           (Obj
              [
                ( "run_record",
                  Obj
                    ([
                       ("workload", Str a.workload);
                       ("commit", Str (env "PERFBENCH_COMMIT"));
                       ("source_sha256", Str (env "PERFBENCH_SOURCE"));
                       ("nproc", Int a.jobs);
                       ("ocaml", Str Sys.ocaml_version);
                       ("jobs", Int a.jobs);
                       ("seed", Int a.seed);
                       ("seconds", Num a.seconds);
                       ("trace", Bool a.trace);
                       ("failed_frac", Num failed_frac);
                       ("not_on_path", List missing);
                     ]
                    @ r.Gate.record) );
              ]));
      print_endline
        (to_string
           (Obj
              [
                ("correct", Bool true);
                ("attempted", Int r.Gate.attempted);
                ("failed", Int r.Gate.failed);
                ( "metrics",
                  Obj
                    (List.map
                       (fun (name, unit) ->
                         ( name,
                           Obj
                             [
                               ("value", Num (Option.value (value name) ~default:0.));
                               ("unit", Str unit);
                             ] ))
                       wanted) );
              ]))
