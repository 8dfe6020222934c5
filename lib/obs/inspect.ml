(* One loader/reporter for the whole artifact family. Each artifact is
   sniffed by its schema tag, parsed into a small normalized form, and
   validated on the way in — [load] refuses documents that miss
   required fields, so "obs validate" is just a successful load.
   Metrics and telemetry normalize into the same [table] shape, which
   is what lets report/diff/aggregate share one implementation. *)

type table = {
  counters : (string * float) list;  (* name-sorted *)
  hists : (string * Hist.t) list;  (* name-sorted *)
}

type pnode = {
  p_name : string;
  p_count : int;
  p_total_s : float;
  p_self_s : float;
  p_children : pnode list;
}

type artifact =
  | Trace of Trace.Replay.run list
  | Metrics of table
  | Telemetry of {
      beats : int;
      uptime_s : float;
      seq_missing : int;  (* heartbeats lost between consecutive lines *)
      seq_reordered : int;  (* lines whose seq did not advance *)
      table : table;
    }
  | Profile of pnode list
  | Bench of Bench_history.snapshot list  (* oldest first, non-empty *)
  | Ledger of Ledger.record list

type kind = [ `Trace | `Metrics | `Telemetry | `Profile | `Bench | `Ledger ]

let kind = function
  | Trace _ -> `Trace
  | Metrics _ -> `Metrics
  | Telemetry _ -> `Telemetry
  | Profile _ -> `Profile
  | Bench _ -> `Bench
  | Ledger _ -> `Ledger

let kind_name = function
  | `Trace -> "trace/v1"
  | `Metrics -> "metrics/v1"
  | `Telemetry -> "telemetry/v1"
  | `Profile -> "profile/v1"
  | `Bench -> "bench_percolation history"
  | `Ledger -> "runledger/v1"

(* ------------------------------------------------------------------ *)
(* Parsing helpers.                                                    *)

let ( let* ) = Result.bind

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let num_field name j =
  let* v = field name j in
  match Json.to_float v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %S is not a number" name)

let int_field name j =
  let* v = field name j in
  match Json.to_int v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "field %S is not an integer" name)

let opt_num_field name j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match Json.to_float v with
      | Some f -> Ok (Some f)
      | None -> Error (Printf.sprintf "field %S is not a number or null" name))

let obj_fields what = function
  | Json.Obj fields -> Ok fields
  | _ -> Error (Printf.sprintf "%s is not an object" what)

let parse_buckets j =
  let* b = field "buckets" j in
  match Json.to_list b with
  | None -> Error "field \"buckets\" is not a list"
  | Some pairs ->
      let rec loop acc = function
        | [] -> Ok (List.rev acc)
        | Json.List [ lb; c ] :: rest -> (
            match (Json.to_int lb, Json.to_int c) with
            | Some lb, Some c -> loop ((lb, c) :: acc) rest
            | _ -> Error "bucket entries must be [int, int] pairs")
        | _ -> Error "bucket entries must be [int, int] pairs"
      in
      loop [] pairs

let parse_hist ~sum_key ~min_key ~max_key name j =
  let ctx msg = Printf.sprintf "histogram %S: %s" name msg in
  match
    let* count = int_field "count" j in
    let* sum = num_field sum_key j in
    let* min = opt_num_field min_key j in
    let* max = opt_num_field max_key j in
    let* buckets = parse_buckets j in
    Ok
      (Hist.of_sparse ~count ~sum:(Float.to_int sum)
         ?min:(Option.map Float.to_int min) ?max:(Option.map Float.to_int max)
         buckets)
  with
  | Ok h -> Ok h
  | Error m -> Error (ctx m)

let by_name (a, _) (b, _) = String.compare a b

let parse_table ~counters_key ~sum_key ~min_key ~max_key j =
  let* counters_obj = field counters_key j in
  let* counter_fields = obj_fields (Printf.sprintf "%S" counters_key) counters_obj in
  let* counters =
    List.fold_left
      (fun acc (name, v) ->
        let* acc = acc in
        match Json.to_float v with
        | Some f -> Ok ((name, f) :: acc)
        | None -> Error (Printf.sprintf "%s %S is not a number" counters_key name))
      (Ok []) counter_fields
  in
  let* hists_obj = field "histograms" j in
  let* hist_fields = obj_fields "\"histograms\"" hists_obj in
  let* hists =
    List.fold_left
      (fun acc (name, v) ->
        let* acc = acc in
        let* h = parse_hist ~sum_key ~min_key ~max_key name v in
        Ok ((name, h) :: acc))
      (Ok []) hist_fields
  in
  Ok { counters = List.sort by_name counters; hists = List.sort by_name hists }

let parse_metrics j =
  let* t =
    parse_table ~counters_key:"counters" ~sum_key:"sum" ~min_key:"min"
      ~max_key:"max" j
  in
  Ok (Metrics t)

let merge_tables a b =
  let rec merge_assoc combine xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | (ka, va) :: ra, (kb, vb) :: rb ->
        let c = String.compare ka kb in
        if c < 0 then (ka, va) :: merge_assoc combine ra ys
        else if c > 0 then (kb, vb) :: merge_assoc combine xs rb
        else (ka, combine va vb) :: merge_assoc combine ra rb
  in
  {
    counters = merge_assoc ( +. ) a.counters b.counters;
    hists = merge_assoc Hist.merge a.hists b.hists;
  }

let parse_telemetry_line j =
  parse_table ~counters_key:"gauges" ~sum_key:"sum_ns" ~min_key:"min_ns"
    ~max_key:"max_ns" j

(* One heartbeat line, decomposed: the monotonic seq (absent on legacy
   files), uptime, the optional session label, and the gauge/histogram
   table. Shared with [Top], which renders heartbeats one at a time. *)
let parse_heartbeat j =
  let* seq =
    match Json.member "seq" j with
    | None | Some Json.Null -> Ok None
    | Some v -> (
        match Json.to_int v with
        | Some n -> Ok (Some n)
        | None -> Error "field \"seq\" is not an integer")
  in
  let* uptime_s = num_field "uptime_s" j in
  let session = Option.bind (Json.member "session" j) Json.to_str in
  let* table = parse_telemetry_line j in
  Ok (seq, uptime_s, session, table)

let parse_telemetry lines =
  (* Heartbeats are cumulative snapshots of the same registry: the last
     line is the run's final state, earlier ones only add the beat
     count — so "merge" is take-latest, not sum. Consecutive seq values
     must advance by exactly one (the emitter only bumps on emission);
     a jump means lines were lost, a non-advance means reordering. *)
  let rec loop i last prev_seq missing reordered = function
    | [] -> (
        match last with
        | None -> Error "no telemetry lines"
        | Some (uptime_s, table, beats) ->
            Ok
              (Telemetry
                 {
                   beats;
                   uptime_s;
                   seq_missing = missing;
                   seq_reordered = reordered;
                   table;
                 }))
    | line :: rest -> (
        match Json.of_string line with
        | Error m -> Error (Printf.sprintf "line %d: %s" i m)
        | Ok j -> (
            match parse_heartbeat j with
            | Error m -> Error (Printf.sprintf "line %d: %s" i m)
            | Ok (seq, uptime_s, _session, table) ->
                let beats =
                  match last with None -> 1 | Some (_, _, n) -> n + 1
                in
                let prev_seq, missing, reordered =
                  match (prev_seq, seq) with
                  | Some p, Some s when s > p + 1 ->
                      (Some s, missing + (s - p - 1), reordered)
                  | Some p, Some s when s <= p ->
                      (Some s, missing, reordered + 1)
                  | _, Some s -> (Some s, missing, reordered)
                  | _, None -> (prev_seq, missing, reordered)
                in
                loop (i + 1)
                  (Some (uptime_s, table, beats))
                  prev_seq missing reordered rest))
  in
  loop 1 None None 0 0 lines

let rec parse_pnode j =
  let* p_name =
    let* v = field "name" j in
    match Json.to_str v with
    | Some s -> Ok s
    | None -> Error "span \"name\" is not a string"
  in
  match
    let* p_count = int_field "count" j in
    let* p_total_s = num_field "total_s" j in
    let* p_self_s = num_field "self_s" j in
    let* p_children =
      match Json.member "children" j with
      | None -> Ok []
      | Some v -> (
          match Json.to_list v with
          | Some kids -> parse_pnodes kids
          | None -> Error "\"children\" is not a list")
    in
    Ok { p_name; p_count; p_total_s; p_self_s; p_children }
  with
  | Ok n -> Ok n
  | Error m -> Error (Printf.sprintf "span %S: %s" p_name m)

and parse_pnodes js =
  List.fold_left
    (fun acc j ->
      let* acc = acc in
      let* n = parse_pnode j in
      Ok (acc @ [ n ]))
    (Ok []) js

let parse_profile j =
  let* spans = field "spans" j in
  match Json.to_list spans with
  | None -> Error "\"spans\" is not a list"
  | Some js ->
      let* nodes = parse_pnodes js in
      Ok (Profile nodes)

let parse_trace lines =
  let* runs = Trace.Replay.parse lines in
  let verdict = Trace.Replay.check runs in
  if Trace.Replay.ok verdict then Ok (Trace runs)
  else
    Error
      (Printf.sprintf "replay check failed: %d probe mismatches, %d count errors"
         (List.length verdict.Trace.Replay.mismatches)
         (List.length verdict.Trace.Replay.count_errors))

let parse_bench lines =
  let* snapshots = Bench_history.parse_lines lines in
  if snapshots = [] then Error "no bench snapshots" else Ok (Bench snapshots)

let parse_ledger lines =
  (* Loading IS validation for the ledger too: beyond the schema, every
     recorded artifact digest is cross-checked against the file on disk
     so `obs validate` catches tampered or stale artifacts (exit 2). A
     torn final line (crashed writer) is tolerated, like checkpoints. *)
  let* records, _torn = Ledger.parse_lines lines in
  if records = [] then Error "no ledger records"
  else
    match Ledger.verify records with
    | [] -> Ok (Ledger records)
    | errs -> Error (String.concat "; " errs)

(* ------------------------------------------------------------------ *)
(* Loading.                                                            *)

let non_empty_lines content =
  String.split_on_char '\n' content
  |> List.filter (fun l -> String.trim l <> "")

let load path =
  let* content =
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error m -> Error m
  in
  let annotate = Result.map_error (fun m -> Printf.sprintf "%s: %s" path m) in
  annotate
    (match non_empty_lines content with
    | [] -> Error "empty file"
    | first :: _ as lines -> (
        let* doc =
          Result.map_error (fun m -> "line 1: " ^ m) (Json.of_string first)
        in
        match Option.bind (Json.member "schema" doc) Json.to_str with
        | None -> Error "line 1 has no \"schema\" tag"
        | Some "trace/v1" -> parse_trace lines
        | Some "metrics/v1" -> parse_metrics doc
        | Some "profile/v1" -> parse_profile doc
        | Some "telemetry/v1" -> parse_telemetry lines
        | Some "runledger/v1" -> parse_ledger lines
        | Some s when String.length s >= 18
                      && String.sub s 0 18 = "bench_percolation/" ->
            parse_bench lines
        | Some s -> Error (Printf.sprintf "unknown schema %S" s)))

(* ------------------------------------------------------------------ *)
(* Shared formatting.                                                  *)

let is_suffix ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* Latency-style names carry nanoseconds; report them in ms. *)
let scaled name v = if is_suffix ~suffix:"_ns" name then v /. 1e6 else v
let unit_of name = if is_suffix ~suffix:"_ns" name then "ms" else ""

let pp_hist_rows ppf hists =
  if hists <> [] then begin
    let width =
      List.fold_left (fun acc (n, _) -> Stdlib.max acc (String.length n)) 9 hists
    in
    Format.fprintf ppf "  %-*s %10s %10s %10s %10s %10s %5s@." width "histogram"
      "count" "p50" "p95" "p99" "max" "unit";
    List.iter
      (fun (name, h) ->
        let q p =
          match Hist.quantile h p with
          | Some v -> Printf.sprintf "%.3g" (scaled name (float_of_int v))
          | None -> "-"
        in
        let mx =
          if h.Hist.count = 0 then "-"
          else Printf.sprintf "%.3g" (scaled name (float_of_int h.max))
        in
        Format.fprintf ppf "  %-*s %10d %10s %10s %10s %10s %5s@." width name
          h.count (q 0.5) (q 0.95) (q 0.99) mx (unit_of name))
      hists
  end

(* The pool publishes [pool.domain.<slot>.busy_s/.wall_s/.tasks]
   gauges; fold them into one utilization row per domain slot. *)
let utilization_rows counters =
  let slots = Hashtbl.create 8 in
  List.iter
    (fun (name, v) ->
      match String.split_on_char '.' name with
      | [ "pool"; "domain"; slot; leaf ] -> (
          match int_of_string_opt slot with
          | None -> ()
          | Some slot ->
              let row =
                match Hashtbl.find_opt slots slot with
                | Some r -> r
                | None ->
                    let r = (ref 0., ref 0., ref 0.) in
                    Hashtbl.replace slots slot r;
                    r
              in
              let busy, wall, tasks = row in
              (match leaf with
              | "busy_s" -> busy := v
              | "wall_s" -> wall := v
              | "tasks" -> tasks := v
              | _ -> ()))
      | _ -> ())
    counters;
  Hashtbl.fold
    (fun slot (busy, wall, tasks) acc -> (slot, !busy, !wall, !tasks) :: acc)
    slots []
  |> List.sort compare

let pp_utilization ppf counters =
  match utilization_rows counters with
  | [] -> ()
  | rows ->
      Format.fprintf ppf "  pool utilization (slot 0 = caller)@.";
      Format.fprintf ppf "  %6s %12s %12s %14s %10s@." "domain" "busy s"
        "wall s" "utilization %" "tasks";
      List.iter
        (fun (slot, busy, wall, tasks) ->
          let util = if wall > 0. then 100. *. busy /. wall else 0. in
          Format.fprintf ppf "  %6d %12.4f %12.4f %14.1f %10.0f@." slot busy
            wall util tasks)
        rows

let pp_counters ppf label counters =
  if counters <> [] then begin
    let width =
      List.fold_left
        (fun acc (n, _) -> Stdlib.max acc (String.length n))
        (String.length label) counters
    in
    Format.fprintf ppf "  %-*s %14s@." width label "value";
    List.iter
      (fun (name, v) ->
        if Float.is_integer v && Float.abs v < 1e15 then
          Format.fprintf ppf "  %-*s %14.0f@." width name v
        else Format.fprintf ppf "  %-*s %14.4f@." width name v)
      counters
  end

let pp_table ppf ~label t =
  (* An empty or header-only artifact renders an explicit marker, not a
     silently empty table — "nothing was recorded" is a finding. *)
  if t.counters = [] && t.hists = [] then
    Format.fprintf ppf "  (no samples)@."
  else begin
    pp_counters ppf label t.counters;
    pp_utilization ppf t.counters;
    pp_hist_rows ppf t.hists
  end

(* ------------------------------------------------------------------ *)
(* Reports.                                                            *)

let rec pp_pnode ppf depth n =
  Format.fprintf ppf "  %s%-*s %8d %12.2f %12.2f@."
    (String.make (2 * depth) ' ')
    (Stdlib.max 1 (32 - (2 * depth)))
    n.p_name n.p_count (n.p_total_s *. 1e3) (n.p_self_s *. 1e3)
  ;
  List.iter (pp_pnode ppf (depth + 1)) n.p_children

let report ppf = function
  | Metrics t ->
      Format.fprintf ppf "metrics/v1@.";
      pp_table ppf ~label:"counter" t
  | Telemetry { beats; uptime_s; seq_missing; seq_reordered; table } ->
      Format.fprintf ppf "telemetry/v1: %d heartbeat%s, uptime %.3f s@." beats
        (if beats = 1 then "" else "s")
        uptime_s;
      if seq_missing > 0 || seq_reordered > 0 then
        Format.fprintf ppf
          "  WARNING: heartbeat seq gaps — %d missing, %d reordered line(s)@."
          seq_missing seq_reordered;
      pp_table ppf ~label:"gauge" table
  | Profile nodes ->
      Format.fprintf ppf "profile/v1@.";
      Format.fprintf ppf "  %-32s %8s %12s %12s@." "span" "calls" "total ms"
        "self ms";
      List.iter (pp_pnode ppf 0) nodes
  | Trace runs ->
      let v = Trace.Replay.check runs in
      Format.fprintf ppf
        "trace/v1: %d run%s, %d attempts, %d accepted, %d checked, %d \
         unverifiable — replay %s@."
        v.Trace.Replay.runs
        (if v.Trace.Replay.runs = 1 then "" else "s")
        v.Trace.Replay.attempts v.Trace.Replay.accepted v.Trace.Replay.checked
        v.Trace.Replay.unverifiable
        (if Trace.Replay.ok v then "ok" else "FAILED");
      if v.Trace.Replay.qspans > 0 then
        Format.fprintf ppf "  query spans: %d lifecycle event%s, %s@."
          v.Trace.Replay.qspans
          (if v.Trace.Replay.qspans = 1 then "" else "s")
          (if v.Trace.Replay.qspan_errors = [] then
             "ordering and exactly-once tally ok"
           else
             Printf.sprintf "%d violation(s)"
               (List.length v.Trace.Replay.qspan_errors))
  | Ledger records ->
      Format.fprintf ppf "runledger/v1: %d record%s, digests verified@."
        (List.length records)
        (if List.length records = 1 then "" else "s");
      Format.fprintf ppf "  %-12s %-14s %5s %5s %9s %10s@." "subcommand"
        "config" "jobs" "exit" "wall s" "artifacts";
      List.iter
        (fun (r : Ledger.record) ->
          let short =
            if String.length r.Ledger.config_digest > 12 then
              String.sub r.Ledger.config_digest 0 12
            else r.Ledger.config_digest
          in
          Format.fprintf ppf "  %-12s %-14s %5d %5d %9.3f %10d@."
            r.Ledger.subcommand short r.Ledger.jobs r.Ledger.exit_code
            r.Ledger.wall_s
            (List.length r.Ledger.artifacts);
          List.iter
            (fun (a : Ledger.artifact) ->
              Format.fprintf ppf "    %s %s@." a.Ledger.digest a.Ledger.path)
            r.Ledger.artifacts)
        records
  | Bench snapshots ->
      Format.fprintf ppf "bench history: %d snapshot%s@." (List.length snapshots)
        (if List.length snapshots = 1 then "" else "s");
      List.iter
        (fun (s : Bench_history.snapshot) ->
          Format.fprintf ppf "  %-6s %-22s %-12s %d metrics@." s.mode
            (Option.value s.timestamp ~default:"-")
            (Option.value s.commit ~default:"-")
            (List.length s.metrics))
        snapshots;
      let current = List.nth snapshots (List.length snapshots - 1) in
      let earlier = List.filteri (fun i _ -> i < List.length snapshots - 1) snapshots in
      (match Bench_history.trailing_baseline ~mode:current.mode earlier with
      | None -> ()
      | Some baseline -> (
          match Bench_history.regressions ~baseline current with
          | [] ->
              Format.fprintf ppf
                "  no regressions vs trailing %s baseline@." current.mode
          | rs ->
              List.iter
                (fun (r : Bench_history.regression) ->
                  Format.fprintf ppf "  REGRESSION %s: %.0f -> %.0f ns (%.2fx)@."
                    r.key r.baseline_ns r.current_ns r.ratio)
                rs))

(* ------------------------------------------------------------------ *)
(* Aggregation and diff.                                               *)

let aggregate a b =
  match (a, b) with
  | Metrics x, Metrics y -> Ok (Metrics (merge_tables x y))
  | _ ->
      Error
        (Printf.sprintf "cannot aggregate %s with %s (only metrics/v1 merge)"
           (kind_name (kind a)) (kind_name (kind b)))

let diff_tables ppf xa xb =
  let names l = List.map fst l in
  let all =
    List.sort_uniq String.compare (names xa.counters @ names xb.counters)
  in
  let changed = ref 0 in
  List.iter
    (fun name ->
      let va = List.assoc_opt name xa.counters in
      let vb = List.assoc_opt name xb.counters in
      match (va, vb) with
      | Some a, Some b when a = b -> ()
      | _ ->
          incr changed;
          let s = function Some v -> Printf.sprintf "%.4g" v | None -> "-" in
          Format.fprintf ppf "  %-40s %14s -> %-14s@." name (s va) (s vb))
    all;
  let hall = List.sort_uniq String.compare (names xa.hists @ names xb.hists) in
  List.iter
    (fun name ->
      let ca = List.assoc_opt name xa.hists in
      let cb = List.assoc_opt name xb.hists in
      let count = function Some (h : Hist.t) -> h.count | None -> 0 in
      let sum = function Some (h : Hist.t) -> float_of_int h.sum | None -> 0. in
      if count ca <> count cb || sum ca <> sum cb then begin
        incr changed;
        Format.fprintf ppf "  %-40s count %d -> %d, sum %.4g -> %.4g@." name
          (count ca) (count cb) (sum ca) (sum cb)
      end)
    hall;
  if !changed = 0 then Format.fprintf ppf "  identical@."

let rec flatten_pnodes prefix acc nodes =
  List.fold_left
    (fun acc n ->
      let path = if prefix = "" then n.p_name else prefix ^ ";" ^ n.p_name in
      let acc = (path, (n.p_count, n.p_total_s, n.p_self_s)) :: acc in
      flatten_pnodes path acc n.p_children)
    acc nodes

let diff ppf a b =
  match (a, b) with
  | Metrics x, Metrics y ->
      Ok (diff_tables ppf x y)
  | Telemetry x, Telemetry y ->
      Format.fprintf ppf "  uptime %.3f s -> %.3f s@." x.uptime_s y.uptime_s;
      if
        x.seq_missing + x.seq_reordered + y.seq_missing + y.seq_reordered > 0
      then
        Format.fprintf ppf
          "  heartbeat seq anomalies: %d missing/%d reordered -> %d \
           missing/%d reordered@."
          x.seq_missing x.seq_reordered y.seq_missing y.seq_reordered;
      Ok (diff_tables ppf x.table y.table)
  | Profile x, Profile y ->
      let fa = flatten_pnodes "" [] x and fb = flatten_pnodes "" [] y in
      let all =
        List.sort_uniq String.compare (List.map fst fa @ List.map fst fb)
      in
      let changed = ref 0 in
      List.iter
        (fun path ->
          let get l = List.assoc_opt path l in
          let total = function Some (_, t, _) -> t | None -> 0. in
          let ta = total (get fa) and tb = total (get fb) in
          (* Wall clock never repeats exactly; only report meaningful
             movement (>1% and >0.1 ms). *)
          let delta = Float.abs (tb -. ta) in
          if delta > 1e-4 && delta > 0.01 *. Float.max ta tb then begin
            incr changed;
            Format.fprintf ppf "  %-40s total %.2f ms -> %.2f ms@." path
              (ta *. 1e3) (tb *. 1e3)
          end)
        all;
      if !changed = 0 then Format.fprintf ppf "  no significant span movement@.";
      Ok ()
  | Trace x, Trace y ->
      let vx = Trace.Replay.check x and vy = Trace.Replay.check y in
      Format.fprintf ppf
        "  attempts %d -> %d, accepted %d -> %d, checked %d -> %d@."
        vx.Trace.Replay.attempts vy.Trace.Replay.attempts
        vx.Trace.Replay.accepted vy.Trace.Replay.accepted
        vx.Trace.Replay.checked vy.Trace.Replay.checked;
      Ok ()
  | Bench xs, Bench ys ->
      let last l = List.nth l (List.length l - 1) in
      let baseline = last xs and current = last ys in
      (match Bench_history.regressions ~baseline current with
      | [] -> Format.fprintf ppf "  no regressions@."
      | rs ->
          List.iter
            (fun (r : Bench_history.regression) ->
              Format.fprintf ppf "  REGRESSION %s: %.0f -> %.0f ns (%.2fx)@."
                r.key r.baseline_ns r.current_ns r.ratio)
            rs);
      Ok ()
  | a, b ->
      Error
        (Printf.sprintf "cannot diff %s against %s" (kind_name (kind a))
           (kind_name (kind b)))

let folded_of_profile = function
  | Profile nodes ->
      let lines =
        flatten_pnodes "" [] nodes
        |> List.rev_map (fun (path, (_, _, self)) ->
               (path, int_of_float (Float.round (self *. 1e6))))
        |> List.filter (fun (_, us) -> us > 0)
        |> List.map (fun (path, us) -> Printf.sprintf "%s %d" path us)
      in
      Ok lines
  | a -> Error (Printf.sprintf "not a profile/v1 artifact (%s)" (kind_name (kind a)))
